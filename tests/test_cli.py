import contextlib
import errno
import io
import json
import os
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcool.cli as cli
from fixture_sets import STRESS_SETS
from oracles import swap_rows
from qcool import (Counterexample, OptimalityReport, circuit_permutation, lim_comp,
                   parse_text)


#: A register size far past the size cap, and past a C index.
HUGE = "99999999999999999999"
SIZE_CAP_ERR = f"error: register of {HUGE} qubits exceeds the size cap 26\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOptswaps:
    def test_three_qubit_verified(self, capsys):
        code, out, _ = run(capsys, "optswaps", "--biases", "0.2,0.2,0.2", "--verify")
        assert code == 0
        assert "3 <-> 4" in out and "|011> <-> |100>" in out
        assert "case1=pass" in out and "case2=pass" in out
        gain = float(next(ln for ln in out.splitlines() if ln.startswith("gain:")).split()[1])
        assert gain == pytest.approx(0.096, abs=1e-12)

    def test_json_verify_object(self, capsys, monkeypatch):
        # The report's fields in declaration order, counterexamples included;
        # a product register never has any, so the check's result is injected.
        report = OptimalityReport(1, False, True, None, (Counterexample(1, 3, 5, 0.25),
                                                         Counterexample(2, 3, 3, 5e-324)))
        monkeypatch.setattr(cli, "verify_optimality", lambda dist: report)
        code, out, _ = run(capsys, "optswaps", "--n", "3", "--epsilon", "0.2",
                           "--format", "json", "--verify")
        assert code == 0
        assert out.endswith(
            '  "target_bias_after": 0.29599999999999993,\n'
            '  "verify": {\n'
            '    "swaps_performed": 1,\n'
            '    "case1_passed": false,\n'
            '    "case2_passed": true,\n'
            '    "case3_passed": null,\n'
            '    "counterexamples": [\n'
            '      {\n        "case": 1,\n        "k": 3,\n        "l": 5,\n'
            '        "excess": 0.25\n      },\n'
            '      {\n        "case": 2,\n        "k": 3,\n        "l": 3,\n'
            '        "excess": 4.9406564584124654e-324\n      }\n'
            '    ]\n  }\n}\n')

    def test_pure_target_empty(self, capsys):
        code, out, _ = run(capsys, "optswaps", "--biases", "1.0,0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["swaps"] == [] and payload["gain"] == 0.0

    def test_equal_shorthand_five_qubits(self, capsys):
        code, out, _ = run(capsys, "optswaps", "--n", "5", "--epsilon", "0.1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 5
        assert [s["zero_t"] for s in payload["swaps"]] == [7, 11, 13, 14, 15]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "optswaps", "--biases", "0.2,0.2,0.2",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["zero_t,one_t,ket_zero_t,ket_one_t", "3,4,011,100"]

    def test_json_floats_round_trip(self, capsys):
        code, out, _ = run(capsys, "optswaps", "--biases", "0.1,0.3,0.7",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["target_bias_after"] == pytest.approx(
            payload["target_bias_before"] + payload["gain"], abs=1e-16)

    def test_calls_the_public_selection_and_gain(self, capsys, monkeypatch):
        calls = []
        for name in ("find_optswaps", "bias_gain"):
            def spy(*args, _name=name, _real=getattr(cli, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(cli, name, spy)
        code, out, _ = run(capsys, "optswaps", "--n", "5", "--epsilon", "0.1")
        assert code == 0 and "swaps: 5" in out
        assert sorted(calls) == ["bias_gain", "find_optswaps"]

    def test_csv_scans_the_register(self, capsys, monkeypatch):
        # CSV prints only the swap set: no vector, gain or marginal.
        calls = []
        for name in ("probamps", "bias_gain", "marginal_bias", "find_optswaps"):
            def spy(*args, _name=name, _real=getattr(cli, name)):
                calls.append((_name, type(args[0]).__name__))
                return _real(*args)
            monkeypatch.setattr(cli, name, spy)
        code, out, _ = run(capsys, "optswaps", "--n", "5", "--epsilon", "0.1",
                           "--format", "csv")
        assert code == 0 and out.splitlines()[1] == "7,24,00111,11000"
        assert calls == [("find_optswaps", "RegisterBiases")]

    @pytest.mark.parametrize("biases", ["0.2,0.2,0.2", "1.0,0.5"], ids=["swaps", "none"])
    def test_csv_verify_reports_on_stderr(self, capsys, biases):
        argv = ["optswaps", "--biases", biases, "--format", "csv"]
        code, plain, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = run(capsys, *argv, "--verify")
        assert code == 0 and out == plain
        text = run(capsys, *argv[:3], "--verify")[1]
        assert err.splitlines() == [ln for ln in text.splitlines()
                                    if ln.startswith("optimality: ")]

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        # numpy names the allocation; a bare MemoryError, as from a huge 1 << m, names nothing
        for exc, reason in [(MemoryError("Unable to allocate 128. MiB"),
                             "Unable to allocate 128. MiB"),
                            (MemoryError(), "an allocation failed")]:
            def fail(register, exc=exc):
                raise exc
            monkeypatch.setattr(cli, "probamps", fail)
            code, out, err = run(capsys, "optswaps", "--n", "24", "--epsilon", "0.01")
            assert code == 3 and out == ""
            assert err == f"error: out of memory: {reason}\n"


@st.composite
def swap_subsets(draw):
    """(n, sorted swap indices in [0, 2^(n-1))): empty, {0}, the full half or random.

    Up to n = 12 "full" is the whole half.  Past n = 12 the kets span up to
    four bytes, with no digit dropped at n = 16 and 24; there "full" is the
    top 64 indices and "random" at most 64 of them.
    """
    n = draw(st.integers(1, 25))
    half = 2 ** (n - 1)
    kind = draw(st.sampled_from(["empty", "zero", "full", "random"]))
    if kind == "empty":
        return n, []
    if kind == "zero":
        return n, [0]
    if kind == "full":
        return n, list(range(half)) if n <= 12 else list(range(half - 64, half))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if n > 12:
        return n, np.unique(rng.integers(0, half, size=draw(st.integers(1, 64)))).tolist()
    return n, np.flatnonzero(rng.random(half) < draw(st.floats(0.0, 1.0))).tolist()


class TestSwapRenderer:
    SEPARATORS = {"text": "\n", "csv": "\n", "json": ",\n"}

    @given(swap_subsets(), st.one_of(st.integers(1, 70), st.just(1 << 16)))
    @example((16, [0, 1, 255, 256, 32767]), 1 << 16)  # two whole bytes
    @example((24, [0, 255, 65535, 65536, 2 ** 23 - 1]), 2)  # three whole bytes
    @example((25, [1, 2 ** 16, 2 ** 23, 2 ** 24 - 1]), 1 << 16)  # four bytes, 7 digits dropped
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_rows(self, subset, chunk):
        n, swaps = subset
        idx = np.array(swaps, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns: no function fixture
            mp.setattr(cli, "ROW_CHUNK", chunk)
            for fmt, sep in self.SEPARATORS.items():
                assert ("".join(cli.render_swaps(idx, n, fmt))
                        == sep.join(swap_rows(swaps, n, fmt)))

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    @pytest.mark.parametrize("swaps", [
        [],
        list(range(9990, 10010)),  # j crosses 9999 -> 10000
        list(range(31060, 31080)),  # 2^17 - 1 - j crosses 100000 -> 99999 at 31072
        [9999, 10000, 31071, 31072, 65535],
    ], ids=["empty", "j", "complement", "both"])
    def test_width_boundaries(self, monkeypatch, swaps, chunk):
        # chunk 7 splits the 10-row runs on either side of each boundary
        monkeypatch.setattr(cli, "ROW_CHUNK", chunk)
        idx = np.array(swaps, dtype=np.int64)
        for fmt, sep in self.SEPARATORS.items():
            got = list(cli.render_swaps(idx, 17, fmt))
            assert "".join(got) == sep.join(swap_rows(swaps, 17, fmt))
            if fmt == "csv":  # streamed: no piece holds more than chunk rows
                assert all(piece.count("\n") <= chunk for piece in got)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("biases", [
        "0.1,0.1", ",".join(map(str, STRESS_SETS[9][0]))], ids=["empty", "n9"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, fmt, biases):
        argv = ["optswaps", "--biases", biases, "--format", fmt, "--verify"]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "out"
        code, nothing, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and nothing == ""
        assert path.read_bytes() == stdout.encode()


    def test_streamed_peak_memory(self, tmp_path):
        # The swap indices, one block pair and one chunk of rows: less than
        # the 8 MiB vector, and none of the 9.5 MB output.
        path = tmp_path / "out.csv"
        argv = ["optswaps", "--n", "20", "--epsilon", "0.01", "--format", "csv",
                "--out", str(path)]
        assert cli.main(argv[:2] + ["3"] + argv[3:]) == 0  # warm up
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert path.stat().st_size > (8 << 20)
        assert peak <= 8 << 20


class TestOutPath:
    """An --out path that cannot be written exits 2 before any computation."""

    @pytest.mark.parametrize("argv", [
        ("optswaps", "--n", "3", "--epsilon", "0.1"),
        ("limits", "--n", "3", "--epsilon", "0.1"),
    ])
    @pytest.mark.parametrize("kind", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, kind):
        path = tmp_path / "no" / "x" if kind == "missing_dir" else tmp_path
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --out {str(path)!r}: ")
        assert "Traceback" not in err

    def test_checked_before_the_size_cap(self, capsys, tmp_path):
        code, _, err = run(capsys, "optswaps", "--n", "27", "--epsilon", "0.1",
                           "--out", str(tmp_path / "no" / "x"))
        assert code == 2 and "cannot write --out" in err

    def test_empty_path_exits_2_and_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # realpath("") is the working directory: no temp file may land in its parent
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run(capsys, "circuit", "--lim", "3", "--out", "")
        assert code == 2 and out == ""
        assert err == "error: cannot write --out '': empty path\n"
        assert os.listdir(work) == [] and os.listdir(tmp_path) == ["work"]


class TestParserReuse:
    """One parser serves every call of main; no state carries over."""

    def test_verify_does_not_leak(self, capsys):
        argv = ["optswaps", "--n", "4", "--epsilon", "0.1", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--verify")
        assert code == 0 and "verify" in json.loads(out)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "verify" not in json.loads(out)

    def test_usage_error_after_success(self, capsys):
        assert run(capsys, "bounds", "--n", "5", "--epsilon", "0.1")[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--n", "5"])
        assert exc.value.code == 2
        assert "--epsilon" in capsys.readouterr().err
        code, out, err = run(capsys, "optswaps", "--n", "5")
        assert code == 2 and out == "" and err.startswith("error: ")


class TestOutFile:
    """--out replaces its target only when the command succeeds."""

    @pytest.mark.parametrize("argv, want", [
        (("limits", "--n", "10", "--epsilon", "0.1"), 2),
        (("cool", "--n", "5", "--epsilon", "1e-5", "--iteration-cap", "653"), 4),
    ])
    def test_failed_command_keeps_the_old_file(self, capsys, tmp_path, argv, want):
        path = tmp_path / "f.json"
        path.write_text("keep")
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == want and out == "" and err.startswith("error: ")
        assert path.read_text() == "keep"
        assert os.listdir(tmp_path) == ["f.json"]

    def test_success_replaces_the_old_file_with_stdout(self, capsys, tmp_path):
        argv = ("limits", "--n", "5", "--epsilon", "0.1", "--format", "csv")
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "f.csv"
        path.write_text("keep, and longer than the new content " * 100)
        path.chmod(0o600)
        code, nothing, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and nothing == ""
        assert path.read_bytes() == stdout.encode()
        assert path.stat().st_mode & 0o777 == 0o600
        assert os.listdir(tmp_path) == ["f.csv"]

    def test_new_file_mode_is_that_of_open(self, capsys, tmp_path):
        with open(tmp_path / "reference", "w"):
            pass
        path = tmp_path / "new.nbmc"
        assert run(capsys, "circuit", "--lim", "3", "--out", str(path))[0] == 0
        assert path.stat().st_mode == (tmp_path / "reference").stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["new.nbmc", "reference"]

    def test_symlink_target_is_written_through(self, capsys, tmp_path):
        stdout = run(capsys, "circuit", "--lim", "3")[1]
        real = tmp_path / "real.txt"
        real.write_text("keep")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        assert run(capsys, "circuit", "--lim", "3", "--out", str(link))[0] == 0
        assert link.is_symlink() and real.read_text() == stdout
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]

    @pytest.mark.parametrize("stream, fd", [("stdout", 1), ("stderr", 2)])
    def test_redirected_std_stream_keeps_the_shell_output(self, tmp_path, stream, fd):
        # The file the shell redirected the stream to is written at the
        # stream's offset, not replaced: the lines around the command stay.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "qcool.cli", "circuit", "--lim", "3"]
        want = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
        cmd = shlex.join(argv + ["--out", f"/dev/{stream}"])
        script = f"{{ echo head >&{fd}; {cmd}; echo tail >&{fd}; }} {fd}> f"
        proc = subprocess.run(script, shell=True, cwd=tmp_path, env=env,
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "f").read_bytes() == b"head\n" + want + b"tail\n"
        assert os.listdir(tmp_path) == ["f"]

    @pytest.mark.parametrize("prefix", ["/dev/fd", "/proc/self/fd"])
    def test_fd_path_keeps_the_shell_output(self, tmp_path, prefix):
        # /dev/fd/3 resolves to the regular file f; it is written through
        # descriptor 3, not replaced, so the lines around the command stay.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "qcool.cli", "circuit", "--lim", "2"]
        want = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
        cmd = shlex.join(argv + ["--out", f"{prefix}/3"])
        script = f"{{ echo head >&3; {cmd}; echo tail >&3; }} 3> f"
        proc = subprocess.run(script, shell=True, cwd=tmp_path, env=env,
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "f").read_bytes() == b"head\n" + want + b"tail\n"
        assert os.listdir(tmp_path) == ["f"]

    def test_inherited_pipe_targets(self):
        # /dev/stdout and /dev/fd/N name a pipe through a link that
        # resolves to no path; the pipe is written directly.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "qcool.cli", "circuit", "--lim", "3"]
        want = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
        proc = subprocess.run(argv + ["--out", "/dev/stdout"], capture_output=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == want
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            try:
                proc = subprocess.run(argv + ["--out", f"/dev/fd/{w}"], pass_fds=(w,),
                                      capture_output=True, env=env, timeout=60)
            finally:
                os.close(w)
            got = reader.read()
        assert proc.returncode == 0 and proc.stderr == b"" and proc.stdout == b""
        assert got == want

    def test_pipe_target_is_written_directly(self, capsys, tmp_path):
        stdout = run(capsys, "circuit", "--lim", "3")[1]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run(capsys, "circuit", "--lim", "3", "--out", str(fifo))[0] == 0
        reader.join(timeout=10)
        assert not reader.is_alive() and got == [stdout]
        assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["fifo"]


class _FullSink:
    """An --out writer on a disk with room for *room* writes; each later one fails with ENOSPC."""

    def __init__(self, sink, room=0):
        self.sink, self.room = sink, room

    def write(self, text):
        if self.room <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return self.sink.write(text)

    def close(self):
        self.sink.close()


def child_env(unbuffered=None):
    """The environment of a ``python -m qcool.cli`` child.

    A bool *unbuffered* sets or clears PYTHONUNBUFFERED, whatever the caller's
    environment holds: without it, a redirected stdout is block-buffered and a
    redirected stderr line-buffered.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def shell(argv, redirect, unbuffered=None, **kw):
    """``python -m qcool.cli`` run by the shell with *redirect* appended.

    The shell execs the child, so that the timeout kills the child itself.
    """
    env = child_env(unbuffered)
    cmd = shlex.join([sys.executable, "-m", "qcool.cli", *argv])
    return subprocess.run(f"exec {cmd} {redirect}", shell=True, env=env, stdout=subprocess.PIPE,
                          timeout=60, **kw)


class TestOutputWriteErrors:
    """Output that cannot be written exits 3 with one line and no traceback."""

    def test_full_disk_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        open_out = cli._open_out

        def full_disk(path):
            sink, temp, target = open_out(path)
            return _FullSink(sink), temp, target

        monkeypatch.setattr(cli, "_open_out", full_disk)
        path = tmp_path / "f.nbmc"
        path.write_text("keep")
        code, out, err = run(capsys, "circuit", "--lim", "3", "--out", str(path))
        assert code == 3 and out == ""
        assert err == "error: cannot write output: No space left on device\n"
        assert path.read_text() == "keep"
        assert os.listdir(tmp_path) == ["f.nbmc"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv, redirect", [
        (("bounds", "--n", "8", "--epsilon", "0.1"), True),
        (("bounds", "--n", "8", "--epsilon", "0.1", "--out", "/dev/full"), False),
        (("optswaps", "--n", "16", "--epsilon", "0.01", "--format", "csv"), True),
        (("optswaps", "--n", "16", "--epsilon", "0.01", "--out", "/dev/full"), False),
    ])
    def test_full_device(self, argv, redirect, unbuffered):
        # Buffered stdout fails only at its flush: main flushes it, so the
        # error does not reach the interpreter's exit (exit 120).
        with open("/dev/full" if redirect else os.devnull, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-m", "qcool.cli", *argv], stdout=stdout,
                                  stderr=subprocess.PIPE, env=child_env(unbuffered), timeout=60)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert err == "error: cannot write output: No space left on device\n"

    @pytest.mark.parametrize("argv", [("bounds", "--n", "8", "--epsilon", "0.1"),
                                      ("optswaps", "--n", "12", "--epsilon", "0.01",
                                       "--format", "csv")])
    def test_closed_stdout(self, argv):
        # Started with stdout closed, Python sets sys.stdout to None.
        proc = shell(argv, ">&-", stderr=subprocess.PIPE)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert err == "error: cannot write output: stdout is closed\n"


#: The CSV rows of ``optswaps --n 4 --epsilon 0.2 --format csv``.
CSV_N4 = b"zero_t,one_t,ket_zero_t,ket_one_t\n7,8,0111,1000\n"


class TestStderrFailure:
    """A closed or failing stderr loses its lines, never the exit code or the output."""

    @pytest.mark.parametrize("argv, code", [
        (("limits", "--n", "10", "--epsilon", "0.1"), 2),
        (("limits", "--n", "5", "--epsilon", "0.1", "--iteration-cap", "1"), 4),
        (("optswaps", "--n", "30", "--epsilon", "0.1"), 3),
        (("limits", "--n", "3", "--epsilon", "0.1", "--out", "/no/such/dir/f"), 2),
    ], ids=["usage", "nonconvergence", "size-cap", "out-path"])
    def test_closed_stderr_keeps_the_exit_code(self, argv, code):
        proc = shell(argv, "2>&-")
        assert (proc.returncode, proc.stdout) == (code, b"")

    def test_closed_stderr_csv_verify(self, tmp_path):
        argv = ("optswaps", "--n", "4", "--epsilon", "0.2", "--format", "csv", "--verify")
        proc = shell(argv, "2>&-")
        assert (proc.returncode, proc.stdout) == (0, CSV_N4)
        proc = shell(argv + ("--out", "o.csv"), "2>&-", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (0, b"")
        assert os.listdir(tmp_path) == ["o.csv"]
        assert (tmp_path / "o.csv").read_bytes() == CSV_N4

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stderr(self, unbuffered):
        # A line-buffered stderr keeps the failed line, and the interpreter's
        # exit flush would fail on it again (exit 120).
        proc = shell(("limits", "--n", "3", "--epsilon", "0.1", "--rounds", "5"), "2>/dev/full",
                     unbuffered)
        assert (proc.returncode, proc.stdout) == (2, b"")
        proc = shell(("optswaps", "--n", "4", "--epsilon", "0.2", "--format", "csv", "--verify"),
                     "2>/dev/full", unbuffered)
        assert (proc.returncode, proc.stdout) == (0, CSV_N4)
        proc = shell(("bounds", "--n", "8", "--epsilon", "0.1"), ">/dev/full 2>/dev/full",
                     unbuffered)
        assert (proc.returncode, proc.stdout) == (3, b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_to_devnull_leaves_no_descriptor_open(self, tmp_path):
        # main and _stderr call it on every failed write, and callers run
        # main in-process, so each call must close the devnull it opens.
        with open(tmp_path / "stream", "w") as stream:
            cli._to_devnull(stream)
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(5):
                cli._to_devnull(stream)
            assert len(os.listdir("/proc/self/fd")) == before
            assert os.path.samefile(f"/proc/self/fd/{stream.fileno()}", os.devnull)

    def test_none_stderr_prints_nothing(self, capsys, monkeypatch):
        # print(file=None) would write the line to stdout
        monkeypatch.setattr(sys, "stderr", None)
        assert cli.main(["limits", "--n", "3", "--epsilon", "0.1", "--rounds", "5"]) == 2
        assert cli.main(["optswaps", "--n", "4", "--epsilon", "0.2", "--format", "csv",
                         "--verify"]) == 0
        assert capsys.readouterr().out == CSV_N4.decode()


class TestCommandsReturnOutput:
    """Each command returns its output pieces; only main writes them."""

    @pytest.mark.parametrize("argv", [
        ("optswaps", "--n", "5", "--epsilon", "0.1"),
        ("optswaps", "--biases", "0.2,0.2,0.2", "--verify", "--format", "json"),
        ("optswaps", "--n", "6", "--epsilon", "0.1", "--format", "csv"),
        ("optswaps", "--biases", "1,0.1,0.1", "--format", "json"),
        ("limits", "--n", "5", "--epsilon", "0.1"),
        ("limits", "--n", "6", "--epsilon", "1e-5", "--analytic", "--format", "csv"),
        ("cool", "--n", "4", "--epsilon", "0.1"),
        ("circuit", "--lim", "3"),
        ("circuit", "--from-biases", "0.2,0.2,0.2"),
        ("sweep", "--ns", "3,4", "--epsilon", "0.1"),
        ("sweep", "--n", "4", "--epsilons", "0.1,0.01", "--format", "json"),
        ("bounds", "--n", "8", "--epsilon", "0.1"),
    ])
    def test_pieces_are_mains_stdout(self, capsys, argv):
        args = cli._PARSER.parse_args(argv)
        pieces = list(args.func(args))
        assert capsys.readouterr().out == ""
        assert all(isinstance(piece, str) for piece in pieces)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "".join(pieces) == out


class TestPrecision:
    """--precision is a positive finite number, checked by the parser."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "-0"])
    @pytest.mark.parametrize("argv", [
        ("limits", "--n", "5", "--epsilon", "0.1", "--analytic"),
        ("limits", "--n", "5", "--epsilon", "0.1"),
        ("cool", "--n", "4", "--epsilon", "0.1"),
        ("sweep", "--ns", "3,4", "--epsilon", "0.1"),
    ])
    def test_rejected_at_the_parser(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, f"--precision={value}"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"precision must be a positive finite number, got {value!r}" in out.err

    def test_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cool", "--n", "4", "--epsilon", "0.1", "--precision", "abc"])
        assert exc.value.code == 2
        assert "argument --precision: invalid float value: 'abc'" in capsys.readouterr().err

    def test_accepted_value_is_reported(self, capsys):
        code, out, _ = run(capsys, "limits", "--n", "4", "--epsilon", "0.1", "--analytic",
                           "--precision", "1e-3")
        assert code == 0 and json.loads(out)["precision"] == 1e-3


class TestLimits:
    def test_zero_biases_zero_matrix(self, capsys):
        code, out, _ = run(capsys, "limits", "--biases", "0,0,0", "--rounds", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == [[0.0, 0.0, 0.0]]

    def test_numerical_matches_analytic(self, capsys):
        code, out, _ = run(capsys, "limits", "--n", "6", "--epsilon", "0.1",
                           "--rounds", "4", "--precision", "1e-9")
        numeric = np.array(json.loads(out)["matrix"])
        code, out, _ = run(capsys, "limits", "--n", "6", "--epsilon", "0.1",
                           "--rounds", "4", "--analytic")
        analytic = np.array(json.loads(out)["matrix"])
        assert np.all(np.abs(numeric / analytic - 1) <= 1e-6)

    def test_analytic_rejects_unequal(self, capsys):
        code, _, err = run(capsys, "limits", "--biases", "0.1,0.2,0.3", "--analytic")
        assert code == 2
        assert "equal biases" in err

    @pytest.mark.parametrize("argv, message", [
        (("--biases", "0", "--analytic", "--format", "csv"),
         "register must have n >= 3 qubits, got 1"),
        (("--n", "2", "--epsilon", "0.1", "--analytic"),
         "register must have n >= 3 qubits, got 2"),
        (("--n", "5", "--epsilon", "0.1", "--analytic", "--rounds", "0"),
         "rounds must lie in 1..3 for n = 5, got 0"),
    ], ids=["argv0", "argv1", "argv2"])
    def test_analytic_rejects_rounds_out_of_range(self, capsys, argv, message):
        # these once printed an empty matrix, or a traceback for CSV
        code, out, err = run(capsys, "limits", *argv)
        assert code == 2 and out == "" and message in err

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "limits", "--n", "4", "--epsilon", "0.1",
                           "--rounds", "2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "round,q1,q2,q3,q4"
        assert len(lines) == 3

    def test_analytic_low_bias_curve(self, capsys):
        code, out, _ = run(capsys, "limits", "--n", "8", "--epsilon", "1e-5",
                           "--rounds", "6", "--analytic")
        assert code == 0
        column = [row[0] for row in json.loads(out)["matrix"]]
        assert column == sorted(column)  # strictly improving rounds
        assert column[-1] == pytest.approx(2 ** 6 * 1e-5, rel=1e-3)


class TestCool:
    def test_three_qubit_report(self, capsys):
        code, out, _ = run(capsys, "cool", "--n", "3", "--epsilon", "0.1",
                           "--rounds", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["complexity"] > 0
        assert payload["round_limits"][0][0] == pytest.approx(0.19801980, abs=1e-5)
        assert payload["per_round_swaps"] == [payload["complexity"]]

    def test_lim_mode(self, capsys):
        code, out, _ = run(capsys, "cool", "--n", "4", "--epsilon", "0.1",
                           "--rounds", "2", "--mode", "lim")
        assert code == 0
        assert json.loads(out)["mode"] == "lim"

    def test_zero_defaults(self, capsys):
        code, out, _ = run(capsys, "cool", "--biases", "0,0,0,0", "--rounds", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["complexity"] == 0
        assert payload["round_limits"] == [[0.0] * 4] * 2

    def test_bias_of_one_beside_near_one_biases(self, capsys):
        # the full-mask walk once rounded the qubit at 1 to 1.0000000000000002
        code, out, err = run(capsys, "cool", "--biases", "1e-05,1.0,0.1,0.999")
        assert (code, err) == (0, "")
        limits = json.loads(out)["round_limits"]
        assert max(max(row) for row in limits) == 1.0

    def test_four_qubit_terminal_bias(self, capsys):
        code, out, _ = run(capsys, "cool", "--n", "4", "--epsilon", "0.1",
                           "--rounds", "2")
        payload = json.loads(out)
        assert payload["round_limits"][1][0] == pytest.approx(0.38109612, abs=1e-4)


class TestCircuit:
    def test_lim_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "lim3.nbmc"
        code, _, _ = run(capsys, "circuit", "--lim", "3", "--out", str(path))
        assert code == 0
        circuit = parse_text(path.read_text())
        perm = circuit_permutation(circuit)
        assert np.array_equal(perm, circuit_permutation(lim_comp(3)))

    def test_from_biases(self, capsys):
        code, out, _ = run(capsys, "circuit", "--from-biases", "0.2,0.2,0.2")
        assert code == 0
        perm = circuit_permutation(parse_text(out))
        assert np.array_equal(perm, [0, 1, 2, 4, 3, 5, 6, 7])

    def test_pure_target_gives_empty_circuit(self, capsys):
        code, out, _ = run(capsys, "circuit", "--from-biases", "1.0,0.5")
        assert code == 0
        assert out == "WIRES 2\n"

    def test_requires_a_source(self, capsys):
        code, _, err = run(capsys, "circuit")
        assert code == 2

    #: 16 biases of 0.01: 9,949 swaps, 308,419 gate lines, 6.95 MB of text.
    EQUAL16 = ",".join(["0.01"] * 16)

    def test_reader_closing_the_pipe_early(self):
        # The writer fills the pipe, then writes into it closed
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcool.cli", "circuit", "--from-biases", self.EQUAL16],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert proc.stdout.readline() == b"WIRES 16\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0, err
        assert err == ""

    def test_failed_stream_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        # The disk fills after the header and two pieces of the stream.
        open_out = cli._open_out

        def filling_disk(path):
            sink, temp, target = open_out(path)
            return _FullSink(sink, room=3), temp, target

        monkeypatch.setattr(cli, "_open_out", filling_disk)
        path = tmp_path / "f.nbmc"
        path.write_text("keep")
        code, out, err = run(capsys, "circuit", "--from-biases", self.EQUAL16,
                             "--out", str(path))
        assert code == 3 and out == ""
        assert err == "error: cannot write output: No space left on device\n"
        assert path.read_text() == "keep"
        assert os.listdir(tmp_path) == ["f.nbmc"]

    def test_streamed_peak_memory(self, capsys, tmp_path):
        # The swap indices and one piece of at most 2^10 blocks (0.7 MB, held
        # as its blocks, the piece and its encoding), none of the 6.95 MB output.
        path = tmp_path / "out.nbmc"
        assert run(capsys, "circuit", "--from-biases", "0.01,0.01,0.01")[0] == 0  # warm up
        tracemalloc.start()
        try:
            code = cli.main(["circuit", "--from-biases", self.EQUAL16, "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert path.stat().st_size > (6 << 20)
        assert peak <= 4 << 20


class TestSweep:
    def test_size_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--ns", "3,4", "--epsilon", "0.1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,complexity"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts[0] < counts[1]

    def test_bias_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "3", "--epsilons", "0.1,0.2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [row["epsilon"] for row in payload["rows"]] == [0.1, 0.2]

    def test_requires_epsilon_with_ns(self, capsys):
        code, _, _ = run(capsys, "sweep", "--ns", "3,4")
        assert code == 2


class TestBounds:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "4", "--epsilon", "0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["sqrt_bound"] == pytest.approx(0.02)
        assert payload["shannon_bound"] == pytest.approx(4 * (1 - 0.9999278640548144), rel=1e-6)
        assert payload["analytic_limit"] == pytest.approx(0.04, rel=1e-2)

    @pytest.mark.parametrize("n", [990, 1200])
    def test_large_register(self, capsys, n):
        # f = 2^(n-2), beyond the float range once n > 1026; both limits
        # round to 1.0
        code, out, _ = run(capsys, "bounds", "--n", str(n), "--epsilon", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic_limit"] == 1.0 and payload["single_round_limit"] == 1.0

    @pytest.mark.parametrize("n, code, err", [
        ("300000", 0, ""),
        ("1000000", 0, ""),
        (HUGE, 3, "error: limit exponent 2^99999999999999999997 exceeds the integer range\n"),
    ], ids=["3e5", "1e6", "huge"])
    def test_huge_register_in_bounded_memory(self, n, code, err):
        # f = 2^(n-2) is formed once, not as a list of partial sums of up to n
        # bits each; past the integer range it exits 3.  The child runs in a
        # 1 GiB address space under a timeout, so a regression fails here
        # rather than exhausting the machine.
        cmd = shlex.join([sys.executable, "-m", "qcool.cli", "bounds", "--n", n,
                          "--epsilon", "0.1"])
        env = {**child_env(), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        # exec, so that the timeout kills the child itself, not only its shell
        proc = subprocess.run(f"ulimit -v 1048576; exec {cmd}", shell=True, env=env,
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr.decode()) == (code, err)
        if code == 0:
            assert json.loads(proc.stdout)["analytic_limit"] == 1.0

    @pytest.mark.parametrize("n, rounds, eps", [
        ("200000", "100000", "0.1"),
        ("200000", "100000", "0"),
        ("200000", "100000", "5e-324"),
        ("10000000", "5000000", "0.1"),
    ], ids=["2e5-0.1", "2e5-zero", "2e5-subnormal", "1e7-0.1"])
    def test_short_rounds_in_bounded_time(self, n, rounds, eps):
        # With rounds r below m = n - 2 the exponent is a sum of r binomial
        # terms of up to m bits; the limit stops at the first partial sum
        # past the crossover, so these finish in well under a second where
        # the full sums take seconds (2e5) or hours (1e7).
        cmd = shlex.join([sys.executable, "-m", "qcool.cli", "bounds", "--n", n,
                          "--epsilon", eps, "--rounds", rounds])
        env = {**child_env(), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        # exec, so that the timeout kills the child itself, not only its shell
        proc = subprocess.run(f"ulimit -v 1048576; exec {cmd}", shell=True, env=env,
                              capture_output=True, timeout=20)
        assert (proc.returncode, proc.stderr) == (0, b"")
        payload = json.loads(proc.stdout)
        assert payload["rounds"] == int(rounds)
        assert payload["analytic_limit"] == (0.0 if eps == "0" else 1.0)

    def test_subnormal_epsilon(self, capsys):
        # 30 / eps is inf here; f * eps = 2^1198 * 1e-320 is far past the crossover
        code, out, _ = run(capsys, "bounds", "--n", "1200", "--epsilon", "1e-320")
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic_limit"] == 1.0
        assert payload["single_round_limit"] == pytest.approx(1199 * 1e-320, rel=1e-3)


class TestExitCodesAndDeterminism:
    def test_reader_closing_the_pipe_early(self):
        # 2.1 MB of rows: the writer fills the pipe, then writes into it closed
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcool.cli", "optswaps", "--n", "18", "--epsilon", "0.01",
             "--format", "csv"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"zero_t,one_t,ket_zero_t,ket_one_t\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0, err
        assert err == ""

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "optswaps", "--biases", "0.2,oops")
        assert code == 2 and "error:" in err

    def test_invalid_bias_value(self, capsys):
        code, _, _ = run(capsys, "optswaps", "--biases", "0.2,1.7")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("limits", "--biases", "0.1,,0.2,0.05"),
        ("circuit", "--from-biases", "0.2,0.2,"),
        ("sweep", "--ns", "3,,4", "--epsilon", "0.1"),
        ("sweep", "--n", "3", "--epsilons", ",0.1"),
    ])
    def test_empty_list_entry(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "empty entry" in err

    def test_mutually_exclusive_inputs(self, capsys):
        code, _, _ = run(capsys, "optswaps", "--biases", "0.2", "--n", "3",
                         "--epsilon", "0.1")
        assert code == 2

    def test_size_cap_exit(self, capsys):
        code, _, _ = run(capsys, "optswaps", "--n", "30", "--epsilon", "0.1")
        assert code == 3

    @pytest.mark.parametrize("argv, err", [
        pytest.param(("optswaps", "--n", HUGE, "--epsilon", "0.1"), SIZE_CAP_ERR, id="optswaps"),
        pytest.param(("cool", "--n", HUGE, "--epsilon", "0.1"), SIZE_CAP_ERR, id="cool"),
        pytest.param(("limits", "--n", HUGE, "--epsilon", "0.1"), SIZE_CAP_ERR, id="limits"),
        pytest.param(("sweep", "--ns", f"3,{HUGE}", "--epsilon", "0.1"), SIZE_CAP_ERR,
                     id="sweep"),
        pytest.param(("limits", "--n", HUGE, "--epsilon", "0.1", "--analytic"),
                     f"error: analytic grid of {int(HUGE) - 2} rounds x {HUGE} qubits "
                     "exceeds the cap of 1048576 entries\n", id="limits-analytic"),
    ])
    def test_huge_size_exits_before_allocation(self, capsys, argv, err):
        # the size is checked before the register is built; building it
        # first overflowed with a traceback
        code, out, got = run(capsys, *argv)
        assert (code, out, got) == (3, "", err)

    @pytest.mark.parametrize("biases, bad", [("0.1,1.5", "1.5"), ("nan", "nan")])
    def test_bad_bias_message(self, capsys, biases, bad):
        code, out, err = run(capsys, "optswaps", "--biases", biases)
        assert (code, out) == (2, "")
        assert err == f"error: bias must lie in [0, 1], got {bad}\n"

    def test_verify_past_fourteen_qubits(self, capsys):
        # verification shares the 26-qubit size cap; n = 15 once exited 3
        code, out, _ = run(capsys, "optswaps", "--n", "15", "--epsilon", "0.01",
                           "--verify", "--format", "json")
        assert code == 0
        verify = json.loads(out)["verify"]
        assert verify["case1_passed"] is True and verify["case2_passed"] is True
        assert verify["case3_passed"] is None and verify["counterexamples"] == []

    def test_nonconvergence_exit(self, capsys, monkeypatch):
        from qcool.errors import DivergenceError

        def explode(config):
            raise DivergenceError("stalled", round_index=1, subspace=1, passes=99)

        monkeypatch.setattr(cli, "register_compression", explode)
        code, _, err = run(capsys, "cool", "--n", "3", "--epsilon", "0.1",
                           "--rounds", "1")
        assert code == 4 and "stalled" in err

    def test_limits_pass_cap_exit(self, capsys):
        # With precision 1e-300 the round-3 target alternates between two
        # neighbouring floats and never converges; without a cap it hangs.
        code, out, err = run(capsys, "limits", "--n", "7", "--epsilon", "0.3",
                             "--precision", "1e-300", "--iteration-cap", "1000")
        assert code == 4 and out == ""
        assert "exceeded 1000 passes (round 3, target 1," in err
        assert "--iteration-cap" in err

    @pytest.mark.parametrize("argv,message", [
        (("cool", "--n", "5", "--epsilon", "0.1", "--iteration-cap", "300"),
         "subspace compression exceeded 300 passes (round 2, head 1, target 1)"),
        (("cool", "--n", "5", "--epsilon", "0.1", "--iteration-cap", "10"),
         "numerical limits exceeded 10 passes (round 1, target 1,"),
        (("sweep", "--ns", "3,5", "--epsilon", "0.1", "--iteration-cap", "300"),
         "subspace compression exceeded 300 passes (round 2, head 1, target 1)"),
        # The cap runs out inside re-entries at deeper heads; the message names
        # the top-level head whose budget it was.
        (("cool", "--n", "5", "--epsilon", "1e-5", "--iteration-cap", "653"),
         "subspace compression exceeded 653 passes (round 2, head 2, target 3)"),
        (("cool", "--n", "6", "--epsilon", "1e-5", "--iteration-cap", "1717"),
         "subspace compression exceeded 1717 passes (round 2, head 1, target 2)"),
    ], ids=["cool-subspace", "cool-limits", "sweep", "cool-reentry-n5", "cool-reentry-n6"])
    def test_cooling_pass_cap_exit(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert message in err and "--iteration-cap" in err

    # the analytic matrix runs no loop, but its flags are checked as the others'
    @pytest.mark.parametrize("command", ["limits", "cool", "limits --analytic"])
    def test_iteration_cap_must_be_positive(self, capsys, command):
        code, out, err = run(capsys, *command.split(), "--n", "4", "--epsilon", "0.1",
                             "--iteration-cap", "0")
        assert code == 2 and out == "" and "iteration cap" in err

    @pytest.mark.parametrize("argv", [
        ("limits", "--n", "4", "--epsilon", "0.1", "--rounds", "2"),
        ("cool", "--n", "4", "--epsilon", "0.1", "--rounds", "2"),
        ("sweep", "--ns", "3,4", "--epsilon", "0.1"),
    ])
    def test_byte_identical_outputs(self, tmp_path, capsys, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([*argv, "--out", str(a)]) == 0
        assert cli.main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Argument values for the robustness property: valid ones (sizes up to 12),
# drawn six times as often as malformed, non-finite, negative or empty ones.
def _values(valid, bad):
    return st.one_of(*[st.sampled_from(valid)] * 6, st.sampled_from(bad))


SIZES = _values(["4", "3", "5", "7", "12", "1", "2"],
                ["-1", "0", "3.5", "1e3", "0x3", "nan", "abc", ""])
REALS = _values(["0.1", "0.3", "1e-5", "0", "1", "1e-320", "5e-324"],
                ["-0.1", "1.5", "nan", "inf", "-inf", "1e400", "0.1.2", "abc", ""])
PRECISIONS = _values(["1e-9", "1e-3", "1e-300"], ["0", "-1e-9", "nan", "inf", "abc"])
# Every cooling or limit run gets one of these caps, so no case runs long.
CAPS = _values(["100", "7", "1"], ["-3", "0", "abc", ""])
FORMATS = _values(["json", "csv", "text"], ["xml", ""])
MODES = _values(["full", "lim"], ["sorted"])


def _lists(values):
    # repeated values, and empty entries from empty strings, included
    return st.lists(values, min_size=1, max_size=4).map(",".join)


BIAS_INPUTS = {"--biases": _lists(REALS), "--n": SIZES, "--epsilon": REALS}
BIAS_SOURCES = [("--biases",), ("--n", "--epsilon")]
COMMANDS = {
    # command: (input flags, the input combinations it accepts, other flags);
    # None marks a flag without a value
    "optswaps": (BIAS_INPUTS, BIAS_SOURCES, {"--verify": None, "--format": FORMATS}),
    "limits": (BIAS_INPUTS, BIAS_SOURCES,
               {"--rounds": SIZES, "--precision": PRECISIONS, "--analytic": None,
                "--format": FORMATS}),
    "cool": (BIAS_INPUTS, BIAS_SOURCES,
             {"--rounds": SIZES, "--precision": PRECISIONS, "--mode": MODES}),
    "circuit": ({"--from-biases": _lists(REALS), "--lim": SIZES},
                [("--from-biases",), ("--lim",)], {}),
    "sweep": ({"--ns": _lists(SIZES), "--epsilon": REALS, "--epsilons": _lists(REALS),
               "--n": SIZES},
              [("--ns", "--epsilon"), ("--n", "--epsilons")],
              {"--rounds": SIZES, "--precision": PRECISIONS, "--mode": MODES,
               "--format": FORMATS}),
    "bounds": ({"--n": SIZES, "--epsilon": REALS}, [("--n", "--epsilon")],
               {"--rounds": SIZES, "--k": SIZES}),
}
CAPPED = {"limits", "cool", "sweep"}


@st.composite
def argument_vectors(draw):
    """A command with an accepted input combination or any of its input flags,
    then further flags; repeats and conflicting inputs allowed."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    inputs, sources, others = COMMANDS[command]
    accepted = st.sampled_from(sources)
    names = draw(st.one_of(accepted, accepted, accepted,
                           st.lists(st.sampled_from(sorted(inputs)), max_size=4)))
    if others:
        names = [*names, *draw(st.lists(st.sampled_from(sorted(others)), max_size=3))]
    flags = {**inputs, **others}
    argv = [command]
    for name in names:
        argv += [name] if flags[name] is None else [name, draw(flags[name])]
    if command in CAPPED:
        argv += ["--iteration-cap", draw(CAPS)]
    return argv


class TestArgumentRobustness:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argument_vectors())
    def test_documented_exit_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestPlainNumbers:
    """int() and float() read underscores and non-ASCII digits; the CLI refuses them.

    Each token here ran as another number before: 1_0 as 10, the Arabic-Indic
    digit three as 3, 0_1 as 1.  Every other token still goes to int() or
    float(), so scientific notation, nan and inf keep their meaning.
    """

    @staticmethod
    def usage_error(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        return out.err

    @pytest.mark.parametrize("argv, flag, token", [
        (("limits", "--n", "1_0", "--epsilon", "0.1", "--rounds", "1"), "--n", "1_0"),
        (("bounds", "--n", "٣", "--epsilon", "0.1"), "--n", "٣"),
        (("limits", "--n", "4", "--epsilon", "0.1", "--rounds", "２"), "--rounds", "２"),
        (("bounds", "--n", "4", "--epsilon", "0.1", "--k", "٢"), "--k", "٢"),
        (("circuit", "--lim", "0_3"), "--lim", "0_3"),
        (("cool", "--n", "3", "--epsilon", "0.1", "--iteration-cap", "1_000"),
         "--iteration-cap", "1_000"),
        (("sweep", "--n", "٤", "--epsilons", "0.1"), "--n", "٤"),
    ])
    def test_int_flag(self, capsys, argv, flag, token):
        err = self.usage_error(capsys, argv)
        assert f"error: argument {flag}: invalid int value: {token!r}" in err

    @pytest.mark.parametrize("argv, flag, token", [
        (("bounds", "--n", "3", "--epsilon", "0.1_0"), "--epsilon", "0.1_0"),
        (("optswaps", "--n", "3", "--epsilon", "0.١"), "--epsilon", "0.١"),
        (("sweep", "--ns", "3,4", "--epsilon", "1e-0_1"), "--epsilon", "1e-0_1"),
        (("bounds", "--n", "4", "--epsilon", "1e-400"), "--epsilon", "1e-400"),
    ])
    def test_float_flag(self, capsys, argv, flag, token):
        err = self.usage_error(capsys, argv)
        assert f"error: argument {flag}: invalid float value: {token!r}" in err

    @pytest.mark.parametrize("token", ["1e-1_0", "1e-٩", "0.00_1", "9e-999"])
    def test_precision(self, capsys, token):
        argv = ("limits", "--n", "4", "--epsilon", "0.1", "--precision", token)
        err = self.usage_error(capsys, argv)
        assert f"error: argument --precision: invalid float value: {token!r}" in err

    @pytest.mark.parametrize("argv, message", [
        (("cool", "--biases", "0_1,0.2,0.3", "--rounds", "1"),
         "bad bias list '0_1,0.2,0.3': not a plain number: '0_1'"),
        (("circuit", "--from-biases", "0.2,0.٢"),
         "bad bias list '0.2,0.٢': not a plain number: '0.٢'"),
        (("sweep", "--ns", "3,1_0", "--epsilon", "0.1"),
         "bad size list '3,1_0': not a plain number: '1_0'"),
        (("sweep", "--n", "4", "--epsilons", "١e-1,0.2"),
         "bad bias list '١e-1,0.2': not a plain number: '١e-1'"),
        # these ran before, on a bias of 0.0 that the token does not state
        (("cool", "--biases", "1e-400,0.1,0.1"),
         "bad bias list '1e-400,0.1,0.1': '1e-400' rounds to 0.0"),
        (("circuit", "--from-biases", "0.2,-2.5E-999"),
         "bad bias list '0.2,-2.5E-999': '-2.5E-999' rounds to 0.0"),
        (("sweep", "--n", "4", "--epsilons", "1e-400"),
         "bad bias list '1e-400': '1e-400' rounds to 0.0"),
    ], ids=["biases", "from-biases", "ns", "epsilons", "biases-zero", "from-biases-zero",
            "epsilons-zero"])
    def test_list(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_scientific_notation_still_accepted(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", " 4", "--epsilon", "1E-2", "--k", "+1")
        assert code == 0 and json.loads(out)["epsilon"] == 0.01

    @pytest.mark.parametrize("token", ["0", "-0.0", "0e5", "5e-324"])
    def test_zero_and_the_smallest_subnormal_still_accepted(self, capsys, token):
        # only a nonzero digit that rounds to 0.0 is refused
        code, out, _ = run(capsys, "bounds", "--n", "4", "--epsilon", token)
        assert code == 0 and json.loads(out)["epsilon"] == float(token)
        code, out, _ = run(capsys, "sweep", "--n", "4", "--epsilons", token)
        assert code == 0 and out.startswith("epsilon,complexity\n")
