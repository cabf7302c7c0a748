"""Command-line front end: every operation, with JSON/CSV output.

Exit codes: 0 success, 2 usage or parse error, 3 size-cap violation,
4 non-convergence (a pass cap, set with ``--iteration-cap``, was exceeded).
``--out PATH`` makes a new file beside PATH before the command computes
anything and moves it onto PATH only on exit 0; a path that cannot be
written (a missing directory, a directory) exits 2 naming it.  A reader
that closes stdout early (``| head``) ends the output quietly, with exit 0.
Identical invocations produce byte-identical output, with one caveat: a
marginal bias is a BLAS dot product, so from about 14 qubits on the last
digits of ``optswaps``' target bias can vary with the BLAS thread count.
``limits --analytic`` fills at most ANALYTIC_GRID_CAP (2^20) entries,
rounds x n, and exits 3 past it before the register is built.

``optswaps`` prints one row per swap, up to 1.64M rows at n = 23.  The rows
of all three formats come from :func:`render_swaps`, which fills one byte
matrix per chunk of rows from a fixed row template and yields it as text.
The command computes the swap indices, the gain, the target bias and the
optional verification, drops the distribution, and then writes the report
around the rows piece by piece: the text before the rows, each chunk, and
the text after them.  Its memory is about one probamp vector, plus the swap
index array, plus the marginal's sign vector, whatever the output size.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .circuits import export_text, lim_comp, nb_maxcomp
from .compress import bias_gain, find_optswaps, verify_optimality
from .errors import DivergenceError, ResourceCapError
from .hbac import HbacConfig, register_compression
from .limits import (DEFAULT_ITERATION_CAP, _check_grid, analytic_limit, analytic_limits,
                     check_rounds, numerical_limits, shannon_bound, single_round_limit,
                     sqrt_bound)
from .regstate import RegisterBiases, _check_size, marginal_bias, probamps

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NONCONVERGENCE = 4


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    # 17 significant digits: enough to round-trip any double
    return format(float(x), ".17g")


@dataclass(frozen=True)
class _Verbatim:
    """JSON text rendered ahead of time, which :func:`_to_json` writes as is."""

    text: str


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, _Verbatim):
        return obj.text
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(sink, pieces: Iterable[str]) -> None:
    """Write *pieces* in order to *sink*, the open ``--out`` file, or to stdout if None.

    ``sys.stdout`` is looked up here, not earlier, so a caller's redirection
    of it is honoured.
    """
    write = (sink or sys.stdout).write
    for piece in pieces:
        write(piece)


def _parse_list(text: str, convert, what: str) -> list:
    """Comma-separated values; an empty entry (as in "0.1,,0.2") is a usage error."""
    tokens = text.split(",")
    if "" in tokens:
        raise UsageError(f"bad {what} list {text!r}: empty entry")
    try:
        return [convert(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from None


def _parse_biases(args, check: Callable[[int], None] = _check_size) -> RegisterBiases:
    """The register of --biases or of --n/--epsilon; *check* vets --n before the build."""
    has_list = getattr(args, "biases", None) is not None
    has_pair = getattr(args, "n", None) is not None or getattr(args, "epsilon", None) is not None
    if has_list and has_pair:
        raise UsageError("--biases and --n/--epsilon are mutually exclusive")
    if has_list:
        return RegisterBiases.from_values(_parse_list(args.biases, float, "bias"))
    if args.n is None or args.epsilon is None:
        raise UsageError("provide either --biases or both --n and --epsilon")
    check(args.n)
    return RegisterBiases.equal(args.n, args.epsilon)


def _matrix_rows(values: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in values]


def _matrix_csv(values: np.ndarray) -> str:
    n = values.shape[1]
    lines = ["round," + ",".join(f"q{i}" for i in range(1, n + 1))]
    for r, row in enumerate(values, start=1):
        lines.append(f"{r}," + ",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


#: Each swap row is p0 j p1 comp p2 ket(j) p3 ket(comp) p4, with the
#: constant pieces p0..p4 and the row separator of each output format.  A JSON
#: row is one object of the report's "swaps" array, indented as _to_json
#: indents it.
ROW_TEMPLATES = {
    "text": (("  ", " <-> ", "    |", "> <-> |", ">"), "\n"),
    "csv": (("", ",", ",", ",", ""), "\n"),
    "json": (('    {\n      "zero_t": ', ',\n      "one_t": ', ',\n      "ket_zero_t": "',
              '",\n      "ket_one_t": "', '"\n    }'), ",\n"),
}


def _put_digits(cols: np.ndarray, keep: np.ndarray, v: np.ndarray) -> None:
    """Write the zero-padded decimals of *v* into *cols* as ASCII; unmark leading zeros."""
    width = cols.shape[1]
    digits = np.empty((width, v.size), dtype=np.uint8)
    u = v.astype(np.min_scalar_type(v.max()))  # narrow integers divide faster
    for k in range(width - 1, -1, -1):
        q = u // 10
        digits[k] = u - 10 * q
        u = q
    np.add(digits.T, 48, out=cols)
    keep[:] = (v >= 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)[:, None]).T
    keep[:, -1] = True  # zero still prints one digit


def render_swaps(idx: np.ndarray, n: int, fmt: str, chunk: int = 1 << 14) -> Iterator[str]:
    """The rows of the swap indices *idx* in format *fmt*, one string per chunk of rows.

    Joined, the chunks are the rows separated by the format's separator.

    Each chunk of rows is one byte matrix with a fixed column layout: the
    template's pieces, the decimals of j and of its complement 2^n - 1 - j
    as zero-padded digit columns, and the n bits of j's ket; the
    complement's ket flips every bit.  A mask then drops the leading zeros.
    """
    pieces, sep = ROW_TEMPLATES[fmt]
    consts = [piece.encode() for piece in (*pieces[:4], pieces[4] + sep)]
    top = (1 << n) - 1
    width = len(str(top))
    # Column offsets of the pieces, the two decimals and the two kets.
    at = np.cumsum([0, len(consts[0]), width, len(consts[1]), width,
                    len(consts[2]), n, len(consts[3]), n, len(consts[4])])
    for lo in range(0, idx.size, chunk):
        j = idx[lo:lo + chunk]
        mat = np.empty((j.size, at[-1]), dtype=np.uint8)
        keep = np.ones(mat.shape, dtype=bool)
        for c, const in zip(at[::2], consts):
            mat[:, c:c + len(const)] = np.frombuffer(const, np.uint8)
        _put_digits(mat[:, at[1]:at[2]], keep[:, at[1]:at[2]], j)
        _put_digits(mat[:, at[3]:at[4]], keep[:, at[3]:at[4]], top - j)
        bits = np.unpackbits(j.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
        np.add(bits[:, 64 - n:], 48, out=mat[:, at[5]:at[6]])
        np.subtract(49, bits[:, 64 - n:], out=mat[:, at[7]:at[8]])
        text = str(mat[keep].data, "ascii")
        yield text if lo + chunk < idx.size else text[:-len(sep)]


#: Stands for the swap rows in the text of an ``optswaps`` report.
_ROWS = "\0rows\0"


def _around(text: str, rows: Iterable[str]) -> Iterator[str]:
    """*text* with *rows* streamed in place of its _ROWS marker, if it has one."""
    lead, _, trail = text.partition(_ROWS)
    yield lead
    yield from rows
    yield trail


def cmd_optswaps(args) -> int:
    register = _parse_biases(args)
    n = register.n
    dist = probamps(register)
    idx = find_optswaps(dist)
    gain = bias_gain(dist, idx)
    before = marginal_bias(dist, 1)
    verification = verify_optimality(dist) if args.verify else None
    del dist  # the rows need only idx: free the 2^n vector before rendering them
    rows = [_ROWS] if idx.size else []
    if args.format == "json":
        report = {
            "schema": SCHEMA_VERSION,
            "command": "optswaps",
            "n": n,
            "biases": register.values.tolist(),
            "swaps": _Verbatim("\n".join(["[", *rows, "  ]"]) if rows else "[]"),
            "count": idx.size,
            "gain": gain,
            "target_bias_before": before,
            "target_bias_after": before + gain,
        }
        if verification is not None:
            report["verify"] = {
                "swaps_performed": verification.swaps_performed,
                "case1_passed": verification.case1_passed,
                "case2_passed": verification.case2_passed,
                "case3_passed": verification.case3_passed,
                "counterexamples": [
                    {"case": c.case, "k": c.k, "l": c.l, "excess": c.excess}
                    for c in verification.counterexamples],
            }
        text = _to_json(report) + "\n"
    elif args.format == "csv":
        text = "\n".join(["zero_t,one_t,ket_zero_t,ket_one_t", *rows, ""])
    else:
        lines = [f"n: {n}", f"swaps: {idx.size}", *rows]
        lines.append(f"gain: {_fmt(gain)}")
        lines.append(f"target bias: {_fmt(before)} -> {_fmt(before + gain)}")
        if verification is not None:
            def word(flag):
                return "n/a" if flag is None else ("pass" if flag else "FAIL")
            lines.append(
                f"optimality: swaps={verification.swaps_performed} "
                f"case1={word(verification.case1_passed)} "
                f"case2={word(verification.case2_passed)} "
                f"case3={word(verification.case3_passed)}")
        text = "\n".join(lines + [""])
    _emit(args.sink, _around(text, render_swaps(idx, n, args.format)))
    return EXIT_OK


def cmd_limits(args) -> int:
    if args.analytic:
        # the grid, not the register, bounds the work: check it before the build
        register = _parse_biases(args, lambda n: _check_grid(check_rounds(n, args.rounds), n))
    else:
        register = _parse_biases(args)
    n = register.n
    rounds = check_rounds(n, args.rounds)
    if args.analytic:
        values = register.values
        if np.unique(values).size != 1:
            raise UsageError("--analytic requires equal biases")
        matrix = analytic_limits(n, rounds, float(values[0])).values
    else:
        matrix = numerical_limits(register, rounds, args.precision,
                                  iteration_cap=args.iteration_cap).values
    if args.format == "csv":
        _emit(args.sink, [_matrix_csv(matrix)])
    else:
        _emit(args.sink, [_to_json({
            "schema": SCHEMA_VERSION,
            "command": "limits",
            "n": n,
            "rounds": rounds,
            "precision": args.precision,
            "analytic": bool(args.analytic),
            "matrix": _matrix_rows(matrix),
        }) + "\n"])
    return EXIT_OK


def cmd_cool(args) -> int:
    register = _parse_biases(args)
    config = HbacConfig(register, args.rounds, precision=args.precision, mode=args.mode,
                        iteration_cap=args.iteration_cap)
    report = register_compression(config)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "cool",
        "n": register.n,
        "biases": register.values.tolist(),
        "rounds": config.rounds,
        "precision": args.precision,
        "mode": args.mode,
        "complexity": report.complexity,
        "per_round_swaps": list(report.per_round_swaps),
        "while_passes": report.while_passes,
        "round_limits": _matrix_rows(report.round_limits.values),
        "targets": _matrix_rows(report.targets.values),
    }
    _emit(args.sink, [_to_json(payload) + "\n"])
    return EXIT_OK


def cmd_circuit(args) -> int:
    if args.lim is not None:
        if args.from_biases is not None:
            raise UsageError("--lim and --from-biases are mutually exclusive")
        circuit = lim_comp(args.lim)
    elif args.from_biases is not None:
        register = RegisterBiases.from_values(_parse_list(args.from_biases, float, "bias"))
        circuit = nb_maxcomp(register.n, find_optswaps(probamps(register)))
    else:
        raise UsageError("provide --lim N or --from-biases LIST")
    _emit(args.sink, [export_text(circuit)])
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.ns is not None and args.epsilons is not None:
        raise UsageError("--ns and --epsilons are mutually exclusive")
    if args.ns is not None:
        if args.epsilon is None:
            raise UsageError("--ns requires --epsilon")
        key = "n"
        points = [(n, args.epsilon) for n in _parse_list(args.ns, int, "size")]
    elif args.epsilons is not None:
        if args.n is None:
            raise UsageError("--epsilons requires --n")
        key = "epsilon"
        points = [(args.n, eps) for eps in _parse_list(args.epsilons, float, "bias")]
    else:
        raise UsageError("provide --ns LIST or --epsilons LIST")
    for n, _ in points:
        _check_size(n)
    rows: list[tuple[float | int, int]] = []
    for n, eps in points:
        config = HbacConfig(RegisterBiases.equal(n, eps), args.rounds, precision=args.precision,
                            mode=args.mode, iteration_cap=args.iteration_cap)
        rows.append((n if key == "n" else eps, register_compression(config).complexity))
    if args.format == "json":
        _emit(args.sink, [_to_json({
            "schema": SCHEMA_VERSION,
            "command": "sweep",
            "rows": [{key: v, "complexity": c} for v, c in rows],
        }) + "\n"])
    else:
        lines = [f"{key},complexity"]
        for v, c in rows:
            value = str(v) if key == "n" else _fmt(v)
            lines.append(f"{value},{c}")
        _emit(args.sink, ["\n".join(lines) + "\n"])
    return EXIT_OK


def cmd_bounds(args) -> int:
    n, eps = args.n, args.epsilon
    rounds = check_rounds(n, args.rounds)
    k = args.k
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "bounds",
        "n": n,
        "epsilon": eps,
        "rounds": rounds,
        "k": k,
        "shannon_bound": shannon_bound(n, eps),
        "sqrt_bound": sqrt_bound(n, eps),
        "single_round_limit": single_round_limit(eps, n - 1),
        "analytic_limit": analytic_limit(rounds, k, n, eps),
    }
    _emit(args.sink, [_to_json(payload) + "\n"])
    return EXIT_OK


def _add_bias_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--biases", help="comma-separated per-qubit biases, e.g. 0.2,0.5")
    p.add_argument("--n", type=int, help="register size (with --epsilon)")
    p.add_argument("--epsilon", type=float, help="equal bias for all qubits (with --n)")


def _add_iteration_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iteration-cap", dest="iteration_cap", type=int,
                   default=DEFAULT_ITERATION_CAP,
                   help="compression passes allowed per (round, head) of cooling, "
                        "summed over re-entries, and per (round, target) of the "
                        "limit loop; past it the command exits 4 (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcool",
        description="Optimal entropy-compression swaps and heat-bath "
                    "algorithmic cooling of diagonal qubit registers.")
    parser.add_argument("--version", action="version", version=f"qcool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optswaps", help="select the beneficial complementary swaps")
    _add_bias_args(p)
    p.add_argument("--verify", action="store_true",
                   help="run the exhaustive optimality check")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=cmd_optswaps)

    p = sub.add_parser("limits", help="per-round cooling limits "
                                      "(CSV columns: round,q1..qn)")
    _add_bias_args(p)
    p.add_argument("--rounds", type=int, help="number of limiting rounds (default n-2)")
    p.add_argument("--precision", type=float, default=1e-9)
    p.add_argument("--analytic", action="store_true",
                   help="closed-form evaluation (equal biases only)")
    _add_iteration_cap(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("cool", help="full register compression with swap counting")
    _add_bias_args(p)
    p.add_argument("--rounds", type=int)
    p.add_argument("--precision", type=float, default=1e-9)
    p.add_argument("--mode", choices=["full", "lim"], default="full")
    _add_iteration_cap(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cool)

    p = sub.add_parser("circuit", help="synthesize a .nbmc reversible circuit")
    p.add_argument("--from-biases", dest="from_biases",
                   help="emit the NB-MaxComp of the biases' optswap set")
    p.add_argument("--lim", type=int, help="emit the n-wire limiting-swap circuit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("sweep", help="complexity sweep "
                                     "(CSV columns: n,complexity or epsilon,complexity)")
    p.add_argument("--ns", help="comma-separated register sizes (with --epsilon)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--epsilons", help="comma-separated biases (with --n)")
    p.add_argument("--n", type=int)
    p.add_argument("--rounds", type=int, help="override rounds (default n-2)")
    p.add_argument("--precision", type=float, default=1e-9)
    p.add_argument("--mode", choices=["full", "lim"], default="full")
    _add_iteration_cap(p)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="closed-system bounds and the analytic limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--rounds", type=int, help="round for the analytic limit (default n-2)")
    p.add_argument("--k", type=int, default=1, help="qubit for the analytic limit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)
    return parser


def _open_out(path: str) -> tuple[TextIO, str | None, str]:
    """A writer for ``--out`` *path*, the new file it writes (or None) and the target.

    A file or a new path gets a new file beside it, with the mode ``open(path,
    "w")`` would give, to replace it on success; a device or pipe is written
    directly.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return open(path, "w", newline=""), None, target
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    sink = open(temp, "x", newline="")
    if os.path.exists(target):
        shutil.copymode(target, temp)
    return sink, temp, target


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.sink, temp, target = _open_out(args.out) if args.out else (None, None, None)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot write --out {args.out!r}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    code = None
    try:
        code = args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_RESOURCE
    except DivergenceError as exc:
        print(f"error: {exc}; --iteration-cap raises the limit", file=sys.stderr)
        code = EXIT_NONCONVERGENCE
    except ValueError as exc:  # a UsageError among them
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does, and wants no more
        # output.  Point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    finally:
        if args.sink is not None:
            args.sink.close()
        if temp is not None and code == EXIT_OK:
            os.replace(temp, target)
        elif temp is not None:
            os.unlink(temp)
    return code


if __name__ == "__main__":
    sys.exit(main())
