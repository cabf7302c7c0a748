"""Byte-for-byte CLI outputs on a fixed grid, frozen under ``tests/golden/``.

The files hold the stdout of ``qcool.cli.main`` for each argument vector
below, so any change to cooling counts, limit bits or formatting shows up
here.  No benchmark op runs ``cool --mode lim``; these files are its only
byte check, up to n = 8.  When an output is meant to change, record the new bytes with
``cli.main`` and say why in the change.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcool.cli as cli
from fixture_sets import STRESS_SETS

GOLDEN = Path(__file__).parent / "golden"

UNEQUAL_SETS = ["0.3,0.05,0.2,0.1", "0.15,0.4,0.1,0.2,0.05", "0.2,0.1,0.3,0.05,0.1,0.15"]

CASES = (
    [(f"cool-n{n}-eps{eps}-{mode}.json",
      ("cool", "--n", str(n), "--epsilon", eps, "--mode", mode))
     for n in range(3, 9) for eps in ("0.1", "1e-5") for mode in ("full", "lim")]
    + [(f"cool-unequal{i}-{mode}.json", ("cool", "--biases", biases, "--mode", mode))
       for i, biases in enumerate(UNEQUAL_SETS, start=1) for mode in ("full", "lim")]
    + [("sweep-ns3-5-eps0.1.csv", ("sweep", "--ns", "3,4,5", "--epsilon", "0.1")),
       ("sweep-n5-epsilons.json", ("sweep", "--n", "5", "--epsilons", "1e-1,1e-2,1e-3",
                                   "--format", "json"))]
    + [(f"limits-n{n}-eps{eps}.json", ("limits", "--n", str(n), "--epsilon", eps))
       for n in range(5, 8) for eps in ("0.1", "1e-5")]
)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(capsys, name, argv):
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# Every ``optswaps`` output of the stress sets (n = 5..23): three formats,
# with and without ``--verify``.  The outputs reach 250 MB at n = 23, so only
# their sha256 digests are kept, in ``optswaps-sha256.json``.  The target
# bias is a BLAS dot product whose last bits depend on the BLAS thread count,
# so the digests are made in a child process with BLAS pinned to one thread,
# as the benchmark does; ``python tests/test_golden.py`` prints them.
OPTSWAPS_CASES = [
    (f"n{n}-s{i}-{fmt}{'-verify' if verify else ''}",
     ("optswaps", "--format", fmt, "--biases", ",".join(repr(float(b)) for b in s))
     + (("--verify",) if verify else ()))
    for n, sets in STRESS_SETS.items() for i, s in enumerate(sets)
    for fmt in ("text", "json", "csv") for verify in (False, True)
]
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class _Sha256Writer:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def optswaps_digests() -> dict[str, str]:
    digests = {}
    for name, argv in OPTSWAPS_CASES:
        sink = _Sha256Writer()
        with contextlib.redirect_stdout(sink):
            assert cli.main(list(argv)) == 0
        digests[name] = sink.hash.hexdigest()
    return digests


def test_optswaps_outputs_match_digests():
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=900)
    assert child.returncode == 0, child.stderr
    actual = json.loads(child.stdout)
    expected = json.loads((GOLDEN / "optswaps-sha256.json").read_text())
    assert list(actual) == list(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


if __name__ == "__main__":
    json.dump(optswaps_digests(), sys.stdout, indent=2)
    sys.stdout.write("\n")
