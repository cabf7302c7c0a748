"""Byte-for-byte CLI outputs on a fixed grid, frozen under ``tests/golden/``.

The files hold the stdout of ``qcool.cli.main`` for each argument vector
below, so any change to cooling counts, limit bits or formatting shows up
here.  No benchmark op runs ``cool --mode lim``; these files are its only
byte check.  When an output is meant to change, record the new bytes with
``cli.main`` and say why in the change.
"""

from pathlib import Path

import pytest

import qcool.cli as cli

GOLDEN = Path(__file__).parent / "golden"

UNEQUAL_SETS = ["0.3,0.05,0.2,0.1", "0.15,0.4,0.1,0.2,0.05", "0.2,0.1,0.3,0.05,0.1,0.15"]

CASES = (
    [(f"cool-n{n}-eps{eps}-{mode}.json",
      ("cool", "--n", str(n), "--epsilon", eps, "--mode", mode))
     for n in range(3, 7) for eps in ("0.1", "1e-5") for mode in ("full", "lim")]
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
