"""Job lists of the benchmark workloads and the checks on every output.

Each op is one ``qcool`` command line.  Its stdout must match the sha256
digest recorded in ``expected.json``; circuits are also simulated with
``circuit_permutation`` and compared against the swap set they realize.

Generated inputs come from fixed pools, so every one of them has a recorded
digest; ``--seed`` chooses which pool members a run uses.  The published
stress sets are read from ``tests/fixture_sets.py`` without executing it.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from qcool import circuits, limits
from qcool.compress import REL_TIE_TOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE_PATH = ROOT / "tests" / "fixture_sets.py"
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("cool", "limits", "single_shot")

POOL_SIZE = 8
LIMITS_PICKS = 2
CIRCUIT_PICKS = 3
# Unequal n = 9 registers in the small-bias regime.  The limit-saturation
# defect has its own op (KNOWN_DEFECT), so the pool stays clear of it and
# every pool member has a recorded digest.
LIMITS_POOL_SEED, LIMITS_POOL_RANGE = 9009, (0.001, 0.02)
CIRCUIT_POOL_SEED, CIRCUIT_POOL_RANGE = 1212, (0.01, 0.3)

# Unequal registers of acceptance criterion 07.
UNEQUAL_REGISTERS = ((0.3, 0.05, 0.2, 0.1),
                     (0.15, 0.4, 0.1, 0.2, 0.05),
                     (0.2, 0.1, 0.3, 0.05, 0.1, 0.15))

# `limits --n 10 --epsilon 0.1` exits 2 because a limit rounds above 1.  It
# counts as a failed op until fixed; then it must agree with analytic_limit
# within acceptance criterion 06's relative 1e-6.
KNOWN_DEFECT = "limit entries must lie in [0, 1]"
ANALYTIC_RTOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload's job list."""

    op_id: str
    argv: tuple[str, ...]
    known_failure: str | None = None


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def stress_sets() -> dict[int, list[tuple[float, ...]]]:
    """The published STRESS_SETS literal, parsed without running the module."""
    tree = ast.parse(FIXTURE_PATH.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "STRESS_SETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"STRESS_SETS not found in {FIXTURE_PATH}")


def _pool(seed: int, n: int, lo: float, hi: float) -> list[tuple[float, ...]]:
    rng = np.random.default_rng(seed)
    return [tuple(float(x) for x in np.round(rng.uniform(lo, hi, size=n), 4))
            for _ in range(POOL_SIZE)]


def limits_pool() -> list[tuple[float, ...]]:
    return _pool(LIMITS_POOL_SEED, 9, *LIMITS_POOL_RANGE)


def circuit_pool() -> list[tuple[float, ...]]:
    return _pool(CIRCUIT_POOL_SEED, 12, *CIRCUIT_POOL_RANGE)


def _picks(seed: int, salt: int, k: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return sorted(int(i) for i in rng.choice(POOL_SIZE, size=k, replace=False))


def _cool_ops(seed: int | None) -> list[Op]:
    ops = [Op(f"cool.n{n}.eps{eps}", ("cool", "--n", str(n), "--epsilon", eps))
           for n in (5, 6, 7) for eps in ("0.1", "1e-5")]
    ops += [Op(f"cool.unequal{len(b)}", ("cool", "--biases", _csv(b)))
            for b in UNEQUAL_REGISTERS]
    ops.append(Op("sweep.n5", ("sweep", "--n", "5", "--epsilons", "1e-1,1e-2,1e-3")))
    return ops


def _limits_ops(seed: int | None) -> list[Op]:
    ops = [Op(f"limits.n{n}.eps{eps}", ("limits", "--n", str(n), "--epsilon", eps))
           for n in (8, 9) for eps in ("1e-2", "1e-5")]
    pool = limits_pool()
    chosen = range(POOL_SIZE) if seed is None else _picks(seed, 9, LIMITS_PICKS)
    ops += [Op(f"limits.pool{i}", ("limits", "--biases", _csv(pool[i]))) for i in chosen]
    ops.append(Op("limits.n10.eps0.1", ("limits", "--n", "10", "--epsilon", "0.1"),
                  known_failure=KNOWN_DEFECT))
    for eps in ("1e-2", "1e-5"):
        ops += [Op(f"limits.analytic.n{n}.eps{eps}",
                   ("limits", "--analytic", "--n", str(n), "--epsilon", eps))
                for n in range(8, 17)]
        ops += [Op(f"bounds.n{n}.eps{eps}", ("bounds", "--n", str(n), "--epsilon", eps))
                for n in range(8, 17)]
    return ops


def _single_shot_ops(seed: int | None) -> list[Op]:
    sets = stress_sets()
    ops = [Op(f"optswaps.verify.n{n}.s{i}",
              ("optswaps", "--verify", "--format", "json", "--biases", _csv(s)))
           for n in (5, 9, 14) for i, s in enumerate(sets[n])]
    ops += [Op(f"optswaps.n19.s{i}", ("optswaps", "--format", "json", "--biases", _csv(s)))
            for i, s in enumerate(sets[19])]
    ops.append(Op("optswaps.n23.s0",
                  ("optswaps", "--format", "csv", "--biases", _csv(sets[23][0]))))
    ops += [Op(f"circuit.n{n}.s{i}", ("circuit", "--from-biases", _csv(s)))
            for n in (5, 9) for i, s in enumerate(sets[n])]
    pool = circuit_pool()
    chosen = range(POOL_SIZE) if seed is None else _picks(seed, 12, CIRCUIT_PICKS)
    ops += [Op(f"circuit.pool{i}", ("circuit", "--from-biases", _csv(pool[i])))
            for i in chosen]
    ops += [Op(f"circuit.lim.n{n}", ("circuit", "--lim", str(n))) for n in range(2, 17)]
    return ops


_BUILDERS = {"cool": _cool_ops, "limits": _limits_ops, "single_shot": _single_shot_ops}


def job_list(workload: str, seed: int | None) -> list[Op]:
    """The ops one pass of *workload* runs; seed None lists every pool member."""
    return _BUILDERS[workload](seed)


# One n = 3 call of each subcommand, run before anything is timed.
WARM_UP = (
    ("optswaps", "--n", "3", "--epsilon", "0.1", "--verify", "--format", "json"),
    ("optswaps", "--n", "3", "--epsilon", "0.1", "--format", "csv"),
    ("limits", "--n", "3", "--epsilon", "0.1"),
    ("limits", "--n", "3", "--epsilon", "0.1", "--analytic"),
    ("cool", "--n", "3", "--epsilon", "0.1"),
    ("circuit", "--lim", "3"),
    ("circuit", "--from-biases", "0.2,0.2,0.2"),
    ("sweep", "--n", "3", "--epsilons", "0.1"),
    ("bounds", "--n", "3", "--epsilon", "0.1"),
)


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def digest(text: str) -> tuple[str, int]:
    """sha256 hex digest and UTF-8 byte length of *text*, hashed in chunks."""
    h = hashlib.sha256()
    size = 0
    step = 1 << 20
    for lo in range(0, len(text), step):
        chunk = text[lo:lo + step].encode()
        h.update(chunk)
        size += len(chunk)
    return h.hexdigest(), size


def optswap_set(biases) -> np.ndarray:
    """Beneficial complementary pairs of a product register, built independently."""
    p = np.ones(1)
    for eps in biases:
        p = (p[:, None] * np.array([(1.0 + eps) / 2.0, (1.0 - eps) / 2.0])).ravel()
    half = p.size // 2
    head, tail = p[:half], p[::-1][:half]
    return np.nonzero((tail - head) > REL_TIE_TOL * np.maximum(head, tail))[0]


def transposition_perm(n: int, swaps) -> np.ndarray:
    perm = np.arange(1 << n, dtype=np.int64)
    swaps = np.asarray(swaps, dtype=np.int64)
    comp = (1 << n) - 1 - swaps
    perm[swaps], perm[comp] = comp, swaps
    return perm


def _check_circuit(op: Op, text: str) -> str | None:
    circuit = circuits.parse_text(text)
    if op.argv[1] == "--lim":
        n = int(op.argv[2])
        swaps = [(1 << (n - 1)) - 1]
    else:
        biases = [float(tok) for tok in op.argv[2].split(",")]
        n = len(biases)
        swaps = optswap_set(biases)
    if circuit.n != n:
        return f"circuit has {circuit.n} wires, expected {n}"
    if not np.array_equal(circuits.circuit_permutation(circuit), transposition_perm(n, swaps)):
        return "circuit permutation differs from its swap set"
    return None


def _check_known_defect_fixed(op: Op, text: str) -> str | None:
    n, eps = int(op.argv[2]), float(op.argv[4])
    matrix = json.loads(text)["matrix"]
    for r, row in enumerate(matrix, start=1):
        for k, got in enumerate(row, start=1):
            want = limits.analytic_limit(r, k, n, eps)
            if abs(got / want - 1.0) > ANALYTIC_RTOL:
                return f"round {r} qubit {k}: {got!r} vs analytic {want!r}"
    return None


def verdict(op: Op, rc: int, stdout: str, stderr: str, sha: str,
            expected: dict[str, str]) -> str | None:
    """None when the op's output is right; else why it failed.

    A known defect that still shows is reported as "known: ..." so callers
    count it as failed without marking the run incorrect.
    """
    if op.known_failure is not None:
        if rc == 2 and op.known_failure in stderr:
            return f"known: exit 2, {stderr.strip()}"
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[:200]}"
        return _check_known_defect_fixed(op, stdout)
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]}"
    want = expected.get(op.op_id)
    if want is None:
        return "no recorded digest"
    if sha != want:
        return f"stdout sha256 {sha[:12]} differs from recorded {want[:12]}"
    if op.argv[0] == "circuit":
        return _check_circuit(op, stdout)
    return None
