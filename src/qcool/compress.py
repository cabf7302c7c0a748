"""Selection, application and verification of optimal complementary swaps.

An optswap exchanges a complementary probamp pair j <-> 2^n - 1 - j and is
beneficial exactly when it moves the larger value into the half where the
target qubit is |0>.  Applying every beneficial swap maximizes the target
bias gain over all eigenvalue exchanges that respect the pairing;
:func:`verify_optimality` rules out every non-complementary alternative by
checking the three pairwise optimality cases.  Each case reduces exactly to
one comparison of two probamps, so a threshold over the register finds the
rows that fail, in O(2^n), and only those rows are compared pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .regstate import DEFAULT_SIZE_CAP, DiagDist

#: Pairs whose relative difference is below this are treated as equal
#: (no swap), preventing zero-gain churn in iterative callers.
REL_TIE_TOL = 1e-12


def _beneficial(a: float, b: float) -> bool:
    """True when the 1T value b exceeds the 0T value a beyond the tie tolerance."""
    return (b - a) > REL_TIE_TOL * max(abs(a), abs(b))


def _halves(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # head[j] = probamp_j, tail[j] = probamp_{2^n - 1 - j}, j < 2^(n-1)
    half = p.size // 2
    return p[:half], p[::-1][:half]


def _beneficial_mask(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return (tail - head) > REL_TIE_TOL * np.maximum(np.abs(head), np.abs(tail))


def _optswap_indices(dist: DiagDist) -> np.ndarray:
    """Sorted int64 indices j of every beneficial complementary exchange."""
    head, tail = _halves(dist.probamps)
    return np.flatnonzero(_beneficial_mask(head, tail))


def find_optswaps(dist: DiagDist) -> frozenset[int]:
    """Indices j of every beneficial complementary exchange, per strict comparison."""
    return frozenset(_optswap_indices(dist).tolist())


def _sorted_indices(swaps: frozenset[int] | set[int]) -> np.ndarray:
    return np.sort(np.fromiter(swaps, np.int64, count=len(swaps)))


def _complements(idx: np.ndarray, size: int) -> np.ndarray:
    """Partners size - 1 - j of the sorted swap indices j, which must lie in [0, size/2)."""
    half = size // 2
    if idx.size and (idx[0] < 0 or idx[-1] >= half):
        raise ValueError(f"swap indices must lie in [0, {half})")
    return size - 1 - idx


def apply_swaps(dist: DiagDist, swaps: frozenset[int] | set[int]) -> DiagDist:
    """Exchange each listed complementary pair; the probamp multiset is preserved."""
    p = dist.probamps.copy()
    idx = _sorted_indices(swaps)
    comp = _complements(idx, p.size)
    p[idx], p[comp] = p[comp], p[idx]
    return DiagDist(p)


def _gain(p: np.ndarray, idx: np.ndarray) -> float:
    return float(2.0 * np.sum(p[_complements(idx, p.size)] - p[idx]))


def bias_gain(dist: DiagDist, swaps: frozenset[int] | set[int]) -> float:
    """Target-bias increase from performing *swaps*: 2 * sum of pair differences."""
    return _gain(dist.probamps, _sorted_indices(swaps))


@dataclass(frozen=True)
class Counterexample:
    """A pair (k, l) violating one of the three optimality cases.

    *excess* is the correctly rounded amount by which the pair breaks its
    case: t_l - t_k (case 1), h_l - t_k (case 2) or t_l - h_k (case 3),
    with h and t the head (0T) and tail (1T) probamps of a pair.
    """

    case: int
    k: int
    l: int
    excess: float


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the exhaustive pairwise optimality check.

    Cases 1 and 2 apply when at least one swap was selected; case 3 applies
    when none was.  Inapplicable cases are None.
    """

    swaps_performed: int
    case1_passed: bool | None
    case2_passed: bool | None
    case3_passed: bool | None
    counterexamples: tuple[Counterexample, ...]

    @property
    def all_passed(self) -> bool:
        return not self.counterexamples


def _violations(case: int, ks: np.ndarray, a: np.ndarray, ls: np.ndarray,
                b: np.ndarray) -> list[Counterexample]:
    """Pairs (ks[r], ls[c]) with b[c] > a[r], in row-major order.

    With gradual underflow, fl(b[c] - a[r]) has the sign of the exact
    difference, so only rows with a[r] < max(b) are scanned, each holds a
    counterexample, and its excess is the correctly rounded b[c] - a[r].
    """
    found: list[Counterexample] = []
    for r in np.flatnonzero(a < b.max(initial=-np.inf)).tolist():
        excess = b - a[r]
        found += [Counterexample(case, int(ks[r]), int(ls[c]), float(excess[c]))
                  for c in np.flatnonzero(excess > 0.0).tolist()]
    return found


def verify_optimality(dist: DiagDist, *, max_n: int = DEFAULT_SIZE_CAP) -> OptimalityReport:
    """Check that the selected swaps maximize the target bias, for every pair.

    With h = head (0T) and t = tail (1T) values, performed swaps K (gain
    v_k = t_k - h_k each) and strictly non-beneficial pairs L, the checks
    are, on the original (pre-swap) probamps:

    * case 1: t_l - h_k <= v_k, i.e. t_l <= t_k,  for all k in K, l in L;
    * case 2: t_l - h_k <= v_k + v_l, i.e. h_l <= t_k,  for all k != l in K;
    * case 3 (K empty): t_l <= h_k  for all pairs k, l.

    Each case is one comparison of two probamps, decided exactly.  Case 2
    cannot fail on its diagonal, as h_k < t_k for k in K.  The cost is
    O(2^n), plus one O(2^n) row scan for each k with a counterexample.
    Registers beyond *max_n* qubits are rejected.
    """
    n = dist.n
    if n > max_n:
        raise ResourceCapError(
            f"optimality check on {n} qubits exceeds the cap {max_n}")
    head, tail = _halves(dist.probamps)
    K = np.flatnonzero(_beneficial_mask(head, tail))
    L = np.flatnonzero(_beneficial_mask(tail, head))  # ties belong to neither side
    if K.size:
        t_K = tail[K]
        case1 = _violations(1, K, t_K, L, tail[L])
        case2 = _violations(2, K, t_K, K, head[K])
        return OptimalityReport(int(K.size), not case1, not case2, None,
                                tuple(case1 + case2))
    pairs = np.arange(head.size)
    case3 = _violations(3, pairs, head, pairs, tail)
    return OptimalityReport(0, None, None, not case3, tuple(case3))
