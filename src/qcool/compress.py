"""Selection, application and verification of optimal complementary swaps.

An optswap exchanges a complementary probamp pair j <-> 2^n - 1 - j and is
beneficial exactly when it moves the larger value into the half where the
target qubit is |0>.  Applying every beneficial swap maximizes the target
bias gain over all eigenvalue exchanges that respect the pairing;
:func:`verify_optimality` rules out every non-complementary alternative by
checking the three pairwise optimality cases.  It bounds each case by a
threshold over the whole register, in O(2^n), and evaluates the pairwise
formula only on the rows the threshold cannot clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


def find_optswaps(dist: DiagDist) -> frozenset[int]:
    """Indices j of every beneficial complementary exchange, per strict comparison."""
    head, tail = _halves(dist.probamps)
    return frozenset(int(j) for j in np.nonzero(_beneficial_mask(head, tail))[0])


def _complements(idx: np.ndarray, size: int) -> np.ndarray:
    """Partners size - 1 - j of the sorted swap indices j, which must lie in [0, size/2)."""
    half = size // 2
    if idx.size and (idx[0] < 0 or idx[-1] >= half):
        raise ValueError(f"swap indices must lie in [0, {half})")
    return size - 1 - idx


def apply_swaps(dist: DiagDist, swaps: frozenset[int] | set[int]) -> DiagDist:
    """Exchange each listed complementary pair; the probamp multiset is preserved."""
    p = dist.probamps.copy()
    idx = np.fromiter(sorted(swaps), dtype=np.int64)
    comp = _complements(idx, p.size)
    p[idx], p[comp] = p[comp], p[idx]
    return DiagDist(p)


def bias_gain(dist: DiagDist, swaps: frozenset[int] | set[int]) -> float:
    """Target-bias increase from performing *swaps*: 2 * sum of pair differences."""
    p = dist.probamps
    idx = np.fromiter(sorted(swaps), dtype=np.int64)
    return float(2.0 * np.sum(p[_complements(idx, p.size)] - p[idx]))


@dataclass(frozen=True)
class Counterexample:
    """A pair (k, l) violating one of the three optimality cases."""

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


def _violations(case: int, rows: np.ndarray, ks: Sequence[int], cols: Sequence[int],
                excess_row: Callable[[int], np.ndarray], *,
                distinct: bool = False) -> list[Counterexample]:
    """Counterexamples of one case among the candidate *rows*, in row-major order.

    ``excess_row(r)`` evaluates row r against every column with the case's
    pairwise formula; entry (r, c) names the pair (ks[r], cols[c]).  With
    *distinct*, the pair of a row with its own column is skipped.
    """
    found: list[Counterexample] = []
    for r in rows.tolist():
        excess = excess_row(r)
        bad = excess > 0.0
        if distinct:
            bad[r] = False
        found += [Counterexample(case, int(ks[r]), int(cols[c]), float(excess[c]))
                  for c in np.flatnonzero(bad).tolist()]
    return found


def verify_optimality(dist: DiagDist, *, max_n: int = DEFAULT_SIZE_CAP) -> OptimalityReport:
    """Check that the selected swaps maximize the target bias, for every pair.

    With performed swaps K (gain v_k each) and strictly non-beneficial pairs
    L, the checks are, on the original (pre-swap) probamps:

    * case 1: probamp[comp(l)] - probamp[k] <= v_k  for all k in K, l in L;
    * case 2: probamp[comp(l)] - probamp[k] <= v_k + v_l  for all k != l in K;
    * case 3 (K empty): probamp[k] >= probamp[comp(l)]  for all pairs k, l.

    A threshold over the register clears every row k that cannot violate
    its case; only the other rows are compared with all 2^(n-1) columns, and
    each of those holds a counterexample unless it lies within rounding of
    a tie.  So the check is O(2^n) unless it finds counterexamples.
    Registers beyond *max_n* qubits are rejected.
    """
    n = dist.n
    if n > max_n:
        raise ResourceCapError(
            f"optimality check on {n} qubits exceeds the cap {max_n}")
    p = dist.probamps
    head, tail = _halves(p)
    K = np.flatnonzero(_beneficial_mask(head, tail))
    L = np.flatnonzero(_beneficial_mask(tail, head))  # ties belong to neither side
    if K.size:
        h_K, t_K, t_L = head[K], tail[K], tail[L]
        v = t_K - h_K
        # Case 1: t_l <= t_k gives fl(t_l - h_k) <= fl(t_k - h_k) = v_k, as
        # rounding is monotone, so only rows with t_k < max t[L] can fail.
        rows1 = np.flatnonzero(t_K < t_L.max(initial=-np.inf))
        case1 = _violations(1, rows1, K, L, lambda r: (t_L - h_K[r]) - v[r])
        # Case 2: the exact excess is h_l - t_k, but fl(fl(t_l - h_k) -
        # fl(v_k + v_l)) can round positive near a tie.  With u = eps/2,
        # fl(t_l - h_k), v_k and v_l each err by at most u max(p), and
        # fl(v_k + v_l) by at most 2u max(p) (1 + 2u): under 6u max(p) =
        # 3 eps max(p) in all, and the final subtraction keeps the sign of
        # its exact result.  So only rows with t_k < max h[K] + slack can
        # fail; slack = 16 eps max(p) also covers rounding that threshold.
        slack = 16.0 * np.finfo(float).eps * float(p.max())
        rows2 = np.flatnonzero(t_K < h_K.max() + slack)
        case2 = _violations(2, rows2, K, K, lambda r: (t_K - h_K[r]) - (v[r] + v),
                            distinct=True)
        return OptimalityReport(int(K.size), not case1, not case2, None,
                                tuple(case1 + case2))

    # No beneficial swap exists: every 0T probamp must dominate every 1T one,
    # and fl(t_l - h_k) > 0 exactly when t_l > h_k.
    pairs = range(head.size)
    rows3 = np.flatnonzero(head < tail.max())
    case3 = _violations(3, rows3, pairs, pairs, lambda r: tail - head[r])
    return OptimalityReport(0, None, None, not case3, tuple(case3))
