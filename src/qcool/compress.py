"""Selection, application and verification of optimal complementary swaps.

An optswap exchanges a complementary probamp pair j <-> 2^n - 1 - j and is
beneficial exactly when it moves the larger value into the half where the
target qubit is |0>.  Applying every beneficial swap maximizes the target
bias gain over all eigenvalue exchanges that respect the pairing;
:func:`verify_optimality` rules out every non-complementary alternative by
checking the three pairwise optimality cases.  Each case reduces exactly to
one comparison of two probamps, so a threshold over the register finds the
rows that fail, in O(2^n), and only those rows are compared pair by pair.

A swap set, as :func:`find_optswaps` returns it and :func:`_swap_pairs`
checks it, is a 1-D integer array of strictly increasing 0T indices j.
The set is a property of the product register: from a register,
:func:`find_optswaps` builds each head block of the product vector beside
its mirror tail block with the vector's own block builder and masks the
pair, so it holds two blocks, never the 2^n vector, and selects exactly
what the scan of the full vector selects.

The verdict on the limiting pair |011..1> <-> |100..0> lives here as well,
:func:`_limiting_verdict`, which the numerical limits call.  From the head
bias, that pair and the smallest ancilla bias, its value-domain gate
proves, in O(1), when no other pair of a product state can be beneficial;
it then returns the pair's tie verdict, and otherwise None, so that the
caller builds the full mask.  The gate is a head below 1 and a ratio
test, and the margin proof, ``GATE_MARGIN``, is written here only.  The
full-mode cooling kernels of :func:`qcool.hbac._kernel` make the same
comparisons on unhalved factors, with b_min the smallest live ancilla;
their docstring shows why neither changes a byte.  The tests hold this
function and every kernel to one reference verdict in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from . import regstate
from .regstate import DiagDist, RegisterBiases, _block_starts, _check_size, _fill_block

#: Pairs whose relative difference is below this are treated as equal
#: (no swap), preventing zero-gain churn in iterative callers.
REL_TIE_TOL = 1e-12


#: Margin by which the gate must rule out every non-limiting pair: it accepts
#: only when the best such pair's probamp ratio, tail over head, is below
#: exp(-2 GATE_MARGIN).  Take as exact the product of the rounded factors
#: fl(1 -+ b) that every build shares (u = 2^-53): the full build and a
#: pass's scalar loop halve each and the cooling kernels do not, and
#: halving scales a product by 2^-q, exactly wherever the gate accepts (see
#: :func:`_limiting_verdict`).  Each computed probamp is a product of at
#: most 26 of them, within 26u relative of it; r = fl(1 - b) / fl(1 + b)
#: is within u, and the gate's two sides are within 60u of exact.  The
#: full build's ratio of any pair is within 52u.  Together that is below
#: 1e-14 relative, far inside the 2e-9 that separates exp(-2 GATE_MARGIN)
#: from 1, so a pair the gate rules out is not beneficial in the full build
#: either.  The 1e-12 relative tie tolerance of the beneficial test only
#: ever removes pairs, so the gate stays conservative.
GATE_MARGIN = 1e-9
_GATE_RATIO = math.exp(-2.0 * GATE_MARGIN)


def _limiting_verdict(head: float, p_k: float, p_kk: float, b_min: float) -> bool | None:
    """The limiting pair's tie verdict, or None when the gate defers to the full mask.

    The gate accepts when it proves that no pair of the q-qubit product
    state but the limiting one |011..1> <-> |100..0> can be beneficial, and
    the verdict is then the tie-tolerant comparison of that pair; otherwise
    the caller builds the full mask.  Takes the head bias, the pair's two
    probamps p_k and p_kk, built as the full build's entries are (each
    entry's factors multiplied left to right in qubit order, starting from
    1.0), and the smallest ancilla bias, for biases in [0, 1].

    A complementary pair's tail over head ratio is the product over qubits
    of (1 - s_i beta_i) / (1 + s_i beta_i), with s_i = +1 where bit i of its
    index is 0, else -1; the head qubit has s_1 = +1.  The limiting pair,
    p_kk / p_k, has every other s_i = -1.  Each s_i = +1 among the
    ancillas multiplies its ratio by ((1 - beta_i) / (1 + beta_i))^2 <= 1,
    so the best other pair flips only the smallest ancilla bias: its ratio
    is p_kk r^2 / p_k with r = (1 - b_min) / (1 + b_min).  Rounding of
    (1 +- b) / 2 is monotone in b, so the same holds for the rounded
    factors of the full build.

    The gate is a head below 1 and that ratio below ``_GATE_RATIO``; the
    probamps are then non-negative, so the tie test compares the gap with
    p_kk, the larger one wherever the gap is positive.  It needs no guard
    on small entries (rounding is monotone, and each bound is a float):
    with head < 1 and b_min < 1, p_kk >= 2^-54 (1/2)^(q-1) and r >= 2^-54,
    so where the gate accepts p_k > 2^-(q+161), and the build's smallest
    entry, p_k (1 - head) / (1 + head), exceeds 2^-(q+215), about 1e-73 at
    q = 26.  With b_min = 1, p_k = r = 0 and the ratio test defers; so it
    does, by more than 2^800, where p_k is subnormal (a halved product at
    q >= 20 with ancillas within 2^-50 of 1).

    The tests hold this verdict and the kernels of :func:`qcool.hbac._kernel`
    to the earlier one in ``tests/oracles.py``, which also deferred on a
    smallest entry below 1e-280.
    """
    if head < 1.0:
        r = (1.0 - b_min) / (1.0 + b_min)
        if p_kk * r * r < _GATE_RATIO * p_k:
            return p_kk - p_k > REL_TIE_TOL * p_kk
    return None


def _halves(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # head[j] = probamp_j, tail[j] = probamp_{2^n - 1 - j}, j < 2^(n-1)
    half = p.size // 2
    return p[:half], p[::-1][:half]


def _beneficial_mask(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return (tail - head) > REL_TIE_TOL * np.maximum(np.abs(head), np.abs(tail))


def _mask_indices(slices: Iterable[tuple[np.ndarray, np.ndarray]], size: int) -> np.ndarray:
    """Sorted int64 indices where :func:`_beneficial_mask` holds over *size* pairs.

    *slices* yields consecutive (head, tail) slices of the pairs; each is
    masked before the next is drawn, so a producer may reuse its buffers.
    """
    mask = np.empty(size, dtype=bool)
    lo = 0
    for head, tail in slices:
        hi = lo + head.size
        mask[lo:hi] = _beneficial_mask(head, tail)
        lo = hi
    return np.flatnonzero(mask)


def _beneficial_indices(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Sorted int64 indices where :func:`_beneficial_mask` holds, one build block at a time."""
    step = 1 << regstate._BLOCK_BITS
    return _mask_indices(((head[lo:lo + step], tail[lo:lo + step])
                          for lo in range(0, head.size, step)), head.size)


def _register_slices(values: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(head, tail) of each block pair of the build of *values*, in one reused buffer.

    Head block b and its mirror, block b counted from the end, are filled
    side by side, so the buffer's halves pair entry j with 2^n - 1 - j as
    the vector's do; with a single block the buffer is the whole vector.
    """
    starts, rest = _block_starts(values)
    buf = np.empty(min(starts.size, 2) << len(rest))
    blocks = buf.reshape(-1, 1 << len(rest))
    for b in range(max(starts.size // 2, 1)):
        for block, start in zip(blocks, (starts[b], starts[-1 - b])):
            _fill_block(block, start, rest)
        yield _halves(buf)


def find_optswaps(source: DiagDist | RegisterBiases) -> np.ndarray:
    """The swap set of every beneficial complementary exchange, per strict comparison.

    A register is scanned one block pair at a time and gives the same set
    as ``find_optswaps(probamps(register))``; past the size cap it raises
    :class:`ResourceCapError`.
    """
    if isinstance(source, RegisterBiases):
        _check_size(source.n)
        return _mask_indices(_register_slices(source.values), 1 << (source.n - 1))
    return _beneficial_indices(*_halves(source.probamps))


def _swap_pairs(swaps: ArrayLike, size: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 (idx, partners size - 1 - idx) of the swap set *swaps* on *size* entries.

    *swaps* is any 1-D integer array-like, [] included, of strictly increasing
    indices in [0, size/2); anything else raises :class:`ValueError`.
    """
    half = size // 2
    idx = np.asarray(swaps)
    if idx.ndim == 1 and (idx.size == 0 or idx.dtype.kind in "iu"):
        idx = idx.astype(np.int64, copy=False)  # a uint64 past int64 wraps negative
        if idx.size == 0 or (idx[0] >= 0 and idx[-1] < half and np.all(idx[1:] > idx[:-1])):
            return idx, size - 1 - idx
    raise ValueError("swaps must be a 1-D integer array of strictly increasing indices "
                     f"in [0, {half})")


def apply_swaps(dist: DiagDist, swaps: ArrayLike) -> DiagDist:
    """Exchange each pair of the swap set *swaps*; the probamp multiset is preserved."""
    p = dist.probamps.copy()
    idx, comp = _swap_pairs(swaps, p.size)
    p[idx], p[comp] = p[comp], p[idx]
    return DiagDist._own(p)


def bias_gain(dist: DiagDist, swaps: ArrayLike) -> float:
    """Target-bias increase from performing the swap set *swaps*: 2 * sum of pair differences."""
    p = dist.probamps
    idx, comp = _swap_pairs(swaps, p.size)
    return float(2.0 * np.sum(p[comp] - p[idx]))


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


def verify_optimality(dist: DiagDist) -> OptimalityReport:
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
    Registers beyond the size cap raise :class:`ResourceCapError`.
    """
    _check_size(dist.n)
    head, tail = _halves(dist.probamps)
    K = _beneficial_indices(head, tail)
    L = _beneficial_indices(tail, head)  # ties belong to neither side
    if K.size:
        t_K = tail[K]
        case1 = _violations(1, K, t_K, L, tail[L])
        case2 = _violations(2, K, t_K, K, head[K])
        return OptimalityReport(int(K.size), not case1, not case2, None,
                                tuple(case1 + case2))
    pairs = np.arange(head.size)
    case3 = _violations(3, pairs, head, pairs, tail)
    return OptimalityReport(0, None, None, not case3, tuple(case3))
