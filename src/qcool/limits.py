"""Cooling limits: the limit exponent, closed forms, and the numerical loop.

The bias a qubit can attain is set by the fixed point of its last productive
complementary exchange.  For equal default biases this takes the closed form
[(1+eps)^f - (1-eps)^f] / [(1+eps)^f + (1-eps)^f] = tanh(f * atanh(eps)),
where the integer exponent f(r, k, n) counts how many default-bias units
qubit k effectively draws on in round r.  For unequal defaults the limit is
defined operationally by :func:`numerical_limits`, which iterates subspace
compression with ancilla biases pinned at their round-entry values.

Those ancillas stay fixed while one target converges, so each (round,
target) is one loop, :func:`_converge`, around one factor block of at most
0.85 MB whatever the register size.  A pass that the value-domain gate it
shares with register cooling (:mod:`qcool.compress`) clears exchanges only
the limiting pair, and every pass is bit-identical to a fresh build, mask
and ``np.dot`` marginal.

The analytic matrix for equal biases, :func:`analytic_limits`, takes each
column's exponents as one running binomial sum and is capped at
ANALYTIC_GRID_CAP entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .compress import _beneficial_indices, _halves, _limiting_verdict
from .errors import DivergenceError, ResourceCapError
from .regstate import DiagDist, RegisterBiases, _check_size, _count, _sign_vector

#: Above this value of f * eps the limit tanh(f * atanh(eps)) rounds to 1.0.
TANH_CROSSOVER = 30.0

#: Default bound on the compression passes of one loop: per (round, target)
#: in :func:`numerical_limits`, per (round, head) in register cooling.
DEFAULT_ITERATION_CAP = 10 ** 6

#: Default relative change per pass at which a convergence loop stops, in
#: :func:`numerical_limits`, register cooling and the CLI's ``--precision``.
DEFAULT_PRECISION = 1e-9

#: Most ancillas whose factors one block of a numerical-limits pass holds:
#: a block is at most (_BLOCK_ANCILLAS + 1) x 2^(_BLOCK_ANCILLAS + 1) doubles.
_BLOCK_ANCILLAS = 12

#: Most entries, rounds x n, of the analytic limit matrix :func:`analytic_limits` builds.
ANALYTIC_GRID_CAP = 1 << 20


def max_rounds(n: int) -> int:
    """Highest meaningful limiting round for an n-qubit register."""
    return n - 2


def _positive_count(value: int, name: str) -> int:
    """*value* as an int by :func:`_count`, once it is at least 1."""
    value = _count(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_rounds(n: int, rounds: int | None) -> int:
    """*rounds* as an int, None meaning n - 2, once n >= 3 and 1 <= rounds <= n - 2 hold."""
    if _count(n, "register size") < 3:
        raise ValueError(f"register must have n >= 3 qubits, got {n}")
    rounds = max_rounds(n) if rounds is None else _count(rounds, "rounds")
    if not 1 <= rounds <= max_rounds(n):
        raise ValueError(f"rounds must lie in 1..{max_rounds(n)} for n = {n}, got {rounds}")
    return rounds


def f(r: int, k: int, n: int) -> int:
    """Exponent of the round-r cooling limit for qubit k in an n-qubit register.

    With m = n - k - 1, f is the sum of C(m, i) for i = 0..min(r, m), so it
    is 2^m once r >= m, and 1 for k >= n - 1.  r is capped at n - 2, beyond
    which no further round improves any qubit.  For r < m the terms are
    built from each other and only the running sum is kept, so the cost is
    O(r) integer operations on integers of at most m bits.  A 2^m past
    Python's integer range raises :class:`ResourceCapError`.
    """
    for total in _partial_exponents(r, k, n):
        pass
    return total


def _partial_exponents(r: int, k: int, n: int) -> Iterator[int]:
    """Increasing partial sums of :func:`f`, ending with f(r, k, n); checks r, k and n now."""
    r = check_rounds(n, r)
    k = _count(k, "qubit index")
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    m = max(n - k - 1, 0)
    if r >= m:
        try:
            return iter((1 << m,))
        except OverflowError:
            raise ResourceCapError(f"limit exponent 2^{m} exceeds the integer range") from None
    return _binomial_sums(m, r)


def _binomial_sums(m: int, rounds: int) -> Iterator[int]:
    """The sum of C(m, i) for i = 0..min(r, m), for r = 0..rounds, each term from the last."""
    total = term = 1
    yield total
    for r in range(1, rounds + 1):
        if r <= m:
            term = term * (m + 1 - r) // r  # C(m, r), exactly
            total += term
        yield total


def _check_bias(eps: float) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {eps!r}")


def _saturates(eps: float, exponent: int) -> bool:
    """True when tanh(exponent * atanh(eps)) rounds to 1.0, for 0 < eps <= 1.

    That holds once exponent * eps > TANH_CROSSOVER: then m * atanh(e) >=
    m * e > 30, and tanh rounds to 1.0 from 19.1 on.  The comparison is
    exact: a big-int m is not converted.
    """
    crossover = TANH_CROSSOVER / eps
    if crossover == math.inf:
        # eps < 30 / DBL_MAX: m * e is formed exactly, as a big-int m need not fit a float.
        return exponent * Fraction(eps) > TANH_CROSSOVER
    return exponent > crossover


def _tanh_ratio(eps: float, exponent: int) -> float:
    # [(1+e)^m - (1-e)^m] / [(1+e)^m + (1-e)^m] = tanh(m * atanh(e))
    _check_bias(eps)
    if eps == 0.0:
        return 0.0
    if eps == 1.0 or _saturates(eps, exponent):
        return 1.0
    if TANH_CROSSOVER / eps == math.inf:
        return math.tanh(exponent * Fraction(eps))  # atanh(e) == e this small
    up = (1.0 + eps) ** exponent
    dn = (1.0 - eps) ** exponent
    return (up - dn) / (up + dn)


def analytic_limit(r: int, k: int, n: int, eps: float) -> float:
    """Round-r limiting bias of qubit k for equal default biases *eps*.

    The partial sums of f(r, k, n) stop at the first that saturates the
    tanh (or at once for eps = 0): f only grows, so the limit is the same
    float, and with r < m the rest of the terms, of up to m bits, are never
    formed.  A sum past 2^1080 saturates any eps > 0, and C(m, i) >= 2^i
    for i <= m / 2, so at most about 2,200 terms are formed, whatever r.
    """
    exponents = _partial_exponents(r, k, n)
    _check_bias(eps)
    for exponent in exponents:
        if eps == 0.0 or _saturates(eps, exponent):
            break
    return _tanh_ratio(eps, exponent)


def single_round_limit(eps: float, m: int) -> float:
    """Fixed point of the limiting swap with m ancilla/reset qubits at bias eps."""
    return _tanh_ratio(eps, _positive_count(m, "ancilla count"))


def shannon_bound(n: int, eps: float) -> float:
    """Closed-system entropy bound on the number of fully purifiable qubits."""
    n = _positive_count(n, "register size")
    _check_bias(eps)
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return float(n)
    p = (1.0 + eps) / 2.0
    q = (1.0 - eps) / 2.0
    entropy = -(p * math.log2(p) + q * math.log2(q))
    return n * (1.0 - entropy)


def sqrt_bound(n: int, eps: float) -> float:
    """First-order purity-conservation bound on the target bias, sqrt(n) * eps."""
    n = _positive_count(n, "register size")
    _check_bias(eps)
    return math.sqrt(n) * eps


def sort_bound(dist: DiagDist) -> float:
    """Eigenvalue-exchange upper bound: sort descending, top half minus bottom half."""
    p = np.sort(dist.probamps)[::-1]
    half = p.size // 2
    return float(p[:half].sum() - p[half:].sum())


@dataclass(frozen=True, eq=False)
class LimitMatrix:
    """rounds x n matrix of limiting biases; rows are rounds, columns qubits."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("limit matrix must be two-dimensional")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("limit entries must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rounds(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, key):
        return self.values[key]


def check_loop(precision: float, iteration_cap: int) -> int:
    """The one loop-bounds rule: *iteration_cap* as an int >= 1, once both bounds pass.

    *precision* must be a positive finite number, as the CLI's ``--precision``
    must, and not a bool; anything else raises :class:`ValueError` naming it.
    """
    if isinstance(precision, (bool, np.bool_)) or not 0.0 < precision < math.inf:
        raise ValueError(f"precision must be a positive finite number, got {precision!r}")
    return _positive_count(iteration_cap, "iteration cap")


def _check_grid(rounds: int, n: int) -> None:
    """Raise :class:`ResourceCapError` past ANALYTIC_GRID_CAP entries."""
    if rounds * n > ANALYTIC_GRID_CAP:
        raise ResourceCapError(f"analytic grid of {rounds} rounds x {n} qubits exceeds "
                               f"the cap of {ANALYTIC_GRID_CAP} entries")


def _exponent_grid(rounds: int, n: int) -> list[list[int]]:
    """f(r, k, n) for r = 1..rounds (rows) and k = 1..n (columns).

    Each column is one running binomial sum, so the grid costs O(rounds * n)
    integer operations, where calling :func:`f` per entry costs O(rounds^2 * n).
    """
    columns = [list(_binomial_sums(max(n - k - 1, 0), rounds))[1:] for k in range(1, n + 1)]
    return [list(row) for row in zip(*columns)]


def analytic_limits(n: int, rounds: int | None, eps: float) -> LimitMatrix:
    """Rounds x n matrix of :func:`analytic_limit` for equal default biases *eps*.

    Grids of more than ANALYTIC_GRID_CAP entries raise :class:`ResourceCapError`.
    """
    rounds = check_rounds(n, rounds)
    _check_grid(rounds, n)
    return LimitMatrix(np.array([[_tanh_ratio(eps, e) for e in row]
                                 for row in _exponent_grid(rounds, n)]))


def _converge(target: float, ancillas: Sequence[float], precision: float,
              iteration_cap: int) -> tuple[float, bool]:
    """Compress (target, *ancillas) until the target settles; returns (bias, settled).

    Each pass builds the product distribution of the target bias and the
    ancillas, applies every beneficial optswap and takes qubit 1's
    ``np.dot`` marginal as the new bias.  The loop stops once a pass changes
    the bias by at most *precision* relative (a zero bias must stay zero),
    or after *iteration_cap* passes with settled False.  The sign vector,
    the buffer, the ancillas' smallest bias and the factor block are built
    once.  Rows 1..k of the block hold the factors (1 +- b)/2 of the last
    k = min(q - 1, _BLOCK_ANCILLAS) ancillas, one column per index of a
    2^(k+1)-entry slice.  A pass fills row 0 with the target's factors, or
    past q = _BLOCK_ANCILLAS + 1 with each slice's prefix (the target factor
    times the leading ancillas' factors, left to right), and reduces the
    block into the slice.  Multiply has no pairwise reduction, so every
    probamp is the product :func:`~qcool.regstate.probamps` forms, bit for
    bit.  A pass the gate clears exchanges only the limiting pair, if it is
    beneficial; any other applies the full mask, to the same distribution.
    The ancillas, defaults or checked limits, lie in [0, 1], as the gate needs.
    """
    rest = [float(b) for b in ancillas]
    q = len(rest) + 1
    half = 1 << (q - 1)
    k = min(q - 1, _BLOCK_ANCILLAS)
    block = np.empty((k + 1, 1 << (k + 1)))
    for i, b in enumerate(rest[q - 1 - k:], start=1):
        bits = block[i].reshape(1 << i, 2, -1)  # bit i of the column index
        bits[:, 0], bits[:, 1] = (1.0 + b) / 2.0, (1.0 - b) / 2.0
    lead = [((1.0 + b) / 2.0, (1.0 - b) / 2.0) for b in rest[:q - 1 - k]]
    row_lo, row_hi = block[0].reshape(2, -1)
    p = np.empty(1 << q)
    pair = p[half - 1:half + 1]  # the limiting pair's two entries
    slices = list(p.reshape(-1, block.shape[1]))
    sign = _sign_vector(1, q)
    b_min = min(rest)
    for _ in range(iteration_cap):
        lo, hi = (1.0 + target) / 2.0, (1.0 - target) / 2.0
        if lead:
            prefix = [lo, hi]
            for factors in lead:
                prefix = [x * y for x in prefix for y in factors]
            for out, lo, hi in zip(slices, prefix[::2], prefix[1::2]):
                row_lo.fill(lo)
                row_hi.fill(hi)
                np.multiply.reduce(block, axis=0, out=out)
        else:
            row_lo.fill(lo)
            row_hi.fill(hi)
            np.multiply.reduce(block, axis=0, out=p)
        p_k, p_kk = pair.tolist()
        verdict = _limiting_verdict(target, p_k, p_kk, b_min)
        if verdict:
            pair[0], pair[1] = p_kk, p_k
        elif verdict is None:
            sel = _beneficial_indices(*_halves(p))
            p[sel], p[-1 - sel] = p[-1 - sel], p[sel]  # -1 - j indexes 2^q - 1 - j
        increased = float(sign.dot(p))  # np.dot(sign, p), without its dispatch
        settled = (increased == 0.0 if target == 0.0
                   else abs(increased / target - 1.0) <= precision)
        target = increased
        if settled:
            return target, True
    return target, False


def numerical_limits(biases: RegisterBiases | Sequence[float], rounds: int | None,
                     precision: float = DEFAULT_PRECISION, *,
                     iteration_cap: int = DEFAULT_ITERATION_CAP) -> LimitMatrix:
    """Per-round cooling limits of every qubit, for arbitrary default biases.

    For each round r and each target v = 1..n-r-1, :func:`_converge`
    repeatedly compresses the sub-register v..n built from the target's
    current bias and the ancillas' round-entry biases (ancilla losses are
    deliberately ignored) until the target's relative bias increase per
    pass is within *precision*.  Qubits beyond n-r-1 carry their prior-round
    values forward; each finished row seeds the next round.  A (round,
    target) that needs more than *iteration_cap* passes raises
    :class:`DivergenceError`: a *precision* near the rounding of the bias
    can leave the target alternating between two neighbouring floats.
    The first settled target outside [0, 1] raises :class:`ValueError`.
    """
    if not isinstance(biases, RegisterBiases):
        biases = RegisterBiases.from_values(biases)
    n = biases.n
    _check_size(n)
    rounds = check_rounds(n, rounds)
    iteration_cap = check_loop(precision, iteration_cap)

    matrix = np.empty((rounds, n))
    seed = biases.values
    for r, row in enumerate(matrix, start=1):
        row[:] = seed
        for v in range(1, n - r):  # targets 1..n-r-1
            target, settled = _converge(seed[v - 1].item(), seed[v:], precision, iteration_cap)
            if not settled:
                raise DivergenceError(
                    f"numerical limits exceeded {iteration_cap} passes "
                    f"(round {r}, target {v}, bias {target!r})",
                    round_index=r, subspace=v, passes=iteration_cap)
            if not 0.0 <= target <= 1.0:
                raise ValueError(f"limit entries must lie in [0, 1]: round {r}, qubit {v} "
                                 f"settled at {target!r}")
            row[v - 1] = target
        seed = row
    return LimitMatrix(matrix)
