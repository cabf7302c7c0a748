"""Cooling limits: the limit exponent, closed forms, and the numerical loop.

The bias a qubit can attain is set by the fixed point of its last productive
complementary exchange.  For equal default biases this takes the closed form
[(1+eps)^f - (1-eps)^f] / [(1+eps)^f + (1-eps)^f] = tanh(f * atanh(eps)),
where the integer exponent f(r, k, n) counts how many default-bias units
qubit k effectively draws on in round r.  For unequal defaults the limit is
defined operationally by :func:`numerical_limits`, which iterates subspace
compression with ancilla biases pinned at their round-entry values.

Those ancillas stay fixed while one target converges, so each (round,
target) builds one pass: a factor block that holds the fixed factors of up
to the last 12 ancillas (at most 13 x 8192 doubles, 0.85 MB, whatever the
register size) and qubit 1's sign vector.  A pass fills the block's prefix
row from the current target bias, reduces the block into the distribution
with one ``np.multiply.reduce`` per 8192-entry slice, and asks the
value-domain gate it shares with register cooling (:mod:`qcool.compress`)
whether only the limiting pair can gain; if so it exchanges that one pair
in place, else it applies the full beneficial mask.  The matrices are
bit-identical to a fresh build, mask and marginal on every pass.

The analytic matrix for equal biases, :func:`analytic_limits`, takes each
column's exponents as one running binomial sum and is capped at
ANALYTIC_GRID_CAP entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .compress import _beneficial, _beneficial_indices, _halves, _only_limiting_pair
from .errors import DivergenceError, ResourceCapError
from .regstate import DiagDist, RegisterBiases, _check_size, _sign_vector

#: Above this value of f * eps the limit tanh(f * atanh(eps)) rounds to 1.0.
TANH_CROSSOVER = 30.0

#: Default bound on the compression passes of one loop: per (round, target)
#: in :func:`numerical_limits`, per (round, head) in register cooling.
DEFAULT_ITERATION_CAP = 10 ** 6

#: Most ancillas whose factors one block of a numerical-limits pass holds:
#: a block is at most (_BLOCK_ANCILLAS + 1) x 2^(_BLOCK_ANCILLAS + 1) doubles.
_BLOCK_ANCILLAS = 12

#: Most entries, rounds x n, of the analytic limit matrix :func:`analytic_limits` builds.
ANALYTIC_GRID_CAP = 1 << 20


def max_rounds(n: int) -> int:
    """Highest meaningful limiting round for an n-qubit register."""
    return n - 2


def check_rounds(n: int, rounds: int | None) -> int:
    """*rounds*, None meaning n - 2, once n >= 3 and 1 <= rounds <= n - 2 hold."""
    if n < 3:
        raise ValueError(f"register must have n >= 3 qubits, got {n}")
    rounds = max_rounds(n) if rounds is None else rounds
    if not 1 <= rounds <= max_rounds(n):
        raise ValueError(f"rounds must lie in 1..{max_rounds(n)} for n = {n}, got {rounds}")
    return rounds


def f(r: int, k: int, n: int) -> int:
    """Exponent of the round-r cooling limit for qubit k in an n-qubit register.

    With m = n - k - 1, f is the sum of C(m, i) for i = 0..min(r, m), so it
    is 2^m once r >= m, and 1 for k >= n - 1.  r is capped at n - 2, beyond
    which no further round improves any qubit.  The terms are built from
    each other, so the cost is O(min(r, m)) integer operations.
    """
    check_rounds(n, r)
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    m = max(n - k - 1, 0)
    *_, total = _binomial_sums(m, min(r, m))
    return total


def _binomial_sums(m: int, rounds: int) -> Iterator[int]:
    """The sum of C(m, i) for i = 0..min(r, m), for r = 0..rounds, each term from the last."""
    total = term = 1
    yield total
    for r in range(1, rounds + 1):
        if r <= m:
            term = term * (m + 1 - r) // r  # C(m, r), exactly
            total += term
        yield total


def _tanh_ratio(eps: float, exponent: int) -> float:
    # [(1+e)^m - (1-e)^m] / [(1+e)^m + (1-e)^m] = tanh(m * atanh(e))
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {eps!r}")
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return 1.0
    crossover = TANH_CROSSOVER / eps
    if crossover == math.inf:
        # eps < 30 / DBL_MAX, so atanh(e) == e; m * e is formed exactly, as a
        # big-int m need not fit a float.
        x = exponent * Fraction(eps)
        return 1.0 if x > TANH_CROSSOVER else math.tanh(x)
    # Past the crossover m * atanh(e) >= m * e > 30, and tanh rounds to 1.0
    # from 19.1 on.  The comparison is exact: a big-int m is not converted.
    if exponent > crossover:
        return 1.0
    up = (1.0 + eps) ** exponent
    dn = (1.0 - eps) ** exponent
    return (up - dn) / (up + dn)


def analytic_limit(r: int, k: int, n: int, eps: float) -> float:
    """Round-r limiting bias of qubit k for equal default biases *eps*."""
    return _tanh_ratio(eps, f(r, k, n))


def single_round_limit(eps: float, m: int) -> float:
    """Fixed point of the limiting swap with m ancilla/reset qubits at bias eps."""
    if m < 1:
        raise ValueError(f"ancilla count must be >= 1, got {m}")
    return _tanh_ratio(eps, m)


def shannon_bound(n: int, eps: float) -> float:
    """Closed-system entropy bound on the number of fully purifiable qubits."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {eps!r}")
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


def check_loop(precision: float, iteration_cap: int) -> None:
    """The one rule for a convergence loop's bounds: *precision* > 0, *iteration_cap* >= 1."""
    if not precision > 0.0:
        raise ValueError(f"precision must be positive, got {precision!r}")
    if iteration_cap < 1:
        raise ValueError("iteration cap must be positive")


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


def _target_pass(ancillas: Sequence[float]) -> Callable[[float], float]:
    """One optswap compression of (target, *ancillas) as a function of the target bias.

    Built once per (round, target): qubit 1's sign vector and a factor
    block of k + 1 rows by 2^(k+1) columns, k = min(q - 1, _BLOCK_ANCILLAS).
    Rows 1..k hold the fixed factors (1 +- b)/2 of the last k ancillas, one
    column per probamp index, so the block takes at most 0.85 MB whatever
    the register size.  Each call fills each half of row 0 with a prefix,
    the product of the target factor and the factors of the leading
    ancillas outside the block, formed left to right.  It then reduces the
    block over its rows into each 2^(k+1)-entry slice of the distribution:
    one slice for q <= _BLOCK_ANCILLAS + 1, 2^(q-k-1) beyond.  Multiply has
    no pairwise reduction, so every probamp is the product
    :func:`~qcool.regstate.probamps` forms, bit for bit.  When the shared
    gate proves that only the limiting pair |011..1> <-> |100..0> can gain,
    that pair is exchanged in place if beneficial; otherwise the full
    beneficial mask is applied.  Both give the same distribution, and the
    new target bias is the same ``np.dot`` marginal.
    """
    rest = [float(b) for b in ancillas]
    q = len(rest) + 1
    half = 1 << (q - 1)
    b_min = min(rest)
    k = min(q - 1, _BLOCK_ANCILLAS)
    block = np.empty((k + 1, 1 << (k + 1)))
    for i, b in enumerate(rest[q - 1 - k:], start=1):
        bits = block[i].reshape(1 << i, 2, -1)  # bit i of the column index
        bits[:, 0], bits[:, 1] = (1.0 + b) / 2.0, (1.0 - b) / 2.0
    lead = [((1.0 + b) / 2.0, (1.0 - b) / 2.0) for b in rest[:q - 1 - k]]
    row_lo, row_hi = block[0].reshape(2, -1)
    p = np.empty(1 << q)
    slices = list(p.reshape(-1, block.shape[1]))
    sign = _sign_vector(1, q)

    def compress(target: float) -> float:
        prefix = [(1.0 + target) / 2.0, (1.0 - target) / 2.0]
        for pair in lead:
            prefix = [x * y for x in prefix for y in pair]
        for out, lo, hi in zip(slices, prefix[::2], prefix[1::2]):
            row_lo.fill(lo)
            row_hi.fill(hi)
            np.multiply.reduce(block, axis=0, out=out)
        p_k, p_kk = p.item(half - 1), p.item(half)
        if _only_limiting_pair([target, *rest], p_k, p_kk, b_min):
            if _beneficial(p_k, p_kk):
                p[half - 1], p[half] = p_kk, p_k
        else:
            sel = _beneficial_indices(*_halves(p))
            p[sel], p[-1 - sel] = p[-1 - sel], p[sel]  # -1 - j indexes 2^q - 1 - j
        return float(np.dot(sign, p))

    return compress


def numerical_limits(biases: RegisterBiases | Sequence[float], rounds: int | None,
                     precision: float = 1e-9, *,
                     iteration_cap: int = DEFAULT_ITERATION_CAP) -> LimitMatrix:
    """Per-round cooling limits of every qubit, for arbitrary default biases.

    For each round r and each target v = 1..n-r-1, repeatedly compresses the
    sub-register v..n built from the target's current bias and the ancillas'
    round-entry biases (ancilla losses are deliberately ignored), until the
    target's relative bias increase per pass is within *precision*.  Each
    (round, target) builds its pass once (see :func:`_target_pass`), and a
    pass the shared gate clears exchanges only the limiting pair.  Qubits
    beyond n-r-1 carry their prior-round values forward; each finished row
    seeds the next round.  A (round, target) that needs more than
    *iteration_cap* passes raises :class:`DivergenceError`: a *precision*
    near the rounding of the bias can leave the target alternating between
    two neighbouring floats.
    """
    if not isinstance(biases, RegisterBiases):
        biases = RegisterBiases.from_values(biases)
    n = biases.n
    _check_size(n)
    rounds = check_rounds(n, rounds)
    check_loop(precision, iteration_cap)

    original = biases.values
    matrix = np.zeros((rounds, n))
    for r in range(1, rounds + 1):
        seed = original.copy() if r == 1 else matrix[r - 2].copy()
        row = seed.copy()
        for v in range(1, n - r):  # targets 1..n-r-1
            target = seed[v - 1].item()
            compress = _target_pass(seed[v:])
            for _ in range(iteration_cap):
                increased = compress(target)
                if target == 0.0:
                    converged = increased == 0.0
                else:
                    converged = abs(increased / target - 1.0) <= precision
                target = increased
                if converged:
                    break
            else:
                raise DivergenceError(
                    f"numerical limits exceeded {iteration_cap} passes "
                    f"(round {r}, target {v}, bias {target!r})",
                    round_index=r, subspace=v, passes=iteration_cap)
            row[v - 1] = target
        matrix[r - 1] = row
    return LimitMatrix(matrix)
