"""Open-system register cooling with heat-bath resets and exact swap counting.

Register compression drives every qubit to its per-round limit, round by
round.  Within a round, each subspace head x = 1..n-r-1 is cooled by
subspace compression: sub-registers v..n are repeatedly treated as product
states of the recorded biases, beneficial complementary exchanges are
applied one at a time, all marginals are recomputed after every exchange,
and any marginal that falls below its default bias is floored there (the
heat-bath reset).  Exchanges stop early once the running head bias meets the
limit database for the applicable round, which keeps the register in
descending bias order.  When a pass leaves the head short of its target, or
an ancilla below its previous-round level, the subroutine re-enters itself;
the re-entry worklist here is an explicit stack with the exact semantics of
the self-calls, since the chain can grow deeper than the interpreter allows.

The cooling state has one form each: a sub-register's marginals are Python
float lists for all of its passes, and each settled sub-register is written
straight into the round's row of the limit database.  That row, and the
two target rows it is tested against, are float lists for the length of
one top-level subspace compression.  The :class:`HbacConfig` stops there:
subspace compression owns every rule that reads the limit database (caps,
re-entry tests, the pass cap), and hands each pass loop its sub-register,
its cap and its remaining pass budget.  Each level returns its exchange
and pass counts, and the level above sums them.

Nearly every pass can gain only from the limiting exchange
|011..1> <-> |100..0>, and ``lim`` mode performs no other.  Each pass
builds that pair's two probamps and the smallest ancilla bias as scalars in
one O(q) loop, from which :func:`~qcool.compress._limiting_verdict`, shared
with :func:`numerical_limits`, proves that no other pair can gain.  Only
the rare other ``full`` passes build all 2^q probamps and walk the full
beneficial mask, with bit-identical exchanges.  Every bias stays in [0, 1]
where it is made: a row entry outside [default, 1] is refused on entry,
and the walk caps each floored bias at 1.

Every individual pair exchange is counted; the run's complexity is the sum
of the per-round counts.  Pass counts are reported alongside for the coarser
reading of a "swap" as one full compression application.  ``qcool sweep``
runs one register compression per point of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .compress import _beneficial, _beneficial_indices, _halves, _limiting_verdict
from .errors import DivergenceError
from .limits import (DEFAULT_ITERATION_CAP, DEFAULT_PRECISION, LimitMatrix, check_loop,
                     check_rounds, numerical_limits)
from .regstate import RegisterBiases, _probamps_raw

MODE_FULL = "full"
MODE_LIM = "lim"

#: A hook called once per pair exchange as (round, subspace_head, target, pair_index).
SwapHook = Callable[[int, int, int, int], None]


@dataclass(frozen=True)
class HbacConfig:
    """Inputs of a register-compression run; *rounds* None means n - 2.

    *iteration_cap* bounds the passes of each (round, head), summed over its
    re-entries, and those of each (round, target) of the default targets'
    :func:`numerical_limits`; past it the run raises :class:`DivergenceError`.
    """

    biases: RegisterBiases
    rounds: int | None
    precision: float = DEFAULT_PRECISION
    mode: str = MODE_FULL
    iteration_cap: int = DEFAULT_ITERATION_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", check_rounds(self.biases.n, self.rounds))
        object.__setattr__(self, "iteration_cap", check_loop(self.precision, self.iteration_cap))
        if self.mode not in (MODE_FULL, MODE_LIM):
            raise ValueError(f"mode must be '{MODE_FULL}' or '{MODE_LIM}', got {self.mode!r}")

    @classmethod
    def equal(cls, n: int, eps: float, rounds: int, **kw) -> "HbacConfig":
        return cls(RegisterBiases.equal(n, eps), rounds, **kw)


@dataclass(frozen=True, eq=False)
class CoolingReport:
    """Outcome of a register-compression run."""

    round_limits: LimitMatrix
    per_round_swaps: tuple[int, ...]
    targets: LimitMatrix
    while_passes: int

    @property
    def complexity(self) -> int:
        """Pair exchanges over the whole run: the sum of ``per_round_swaps``."""
        return sum(self.per_round_swaps)


def _sub_compress(raw: list[float], floor: list[float], cap: float, lim: bool,
                  precision: float, budget: int,
                  swap: Callable[[int], None] | None) -> tuple[list[float], int, int]:
    """Converge the head of one sub-register; returns (biases, exchanges, passes).

    The pass state is two float lists over the sub-register: *raw*, which
    enters as its recorded biases and tracks the marginals exactly through
    each exchange, and ``gamma``, the same floored at the default biases
    *floor* (the heat-bath reset).  One while-pass: from the biases at the
    pass start, find the beneficial complementary pairs of the product
    state, then exchange each in index order.  Exchanging pair k of gap d
    adds 2 d to qubit i when bit i of k (MSB first) is 0 and subtracts it
    when the bit is 1; every qubit is then floored again.  The pass ratio is
    the head bias after the pass over the head bias before it, and the next
    pass starts from the floored biases.

    Each pass opens with one loop: it applies the last limiting exchange's
    step (0.0 on the first pass and after a full-mask pass), floors every
    qubit, keeping the default on a tie, and builds from the floored biases
    the limiting pair's two probamps, bit-identical to the full build's
    (head factor first), and the smallest ancilla bias: O(q) per pass.  The
    previous pass's convergence test against *precision*, the *budget* test
    and the verdict follow.  A pass whose head starts at *cap* exchanges
    nothing and converges; it still counts.  With *lim*, and whenever
    :func:`_limiting_verdict` proves that only the limiting pair can gain
    (almost every other pass), the pass tests that pair with the tie rule: a
    beneficial pair's step goes to the next pass's loop, else nothing moves
    and the pass returns.  Any other pass builds all 2^q probamps and walks
    the full beneficial mask, with bit-identical exchanges, capping each
    floored bias at 1.0, as its summed steps can round past 1.

    *swap*, if given, receives each exchanged pair's index.  A pass past
    *budget* returns at once with ``budget + 1`` passes; the caller raises.
    """
    q = len(raw)
    limiting = (1 << (q - 1)) - 1
    bits = f"0{q}b"
    floor0 = floor[0]
    floor_rest = floor[1:]
    step = 0.0
    swaps_done = 0
    passes = 0
    while True:
        # The floor is max(default, raw) and keeps the default on a tie, so
        # a zero marginal carries its default's sign.
        h = raw[0] + step
        h = h if h > floor0 else floor0
        gamma = [h]
        p_k, p_kk = (1.0 + h) / 2.0, (1.0 - h) / 2.0
        b_min = math.inf
        for f, b in zip(floor_rest, raw[1:]):
            c = b - step
            c = c if c > f else f
            gamma.append(c)
            p_k *= (1.0 - c) / 2.0
            p_kk *= (1.0 + c) / 2.0
            if c < b_min:
                b_min = c
        if passes:
            if head_before == 0.0:
                converged = h == 0.0
            else:
                converged = abs(h / head_before - 1.0) <= precision
            if converged:
                return gamma, swaps_done, passes
        passes += 1
        if passes > budget or h >= cap:
            return gamma, swaps_done, passes
        head_before = h
        raw = gamma
        verdict = _beneficial(p_k, p_kk) if lim else _limiting_verdict(h, p_k, p_kk, b_min)
        if verdict:
            step = 2.0 * (p_kk - p_k)
            swaps_done += 1
            if swap is not None:
                swap(limiting)
        elif verdict is None:
            # Complementary pairs are disjoint, so the pass-start beneficial
            # set equals on-the-fly re-testing; walk it in index order.
            head, tail = _halves(_probamps_raw(raw))
            ks = _beneficial_indices(head, tail)
            for k, d in zip(ks.tolist(), (tail[ks] - head[ks]).tolist()):
                if gamma[0] >= cap:
                    break
                step = 2.0 * d
                raw = [b - step if bit == "1" else b + step
                       for b, bit in zip(raw, format(k, bits))]
                gamma = [min(b if b > f else f, 1.0) for f, b in zip(floor, raw)]
                swaps_done += 1
                if swap is not None:
                    swap(k)
            raw, step = gamma, 0.0
        else:
            # Nothing moved, so the convergence test holds.
            return gamma, swaps_done, passes


def subspace_compression(config: HbacConfig, r: int, x: int, z: int, targets: LimitMatrix,
                         rl: np.ndarray, on_swap: SwapHook | None = None) -> tuple[int, int]:
    """Initialize the subspace spanning qubits x..n in round r; returns (swaps, passes).

    One sweep subspace-compresses each target v = head..n-1 that is short of
    its round-r target, and writes the settled sub-register into row r of
    *rl*, which is updated in place.  While a sweep still moves the row, the
    call re-enters itself: at the head (z = 0) if it stays short of its
    round-r target, then with z = 1 at each deeper qubit below its
    previous-round target.  The re-entries run from an explicit stack.
    *passes* counts the passes of every re-entry; past
    ``config.iteration_cap`` of them the call raises
    :class:`DivergenceError`, naming the head *x*.  An entry of row r below
    its default bias (the bath floor every cooled bias keeps) or above 1
    raises :class:`ValueError`, after the checks of r, x and z.

    Every rule that reads the limit database lives here.  Each exchange is
    capped: the primary head (v the head of a z = 0 entry) at its round-r
    target, every other qubit at its previous-round target (its default in
    round 1), as an ancilla whose marginal rises in a pass would overshoot.
    """
    n = config.biases.n
    if not 1 <= r <= config.rounds:
        raise ValueError(f"round {r} out of range 1..{config.rounds}")
    if not 1 <= x <= n - 1:
        raise ValueError(f"subspace head {x} out of range 1..{n - 1}")
    if z not in (0, 1):
        raise ValueError(f"re-entry flag must be 0 or 1, got {z!r}")
    floor = config.biases.values.tolist()
    level = targets.values[r - 1].tolist()
    prev = targets.values[r - 2].tolist() if r > 1 else floor
    row = rl[r - 1].tolist()
    for i, (f, b) in enumerate(zip(floor, row), start=1):
        if not f <= b <= 1.0:  # also flags NaN
            raise ValueError(f"round {r} bias of qubit {i} must be between its default {f!r} "
                             f"and 1, got {b!r}")

    swaps = 0
    passes = 0
    stack: list[tuple[int, int]] = [(x, z)]
    while stack:
        head, flag = stack.pop()
        before = row.copy()
        for v in range(head, n):
            if row[v - 1] < level[v - 1]:
                cap = level[v - 1] if flag == 0 and v == head else prev[v - 1]
                swap = None if on_swap is None else partial(on_swap, r, head, v)
                gamma, nswaps, npasses = _sub_compress(
                    row[v - 1:], floor[v - 1:], cap, config.mode == MODE_LIM, config.precision,
                    config.iteration_cap - passes, swap)
                passes += npasses
                if passes > config.iteration_cap:
                    raise DivergenceError(
                        f"subspace compression exceeded {config.iteration_cap} passes "
                        f"(round {r}, head {x}, target {v})",
                        round_index=r, subspace=x, passes=passes)
                row[v - 1:] = gamma
                swaps += nswaps
        if row == before:
            continue
        # Pops follow the tail of the recursive form: first the head itself
        # if short of this round's target, then each deeper qubit in order
        # if short of the previous round's target (in round 1 its default,
        # which no entry falls below, so only the head re-enters).
        stack += [(i, 1) for i in range(n - 1, head, -1) if row[i - 1] < prev[i - 1]]
        if row[head - 1] < level[head - 1]:
            stack.append((head, 0))
    rl[r - 1] = row
    return swaps, passes


def register_compression(config: HbacConfig, *, targets: LimitMatrix | None = None,
                         on_swap: SwapHook | None = None) -> CoolingReport:
    """Cool every qubit to its per-round limit, counting all pair exchanges.

    Targets default to :func:`numerical_limits` on the configured biases.
    Round 1 of the limit database is seeded with the default biases (the
    bath floor: a register fresh from the bath sits at its defaults), and
    each finished row seeds the next round.
    """
    n = config.biases.n
    if targets is None:
        targets = numerical_limits(config.biases, config.rounds, config.precision,
                                   iteration_cap=config.iteration_cap)
    if targets.values.shape != (config.rounds, n):
        raise ValueError(
            f"targets shape {targets.values.shape} does not match "
            f"({config.rounds}, {n})")

    rl = np.zeros((config.rounds, n))
    rl[0] = config.biases.values
    while_passes = 0
    per_round: list[int] = []
    for r in range(1, config.rounds + 1):
        totswaps = 0
        for x in range(1, n - r):
            swaps, passes = subspace_compression(config, r, x, 0, targets, rl, on_swap)
            totswaps += swaps
            while_passes += passes
        if r < config.rounds:
            rl[r] = rl[r - 1]
        per_round.append(totswaps)
    return CoolingReport(
        round_limits=LimitMatrix(rl),
        per_round_swaps=tuple(per_round),
        targets=targets,
        while_passes=while_passes)
