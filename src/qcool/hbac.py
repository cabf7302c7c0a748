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
straight into the round's row of the limit database, which the re-entry
tests then read.  That row, like the targets, is a float list for the
length of one top-level subspace compression, and goes back into the
database when it ends.  The run's inputs have one form too: the
:class:`HbacConfig` reaches every pass unchanged, and each subspace
compression returns its exchange and pass counts, which register
compression sums; no counter lives on shared state.

Nearly every pass can gain only from the limiting exchange
|011..1> <-> |100..0>, and ``lim`` mode performs no other.  Each pass
builds that pair's two probamps as scalars in one walk over the biases; a
``full`` pass then compares their ratio, times the square of the smallest
ancilla's factor ratio, against a margin (a value-domain test) to prove
the former.  Such a pass, like every ``lim`` pass, costs O(q) scalar
products for a q-qubit sub-register.  Only the rare other ``full`` passes
build all 2^q probamps and the full beneficial mask.  Both paths yield
bit-identical exchanges.  A pass whose head starts at its cap exchanges
nothing and ends before the walk.  The walk, the gate and its margin proof
live in :mod:`qcool.compress`, which :func:`numerical_limits` shares.

Every individual pair exchange is counted; the run's complexity is the sum
of the per-round counts.  Pass counts are reported alongside for the coarser
reading of a "swap" as one full compression application.  ``qcool sweep``
runs one register compression per point of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compress import (_beneficial, _beneficial_indices, _halves, _limiting_probamps,
                       _only_limiting_pair)
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
        check_loop(self.precision, self.iteration_cap)
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


def _sub_compress(config: HbacConfig, targets: list[list[float]], r: int, top: int, x: int,
                  z: int, v: int, raw: list[float], floor: list[float], passes_used: int,
                  on_swap: SwapHook | None) -> tuple[list[float], int, int]:
    """Converge the head of sub-register v..n in round r; returns (biases, swaps, passes).

    The pass state is two lists of Python floats over qubits v..n: *raw*,
    which enters as the sub-register's recorded biases and tracks the
    marginals exactly through each exchange, and ``gamma``, the same floored
    at the default biases *floor* (the heat-bath reset).  One while-pass:
    from *raw* at the pass start, find the beneficial complementary pairs of
    the product state, then exchange each in index order.  Exchanging pair k of gap d
    adds 2 d to qubit i when bit i of k (MSB first) is 0 and subtracts it
    when the bit is 1; every qubit is then floored again.  The pass ratio is
    the head bias after the pass over the head bias before it, and the next
    pass starts from the floored biases.

    A pass whose head starts at or above its cap exchanges nothing, so it
    converges at once; it still counts as a pass.  Otherwise the pass
    builds the limiting pair's two probamps as scalars, in the full build's
    multiplication order.  ``lim`` mode exchanges only that pair, and in
    almost every ``full`` pass only that pair can be beneficial.  In ``lim``
    mode, and whenever :func:`_only_limiting_pair` proves the latter, the
    pass costs O(q): the pair is tested with the same tie rule and
    exchanged directly, adding 2 d to the head and subtracting it from
    every ancilla.  Otherwise a ``full`` pass falls back to building all
    2^q probamps and the full beneficial mask.  Both paths give
    bit-identical exchanges.

    *x* is the head of the current re-entry and *top* that of the top-level
    :func:`subspace_compression` call, which has used *passes_used* of its
    pass budget ``config.iteration_cap``; a :class:`DivergenceError` names
    *top*.
    """
    q = len(raw)
    lim = config.mode == MODE_LIM
    precision = config.precision
    budget = config.iteration_cap - passes_used
    limiting = (1 << (q - 1)) - 1
    bits = f"0{q}b"
    floor0 = floor[0]
    # Which cap applies to this sub-register's head (checked before each
    # exchange): ancillas and re-entry heads stop at the prior round's level
    # (in round 1 that is the bath default), the primary head at this
    # round's level.  Without the ancilla cap the hierarchy breaks: deep
    # marginals can transiently rise above their defaults during a pass and
    # an uncapped ancilla then overshoots its own round limit.
    prev_level = targets[r - 2][v - 1] if r > 1 else floor0
    cap = targets[r - 1][v - 1] if z == 0 and v == x else prev_level
    # The floor is max(default, raw) and keeps the default on a tie, so a
    # zero marginal carries its default's sign.
    gamma = [b if b > f else f for f, b in zip(floor, raw)]
    swaps_done = 0
    passes = 0
    while True:
        passes += 1
        if passes > budget:
            raise DivergenceError(
                f"subspace compression exceeded {config.iteration_cap} passes "
                f"(round {r}, head {top}, target {v})",
                round_index=r, subspace=top, passes=passes_used + passes)
        head_before = gamma[0]
        if head_before >= cap:
            return gamma, swaps_done, passes
        p_k, p_kk, b_min = _limiting_probamps(raw)
        if lim or _only_limiting_pair(raw[0], max(raw), q, p_k, p_kk, b_min):
            if _beneficial(p_k, p_kk):
                step = 2.0 * (p_kk - p_k)
                gamma = [c if (c := b - step) > f else f for f, b in zip(floor, raw)]
                h = raw[0] + step
                gamma[0] = h if h > floor0 else floor0
                swaps_done += 1
                if on_swap is not None:
                    on_swap(r, x, v, limiting)
        else:
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
                gamma = [b if b > f else f for f, b in zip(floor, raw)]
                swaps_done += 1
                if on_swap is not None:
                    on_swap(r, x, v, k)
        if head_before == 0.0:
            converged = gamma[0] == 0.0
        else:
            converged = abs(gamma[0] / head_before - 1.0) <= precision
        if converged:
            return gamma, swaps_done, passes
        raw = gamma


def subspace_compression(config: HbacConfig, r: int, x: int, z: int, targets: LimitMatrix,
                         rl: np.ndarray, on_swap: SwapHook | None = None) -> tuple[int, int]:
    """Initialize the subspace spanning qubits x..n in round r; returns (swaps, passes).

    One sweep subspace-compresses each target v = head..n-1 that is short of
    its round-r target, and writes the settled sub-register into row r of
    *rl*, which is updated in place.  While a sweep still moves the row, the
    call re-enters itself: at the head (z = 0) if it stays short of its
    round-r target, then with z = 1 at each deeper qubit below its
    previous-round target.  The re-entries run from an explicit stack.
    *passes* counts the passes of every re-entry, and
    ``config.iteration_cap`` bounds it.
    """
    n = config.biases.n
    if not 1 <= r <= config.rounds:
        raise ValueError(f"round {r} out of range 1..{config.rounds}")
    if not 1 <= x <= n - 1:
        raise ValueError(f"subspace head {x} out of range 1..{n - 1}")
    if z not in (0, 1):
        raise ValueError(f"re-entry flag must be 0 or 1, got {z!r}")
    tgt = targets.values.tolist()
    floor = config.biases.values.tolist()
    row = rl[r - 1].tolist()

    swaps = 0
    passes = 0
    stack: list[tuple[int, int]] = [(x, z)]
    while stack:
        head, flag = stack.pop()
        before = row.copy()
        for v in range(head, n):
            if row[v - 1] < tgt[r - 1][v - 1]:
                gamma, nswaps, npasses = _sub_compress(
                    config, tgt, r, x, head, flag, v, row[v - 1:], floor[v - 1:],
                    passes, on_swap)
                row[v - 1:] = gamma
                swaps += nswaps
                passes += npasses
        if row == before:
            continue
        # Re-entry order matches the tail of the recursive form: first the
        # head itself if short of this round's target, then each deeper qubit
        # short of the previous round's target.
        pending: list[tuple[int, int]] = []
        if row[head - 1] < tgt[r - 1][head - 1]:
            pending.append((head, 0))
        for i in range(head + 1, n):
            if r > 1 and row[i - 1] < tgt[r - 2][i - 1]:
                pending.append((i, 1))
        stack.extend(reversed(pending))
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
