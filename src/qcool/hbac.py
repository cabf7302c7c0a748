"""Open-system register cooling with heat-bath resets and exact swap counting.

Register compression drives every qubit to its per-round limit, round by
round.  Within a round, each subspace head x = 1..n-r-1 is cooled by
subspace compression: sub-registers v..n are repeatedly treated as product
states of the recorded biases, beneficial complementary exchanges are
applied one at a time, all marginals are recomputed after every exchange,
and any marginal that falls below its default bias is floored there (the
heat-bath reset).  Exchanges stop once the running head bias meets the limit
database for the applicable round, so it passes its cap by at most one
exchange (up to 0.4% on acceptance criterion 07's registers); bias order is
not kept.  When a pass leaves the head short of its target, or an ancilla
below its previous-round level, the subroutine re-enters itself; the
re-entry worklist here is an explicit stack with the exact semantics of
the self-calls, since the chain can grow deeper than the interpreter allows.

The cooling state has one form each: a sub-register's marginals are Python
floats for all of its passes, and each settled sub-register is written
straight into the round's row of the limit database.  That row, and the
two target rows it is tested against, are float lists for the length of
one top-level subspace compression.  The :class:`HbacConfig` stops there:
subspace compression owns every rule that reads the limit database (caps,
re-entry tests, the pass cap), and hands each pass kernel its sub-register,
its cap and its remaining pass budget.  Each level returns its exchange
and pass counts, and the level above sums them.  Every bias stays in
[0, 1] where it is made: a row entry outside [default, 1] is refused on
entry, and the full-mask walk caps each floored bias at 1.

The passes of a sub-register of q qubits run in its kernel, the pass loop
written out for that q and mode and compiled on first use: the verdict is
written in, and there is one loop per count of live ancillas, those not
pinned at their default bias, down to three pinned and one live; the
full-mode gate reads only the live ones.  :func:`_kernel` states the pass
loop's contract and why its arithmetic is exact and its gate sound.
Nearly every pass exchanges only the limiting pair |011..1> <-> |100..0>
in O(q) steps, and ``lim`` mode exchanges no other.  Cooling spends nearly
all of its time in these passes, under a microsecond each.

Every individual pair exchange is counted; the run's complexity is the sum
of the per-round counts.  Pass counts are reported alongside for the coarser
reading of a "swap" as one full compression application.  ``qcool sweep``
runs one register compression per point of a sweep.
"""

from __future__ import annotations

import linecache
import textwrap
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .compress import REL_TIE_TOL, _GATE_RATIO, _beneficial_indices, _halves
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


#: The opening of a kernel for q qubits; :func:`_kernel` fills in the names.
#: The head is floored here only, as it never falls within a call.
_HEAD = """\
def _pass_loop_{mode}_{q}(raw, floor, cap, precision, budget, swap):
    {biases} = raw
    {defaults} = floor
    h = h if h > f0 else f0
    step = 0.0
    swaps_done = 0
    passes = 0
    head_before = float("nan")  # fails both convergence tests
"""

#: The loop of passes with ancillas 1..m live, as :func:`_kernel` writes it
#: out.  The head bias is ``h``, the live ancillas' ``c1``..``c{m}`` and the
#: defaults ``f0``..``f{q-1}``; a floor keeps the default on a tie, so a zero
#: marginal carries its default's sign.  Each pinned ancilla i > m enters
#: only through its factors ``pk{i}`` and ``pkk{i}``.  The
#: probamps ``p_k`` and ``p_kk`` are 2^q times the limiting pair's, so the
#: step takes 2^(1-q) times their gap.  A pass binds no list: ``[h, c1,
#: ...]`` is built only where the biases leave.
_PASS = """\
while True:
{floors}    if head_before == 0.0:
        if h == 0.0:
            return [{biases}], swaps_done, passes
    elif h / head_before - 1.0 <= precision:
        return [{biases}], swaps_done, passes
    passes += 1
    if passes > budget or h >= cap:
        return [{biases}], swaps_done, passes
    head_before = h
    down = 1.0 - h
    p_k = (1.0 + h){p_k_factors}
    p_kk = down{p_kk_factors}
{gate}    d = p_kk - p_k
    if d > REL_TIE_TOL * p_kk:
        step = d * {scale!r}
        h = h + step
        swaps_done += 1
        if swap is not None:
            swap({limiting})
{step_down}        continue
    return [{biases}], swaps_done, passes
"""

#: A full-mode pass's gate, between its products and its tie test: the head
#: below 1, as ``down > 0.0`` states it, and the ratio test on the smallest
#: live ancilla.  A pass it defers walks the full mask and leaves its loop,
#: and the line after every loop sends the walk back to the top one.
_GATE = """\
    b_min = c1
{minima}    r = (1.0 - b_min) / (1.0 + b_min)
    if not (down > 0.0 and p_kk * r * r < _GATE_RATIO * p_k):
        ({biases}), walked = _full_walk([{biases}], floor, cap, swap)
        swaps_done += walked
        step = 0.0
        break
"""


def _biases(q: int) -> str:
    """The names of a kernel's q biases, head first, as a list's items."""
    return ", ".join(["h", *(f"c{i}" for i in range(1, q))])


def _pass(q: int, m: int, lim: bool, last: bool) -> str:
    """The loop of passes with ancillas 1..m live and m+1..q-1 pinned, from :data:`_PASS`.

    The *last* loop has no step-down: an ancilla on its floor stays live there.
    """
    live, pinned = range(1, m + 1), range(m + 1, q)
    biases = _biases(q)
    gate = "" if lim else _GATE.format(biases=biases, minima="".join(
        f"    if c{i} < b_min:\n        b_min = c{i}\n" for i in live[1:]))
    return _PASS.format(
        biases=biases, gate=gate, limiting=(1 << (q - 1)) - 1, scale=2.0 ** (1 - q),
        floors="".join(f"    c{i} = c{i} - step\n"
                       f"    c{i} = c{i} if c{i} > f{i} else f{i}\n" for i in live),
        p_k_factors="".join([f" * (1.0 - c{i})" for i in live] + [f" * pk{i}" for i in pinned]),
        p_kk_factors="".join([f" * (1.0 + c{i})" for i in live]
                             + [f" * pkk{i}" for i in pinned]),
        step_down="" if last else f"        if c{m} == f{m}:\n            break\n")


def _pin(i: int) -> str:
    """Ancilla i's factors on its floor, set once as it pins."""
    return f"pk{i} = 1.0 - f{i}\npkk{i} = 1.0 + f{i}\n"


@cache
def _kernel(q: int, lim: bool) -> Callable:
    """The pass loop for sub-registers of q >= 2 qubits in one mode, compiled on its first use.

    ``_kernel(q, lim)(raw, floor, cap, precision, budget, swap)`` converges
    the head of one sub-register, in lim mode if *lim* is true and else in
    full mode, and returns (biases, exchanges, passes).  The pass state is the
    sub-register's biases: *raw*, which enters as its recorded biases and
    tracks the marginals exactly through each exchange, and the same
    floored at the default biases *floor* (the heat-bath reset).  One
    pass: from the floored biases at the pass start, find the beneficial
    complementary pairs of the product state, then exchange each in index
    order.  Exchanging pair k of gap d adds 2 d to qubit i when bit i of k
    (MSB first) is 0 and subtracts it when the bit is 1; every qubit is
    then floored again.  The pass ratio is the head bias after the pass
    over the head bias before it, and the next pass starts from the
    floored biases.

    Each pass opens by applying the last limiting exchange's step to the
    live ancillas (0.0 on the first pass and after a full-mask pass) and
    flooring them, keeping the default on a tie.  The previous pass's
    convergence test against *precision* and the *budget* test follow, and
    only a pass that gets past them builds, from the floored biases, the
    limiting pair's two probamps (head factor first): O(q) per pass.  A
    pass whose head starts at *cap* exchanges nothing and converges; it
    still counts.  In lim mode, and in full mode whenever the gate of
    :func:`~qcool.compress._limiting_verdict` proves that only the limiting
    pair can gain (almost every other pass), the pass tests that pair with
    the tie rule: a beneficial pair's step goes to the head at once and to
    the ancillas at the next pass's opening, else nothing moves and the
    pass returns.  Any other pass runs :func:`_full_walk`, which builds all
    2^q probamps and walks the full beneficial mask, with bit-identical
    exchanges, capping each floored bias at 1.0, as its summed steps can
    round past 1.

    The head never falls within a call: a limiting step is positive and at
    most fl(1 - h), and a walk only adds to the head before capping it at
    1.0.  So the head is floored once, on entry, the convergence ratio needs
    no ``abs``, and a walk's head is left as it is (adding a step of 0.0
    would turn a -0.0 head into 0.0).

    The full-mode kernel writes ``_limiting_verdict`` out: the head test
    as ``down > 0.0``, the ratio test on this module's ``_GATE_RATIO``,
    read at each pass, and the tie test as ``d > REL_TIE_TOL * p_kk`` with
    d = p_kk - p_k.  A lim-mode kernel has only the tie test, so it never
    walks.  The kernel multiplies the unhalved factors fl(1 -+ c), so its
    probamps are 2^q times those of a build, whose factors are halved, and
    its step is d * 2^(1-q).  Halving is exact, and p_kk is 0 or at least
    2^-(q+53), so the products, d, the step and the tie test are a halved
    build's values times a power of two, bit for bit; so is the ratio test,
    except where a halved p_k leaves the normal range (from q = 20, with
    ancillas within about 2^-50 of 1), and there both forms defer.  In lim
    mode both then take d = p_kk.

    A positive step, the only one a limiting exchange takes, keeps an
    ancilla on its floor, so the kernel runs one loop per count m = q-1
    down to max(q-4, 1) of live ancillas, with ancillas m+1..q-1 pinned:
    their factors are set once as they pin.  A loop steps down to m-1 once
    a limiting exchange leaves ancilla m on its floor, except the last, in
    which an ancilla on its floor is floored to its default again each
    pass, with the same bits; pins fall almost only on the last three
    ancillas, so the source grows linearly in q.  A full-mask walk, whose
    step is 0.0 and which can lift any ancilla, leaves its loop, and the
    step test after every loop sends it back to m = q-1.  The biases are
    local names; a list is built only at the returns and the walks.
    *swap*, if given, receives each exchanged pair's index.  A pass past
    *budget* returns at once with ``budget + 1`` passes; the caller raises.

    The gate's b_min is the smallest live ancilla, not the smallest of
    all, and no byte changes.  (a) A pass the gate defers walks, and where
    only the limiting pair is beneficial the walk makes the same exchange
    with the same bits (with none, the next pass converges, as precision >
    0); so deferring more often changes only the walk count, as
    ``test_same_run_as_full_mask_path`` shows with a gate ratio of 0.
    (b) A pinned ancilla j was live and on its floor f_j at the pass that
    pinned it, so the gate accepted there with b_min <= f_j.  Up to a walk,
    fl(1 - h) / fl(1 + h) and each live fl(1 + c) / fl(1 - c) only fall
    after that, so p_kk only falls and p_k only rises: every pair that
    flips only pinned ancillas stays below exp(-2 GATE_MARGIN), within the
    60u/52u budget of the ``GATE_MARGIN`` comment, and as r falls where b
    rises, a minimum over every ancilla accepts at the same passes.
    ``tests/oracles.pass_loop``, with halved factors and that minimum,
    referees every kernel in ``test_kernel_matches_reference``.

    Compiling every size at import would delay every command that imports
    this module, cooling or not.  The kernel runs in this module's globals,
    and its source is in :mod:`linecache` under its own file name, for
    tracebacks, :mod:`inspect` and line tracing.
    """
    mode = MODE_LIM if lim else MODE_FULL
    last = max(q - 4, 1)
    body = []
    for m in range(q - 1, last - 1, -1):
        if m < q - 1:
            body.append(f"# ancilla {m + 1} stays on its floor\n" + _pin(m + 1))
        body.append(f"# live ancillas: {m}\n" + _pass(q, m, lim, m == last))
        if not lim:
            body.append("if not step:\n    continue  # walked: every ancilla is live again\n")
    body = "".join(body)
    if not lim:
        body = "while True:\n" + textwrap.indent(body, "    ")
    source = _HEAD.format(mode=mode, q=q, biases=_biases(q),
                          defaults=", ".join(f"f{i}" for i in range(q)))
    source += textwrap.indent(body, "    ")
    filename = f"<qcool.hbac pass loop q={q} {mode}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[f"_pass_loop_{mode}_{q}"]


def _full_walk(raw: list[float], floor: list[float], cap: float,
               swap: Callable[[int], None] | None) -> tuple[list[float], int]:
    """Exchange every beneficial pair of the product state of *raw*, in index order.

    Returns the floored biases after the last exchange and the number of
    exchanges; the walk stops once the head reaches *cap*.
    """
    bits = f"0{len(raw)}b"
    gamma = raw
    swaps_done = 0
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
    return gamma, swaps_done


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
    :class:`DivergenceError`, naming the head *x*.  After the checks of r, x
    and z, *targets* and *rl* must both have shape (rounds, n), and an
    entry of row r below its default bias (the bath floor every cooled bias
    keeps) or above 1 raises :class:`ValueError`.

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
    shape = (config.rounds, n)
    for name, array in (("targets", targets.values), ("rl", rl)):
        if array.shape != shape:
            raise ValueError(f"{name} shape {array.shape} does not match {shape}")
    floor = config.biases.values.tolist()
    level = targets.values[r - 1].tolist()
    prev = targets.values[r - 2].tolist() if r > 1 else floor
    row = rl[r - 1].tolist()
    for i, (f, b) in enumerate(zip(floor, row), start=1):
        if not f <= b <= 1.0:  # also flags NaN
            raise ValueError(f"round {r} bias of qubit {i} must be between its default {f!r} "
                             f"and 1, got {b!r}")

    # each target's kernel and defaults; re-entries only go deeper than x
    lim = config.mode == MODE_LIM
    subs = [(_kernel(n - v + 1, lim), floor[v - 1:]) for v in range(x, n)]
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
                kernel, sub_floor = subs[v - x]
                gamma, nswaps, npasses = kernel(
                    row[v - 1:], sub_floor, cap, config.precision,
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

    Targets default to :func:`numerical_limits` on the configured biases;
    :func:`subspace_compression` checks their shape before the first pass.
    Round 1 of the limit database is seeded with the default biases (the
    bath floor: a register fresh from the bath sits at its defaults), and
    each finished row seeds the next round.
    """
    n = config.biases.n
    if targets is None:
        targets = numerical_limits(config.biases, config.rounds, config.precision,
                                   iteration_cap=config.iteration_cap)

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
