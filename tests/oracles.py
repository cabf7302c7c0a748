"""Independent brute-force reference implementations used as test oracles.

Everything here is written with explicit loops, straight from the defining
formulas, and shares no code with the package internals it checks.  The
one exception is :func:`pass_loop`, a former package loop kept as the
reference for the code that replaced it.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import numpy as np

from qcool.compress import GATE_MARGIN, _beneficial_indices, _halves
from qcool.regstate import _probamps_raw

TIE_RTOL = 1e-12

#: Least value of the build's smallest entry, |11..1>, at which the
#: reference verdict accepts; no entry or partial product is below that entry.
NORMAL_FLOOR = 1e-280

#: Adjacent floats: a q = 20 register of the head 0.3 and 19 ancillas at
#: this bias has its smallest entry just above NORMAL_FLOOR, resp. below it.
NEAR_FLOOR_ABOVE = 0.9999999999999961
NEAR_FLOOR_BELOW = 0.9999999999999962


def product_probamps(biases) -> np.ndarray:
    """Per-index bit-loop construction of the product-state probamps."""
    n = len(biases)
    out = np.empty(2 ** n)
    for j in range(2 ** n):
        acc = 1.0
        for i in range(1, n + 1):
            bit = (j >> (n - i)) & 1
            eps = biases[i - 1]
            acc *= (1.0 - eps) / 2.0 if bit else (1.0 + eps) / 2.0
        out[j] = acc
    return out


def block_marginal(p: np.ndarray, i: int, n: int) -> float:
    """Alternating block-sum form of the qubit-i marginal, block size 2^(n-i)."""
    c = 2 ** (n - i)
    total = float(p[0:c].sum() - p[c:2 * c].sum())
    for m in range(1, 2 ** (i - 1)):
        lo = 2 * m * c
        total += float(p[lo:lo + c].sum() - p[lo + c:lo + 2 * c].sum())
    return total


def marginal_arange(p: np.ndarray, i: int, n: int) -> float:
    """Qubit-i marginal as ``np.dot`` with a sign vector built from index bits."""
    idx = np.arange(p.size)
    sign = 1.0 - 2.0 * ((idx >> (n - i)) & 1)
    return float(np.dot(sign, p))


def compress_pass(biases) -> float:
    """One full optswap application on a product state; returns the head's new bias.

    The numerical-limits pass as first written: a fresh outer-product build
    in qubit order, the full tie-tolerant mask, one fancy-index exchange and
    the bit-sign marginal of qubit 1.
    """
    p = np.array([1.0])
    for eps in biases:
        p = (p[:, None] * np.array([(1.0 + eps) / 2.0, (1.0 - eps) / 2.0])).ravel()
    half = p.size // 2
    head, tail = p[:half], p[::-1][:half]
    sel = np.nonzero((tail - head) > TIE_RTOL * np.maximum(np.abs(head), np.abs(tail)))[0]
    comp = p.size - 1 - sel
    p[sel], p[comp] = p[comp], p[sel]
    return marginal_arange(p, 1, len(biases))


def converge_loop(target: float, ancillas, precision: float,
                  max_passes: int) -> tuple[float, bool]:
    """One target's loop over :func:`compress_pass`; returns (bias, settled).

    The target is compressed with the fixed *ancillas* until its relative
    change per pass is within *precision* (a zero bias must stay zero);
    settled is False when that takes more than *max_passes* passes.
    """
    for _ in range(max_passes):
        increased = compress_pass(np.concatenate(([target], ancillas)))
        if target == 0.0:
            settled = increased == 0.0
        else:
            settled = abs(increased / target - 1.0) <= precision
        target = increased
        if settled:
            return target, True
    return target, False


def numerical_limits_loop(values, rounds: int, precision: float = 1e-9,
                          max_passes: int = 10 ** 6) -> np.ndarray:
    """Per-round limit matrix by the defining loop over :func:`compress_pass`.

    Each target v = 1..n-r-1 of round r is compressed with the ancillas
    v+1..n at their round-entry values (:func:`converge_loop`); the
    finished row seeds the next round.  The matrix is returned as it is,
    without the [0, 1] check of a limit matrix.
    """
    n = len(values)
    matrix = np.zeros((rounds, n))
    seed = np.array(values, dtype=float)
    for r in range(rounds):
        row = seed.copy()
        for v in range(1, n - r - 1):
            target, settled = converge_loop(seed[v - 1], seed[v:], precision, max_passes)
            if not settled:
                raise AssertionError(f"round {r + 1} target {v} did not settle")
            row[v - 1] = target
        matrix[r] = row
        seed = row
    return matrix


def limiting_probamps(beta) -> tuple[float, float, float]:
    """Probamps of |011..1> and |100..0>, and the smallest ancilla bias, in one walk.

    The probamps are bit-identical to the full build's entries: it
    multiplies each entry's factors left to right in qubit order, starting
    from 1.0 (and 1.0 * x is exact); so does this walk, head factor first.
    """
    head = beta[0]
    p_k, p_kk = (1.0 + head) / 2.0, (1.0 - head) / 2.0
    b_min = float("inf")
    for b in beta[1:]:
        p_k *= (1.0 - b) / 2.0
        p_kk *= (1.0 + b) / 2.0
        if b < b_min:
            b_min = b
    return p_k, p_kk, b_min


def _beneficial(a: float, b: float) -> bool:
    """True when the 1T value b exceeds the 0T value a beyond the tie tolerance."""
    return (b - a) > TIE_RTOL * max(abs(a), abs(b))


def _limiting_verdict(head: float, p_k: float, p_kk: float, b_min: float) -> bool | None:
    """The limiting pair's verdict with the subnormal guard on the build's smallest entry.

    The reference for ``compress._limiting_verdict`` and the kernels' gate,
    which prove the guard implied and drop it: this verdict defers (None)
    when the smallest entry p_k (1 - head) / (1 + head) is below
    NORMAL_FLOOR, or is NaN.  Otherwise it accepts when
    p_kk r^2 < exp(-2 GATE_MARGIN) p_k, with r = (1 - b_min) / (1 + b_min),
    and returns the tie-tolerant comparison of the limiting pair; else None.
    The comparison is written here, not called as :func:`_beneficial`,
    which tests patch to see the biases of each reference pass.
    """
    if not p_k * (1.0 - head) / (1.0 + head) >= NORMAL_FLOOR:
        return None
    r = (1.0 - b_min) / (1.0 + b_min)
    if p_kk * r * r < math.exp(-2.0 * GATE_MARGIN) * p_k:
        return (p_kk - p_k) > TIE_RTOL * max(abs(p_k), abs(p_kk))
    return None


def largest_bias_verdict(head: float, b_max: float, q: int, p_k: float, p_kk: float,
                         b_min: float) -> bool | None:
    """The limiting-pair gate with its subnormal guard on the largest bias b_max of q.

    The earlier form of the gate, kept as its reference: it defers (None)
    on a negative bias, a bias of 1 or more, or ((1 - b_max) / 2)^q below
    1e-280.  Otherwise it accepts when p_kk r^2 < exp(-2e-9) p_k, with
    r = (1 - b_min) / (1 + b_min), and returns the tie-tolerant comparison
    of the limiting pair; else None.
    """
    if not (head >= 0.0 and b_min >= 0.0 and b_max < 1.0
            and ((1.0 - b_max) / 2.0) ** q >= 1e-280):
        return None
    r = (1.0 - b_min) / (1.0 + b_min)
    if p_kk * r * r < math.exp(-2e-9) * p_k:
        return (p_kk - p_k) > TIE_RTOL * max(abs(p_k), abs(p_kk))
    return None


def select_swaps_brute(p: np.ndarray) -> list[int]:
    """Beneficial complementary pairs by direct comparison, tie-tolerant."""
    size = p.size
    out = []
    for k in range(size // 2):
        a, b = p[k], p[size - 1 - k]
        if (b - a) > TIE_RTOL * max(abs(a), abs(b)):
            out.append(k)
    return out


def swap_rows(swaps, n: int, fmt: str) -> list[str]:
    """The ``optswaps`` output row of each swap index j, one f-string per row.

    A JSON row is the swap's 4-key object as ``json.dumps`` prints it two
    levels deep, inside the report's ``swaps`` array.
    """
    rows = []
    for j in swaps:
        comp = 2 ** n - 1 - j
        ket, ket_comp = format(j, f"0{n}b"), format(comp, f"0{n}b")
        if fmt == "text":
            rows.append(f"  {j} <-> {comp}    |{ket}> <-> |{ket_comp}>")
        elif fmt == "csv":
            rows.append(f"{j},{comp},{ket},{ket_comp}")
        else:
            obj = {"zero_t": j, "one_t": comp, "ket_zero_t": ket, "ket_one_t": ket_comp}
            rows.append("    " + json.dumps(obj, indent=2).replace("\n", "\n    "))
    return rows


def nbmc_text(n: int, swaps) -> str:
    """The .nbmc text of NB-MaxComp on *swaps*, one f-string per gate line.

    Each exchange j <-> 2^n - 1 - j is n - 1 fold gates (target w = 2..n,
    fired by wire 1 at 0), one flip of wire 1 fired by bits 2..n of the
    complement, and the fold gates in reverse.
    """
    fold = [f"MCX t={w} c0=[1] c1=[]" for w in range(2, n + 1)]
    lines = [f"WIRES {n}"]
    for j in swaps:
        comp = format(2 ** n - 1 - j, f"0{n}b")
        c0 = ",".join(str(w) for w in range(2, n + 1) if comp[w - 1] == "0")
        c1 = ",".join(str(w) for w in range(2, n + 1) if comp[w - 1] == "1")
        lines += fold + [f"MCX t=1 c0=[{c0}] c1=[{c1}]"] + fold[::-1]
    return "\n".join(lines) + "\n"


def flip_controls(n: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The flip gate's (controls on 0, controls on 1) for the exchange j <-> 2^n - 1 - j.

    Wire w = 2..n is read as bit n - w of the complement, one shift per wire.
    """
    comp = (1 << n) - 1 - j
    c0 = tuple(w for w in range(2, n + 1) if not (comp >> (n - w)) & 1)
    c1 = tuple(w for w in range(2, n + 1) if (comp >> (n - w)) & 1)
    return c0, c1


def exchange(p: np.ndarray, swaps) -> np.ndarray:
    q = p.copy()
    for k in swaps:
        kk = p.size - 1 - k
        q[k], q[kk] = q[kk], q[k]
    return q


def optimality_cases_brute(p: np.ndarray):
    """Literal O(4^(n-1)) nested-loop check of the three optimality cases.

    The tie rule picks K and L in floats, as the package does; the case
    inequalities are evaluated in exact rational arithmetic.  Returns
    (n_s, case1, case2, case3, counterexamples) with None for the cases
    that do not apply.
    """
    size = p.size
    half = size // 2
    x = [Fraction(v) for v in p.tolist()]

    def ben(k):
        a, b = p[k], p[size - 1 - k]
        return (b - a) > TIE_RTOL * max(abs(a), abs(b))

    def nonben(k):
        a, b = p[k], p[size - 1 - k]
        return (a - b) > TIE_RTOL * max(abs(a), abs(b))

    K = [k for k in range(half) if ben(k)]
    L = [k for k in range(half) if nonben(k)]
    cexs = []
    if K:
        case1 = True
        for k in K:
            v = x[size - 1 - k] - x[k]
            for l in L:
                if x[size - 1 - l] - x[k] > v:
                    case1 = False
                    cexs.append((1, k, l))
        case2 = True
        for k in K:
            v1 = x[size - 1 - k] - x[k]
            for l in K:
                if l == k:
                    continue
                v2 = x[size - 1 - l] - x[l]
                if x[size - 1 - l] - x[k] > v1 + v2:
                    case2 = False
                    cexs.append((2, k, l))
        return len(K), case1, case2, None, cexs
    case3 = True
    for k in range(half):
        for l in range(half):
            if x[k] < x[size - 1 - l]:
                case3 = False
                cexs.append((3, k, l))
    return 0, None, None, case3, cexs


@functools.cache
def exponent_recursion(r: int, k: int, n: int) -> int:
    """The limit exponent f(r, k, n) by its defining memoized double recursion."""
    if r == 1:
        return n - k if k < n - 1 else 1
    if k >= n - r:
        return exponent_recursion(r - 1, k, n)
    total = 2 + sum(exponent_recursion(r - 1, i, n) for i in range(k + 1, n - r + 1))
    if r > 2:
        total += sum(exponent_recursion(j, n - j - 1, n) for j in range(1, r - 1))
    return total


def transposition_perm(n: int, swaps) -> np.ndarray:
    """Permutation exchanging j <-> 2^n - 1 - j for each requested j."""
    perm = np.arange(2 ** n, dtype=np.int64)
    for j in swaps:
        jj = 2 ** n - 1 - j
        perm[j], perm[jj] = perm[jj], perm[j]
    return perm


def circuit_permutation_per_control(c) -> np.ndarray:
    """Basis permutation of circuit *c*, one pass over all 2^n indices per control wire."""
    v = np.arange(2 ** c.n, dtype=np.int64)
    for g in c.gates:
        match = np.ones(v.size, dtype=bool)
        for w in g.controls_on_0:
            match &= (v >> (c.n - w)) & 1 == 0
        for w in g.controls_on_1:
            match &= (v >> (c.n - w)) & 1 == 1
        v = np.where(match, v ^ (1 << (c.n - g.target)), v)
    return v


def cool_head_fixed_point(defaults, rel_step: float = 1e-12,
                          max_iters: int = 10 ** 6) -> float:
    """Brute-force iteration of one open-system compression subspace.

    Rebuild the product state from the current biases, exchange every
    beneficial pair, take brute marginals, floor them at the defaults, and
    repeat until the head bias stalls.  Returns the head's fixed point.
    """
    biases = [float(x) for x in defaults]
    n = len(biases)
    for _ in range(max_iters):
        p = exchange(product_probamps(biases), select_swaps_brute(product_probamps(biases)))
        marg = [block_marginal(p, i, n) for i in range(1, n + 1)]
        floored = [max(m, d) for m, d in zip(marg, defaults)]
        if abs(floored[0] - biases[0]) <= rel_step * max(abs(biases[0]), 1e-300):
            return floored[0]
        biases = floored
    raise AssertionError("oracle iteration did not settle")


def pass_loop(lim, raw, floor, cap, precision, budget, swap):
    """The cooling pass loop over float lists, as first written before the pass kernels.

    The reference for the kernels of ``hbac._kernel`` that replaced it:
    ``partial(pass_loop, lim)`` takes the arguments of ``_kernel(q, lim)``
    and keeps its contract, returning (floored biases, exchanges, passes).
    It calls the package's full build, since it pins the loop's own
    arithmetic, order and swap calls, not that; its verdicts are this
    module's :func:`_beneficial` and :func:`_limiting_verdict`, so the gate
    and tie test that the kernels write out are held to the verdict with
    its subnormal guard.  It looks the verdicts up in this
    module, and it holds each pass's floored biases in the list ``gamma``,
    for tests that patch them to see every pass.
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
