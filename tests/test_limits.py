import importlib.util
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcool import (DiagDist, RegisterBiases, analytic_limit, analytic_limits, f,
                   find_optswaps, apply_swaps, marginal_bias, max_rounds, numerical_limits,
                   probamps, shannon_bound, single_round_limit, sort_bound,
                   sqrt_bound)
import qcool.hbac as hbac
import qcool.limits as limits
from qcool.errors import DivergenceError, ResourceCapError
from qcool.compress import _GATE_RATIO, _limiting_verdict
from qcool.limits import TANH_CROSSOVER, _converge
import oracles
from oracles import (NEAR_FLOOR_ABOVE, NEAR_FLOOR_BELOW, compress_pass, converge_loop,
                     exponent_recursion, limiting_probamps, numerical_limits_loop)
from strategies import product_registers


def _benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _benchmark_workloads()


class TestExponentRecursion:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_first_round_initial_condition(self, n):
        for k in range(1, n + 1):
            assert f(1, k, n) == (n - k if k < n - 1 else 1)

    def test_second_round_example(self):
        assert f(2, 1, 4) == 4  # f(1,2,4) + 2

    def test_third_round_example(self):
        assert f(3, 1, 5) == 8  # f(1,3,5) + f(2,2,5) + 2

    @pytest.mark.parametrize("n", range(3, 17))
    def test_closed_form_final_round(self, n):
        assert f(n - 2, 1, n) == 2 ** (n - 2)

    def test_frozen_rounds_repeat_previous(self):
        for n in range(4, 9):
            for r in range(2, n - 1):
                for k in range(n - r, n + 1):
                    assert f(r, k, n) == f(r - 1, k, n)

    def test_exponent_grid_running_sums_match_f(self):
        for n in range(3, 61):
            grid = limits._exponent_grid(max_rounds(n), n)
            assert grid == [[f(r, k, n) for k in range(1, n + 1)]
                            for r in range(1, n - 1)]

    def test_closed_form_matches_recursion(self):
        for n in range(3, 61):
            for r in range(1, n - 1):
                for k in range(1, n + 1):
                    assert f(r, k, n) == exponent_recursion(r, k, n), (r, k, n)

    @pytest.mark.parametrize("r,k,n", [(0, 1, 5), (4, 1, 5), (1, 0, 5), (1, 6, 5), (1, 1, 2)])
    def test_rejects_out_of_domain(self, r, k, n):
        with pytest.raises(ValueError):
            f(r, k, n)


class TestAnalyticLimit:
    @pytest.mark.parametrize("n, rounds, eps", [(5, 3, 0.1), (9, 4, 1e-5), (12, 10, 0.5),
                                                (40, 38, 1e-17)])
    def test_matrix_matches_entries(self, n, rounds, eps):
        want = [[analytic_limit(r, k, n, eps) for k in range(1, n + 1)]
                for r in range(1, rounds + 1)]
        assert analytic_limits(n, rounds, eps).values.tobytes() == np.array(want).tobytes()

    def test_matrix_grid_cap_and_rounds(self):
        with pytest.raises(ResourceCapError, match="cap of 1048576 entries"):
            analytic_limits(1026, 1024, 0.1)
        with pytest.raises(ValueError, match=re.escape("rounds must lie in 1..3 for n = 5")):
            analytic_limits(5, 4, 0.1)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.97, 1.0])
    def test_unit_exponent_is_identity(self, eps):
        # k >= n-1 in round 1 gives f = 1
        assert analytic_limit(1, 4, 5, eps) == pytest.approx(eps, abs=1e-15)

    def test_low_bias_doubling(self):
        got = analytic_limit(6, 1, 8, 1e-5)
        assert got == pytest.approx(2 ** 6 * 1e-5, rel=1e-3)

    def test_exponent_two_hand_value(self):
        assert single_round_limit(0.5, 2) == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-320, 1e-300, 1e-17, 1e-5, 0.01, 0.1,
                                     0.5, 0.97, 1.0])
    def test_early_stop_is_the_limit_of_the_full_sum(self, eps):
        # analytic_limit stops at the first partial sum of f past the
        # crossover; every limit is still the float of the whole exponent.
        for n in (3, 4, 9, 40, 130, 1100):
            for r in sorted({1, 2, 5, n // 2, n - 3, n - 2} & set(range(1, n - 1))):
                for k in sorted({1, 2, n // 3, n - 2, n - 1, n} & set(range(1, n + 1))):
                    want = limits._tanh_ratio(eps, f(r, k, n))
                    assert _same_float(analytic_limit(r, k, n, eps), want), (r, k, n)

    def test_crossover_forms_agree(self):
        # straddle the power/tanh switch and compare both evaluations
        for eps, exponent in [(0.5, 59), (0.5, 61), (0.9, 33), (0.9, 34)]:
            power = ((1 + eps) ** exponent - (1 - eps) ** exponent) / \
                    ((1 + eps) ** exponent + (1 - eps) ** exponent)
            hyper = math.tanh(exponent * math.atanh(eps))
            got = single_round_limit(eps, exponent)
            assert got == pytest.approx(power, rel=1e-12)
            assert got == pytest.approx(hyper, rel=1e-12)
            assert (eps * exponent > TANH_CROSSOVER) in (True, False)

    @pytest.mark.parametrize("eps", [0.001, 0.1, 0.6])
    def test_fixed_point_relation_with_recursion_exponents(self, eps):
        # the defining relation of the limit, with the recursion's own f
        for n in (4, 6, 9):
            for r in (1, 2, n - 2):
                for k in (1, 2, n):
                    t = analytic_limit(r, k, n, eps)
                    m = f(r, k, n)
                    lhs = (1 + t) / 2 * ((1 - eps) / 2) ** m
                    rhs = (1 - t) / 2 * ((1 + eps) / 2) ** m
                    assert abs(lhs - rhs) <= 1e-12, (n, r, k)

    def test_monotone_in_rounds_qubit_and_size(self):
        eps = 0.05
        for n in (5, 6, 7):
            for k in (1, 2):
                values = [analytic_limit(r, k, n, eps) for r in range(1, n - 1)]
                assert values == sorted(values)
        for r in (1, 2):
            for n in (5, 6, 7):
                row = [analytic_limit(r, k, n, eps) for k in range(1, n + 1)]
                assert row == sorted(row, reverse=True)
        for r, k in [(1, 1), (2, 1), (2, 2)]:
            grow = [analytic_limit(r, k, n, eps) for n in (5, 6, 7, 8)]
            assert grow == sorted(grow)


class TestSingleRoundLimit:
    def test_single_ancilla_is_identity(self):
        for eps in (0.0, 0.3, 0.9):
            assert single_round_limit(eps, 1) == pytest.approx(eps, abs=1e-15)

    def test_asymptote(self):
        assert single_round_limit(0.4, 200) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_ancilla_count(self):
        with pytest.raises(ValueError):
            single_round_limit(0.1, 0)

    @pytest.mark.parametrize("call, bad", [
        (lambda: single_round_limit(-0.1, 2), "-0.1"),
        (lambda: single_round_limit(math.nan, 2), "nan"),
        (lambda: analytic_limit(1, 1, 3, 1.5), "1.5"),
        (lambda: sqrt_bound(4, 1.5), "1.5"),
        (lambda: sqrt_bound(4, -0.1), "-0.1"),
        (lambda: shannon_bound(4, 1.5), "1.5"),
    ], ids=["negative", "nan", "analytic-above-one", "sqrt-above-one", "sqrt-negative",
            "shannon-above-one"])
    def test_rejects_bias_outside_unit_interval(self, call, bad):
        # the closed forms' shared range check
        with pytest.raises(ValueError, match=re.escape(f"bias must lie in [0, 1], got {bad}")):
            call()

    @given(st.floats(0.001, 0.999), st.integers(1, 30))
    @settings(max_examples=100)
    def test_fixed_point_relation(self, eps, m):
        t = single_round_limit(eps, m)
        lhs = (1 + t) / 2 * ((1 - eps) / 2) ** m
        rhs = (1 - t) / 2 * ((1 + eps) / 2) ** m
        assert abs(lhs - rhs) <= 1e-12


class TestBounds:
    def test_shannon_endpoints(self):
        assert shannon_bound(7, 1.0) == 7.0
        assert shannon_bound(7, 0.0) == 0.0

    def test_shannon_interior_value(self):
        # H(0.75) = 0.811278...; 4 * (1 - H)
        assert shannon_bound(4, 0.5) == pytest.approx(4 * (1 - 0.8112781244591328), rel=1e-12)

    def test_sqrt_bound(self):
        assert sqrt_bound(4, 0.01) == pytest.approx(0.02, abs=1e-15)

    def test_sort_bound_uniform(self):
        assert sort_bound(probamps(RegisterBiases.equal(3, 0.0))) == pytest.approx(0.0, abs=1e-15)

    def test_sort_bound_hand_case(self):
        d = DiagDist(np.array([0.5, 0.05, 0.05, 0.4]))
        assert sort_bound(d) == pytest.approx(0.8, abs=1e-15)
        # complementary-pair machinery alone only reaches 0.1 here
        post = marginal_bias(apply_swaps(d, find_optswaps(d)), 1)
        assert post == pytest.approx(0.1, abs=1e-15)

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_sort_bound_attained_on_products(self, values):
        d = probamps(RegisterBiases.from_values(values))
        post = marginal_bias(apply_swaps(d, find_optswaps(d)), 1)
        assert post == pytest.approx(sort_bound(d), rel=1e-12, abs=1e-12)


class TestNumericalLimits:
    def test_all_zero_biases(self):
        lm = numerical_limits([0.0, 0.0, 0.0], 1)
        assert np.array_equal(lm.values, np.zeros((1, 3)))

    def test_three_qubit_single_round(self):
        lm = numerical_limits([0.2] * 3, 1)
        assert lm[0, 0] == pytest.approx(single_round_limit(0.2, 2), rel=1e-7)
        assert lm[0, 1] == 0.2 and lm[0, 2] == 0.2

    def test_pure_target_stays_pure(self):
        lm = numerical_limits([1.0, 0.5, 0.3], 1)
        assert np.array_equal(lm.values, [[1.0, 0.5, 0.3]])

    @pytest.mark.parametrize("n,eps", [(4, 0.1), (5, 0.3), (6, 0.05), (7, 0.1)])
    def test_matches_analytic_on_equal_biases(self, n, eps):
        rounds = max_rounds(n)
        lm = numerical_limits([eps] * n, rounds, precision=1e-9)
        for r in range(1, rounds + 1):
            for k in range(1, n + 1):
                want = analytic_limit(r, k, n, eps)
                assert lm[r - 1, k - 1] == pytest.approx(want, rel=1e-6), (r, k)

    def test_rows_monotone(self):
        lm = numerical_limits([0.1] * 6, 4).values
        assert np.all(np.diff(lm, axis=0) >= -1e-15)          # columns never cool less
        assert np.all(np.diff(lm, axis=1) <= 1e-15)           # hierarchy within a row

    def test_unequal_biases_round_structure(self):
        values = [0.3, 0.05, 0.2, 0.1, 0.15]
        lm = numerical_limits(values, 3)
        assert np.all(np.diff(lm.values, axis=0) >= -1e-15)
        # untouched tail carries the defaults in round 1
        assert lm[0, 3] == values[3] and lm[0, 4] == values[4]

    @pytest.mark.parametrize("rounds", [0, 3])
    def test_rounds_validation(self, rounds):
        with pytest.raises(ValueError):
            numerical_limits([0.1] * 4, rounds)

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            numerical_limits([0.1] * 4, 1, precision=0.0)

    @pytest.mark.parametrize("precision", [math.inf, math.nan, True, np.True_, -1e-9],
                             ids=["inf", "nan", "bool", "numpy-bool", "negative"])
    def test_precision_is_a_positive_finite_number(self, precision):
        # The CLI's --precision rule: an infinite precision settles every
        # target after one pass (and cooling n = 5 then reports 26 exchanges
        # in 21 passes), and True is no precision, though it compares as 1.
        message = f"precision must be a positive finite number, got {precision!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            numerical_limits([0.1] * 4, 2, precision)
        with pytest.raises(ValueError, match=re.escape(message)):
            hbac.HbacConfig.equal(5, 0.1, 3, precision=precision)

    def test_iteration_cap_stops_a_target_that_never_settles(self):
        # At precision 1e-300 the round-3 target of this register alternates
        # between 0.9999997953311102 and the next float up.
        with pytest.raises(DivergenceError) as info:
            numerical_limits([0.3] * 7, 5, precision=1e-300, iteration_cap=1000)
        err = info.value
        assert (err.round_index, err.subspace, err.passes) == (3, 1, 1000)

    def test_iteration_cap_allows_exactly_that_many_passes(self):
        needed = next(cap for cap in range(1, 100) if _settles([0.2] * 3, 1, cap))
        with pytest.raises(DivergenceError) as info:
            numerical_limits([0.2] * 3, 1, iteration_cap=needed - 1)
        assert info.value.passes == needed - 1

    def test_iteration_cap_validation(self):
        with pytest.raises(ValueError, match=re.escape("iteration cap must be >= 1, got 0")):
            numerical_limits([0.1] * 4, 1, iteration_cap=0)

    @pytest.mark.parametrize("call, message", [
        (lambda: numerical_limits([0.1] * 4, 2.0), "rounds must be an integer, got 2.0"),
        (lambda: numerical_limits([0.1] * 4, 2, iteration_cap=2.5),
         "iteration cap must be an integer, got 2.5"),
        (lambda: f(1, 1.5, 5), "qubit index must be an integer, got 1.5"),
        (lambda: analytic_limits(5.0, None, 0.1), "register size must be an integer, got 5.0"),
        (lambda: single_round_limit(0.1, 2.5), "ancilla count must be an integer, got 2.5"),
        (lambda: single_round_limit(0.1, True), "ancilla count must be an integer, got True"),
        (lambda: shannon_bound(2.5, 0.1), "register size must be an integer, got 2.5"),
        (lambda: shannon_bound(-3, 0.1), "register size must be >= 1, got -3"),
        (lambda: sqrt_bound(2.5, 0.1), "register size must be an integer, got 2.5"),
        (lambda: sqrt_bound(0, 0.1), "register size must be >= 1, got 0"),
    ], ids=["rounds", "iteration_cap", "qubit_index", "register_size", "ancilla_count",
            "ancilla_count_bool", "shannon_size", "shannon_size_negative", "sqrt_size",
            "sqrt_size_zero"])
    def test_counts_must_be_integers(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_iteration_cap_is_used_as_converted(self):
        # operator.index turns np.int64(1) into 1, and the error counts 1
        # pass; a bool is no count, though operator.index takes it as one.
        with pytest.raises(DivergenceError, match=re.escape("exceeded 1 passes")) as info:
            numerical_limits([0.1] * 4, 2, iteration_cap=np.int64(1))
        assert type(info.value.passes) is int
        for flag in (True, False):
            with pytest.raises(ValueError, match=re.escape(
                    f"iteration cap must be an integer, got {flag}")):
                numerical_limits([0.1] * 4, 2, iteration_cap=flag)

    def test_limit_matrix_shape_accessors(self):
        lm = numerical_limits([0.1] * 5, 2)
        assert lm.rounds == 2 and lm.n == 5
        assert lm.values.shape == (2, 5)

    def test_limit_matrix_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="limit matrix must be two-dimensional"):
            limits.LimitMatrix(np.array([0.1, 0.2]))


def _settles(values, rounds, cap) -> bool:
    try:
        numerical_limits(values, rounds, iteration_cap=cap)
    except DivergenceError:
        return False
    return True


# Equal registers, the benchmark's eight limits-pool registers and its unequal cooling registers.
ORACLE_REGISTERS = (
    [pytest.param((eps,) * n, id=f"n{n}-eps{eps}")
     for n in range(3, 10) for eps in (0.1, 1e-2, 1e-5)]
    + [pytest.param(b, id=f"pool{i}") for i, b in enumerate(_WORKLOADS.limits_pool())]
    + [pytest.param(b, id=f"unequal{len(b)}") for b in _WORKLOADS.UNEQUAL_REGISTERS]
)


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _record_gate(monkeypatch) -> list[bool]:
    """Whether the gate accepted, for every verdict the limits loop asks for from now on."""
    real = limits._limiting_verdict
    verdicts = []

    def recorded(*args):
        result = real(*args)
        verdicts.append(result is not None)
        return result

    monkeypatch.setattr(limits, "_limiting_verdict", recorded)
    return verdicts


# An unequal n = 9 register, every bias below 0.29, whose round-7 limits
# round above 1, as the equal n = 10, eps = 0.1 register's do.
SATURATING_N9 = (0.22302737390867222, 0.04296488577720699, 0.12345617524374199,
                 0.15985465296019546, 0.13488212592011156, 0.18017158571706082,
                 0.22397295831472647, 0.2873175039024686, 0.0924183374871495)


class TestTargetPass:
    @settings(max_examples=500, deadline=None)
    @given(product_registers(min_q=3, max_q=10), st.floats(0.0, 1.0))
    @example([1.0, 1.0, 1.0], 0.5)
    @example([0.0, 0.0, 0.0], 1.0)
    @example([1.0, 0.3, 0.2, 0.1], 0.0)
    @example([0.999999999, 0.999999999, 0.9999999995, 1.0 - 1e-9], 0.0)
    @example([0.0] + [1.0 - 2e-10] * 9, 0.5)
    @example([0.01] + [0.0] * 9, 0.0)
    def test_matches_oracle_pass(self, beta, other):
        got, _ = _converge(beta[0], beta[1:], 1e-9, 1)
        assert _same_float(got, compress_pass(np.array(beta)))
        # Later passes reuse the loop's buffers: each must start from the
        # bias the last one left, and from nothing else of it.
        got, settled = _converge(other, beta[1:], 1e-9, 3)
        want, want_settled = converge_loop(other, np.array(beta[1:]), 1e-9, 3)
        assert _same_float(got, want) and settled is want_settled

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, 1.0, 1.0 + 2.0 ** -52, 1.5]), st.floats(0.0, 2.0)),
           st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                    min_size=2, max_size=9))
    # q = 20 registers whose smallest entry lies just above the reference
    # verdict's normal floor (1.06e-280) and just below it (6.1e-281)
    @example(0.3, [NEAR_FLOOR_ABOVE] * 19)
    @example(0.3, [NEAR_FLOOR_BELOW] * 19)
    def test_gate_is_the_rule_on_the_whole_register(self, target, ancillas):
        # The loop fixes the ancillas' smallest bias once; every pass must
        # still ask _limiting_verdict about the register [target, *ancillas]
        # and the pass's own limiting pair.
        calls = []
        real = limits._limiting_verdict
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "_limiting_verdict",
                       lambda *args: calls.append(args) or real(*args))
            _converge(target, ancillas, 1e-9, 2)
        assert calls[0][0] == target
        for args in calls:
            beta = [args[0], *ancillas]
            assert args == (beta[0], *limiting_probamps(beta))
        if max(ancillas) >= 1.0:
            assert all(real(*args) is None for args in calls)
        if target >= 1.0:
            assert real(*calls[0]) is None

    @pytest.mark.parametrize("target,ancillas,side,gated", [
        (0.3, [NEAR_FLOOR_ABOVE] * 19, 1.0, False),
        (0.3, [NEAR_FLOOR_BELOW] * 19, -1.0, False),
        # the target 1 - 2^-51 put the older bound ((1 - b_max) / 2)^18 at
        # 1.7e-282, below the floor; its smallest entry is 1.4e-21
        (1.0 - 2.0 ** -51, [0.01] * 17, 1.0, True),
    ], ids=["entry-above-floor", "entry-below-floor", "gap-2^-51"])
    def test_normal_floor_guards_the_smallest_entry(self, monkeypatch, target, ancillas, side,
                                                    gated):
        # No register the gate's inequality accepts comes near the floor that
        # the reference verdict keeps: at q <= 26 their entries stay above
        # about 1e-73.  So near the floor the verdict defers on both sides,
        # and the package's needs no floor.  The 2^-51 register, deferred by
        # the older bound, is gated now, and bit-identical to its full-mask
        # pass.
        p_k, _, _ = limiting_probamps([target, *ancillas])
        entry = p_k * (1.0 - target) / (1.0 + target)
        assert math.copysign(1.0, entry - oracles.NORMAL_FLOOR) == side
        verdicts = _record_gate(monkeypatch)
        got, _ = _converge(target, ancillas, 1e-9, 1)
        assert verdicts == [gated]
        assert _same_float(got, compress_pass(np.array([target, *ancillas])))
        monkeypatch.setattr(limits, "_limiting_verdict", lambda *args: None)
        assert _same_float(_converge(target, ancillas, 1e-9, 1)[0], got)

    @pytest.mark.parametrize("head", [1.0, 1.0 + 2.0 ** -52], ids=["head-1", "head-1+2^-52"])
    def test_verdict_defers_at_a_head_of_one(self, head):
        # The gate's ratio test accepts these scalars, as p_kk <= 0 < p_k,
        # so only the head test defers them, in the package's verdict and in
        # the reference's (which defers on its smallest entry, <= 0).
        args = (head, *limiting_probamps([head, 0.5, 0.5]))
        _, p_k, p_kk, b_min = args
        r = (1.0 - b_min) / (1.0 + b_min)
        assert p_kk <= 0.0 < p_k and p_kk * r * r < _GATE_RATIO * p_k
        assert _limiting_verdict(*args) is None
        assert oracles._limiting_verdict(*args) is None

    def test_ancillas_above_one_never_reach_the_verdict(self, monkeypatch):
        # With two ancillas above 1 the verdict's four scalars cannot see the
        # negative entries of the build (tests/test_hbac.py shows one).  At
        # n = 10, eps = 0.2 a round-5 limit rounds above 1, and the loop
        # stops there: no later target takes it as an ancilla.
        seen = []
        real = limits._converge
        monkeypatch.setattr(limits, "_converge",
                            lambda target, ancillas, *rest:
                            seen.append(list(ancillas)) or real(target, ancillas, *rest))
        with pytest.raises(ValueError, match=re.escape("limit entries must lie in [0, 1]")):
            numerical_limits([0.2] * 10, 8)
        assert seen and max(max(ancillas) for ancillas in seen) <= 1.0

    @pytest.mark.parametrize("values", ORACLE_REGISTERS)
    def test_matrices_bit_identical_to_oracle_loop(self, values):
        rounds = len(values) - 2
        got = numerical_limits(list(values), rounds).values
        assert got.tobytes() == numerical_limits_loop(values, rounds).tobytes()

    @pytest.mark.parametrize("values,rounds", [((0.1,) * 10, 8), ((0.2,) * 10, 8),
                                               (SATURATING_N9, 7)],
                             ids=["n10-eps0.1", "n10-eps0.2", "unequal9"])
    def test_saturated_rows_bit_identical_to_oracle_loop(self, monkeypatch, values, rounds):
        # The loop stops at the first settled target outside [0, 1].  Every
        # target settled before it, and that one, is the defining loop's, bit
        # for bit: the saturation is the loop's, not this implementation's.
        settled = []
        real = limits._converge

        def recorded(*args):
            out = real(*args)
            settled.append(out[0])
            return out

        monkeypatch.setattr(limits, "_converge", recorded)
        with pytest.raises(ValueError) as info:
            numerical_limits(list(values), rounds)
        n = len(values)
        order = [(r, v) for r in range(1, rounds + 1) for v in range(1, n - r)]
        r, v = order[len(settled) - 1]
        assert str(info.value) == (f"limit entries must lie in [0, 1]: round {r}, qubit {v} "
                                   f"settled at {settled[-1]!r}")
        want = numerical_limits_loop(values, rounds)
        assert (np.array(settled).tobytes()
                == np.array([want[r - 1, v - 1] for r, v in order[:len(settled)]]).tobytes())
        assert settled[-1] > 1.0 and max(settled[:-1]) <= 1.0

    def test_stops_at_the_first_limit_above_one(self, monkeypatch):
        # Rounds 1..3 of n = 12 settle 10 + 9 + 8 targets; round 4's first
        # rounds above 1, and no later target is compressed.
        calls = []
        real = limits._converge
        monkeypatch.setattr(limits, "_converge", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(ValueError, match=re.escape(
                "limit entries must lie in [0, 1]: round 4, qubit 1 settled at ")):
            numerical_limits([0.1] * 12, 10)
        assert len(calls) == 10 + 9 + 8 + 1

    def test_gated_and_fallback_paths_both_run(self, monkeypatch):
        verdicts = _record_gate(monkeypatch)
        kernels = []
        monkeypatch.setattr(hbac, "_kernel", lambda *args: kernels.append(args))
        values = [1e-5] * 8
        got = numerical_limits(values, 6).values
        assert sum(verdicts) > 0.9 * len(verdicts)
        assert not all(verdicts)  # the fallback ran as well
        assert not kernels  # the limits loop asks the gate itself, never a cooling kernel
        want = numerical_limits_loop(values, 6)
        assert got.tobytes() == want.tobytes()
        monkeypatch.setattr(limits, "_limiting_verdict", lambda *args: None)
        assert numerical_limits(values, 6).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [13, 14, 15, 16])
    @pytest.mark.parametrize("kind", ["gated", "fallback", "tie"])
    def test_blocked_build_matches_oracle(self, monkeypatch, q, kind):
        # q = 13 fills one factor block; q = 14..16 reduce it into 2, 4 and 8
        # slices of the distribution, each with its own prefix row.
        beta = {"gated": [0.5] + [0.01] * (q - 1),
                "fallback": [0.1] * q,
                "tie": [0.3, 0.3] + [0.0] * (q - 2)}[kind]  # exact probamp ties
        verdicts = _record_gate(monkeypatch)
        got, _ = _converge(beta[0], beta[1:], 1e-9, 1)
        assert verdicts == [kind == "gated"]
        assert _same_float(got, compress_pass(np.array(beta)))
        # a second pass refills every slice from the first pass's bias
        got, settled = _converge(0.2, beta[1:], 1e-9, 2)
        want, want_settled = converge_loop(0.2, np.array(beta[1:]), 1e-9, 2)
        assert _same_float(got, want) and settled is want_settled

    def test_pass_memory_is_bounded_by_the_distribution(self, monkeypatch):
        # The distribution and the sign vector take 2 * 2^q doubles; the
        # factor block adds at most 0.85 MB, where a q x 2^q factor matrix
        # would take 160 MB at q = 20.
        q = 20
        verdicts = _record_gate(monkeypatch)
        tracemalloc.start()
        try:
            _converge(0.5, [0.01] * (q - 1), 1e-9, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdicts == [True]
        assert peak < 3 * (1 << q) * 8

    def test_known_defect_n10_still_rounds_above_one(self):
        # `limits --n 10 --epsilon 0.1`: a limit rounds above 1, in the last
        # round.  Fixing it changes limit bits, so it waits for a change to
        # the benchmark.
        with pytest.raises(ValueError, match=re.escape(
                "limit entries must lie in [0, 1]: round 8, qubit 1 settled at ")):
            numerical_limits([0.1] * 10, 8)
