from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcool import (DiagDist, RegisterBiases, apply_swaps, bias_gain,
                   find_optswaps, marginal_bias, probamps, sort_bound,
                   verify_optimality)
from fixture_sets import STRESS_SETS
from oracles import select_swaps_brute, optimality_cases_brute

biases_st = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8)


def dist_of(values) -> DiagDist:
    return probamps(RegisterBiases.from_values(values))


@st.composite
def tied_weights(draw):
    """Weights of 2^n entries (n = 1..8) from a small integer multiset, and 1-ulp nudges.

    Repeated weights put head and tail entries in exact ties; a nudge of
    +1 or -1 moves its entry one ulp off the normalized value.
    """
    size = 2 ** draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    weights = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    nudges = draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=size, max_size=size))
    return weights, nudges


def tied_probamps(weights, nudges) -> np.ndarray:
    p = np.array(weights, dtype=float)
    p /= p.sum()
    for i, step in enumerate(nudges):
        if step:
            p[i] = np.nextafter(p[i], step * np.inf)
    return p


class TestFindOptswaps:
    @pytest.mark.parametrize("eps", [0.01, 0.2, 0.9])
    def test_three_qubit_equal_biases(self, eps):
        assert find_optswaps(dist_of([eps] * 3)) == {3}

    def test_five_qubit_pattern(self):
        # eps1+ eps2- eps3+ eps4- eps5- < eps1- eps2+ eps3- eps4+ eps5+
        swaps = find_optswaps(dist_of([0.1, 0.5, 0.1, 0.5, 0.5]))
        assert 11 in swaps  # |01011> <-> |10100>, decimal 11 <-> 20

    def test_pure_target_swaps_nothing(self):
        assert find_optswaps(dist_of([1.0, 0.3, 0.7])) == frozenset()
        assert find_optswaps(dist_of([1.0, 0.5])) == frozenset()

    @given(biases_st)
    @settings(max_examples=60)
    def test_matches_brute_selection(self, values):
        d = dist_of(values)
        assert find_optswaps(d) == set(select_swaps_brute(d.probamps))


class TestApplySwaps:
    def test_uniform_unchanged(self):
        d = dist_of([0.0, 0.0])
        out = apply_swaps(d, {0, 1})
        assert np.array_equal(out.probamps, d.probamps)

    def test_hand_exchange(self):
        d = dist_of([0.2, 0.5])
        assert d.probamps == pytest.approx([0.45, 0.15, 0.30, 0.10], abs=1e-15)
        out = apply_swaps(d, {1})
        assert out.probamps == pytest.approx([0.45, 0.30, 0.15, 0.10], abs=1e-15)
        # the exchange itself moves entries verbatim
        assert np.array_equal(out.probamps, d.probamps[[0, 2, 1, 3]])

    def test_empty_set_is_identity(self):
        d = dist_of([0.3, 0.6, 0.1])
        out = apply_swaps(d, frozenset())
        assert np.array_equal(out.probamps, d.probamps)

    def test_result_is_read_only_and_input_untouched(self):
        d = dist_of([0.2, 0.5])
        before = d.probamps.copy()
        out = apply_swaps(d, {1})
        assert np.array_equal(d.probamps, before)
        assert np.array_equal(out.probamps, before[[0, 2, 1, 3]])
        with pytest.raises(ValueError):
            out.probamps[0] = 0.0

    def test_rejects_one_t_indices(self):
        d = dist_of([0.3, 0.6])
        with pytest.raises(ValueError):
            apply_swaps(d, {2})

    @given(biases_st, st.data())
    @settings(max_examples=60)
    def test_conservation(self, values, data):
        d = dist_of(values)
        half = d.probamps.size // 2
        swaps = data.draw(st.sets(st.integers(0, half - 1)))
        out = apply_swaps(d, swaps)
        assert np.array_equal(np.sort(out.probamps), np.sort(d.probamps))
        assert abs(float(out.probamps.sum()) - float(d.probamps.sum())) < 1e-12


class TestBiasGain:
    def test_two_qubit_gain(self):
        d = dist_of([0.2, 0.5])
        swaps = find_optswaps(d)
        assert swaps == {1}
        assert bias_gain(d, swaps) == pytest.approx(0.3, abs=1e-14)

    def test_empty_set_zero(self):
        assert bias_gain(dist_of([0.4, 0.4]), frozenset()) == 0.0

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.77])
    def test_equal_three_qubit_closed_form(self, eps):
        d = dist_of([eps] * 3)
        gain = bias_gain(d, {3})
        assert gain == pytest.approx((eps - eps ** 3) / 2, abs=1e-14)
        post = marginal_bias(apply_swaps(d, {3}), 1)
        assert post == pytest.approx(marginal_bias(d, 1) + gain, abs=1e-14)

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_gain_consistency_with_marginals(self, values):
        d = dist_of(values)
        swaps = find_optswaps(d)
        gain = bias_gain(d, swaps)
        delta = marginal_bias(apply_swaps(d, swaps), 1) - marginal_bias(d, 1)
        assert gain == pytest.approx(delta, rel=1e-12, abs=1e-12)

    @given(biases_st)
    @settings(max_examples=60)
    def test_monotonicity(self, values):
        d = dist_of(values)
        swaps = find_optswaps(d)
        gain = bias_gain(d, swaps)
        assert gain >= 0.0
        assert (gain == 0.0) == (not swaps)

    @given(biases_st)
    @settings(max_examples=60)
    def test_idempotence(self, values):
        d = dist_of(values)
        once = apply_swaps(d, find_optswaps(d))
        assert find_optswaps(once) == frozenset()


class TestSortBoundAttainment:
    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_optswaps_attain_sort_bound_on_products(self, values):
        d = dist_of(values)
        post = marginal_bias(apply_swaps(d, find_optswaps(d)), 1)
        assert post == pytest.approx(sort_bound(d), rel=1e-12, abs=1e-12)


class TestVerifyOptimality:
    def test_no_swap_case(self):
        report = verify_optimality(dist_of([1.0, 0.5]))
        assert report.swaps_performed == 0
        assert report.case1_passed is None and report.case2_passed is None
        assert report.case3_passed is True
        assert report.all_passed

    def test_three_qubit_equal(self):
        report = verify_optimality(dist_of([0.2] * 3))
        assert report.swaps_performed == 1
        assert report.case1_passed is True and report.case2_passed is True
        assert report.case3_passed is None
        assert report.counterexamples == ()

    def test_size_cap(self):
        from qcool import ResourceCapError
        with pytest.raises(ResourceCapError):
            verify_optimality(dist_of([0.1] * 4), max_n=3)

    @given(biases_st)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_checks(self, values):
        d = dist_of(values)
        report = verify_optimality(d)
        ns, c1, c2, c3, cexs = optimality_cases_brute(d.probamps)
        assert report.swaps_performed == ns
        assert (report.case1_passed, report.case2_passed, report.case3_passed) == (c1, c2, c3)
        got = {(c.case, c.k, c.l) for c in report.counterexamples}
        assert got == set(cexs)

    @pytest.mark.parametrize("values", STRESS_SETS[5])
    def test_matches_brute_checks_on_stress_sets(self, values):
        # repeated biases (exact ties), 1e-5 magnitudes, one near-pure qubit
        d = dist_of(values)
        report = verify_optimality(d)
        ns, c1, c2, c3, cexs = optimality_cases_brute(d.probamps)
        assert report.swaps_performed == ns
        assert (report.case1_passed, report.case2_passed, report.case3_passed) == (c1, c2, c3)
        assert report.counterexamples == () and cexs == []

    @pytest.mark.parametrize("values", STRESS_SETS[19] + STRESS_SETS[23])
    def test_passes_on_large_stress_sets(self, values):
        report = verify_optimality(dist_of(values))
        assert report.all_passed
        if report.swaps_performed > 0:
            assert report.case1_passed and report.case2_passed
        else:
            assert report.case3_passed

    @given(tied_weights())
    # h_l = t_k exactly: the tie passes case 2
    @example(([1, 2, 9, 2], [0, 0, 0, 0]))
    @settings(max_examples=150, deadline=None)
    def test_ties_match_brute_checks_and_formulas(self, case):
        p = tied_probamps(*case)
        report = verify_optimality(DiagDist(p))
        ns, c1, c2, c3, cexs = optimality_cases_brute(p)
        assert report.swaps_performed == ns
        assert (report.case1_passed, report.case2_passed, report.case3_passed) == (c1, c2, c3)
        pairs = [(c.case, c.k, c.l) for c in report.counterexamples]
        assert pairs == cexs
        assert pairs == sorted(pairs)  # row-major, case 1 before case 2
        x, top = [Fraction(v) for v in p.tolist()], p.size - 1
        for c in report.counterexamples:
            k, l = c.k, c.l
            excess = x[top - l] - x[k]
            if c.case == 1:
                excess -= x[top - k] - x[k]
            elif c.case == 2:
                excess -= (x[top - k] - x[k]) + (x[top - l] - x[l])
            assert c.excess == float(excess)  # the correctly rounded exact excess

    @pytest.mark.parametrize("p, expected", [
        # h_l = t_k exactly, so case 2 passes; the float textbook formula
        # fl(fl(t_l - h_k) - fl(v_k + v_l)) rounds this tie to +1.1e-16
        (np.array([1, 2, 9, 2]) / 14, []),
        # t_l exceeds t_k by one ulp, so case 1 fails; the float textbook
        # formula fl(fl(t_l - h_k) - v_k) rounds this excess to 0
        (np.array([0.07238717195836826, 0.43224687501562864,
                   0.24768297651300156, 0.24768297651300153]),
         [(1, 0, 1, 2.7755575615628914e-17)]),
    ])
    def test_ties_and_one_ulp_violations_are_exact(self, p, expected):
        report = verify_optimality(DiagDist(p))
        assert report.swaps_performed > 0 and report.case2_passed
        assert report.case1_passed == (not expected)
        assert [(c.case, c.k, c.l, c.excess) for c in report.counterexamples] == expected

    @pytest.mark.parametrize("p", [
        # cross swap beats the pair swap: pair 0 gains 0.10 but entry 2
        # exceeds entry 0 by 0.30 (case 1)
        [0.05, 0.45, 0.35, 0.15],
        # crossing two performed swaps beats doing both (case 2)
        [0.05, 0.35, 0.4, 0.2],
        # no pair is beneficial yet a cross pair is out of order (case 3)
        [0.4, 0.2, 0.15, 0.25],
    ])
    def test_counterexamples_on_non_product_input(self, p):
        p = np.array(p)
        report = verify_optimality(DiagDist(p))
        ns, c1, c2, c3, cexs = optimality_cases_brute(p)
        assert report.swaps_performed == ns
        assert (report.case1_passed, report.case2_passed, report.case3_passed) == (c1, c2, c3)
        assert not report.all_passed
        assert {(c.case, c.k, c.l) for c in report.counterexamples} == set(cexs)
        assert all(c.excess > 0 for c in report.counterexamples)
