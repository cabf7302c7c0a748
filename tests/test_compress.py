from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcool import (DiagDist, RegisterBiases, apply_swaps, bias_gain,
                   circuit_permutation, find_optswaps, marginal_bias, nb_maxcomp,
                   probamps, sort_bound, verify_optimality)
from qcool import regstate
from qcool.compress import _beneficial, _beneficial_mask
from qcool.errors import ResourceCapError
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
        assert find_optswaps(dist_of([eps] * 3)).tolist() == [3]

    def test_five_qubit_pattern(self):
        # eps1+ eps2- eps3+ eps4- eps5- < eps1- eps2+ eps3- eps4+ eps5+
        swaps = find_optswaps(dist_of([0.1, 0.5, 0.1, 0.5, 0.5]))
        assert 11 in swaps  # |01011> <-> |10100>, decimal 11 <-> 20

    def test_pure_target_swaps_nothing(self):
        assert find_optswaps(dist_of([1.0, 0.3, 0.7])).size == 0
        assert find_optswaps(dist_of([1.0, 0.5])).size == 0

    @given(biases_st)
    @settings(max_examples=60)
    def test_matches_brute_selection(self, values):
        d = dist_of(values)
        swaps = find_optswaps(d)
        assert swaps.dtype == np.int64 and swaps.ndim == 1
        assert np.all(np.diff(swaps) > 0)
        assert swaps.tolist() == select_swaps_brute(d.probamps)

    @given(st.floats(), st.floats())
    @example(0.0, -0.0)
    @example(-0.0, 1e-300)
    @example(1.0, 1.0 + 2e-12)
    @example(-1.0, -1.0 + 2e-12)
    @settings(max_examples=500)
    def test_scalar_tie_rule_is_the_mask(self, a, b):
        # the one-pair test of the limits loop and register cooling
        for x, y in [(a, b), (a, a * (1.0 + 1.01e-12))]:
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, nan
                want = _beneficial_mask(np.array([x]), np.array([y]))[0]
            assert _beneficial(x, y) == want


@st.composite
def block_registers(draw):
    """Registers of 17..19 qubits, so a scan crosses 2^16-entry blocks.

    Biases come from 0, 1, one shared value, values a few 1e-13 relative
    from it (pairs near the tie tolerance) and free draws.
    """
    n = draw(st.integers(17, 19))
    base = draw(st.floats(0.0, 1.0))
    near = [min(base * (1.0 + k * 1e-13), 1.0) for k in (-5, -1, 1, 5)]
    bias = st.one_of(st.sampled_from([0.0, 1.0, base, *near]), st.floats(0.0, 1.0))
    return RegisterBiases.from_values(draw(st.lists(bias, min_size=n, max_size=n)))


class TestRegisterScan:
    """find_optswaps(register) scans block pairs; it equals the scan of the vector."""

    @given(block_registers())
    @example(RegisterBiases.equal(18, 0.01))
    @example(RegisterBiases.equal(17, 0.0))
    @example(RegisterBiases.from_values([1.0] + [0.3] * 18))
    @example(RegisterBiases.from_values([0.0] + [0.3] * 16))
    @example(RegisterBiases.from_values([0.2, 0.2 * (1 + 1e-13)] * 9))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_vector_past_one_block(self, register):
        got = find_optswaps(register)
        assert got.dtype == np.int64
        assert np.array_equal(got, find_optswaps(probamps(register)))

    @pytest.mark.parametrize("block_bits", [0, 1, 2, 3, 16])
    def test_matches_the_vector_for_any_block_size(self, monkeypatch, block_bits):
        monkeypatch.setattr(regstate, "_BLOCK_BITS", block_bits)
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            for values in (rng.uniform(0.0, 1.0, n), np.full(n, 0.3)):
                register = RegisterBiases(values)
                assert np.array_equal(find_optswaps(register),
                                      find_optswaps(probamps(register))), (n, values)

    def test_size_cap(self):
        with pytest.raises(ResourceCapError, match="size cap 26"):
            find_optswaps(RegisterBiases.equal(27, 0.1))


#: The three consumers of a swap set, each called on a 3-qubit register.
SWAP_SET_USERS = {
    "apply_swaps": lambda swaps: apply_swaps(dist_of([0.2, 0.3, 0.4]), swaps).probamps,
    "bias_gain": lambda swaps: bias_gain(dist_of([0.2, 0.3, 0.4]), swaps),
    "nb_maxcomp": lambda swaps: circuit_permutation(nb_maxcomp(3, swaps)),
}


class TestSwapSetForm:
    """A swap set is a 1-D integer array of strictly increasing indices in [0, 2^(n-1))."""

    @pytest.mark.parametrize("user", SWAP_SET_USERS)
    @pytest.mark.parametrize("swaps", [
        {1, 3}, frozenset({1}), [3, 1], [1, 1], [-1, 2], [4], [0, 4],
        np.array([1.0, 3.0]), [1.0], np.array([[1, 3]]), np.array(1), [True],
        np.array([2 ** 64 - 1], np.uint64), "1",
    ], ids=["set", "frozenset", "unsorted", "duplicate", "negative", "one_t", "past_half",
            "float_array", "float_list", "two_d", "scalar", "bool", "uint64_wrap", "str"])
    def test_rejects_every_other_form(self, user, swaps):
        with pytest.raises(ValueError, match=r"strictly increasing indices in \[0, 4\)"):
            SWAP_SET_USERS[user](swaps)

    @pytest.mark.parametrize("user", SWAP_SET_USERS)
    def test_accepts_lists_and_integer_arrays_alike(self, user):
        call = SWAP_SET_USERS[user]
        assert np.array_equal(call([]), call(np.array([], np.int64)))
        want = call(np.array([1, 3], np.int64))
        for swaps in ([1, 3], (1, 3), np.array([1, 3], np.uint8), np.array([1, 3], np.int32)):
            assert np.array_equal(call(swaps), want)


class TestApplySwaps:
    def test_uniform_unchanged(self):
        d = dist_of([0.0, 0.0])
        out = apply_swaps(d, [0, 1])
        assert np.array_equal(out.probamps, d.probamps)

    def test_hand_exchange(self):
        d = dist_of([0.2, 0.5])
        assert d.probamps == pytest.approx([0.45, 0.15, 0.30, 0.10], abs=1e-15)
        out = apply_swaps(d, [1])
        assert out.probamps == pytest.approx([0.45, 0.30, 0.15, 0.10], abs=1e-15)
        # the exchange itself moves entries verbatim
        assert np.array_equal(out.probamps, d.probamps[[0, 2, 1, 3]])

    def test_empty_set_is_identity(self):
        d = dist_of([0.3, 0.6, 0.1])
        out = apply_swaps(d, [])
        assert np.array_equal(out.probamps, d.probamps)

    def test_result_is_read_only_and_input_untouched(self):
        d = dist_of([0.2, 0.5])
        before = d.probamps.copy()
        out = apply_swaps(d, [1])
        assert np.array_equal(d.probamps, before)
        assert np.array_equal(out.probamps, before[[0, 2, 1, 3]])
        with pytest.raises(ValueError):
            out.probamps[0] = 0.0

    def test_rejects_one_t_indices(self):
        d = dist_of([0.3, 0.6])
        with pytest.raises(ValueError):
            apply_swaps(d, [2])

    @given(biases_st, st.data())
    @settings(max_examples=60)
    def test_conservation(self, values, data):
        d = dist_of(values)
        half = d.probamps.size // 2
        swaps = sorted(data.draw(st.sets(st.integers(0, half - 1))))
        out = apply_swaps(d, swaps)
        assert np.array_equal(np.sort(out.probamps), np.sort(d.probamps))
        assert abs(float(out.probamps.sum()) - float(d.probamps.sum())) < 1e-12


class TestBiasGain:
    def test_two_qubit_gain(self):
        d = dist_of([0.2, 0.5])
        swaps = find_optswaps(d)
        assert swaps.tolist() == [1]
        assert bias_gain(d, swaps) == pytest.approx(0.3, abs=1e-14)

    def test_empty_set_zero(self):
        assert bias_gain(dist_of([0.4, 0.4]), []) == 0.0

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.77])
    def test_equal_three_qubit_closed_form(self, eps):
        d = dist_of([eps] * 3)
        gain = bias_gain(d, [3])
        assert gain == pytest.approx((eps - eps ** 3) / 2, abs=1e-14)
        post = marginal_bias(apply_swaps(d, [3]), 1)
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
        assert (gain == 0.0) == (swaps.size == 0)

    @given(biases_st)
    @settings(max_examples=60)
    def test_idempotence(self, values):
        d = dist_of(values)
        once = apply_swaps(d, find_optswaps(d))
        assert find_optswaps(once).size == 0


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

    def test_size_cap(self, monkeypatch):
        dist = dist_of([0.1] * 4)
        monkeypatch.setattr(regstate, "SIZE_CAP", 3)
        with pytest.raises(ResourceCapError, match="register of 4 qubits exceeds the size cap 3"):
            verify_optimality(dist)

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
