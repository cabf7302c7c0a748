import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcool import (Circuit, Gate, RegisterBiases, ResourceCapError,
                   apply_circuit, apply_swaps, circuit_permutation,
                   export_text, find_optswaps, lim_comp, nb_maxcomp,
                   parse_text, probamps)
from oracles import transposition_perm


@st.composite
def swap_sets(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    half = 2 ** (n - 1)
    swaps = draw(st.sets(st.integers(0, half - 1), max_size=half))
    return n, sorted(swaps)


class TestGateAndCircuit:
    def test_gate_rejects_duplicate_wires(self):
        with pytest.raises(ValueError):
            Gate(target=1, controls_on_1=(1,))
        with pytest.raises(ValueError):
            Gate(target=2, controls_on_0=(3,), controls_on_1=(3,))

    def test_gate_rejects_zero_based_wires(self):
        with pytest.raises(ValueError):
            Gate(target=0)

    def test_circuit_rejects_wide_gates(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate(target=3),))

    def test_controls_stored_sorted(self):
        g = Gate(target=1, controls_on_1=(4, 2), controls_on_0=(5, 3))
        assert g.controls_on_1 == (2, 4)
        assert g.controls_on_0 == (3, 5)


class TestNbMaxcomp:
    def test_three_qubit_compressor(self):
        perm = circuit_permutation(nb_maxcomp(3, [3]))
        assert np.array_equal(perm, [0, 1, 2, 4, 3, 5, 6, 7])

    def test_empty_set_is_identity(self):
        c = nb_maxcomp(4, [])
        assert len(c) == 0
        assert np.array_equal(circuit_permutation(c), np.arange(16))

    def test_five_qubit_equal_bias_set(self):
        swaps = find_optswaps(probamps(RegisterBiases.equal(5, 0.1)))
        assert swaps.tolist() == [7, 11, 13, 14, 15]  # five exchanges
        perm = circuit_permutation(nb_maxcomp(5, swaps))
        assert np.array_equal(perm, transposition_perm(5, swaps))

    def test_rejects_one_t_indices(self):
        with pytest.raises(ValueError):
            nb_maxcomp(3, [4])

    @given(swap_sets())
    @settings(max_examples=80, deadline=None)
    def test_permutation_equals_transposition_product(self, case):
        n, swaps = case
        perm = circuit_permutation(nb_maxcomp(n, swaps))
        assert np.array_equal(perm, transposition_perm(n, swaps))

    @given(swap_sets(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, case):
        n, swaps = case
        c = nb_maxcomp(n, swaps)
        perm = circuit_permutation(c)
        assert np.array_equal(perm[perm], np.arange(2 ** n))


class TestLimComp:
    def test_two_qubit_case(self):
        perm = circuit_permutation(lim_comp(2))
        assert np.array_equal(perm, [0, 2, 1, 3])

    def test_matches_three_qubit_compressor(self):
        assert np.array_equal(circuit_permutation(lim_comp(3)),
                              circuit_permutation(nb_maxcomp(3, [3])))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_middle_transposition(self, n):
        perm = circuit_permutation(lim_comp(n))
        want = np.arange(2 ** n)
        a, b = 2 ** (n - 1) - 1, 2 ** (n - 1)
        want[a], want[b] = want[b], want[a]
        assert np.array_equal(perm, want)

    def test_rejects_single_wire(self):
        with pytest.raises(ValueError):
            lim_comp(1)


class TestCircuitPermutation:
    def test_empty_circuit(self):
        assert np.array_equal(circuit_permutation(Circuit(3)), np.arange(8))

    def test_single_not_on_top_wire(self):
        perm = circuit_permutation(Circuit(2, (Gate(target=1),)))
        assert np.array_equal(perm, [2, 3, 0, 1])

    def test_lim_comp_4(self):
        perm = circuit_permutation(lim_comp(4))
        assert perm[7] == 8 and perm[8] == 7

    def test_size_cap(self):
        with pytest.raises(ResourceCapError):
            circuit_permutation(Circuit(6), size_cap=5)


class TestApplyCircuit:
    def test_uniform_unchanged(self):
        d = probamps(RegisterBiases.equal(3, 0.0))
        out = apply_circuit(d, lim_comp(3))
        assert np.array_equal(out.probamps, d.probamps)

    def test_matches_apply_swaps_example(self):
        d = probamps(RegisterBiases.from_values([0.2, 0.5]))
        out = apply_circuit(d, nb_maxcomp(2, [1]))
        assert out.probamps == pytest.approx([0.45, 0.30, 0.15, 0.10], abs=1e-15)

    def test_result_is_read_only_and_input_untouched(self):
        d = probamps(RegisterBiases.from_values([0.2, 0.5]))
        before = d.probamps.copy()
        out = apply_circuit(d, nb_maxcomp(2, [1]))
        assert np.array_equal(d.probamps, before)
        assert np.array_equal(out.probamps, before[[0, 2, 1, 3]])
        with pytest.raises(ValueError):
            out.probamps[0] = 0.0

    def test_inverse_restores(self):
        d = probamps(RegisterBiases.from_values([0.3, 0.1, 0.6]))
        c = nb_maxcomp(3, [0, 3])
        back = apply_circuit(apply_circuit(d, c), c.inverse())
        assert np.array_equal(back.probamps, d.probamps)

    def test_wire_count_mismatch(self):
        d = probamps(RegisterBiases.equal(2, 0.1))
        with pytest.raises(ValueError):
            apply_circuit(d, lim_comp(3))

    @given(swap_sets(max_n=10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equivalence_with_apply_swaps(self, case, data):
        n, swaps = case
        values = data.draw(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                                    min_size=n, max_size=n))
        d = probamps(RegisterBiases.from_values(values))
        via_circuit = apply_circuit(d, nb_maxcomp(n, swaps))
        via_swaps = apply_swaps(d, swaps)
        assert np.array_equal(via_circuit.probamps, via_swaps.probamps)


class TestTextFormat:
    def test_empty_circuit_header_only(self):
        assert export_text(Circuit(3)) == "WIRES 3\n"

    def test_single_not(self):
        c = Circuit(3, (Gate(target=2),))
        assert export_text(c) == "WIRES 3\nMCX t=2 c0=[] c1=[]\n"

    def test_deterministic_bytes(self):
        c = nb_maxcomp(4, [1, 6])
        assert export_text(c) == export_text(nb_maxcomp(4, np.array([1, 6], np.uint8)))

    def test_round_trip_permutation(self):
        for c in (lim_comp(3), nb_maxcomp(4, [0, 5, 7]), Circuit(2)):
            back = parse_text(export_text(c))
            assert back.n == c.n
            assert np.array_equal(circuit_permutation(back), circuit_permutation(c))

    def test_parse_exact_fields(self):
        c = parse_text("WIRES 4\nMCX t=2 c0=[1,4] c1=[3]\n")
        assert c.gates == (Gate(target=2, controls_on_0=(1, 4), controls_on_1=(3,)),)

    @pytest.mark.parametrize("text", [
        "", "MCX t=1 c0=[] c1=[]\n", "WIRES x\n", "WIRES 2\nMCX t=1\n",
        "WIRES 2\nMCX t=1 c0=(1) c1=[]\n", "WIRES 2\nCX t=1 c0=[] c1=[]\n",
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_text(text)
