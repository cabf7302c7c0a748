import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcool import (Circuit, Gate, RegisterBiases, ResourceCapError,
                   apply_circuit, apply_swaps, circuit_permutation,
                   export_text, find_optswaps, lim_comp, nb_maxcomp,
                   parse_text, probamps)
from qcool import circuits
from oracles import (circuit_permutation_per_control, flip_controls, nbmc_text,
                     transposition_perm)


def permutation(c):
    """circuit_permutation(c), checked against the per-control reference."""
    perm = circuit_permutation(c)
    assert np.array_equal(perm, circuit_permutation_per_control(c))
    return perm


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

    def test_circuit_needs_a_wire(self):
        with pytest.raises(ValueError, match="circuit needs at least one wire"):
            Circuit(0)
        with pytest.raises(ValueError, match="circuit needs at least one wire"):
            nb_maxcomp(0, [])

    @pytest.mark.parametrize("make, shown", [
        (lambda: Circuit(2.5), "2.5"),
        (lambda: Circuit(True), "True"),
        (lambda: nb_maxcomp(3.0, []), "3.0"),
        (lambda: lim_comp(2.5), "2.5"),
        (lambda: lim_comp(True), "True"),
    ], ids=["circuit-float", "circuit-bool", "nb_maxcomp-float", "lim_comp-float",
            "lim_comp-bool"])
    def test_wire_count_is_an_integer(self, make, shown):
        # Circuit(2.5) was stored and exported as "WIRES 2.5", which
        # parse_text refuses; the builders raised TypeError from a shift.
        with pytest.raises(ValueError, match=f"wire count must be an integer, got {shown}$"):
            make()

    def test_circuit_rejects_wide_gates(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate(target=3),))

    def test_circuit_rejects_a_shared_wide_gate(self):
        wide = Gate(target=3)
        with pytest.raises(ValueError, match="wire 3 exceeds n = 2"):
            Circuit(2, (Gate(target=1), wide, Gate(target=2), wide))
        with pytest.raises(ValueError, match="wire 3 exceeds n = 2"):
            Circuit(2, nb_maxcomp(3, [1, 2]).gates)

    @pytest.mark.parametrize("kw, bad", [
        ({"target": 1, "controls_on_0": (2.7,)}, "2.7"),
        ({"target": 1, "controls_on_1": ("3",)}, "'3'"),
        ({"target": 1.5}, "1.5"),
        ({"target": np.float64(2.0)}, "2.0"),
        ({"target": True}, "True"),
        ({"target": 2, "controls_on_0": (False,)}, "False"),
    ])
    def test_gate_takes_integer_wires_only(self, kw, bad):
        with pytest.raises(ValueError, match=f"wires must be integers, got .*{bad}"):
            Gate(**kw)

    def test_gate_stores_numpy_integers_as_int(self):
        g = Gate(np.int64(3), controls_on_0=(np.uint8(1),), controls_on_1=(np.int32(2),))
        assert g == Gate(3, (1,), (2,))
        assert all(type(w) is int for w in (g.target, *g.controls_on_0, *g.controls_on_1))
        c = Circuit(np.int64(3), (g,))
        assert type(c.n) is int
        assert export_text(c) == "WIRES 3\nMCX t=3 c0=[1] c1=[2]\n"

    def test_controls_stored_sorted(self):
        g = Gate(target=1, controls_on_1=(4, 2), controls_on_0=(5, 3))
        assert g.controls_on_1 == (2, 4)
        assert g.controls_on_0 == (3, 5)


class TestNbMaxcomp:
    def test_three_qubit_compressor(self):
        perm = permutation(nb_maxcomp(3, [3]))
        assert np.array_equal(perm, [0, 1, 2, 4, 3, 5, 6, 7])

    def test_empty_set_is_identity(self):
        c = nb_maxcomp(4, [])
        assert len(c) == 0
        assert np.array_equal(permutation(c), np.arange(16))

    def test_five_qubit_equal_bias_set(self):
        swaps = find_optswaps(probamps(RegisterBiases.equal(5, 0.1)))
        assert swaps.tolist() == [7, 11, 13, 14, 15]  # five exchanges
        perm = permutation(nb_maxcomp(5, swaps))
        assert np.array_equal(perm, transposition_perm(5, swaps))

    def test_rejects_one_t_indices(self):
        with pytest.raises(ValueError):
            nb_maxcomp(3, [4])

    @given(swap_sets())
    @settings(max_examples=80, deadline=None)
    def test_permutation_equals_transposition_product(self, case):
        n, swaps = case
        perm = permutation(nb_maxcomp(n, swaps))
        assert np.array_equal(perm, transposition_perm(n, swaps))

    @given(swap_sets(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, case):
        n, swaps = case
        c = nb_maxcomp(n, swaps)
        perm = permutation(c)
        assert np.array_equal(perm[perm], np.arange(2 ** n))


class TestSharedFoldGates:
    """Every block of a circuit shares one set of fold gate objects."""

    @staticmethod
    def swap_sets(n):
        half = 2 ** (n - 1)
        rng = np.random.default_rng(n)
        return [[], [0], list(range(half)),
                np.flatnonzero(rng.random(half) < 0.3).tolist(),
                find_optswaps(probamps(RegisterBiases.equal(n, 0.1))).tolist()]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_text_matches_reference(self, n):
        for swaps in self.swap_sets(n):
            c = nb_maxcomp(n, swaps)
            text = export_text(c)
            assert text == nbmc_text(n, swaps)
            assert export_text(parse_text(text)) == text
            assert np.array_equal(permutation(c), transposition_perm(n, swaps))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_distinct_gate_objects(self, n):
        for swaps in self.swap_sets(n):
            c = nb_maxcomp(n, swaps)
            assert len(c) == (2 * n - 1) * len(swaps)
            distinct = len({id(g) for g in c.gates})
            assert distinct == ((n - 1) + len(swaps) if swaps else 0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_lim_comp_text(self, n):
        c = lim_comp(n)
        text = export_text(c)
        assert text == nbmc_text(n, [2 ** (n - 1) - 1])
        assert export_text(parse_text(text)) == text
        assert np.array_equal(permutation(c), transposition_perm(n, [2 ** (n - 1) - 1]))

    @given(st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** n - 1))))
    @settings(max_examples=300, deadline=None)
    def test_flip_controls_match_reference(self, case):
        n, j = case
        fold = circuits._fold(n)
        block = circuits._swap_block(n, j, fold)
        flip = block[n - 1]
        assert block == fold + (flip,) + fold[::-1]
        assert flip.target == 1
        assert (flip.controls_on_0, flip.controls_on_1) == flip_controls(n, j)


class TestLimComp:
    def test_two_qubit_case(self):
        perm = permutation(lim_comp(2))
        assert np.array_equal(perm, [0, 2, 1, 3])

    def test_matches_three_qubit_compressor(self):
        assert np.array_equal(permutation(lim_comp(3)),
                              permutation(nb_maxcomp(3, [3])))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_middle_transposition(self, n):
        perm = permutation(lim_comp(n))
        want = np.arange(2 ** n)
        a, b = 2 ** (n - 1) - 1, 2 ** (n - 1)
        want[a], want[b] = want[b], want[a]
        assert np.array_equal(perm, want)

    def test_rejects_single_wire(self):
        with pytest.raises(ValueError):
            lim_comp(1)


@st.composite
def random_circuits(draw, max_n=10):
    """Circuits of up to 40 gates on n <= max_n wires, each gate on distinct wires."""
    n = draw(st.integers(1, max_n))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        wires = draw(st.permutations(range(1, n + 1)))
        k0 = draw(st.integers(0, n - 1))
        k1 = draw(st.integers(0, n - 1 - k0))
        gates.append(Gate(wires[0], wires[1:1 + k0], wires[1 + k0:1 + k0 + k1]))
    return Circuit(n, tuple(gates))


class TestCircuitPermutation:
    @given(random_circuits())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_control_reference(self, c):
        assert np.array_equal(circuit_permutation(c), circuit_permutation_per_control(c))
        assert export_text(parse_text(export_text(c))) == export_text(c)

    def test_empty_circuit(self):
        assert np.array_equal(permutation(Circuit(3)), np.arange(8))

    def test_single_not_on_top_wire(self):
        perm = permutation(Circuit(2, (Gate(target=1),)))
        assert np.array_equal(perm, [2, 3, 0, 1])

    def test_lim_comp_4(self):
        perm = permutation(lim_comp(4))
        assert perm[7] == 8 and perm[8] == 7

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(circuits, "PERM_CAP", 5)
        with pytest.raises(ResourceCapError):
            circuit_permutation(Circuit(6))


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
            assert np.array_equal(permutation(back), permutation(c))

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

    @pytest.mark.parametrize("text, message", [
        ("WIRES 12\nMCX t=1 c0=[1_0] c1=[]\n", "bad gate line: 'MCX t=1 c0=[1_0] c1=[]'"),
        ("WIRES 4\nMCX t=1 c0=[] c1=[+3]\n", "bad gate line: 'MCX t=1 c0=[] c1=[+3]'"),
        ("WIRES 4\nMCX t=\u0662 c0=[] c1=[]\n", "bad gate line: 'MCX t=\u0662 c0=[] c1=[]'"),
        ("WIRES 4\nMCX t=1 c0=[2,,3] c1=[]\n", "bad gate line"),
        ("WIRES 4\nMCX t=1 c0=[2, 3] c1=[]\n", "bad gate line"),
        ("WIRES 4\nMCX  t=1 c0=[] c1=[]\n", "bad gate line"),
        ("WIRES 4\nMCX t=01 c0=[] c1=[]\n", "bad gate line: 'MCX t=01 c0=[] c1=[]'"),
        ("WIRES 4\nMCX t=1 c0=[02] c1=[]\n", "bad gate line"),
        ("WIRES 4\nMCX t=0 c0=[] c1=[]\n", "bad gate line"),
        ("WIRES 2\nMCX t=1 c0=[] c1=[]\x0cMCX t=2 c0=[] c1=[]\n", "bad gate line"),
        ("WIRES 0_4\n", "bad WIRES header: 'WIRES 0_4'"),
        ("WIRES 04\n", "bad WIRES header: 'WIRES 04'"),
        ("WIRES 0\n", "bad WIRES header: 'WIRES 0'"),
        ("WIRES 4\r\nMCX t=1 c0=[] c1=[]\r\n", "bad WIRES header: 'WIRES 4\\r'"),
        ("WIRES \u0664\n", "bad WIRES header"),
        ("WIRES  4\n", "bad WIRES header"),
        ("MCX t=1 c0=[] c1=[]\n", "missing WIRES header"),
        ("\n \n", "missing WIRES header"),
    ])
    def test_parse_reads_only_the_written_grammar(self, text, message):
        # int() would read 1_0 as 10, +3 as 3 and the Arabic-Indic digits as 2 and 4;
        # str.splitlines would break a line at a form feed
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_text(text)
