import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcool import (DiagDist, RegisterBiases, ResourceCapError,
                   marginal_bias, marginal_register, probamps)
from qcool import regstate
from qcool.regstate import _probamps_raw
from oracles import block_marginal, marginal_arange, product_probamps

biases_st = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8)


class TestRegisterBiases:
    def test_equal_and_values(self):
        r = RegisterBiases.equal(3, 0.25)
        assert r.n == 3
        assert np.array_equal(r.values, [0.25, 0.25, 0.25])

    def test_with_target_first(self):
        r = RegisterBiases.from_values([0.1, 0.2, 0.3]).with_target_first(3)
        assert np.array_equal(r.values, [0.3, 0.2, 0.1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RegisterBiases(())

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="biases must be one-dimensional"):
            RegisterBiases(np.full((2, 2), 0.1))

    @pytest.mark.parametrize("m, message", [
        pytest.param(0, "qubit index 0 out of range 1..3", id="0"),
        pytest.param(4, "qubit index 4 out of range 1..3", id="4"),
        # 2.0 raised IndexError, and True targeted qubit 1
        pytest.param(2.0, "qubit index must be an integer, got 2.0", id="2.0"),
        pytest.param(True, "qubit index must be an integer, got True", id="True"),
    ])
    def test_with_target_first_rejects_out_of_range(self, m, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RegisterBiases.equal(3, 0.1).with_target_first(m)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        # the message names the first bad bias as a Python float
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            RegisterBiases.from_values([0.2, bad, 2.0])

    @pytest.mark.parametrize("make, shown", [
        (lambda: RegisterBiases.equal(3, True), "True"),
        (lambda: RegisterBiases(["0.1", "0.2", "0.3"]), "'0.1'"),
        (lambda: RegisterBiases.from_values([0.1, True, 0.2]), "True"),
        (lambda: RegisterBiases(np.array([0.1, 0.2]) > 0.15), "False"),
        (lambda: RegisterBiases(np.array(["0.1", "0.2"])), "'0.1'"),
        (lambda: RegisterBiases.from_values([0.1, np.bool_(False)]), "False"),
        (lambda: RegisterBiases([None, 0.1]), "None"),
    ], ids=["equal-bool", "strings", "bool-entry", "bool-array", "string-array",
            "numpy-bool-entry", "none-entry"])
    def test_bools_and_strings_are_no_biases(self, make, shown):
        # numpy would read True as 1.0, parse '0.1' and take None as NaN
        # (reported as "got nan"); none of them is a bias.
        with pytest.raises(ValueError, match=re.escape(f"bias must be a number, got {shown}")):
            make()

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    def test_equal_takes_a_count(self, n):
        # the count rule of every other integer input; True is no count,
        # though operator.index would take it as 1
        message = f"register size must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RegisterBiases.equal(n, 0.1)
        assert RegisterBiases.equal(np.int64(2), 0.1) == RegisterBiases.from_values([0.1, 0.1])

    def test_values_read_only(self):
        src = np.array([0.1, 0.2])
        r = RegisterBiases(src)
        with pytest.raises(ValueError):
            r.values[0] = 0.5
        src[0] = 0.5  # the register holds its own copy
        assert r.values[0] == 0.1

    def test_equality_and_hash_by_value(self):
        a = RegisterBiases.equal(3, 0.1)
        b = RegisterBiases.from_values([0.1, 0.1, 0.1])
        assert a == b and hash(a) == hash(b)
        assert a != RegisterBiases.equal(3, 0.2)
        # against anything else __eq__ defers, and Python falls back to identity
        assert a.__eq__([0.1, 0.1, 0.1]) is NotImplemented
        assert a != [0.1, 0.1, 0.1]

    def test_factors(self):
        assert np.allclose(_probamps_raw([0.2]), [0.6, 0.4])

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_factors_sum_to_one_exactly(self, eps):
        plus, minus = _probamps_raw([eps])
        assert plus + minus == 1.0


class TestDiagDist:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiagDist(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DiagDist(np.array([0.5, 0.4]))

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="probamps must be one-dimensional"):
            DiagDist(np.full((2, 2), 0.25))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            DiagDist(np.array([0.5, 0.25, 0.25]))

    def test_immutable(self):
        d = probamps(RegisterBiases.equal(2, 0.0))
        with pytest.raises(ValueError):
            d.probamps[0] = 1.0

    def test_public_constructor_copies(self):
        src = np.array([0.25, 0.25, 0.25, 0.25])
        d = DiagDist(src)
        src[0] = 0.5  # the distribution holds its own copy
        assert np.array_equal(d.probamps, [0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError):
            d.probamps[0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            DiagDist(np.array([0.5, 0.5, 0.0, bad]))


class TestProbamps:
    def test_pure_single_qubit(self):
        d = probamps(RegisterBiases.from_values([1.0]))
        assert np.array_equal(d.probamps, [1.0, 0.0])

    def test_maximally_mixed_pair(self):
        d = probamps(RegisterBiases.equal(2, 0.0))
        assert np.array_equal(d.probamps, [0.25, 0.25, 0.25, 0.25])

    def test_direct_product_evaluation(self):
        # eps1 populations (0.75, 0.25), eps2 populations (0.6, 0.4)
        d = probamps(RegisterBiases.from_values([0.5, 0.2]))
        assert d.probamps == pytest.approx([0.45, 0.30, 0.15, 0.10], abs=1e-15)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(regstate, "SIZE_CAP", 4)
        with pytest.raises(ResourceCapError):
            probamps(RegisterBiases.equal(5, 0.1))

    @given(biases_st)
    def test_matches_bit_loop_oracle(self, values):
        d = probamps(RegisterBiases.from_values(values))
        assert d.probamps == pytest.approx(product_probamps(values), rel=1e-12, abs=1e-300)

    @given(biases_st)
    @settings(max_examples=60)
    def test_normalization(self, values):
        d = probamps(RegisterBiases.from_values(values))
        assert abs(float(d.probamps.sum()) - 1.0) <= 1e-9

    @pytest.mark.parametrize("block_bits", [None, 1, 2, 3, 5])
    def test_builder_bit_identical_to_oracle(self, monkeypatch, block_bits):
        # Small block sizes split even these registers into many blocks; the
        # biases include values outside [0, 1], as hbac's fallback passes
        # raw ones.
        if block_bits is not None:
            monkeypatch.setattr(regstate, "_BLOCK_BITS", block_bits)
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            values = rng.uniform(-0.5, 1.5, n).tolist()
            got = _probamps_raw(values)
            assert np.array_equal(got.view(np.int64),
                                  product_probamps(values).view(np.int64)), (n, values)
            assert np.array_equal(_probamps_raw(np.array(values)).view(np.int64),
                                  got.view(np.int64))

    def test_build_peak_memory_is_one_vector(self):
        register = RegisterBiases.equal(22, 0.01)
        probamps(RegisterBiases.equal(3, 0.1))  # warm up
        tracemalloc.start()
        try:
            d = probamps(register)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.probamps.nbytes == 8 << 22
        assert peak <= 1.1 * (8 << 22)

    def test_normalization_large_register(self):
        rng = np.random.default_rng(11)
        d = probamps(RegisterBiases.from_values(rng.random(20)))
        assert abs(float(d.probamps.sum()) - 1.0) <= 1e-9


class TestMarginals:
    def test_product_round_trip_examples(self):
        d = probamps(RegisterBiases.from_values([0.5, 0.2]))
        assert marginal_bias(d, 1) == pytest.approx(0.5, abs=1e-14)
        assert marginal_bias(d, 2) == pytest.approx(0.2, abs=1e-14)

    def test_after_exchanging_entries_3_and_4(self):
        # equal eps = 0.2: probamps [.216,.144,.144,.096,.144,.096,.096,.064];
        # exchanging entries 3 and 4 gives the compressed state below
        p = np.array([0.216, 0.144, 0.144, 0.144, 0.096, 0.096, 0.096, 0.064])
        d = DiagDist(p)
        assert marginal_bias(d, 1) == pytest.approx(0.296, abs=1e-12)
        assert marginal_bias(d, 2) == pytest.approx(0.104, abs=1e-12)
        assert marginal_bias(d, 3) == pytest.approx(0.104, abs=1e-12)
        # cross-check against (3 eps - eps^3) / 2
        eps = 0.2
        assert (3 * eps - eps ** 3) / 2 == pytest.approx(0.296, abs=1e-12)

    def test_marginal_register_round_trip(self):
        d = probamps(RegisterBiases.from_values([0.3, 0.7, 0.1]))
        assert marginal_register(d) == pytest.approx([0.3, 0.7, 0.1], abs=1e-14)

    def test_marginal_register_uniform_is_zero(self):
        d = probamps(RegisterBiases.equal(4, 0.0))
        assert marginal_register(d) == pytest.approx([0.0] * 4, abs=1e-14)

    def test_marginal_register_post_compression(self):
        p = np.array([0.216, 0.144, 0.144, 0.144, 0.096, 0.096, 0.096, 0.064])
        got = marginal_register(DiagDist(p))
        assert got == pytest.approx([0.296, 0.104, 0.104], abs=1e-12)

    def test_index_out_of_range(self):
        d = probamps(RegisterBiases.equal(2, 0.1))
        with pytest.raises(ValueError):
            marginal_bias(d, 0)
        with pytest.raises(ValueError):
            marginal_bias(d, 3)
        # 1.0 raised TypeError from a shift, and True read qubit 1's bias
        for i in (1.0, True):
            message = f"qubit index must be an integer, got {i!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                marginal_bias(d, i)


    @given(biases_st)
    @settings(max_examples=80)
    def test_round_trip_recovers_biases(self, values):
        # exact float recovery is unattainable; enforce near-machine agreement
        d = probamps(RegisterBiases.from_values(values))
        got = marginal_register(d)
        assert got == pytest.approx(values, rel=1e-12, abs=1e-12)

    def test_round_trip_larger_registers(self):
        rng = np.random.default_rng(5)
        for n in (10, 12):
            values = rng.random(n)
            got = marginal_register(probamps(RegisterBiases.from_values(values)))
            assert got == pytest.approx(values, rel=1e-12, abs=1e-12)

    @given(biases_st, st.data())
    @settings(max_examples=60)
    def test_matches_block_sum_formula(self, values, data):
        n = len(values)
        d = probamps(RegisterBiases.from_values(values))
        i = data.draw(st.integers(1, n))
        assert math.isclose(marginal_bias(d, i), block_marginal(d.probamps, i, n),
                            rel_tol=1e-12, abs_tol=1e-15)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_sign_vector_keeps_the_index_bit_marginals(self, n):
        # The strided sign vector has the index-bit vector's values, so every
        # marginal is the same np.dot, bit for bit; also off product states.
        rng = np.random.default_rng(n)
        p = probamps(RegisterBiases.from_values(rng.random(n))).probamps
        for dist in (DiagDist(p), DiagDist(rng.permutation(p))):
            want = [marginal_arange(dist.probamps, i, n) for i in range(1, n + 1)]
            assert marginal_register(dist).tobytes() == np.array(want).tobytes()


class TestPairProductConstancy:
    @given(st.lists(st.floats(0.0, 0.99, allow_nan=False), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_complementary_products_equal(self, values):
        p = probamps(RegisterBiases.from_values(values)).probamps
        prods = p[: p.size // 2] * p[::-1][: p.size // 2]
        ref = float(np.prod([(1 + e) * (1 - e) / 4 for e in values]))
        assert prods == pytest.approx(np.full(prods.size, ref), rel=1e-12, abs=1e-300)

    def test_endpoint_bias_gives_zero_products(self):
        p = probamps(RegisterBiases.from_values([1.0, 0.3])).probamps
        prods = p[: p.size // 2] * p[::-1][: p.size // 2]
        assert np.array_equal(prods, [0.0, 0.0])
