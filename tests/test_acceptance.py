"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

import qcool.cli as cli
from qcool import (HbacConfig, RegisterBiases, analytic_limit, apply_circuit,
                   apply_swaps, circuit_permutation, f, find_optswaps, lim_comp,
                   marginal_bias, nb_maxcomp, probamps, register_compression, single_round_limit,
                   sort_bound, verify_optimality)
from fixture_sets import STRESS_SETS
from oracles import transposition_perm


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} ({label}): PASS")


def test_criterion_01_three_qubit_compressor_recovery():
    with criterion(1, "3B-Comp recovery"):
        for eps in (0.01, 0.2, 0.9):
            dist = probamps(RegisterBiases.equal(3, eps))
            assert find_optswaps(dist).tolist() == [3]
        dist = probamps(RegisterBiases.equal(3, 0.2))
        find_optswaps(dist)  # warm-up
        timings = []
        for _ in range(20):
            t0 = time.perf_counter()
            find_optswaps(dist)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 1e-3, f"find_optswaps took {min(timings):.2e}s"


def test_criterion_02_stress_sets_optimality_and_large_passes():
    with criterion(2, "exhaustive optimality check on stress sets"):
        for n in (5, 9, 14):
            t0 = time.perf_counter()
            for biases in STRESS_SETS[n]:
                dist = probamps(RegisterBiases.from_values(biases))
                report = verify_optimality(dist)
                assert report.counterexamples == (), (n, biases)
                if report.swaps_performed > 0:
                    assert report.case1_passed and report.case2_passed
                else:
                    assert report.case3_passed
            elapsed = time.perf_counter() - t0
            if n == 14:
                assert elapsed < 30.0, f"n=14 batch took {elapsed:.1f}s"
        for n in (19, 23):
            t0 = time.perf_counter()
            for biases in STRESS_SETS[n]:
                dist = probamps(RegisterBiases.from_values(biases))
                swaps = find_optswaps(dist)
                settled = apply_swaps(dist, swaps)
                assert find_optswaps(settled).size == 0
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0, f"n={n} swap passes took {elapsed:.1f}s"


def test_criterion_03_recursion_closed_form():
    with criterion(3, "exponent recursion closed form"):
        for n in range(3, 17):
            assert f(n - 2, 1, n) == 2 ** (n - 2)


def test_criterion_04_low_bias_limit():
    with criterion(4, "low-bias limit doubling"):
        eps = 1e-5
        for n in range(3, 13):
            got = analytic_limit(n - 2, 1, n, eps)
            want = 2 ** (n - 2) * eps
            assert abs(got / want - 1) < 1e-3, (n, got, want)


def test_criterion_05_limiting_swap_fixed_point():
    with criterion(5, "limiting-swap fixed point"):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            eps = float(rng.uniform(0.0, 1.0))
            m = int(rng.integers(1, 31))
            t = single_round_limit(eps, m)
            lhs = (1 + t) / 2 * ((1 - eps) / 2) ** m
            rhs = (1 - t) / 2 * ((1 + eps) / 2) ** m
            assert abs(lhs - rhs) <= 1e-12, (eps, m)


def test_criterion_06_numerical_limits_match_analytic():
    from qcool import numerical_limits
    with criterion(6, "numerical limits vs closed form"):
        t0 = time.perf_counter()
        for eps in (0.1, 1e-5):
            for n in range(3, 9):
                rounds = n - 2
                matrix = numerical_limits([eps] * n, rounds, precision=1e-9)
                for r in range(1, rounds + 1):
                    for k in range(1, n + 1):
                        want = analytic_limit(r, k, n, eps)
                        got = matrix[r - 1, k - 1]
                        assert abs(got / want - 1) <= 1e-6, (eps, n, r, k)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"limit computations took {elapsed:.1f}s"


def test_criterion_07_register_compression_convergence():
    with criterion(7, "register compression reaches the limits"):
        precision = 1e-9
        cases = [[0.1] * 4, [0.1] * 5, [0.1] * 6,
                 [0.3, 0.05, 0.2, 0.1],
                 [0.15, 0.4, 0.1, 0.2, 0.05],
                 [0.2, 0.1, 0.3, 0.05, 0.1, 0.15]]
        for values in cases:
            n = len(values)
            config = HbacConfig(RegisterBiases.from_values(values), n - 2,
                                precision=precision)
            audited = [0]
            report = register_compression(
                config, on_swap=lambda r, x, v, k: audited.__setitem__(0, audited[0] + 1))
            final = report.round_limits.values[-1]
            targets = report.targets.values[-1]
            mask = targets > 0
            assert np.all(np.abs(final[mask] / targets[mask] - 1) <= 10 * precision), values
            assert np.all(np.abs(final[~mask]) <= 10 * precision)
            assert isinstance(report.complexity, int) and report.complexity > 0
            assert report.complexity == audited[0]


def test_criterion_08_complexity_growth():
    with criterion(8, "complexity growth across sizes"):
        ns = [3, 4, 5, 6, 7]
        for eps in (0.1, 1e-5):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["sweep", "--ns", ",".join(map(str, ns)), "--epsilon", str(eps),
                                 "--format", "json"])
            rows = json.loads(out.getvalue())["rows"]
            assert code == 0 and [row["n"] for row in rows] == ns
            counts = [row["complexity"] for row in rows]
            assert all(b > a for a, b in zip(counts, counts[1:])), (eps, counts)
            y = np.log(np.array(counts, dtype=float))
            x = np.array(ns, dtype=float)
            slope, intercept = np.polyfit(x, y, 1)
            fitted = slope * x + intercept
            ss_res = float(np.sum((y - fitted) ** 2))
            ss_tot = float(np.sum((y - y.mean()) ** 2))
            r_squared = 1.0 - ss_res / ss_tot
            assert r_squared >= 0.9, (eps, r_squared, counts)


def test_criterion_09_circuit_soundness():
    with criterion(9, "circuit soundness"):
        rng = np.random.default_rng(7177)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            half = 2 ** (n - 1)
            count = int(rng.integers(0, half + 1))
            swaps = np.sort(rng.choice(half, size=count, replace=False))
            circuit = nb_maxcomp(n, swaps)
            perm = circuit_permutation(circuit)
            assert np.array_equal(perm, transposition_perm(n, swaps))
            assert np.array_equal(perm[perm], np.arange(2 ** n))
        for n in range(2, 11):
            perm = circuit_permutation(lim_comp(n))
            want = transposition_perm(n, [2 ** (n - 1) - 1])
            assert np.array_equal(perm, want)
            assert np.array_equal(perm[perm], np.arange(2 ** n))


def test_criterion_10_sort_bound_oracle_equivalence():
    with criterion(10, "sort bound equals post-swap marginal"):
        rng = np.random.default_rng(424242)
        for _ in range(500):
            n = int(rng.integers(1, 11))
            values = rng.uniform(0.0, 1.0, size=n)
            dist = probamps(RegisterBiases.from_values(values))
            post = marginal_bias(apply_swaps(dist, find_optswaps(dist)), 1)
            bound = sort_bound(dist)
            assert abs(post - bound) <= 1e-12 * max(abs(bound), 1.0), values


def test_criterion_11_conservation_suite():
    with criterion(11, "conservation and reset floor"):
        rng = np.random.default_rng(90210)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            values = rng.uniform(0.0, 1.0, size=n)
            dist = probamps(RegisterBiases.from_values(values))
            half = 2 ** (n - 1)
            count = int(rng.integers(0, half + 1))
            swaps = np.sort(rng.choice(half, size=count, replace=False))
            swapped = apply_swaps(dist, swaps)
            assert np.array_equal(np.sort(swapped.probamps), np.sort(dist.probamps))
            assert abs(float(swapped.probamps.sum()) - float(dist.probamps.sum())) < 1e-12
            circuited = apply_circuit(dist, nb_maxcomp(n, swaps))
            assert np.array_equal(np.sort(circuited.probamps), np.sort(dist.probamps))
            assert np.array_equal(circuited.probamps, swapped.probamps)
        for values in ([0.1] * 5, [0.3, 0.05, 0.2, 0.1], [0.15, 0.4, 0.1, 0.2, 0.05]):
            config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2)
            report = register_compression(config)
            defaults = np.asarray(values)
            assert np.all(report.round_limits.values >= defaults[None, :])
