import dataclasses
import inspect
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings

import qcool.cli as cli
import qcool.hbac as hbac
from qcool import (CoolingReport, DivergenceError, HbacConfig, RegisterBiases,
                   analytic_limit, numerical_limits, register_compression, single_round_limit,
                   subspace_compression)
from qcool.compress import _beneficial, _beneficial_mask
from qcool.limits import DEFAULT_PRECISION
from qcool.regstate import _probamps_raw
from oracles import cool_head_fixed_point
from strategies import product_registers

UNEQUAL_SETS = [
    (0.3, 0.05, 0.2, 0.1),
    (0.15, 0.4, 0.1, 0.2, 0.05),
    (0.2, 0.1, 0.3, 0.05, 0.1, 0.15),
]


def run_equal(n, eps, rounds, **kw):
    return register_compression(HbacConfig.equal(n, eps, rounds, **kw))


class TestConfig:
    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            HbacConfig.equal(4, 0.1, 3)
        with pytest.raises(ValueError):
            HbacConfig.equal(4, 0.1, 0)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            HbacConfig.equal(4, 0.1, 1, precision=-1e-9)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            HbacConfig.equal(4, 0.1, 1, mode="sorted")

    def test_default_precision_is_the_one_constant(self):
        assert HbacConfig.equal(4, 0.1, 1).precision is DEFAULT_PRECISION
        assert (inspect.signature(numerical_limits).parameters["precision"].default
                is DEFAULT_PRECISION)
        for argv in (["limits", "--n", "4", "--epsilon", "0.1"],
                     ["cool", "--n", "4", "--epsilon", "0.1"],
                     ["sweep", "--ns", "4", "--epsilon", "0.1"]):
            assert cli.build_parser().parse_args(argv).precision is DEFAULT_PRECISION


class TestRegisterCompression:
    def test_three_qubit_fixed_point(self):
        report = run_equal(3, 0.1, 1)
        q1 = report.round_limits[0, 0]
        # independent brute-force iteration of the open-system subspace map
        oracle = cool_head_fixed_point([0.1, 0.1, 0.1])
        assert q1 == pytest.approx(oracle, abs=1e-5)
        assert q1 == pytest.approx(single_round_limit(0.1, 2), abs=1e-5)
        # ancillas are pinned at the bath floor
        assert report.round_limits[0, 1] == 0.1
        assert report.round_limits[0, 2] == 0.1

    def test_zero_defaults_do_nothing(self):
        report = run_equal(4, 0.0, 2)
        assert report.complexity == 0
        assert np.array_equal(report.round_limits.values, np.zeros((2, 4)))

    def test_pure_target_needs_no_exchanges(self):
        config = HbacConfig(RegisterBiases.from_values([1.0, 0.5, 0.3]), 1)
        report = register_compression(config)
        assert report.complexity == 0
        assert np.array_equal(report.round_limits.values, [[1.0, 0.5, 0.3]])

    def test_four_qubit_two_rounds(self):
        report = run_equal(4, 0.1, 2)
        assert report.round_limits[1, 0] == pytest.approx(
            analytic_limit(2, 1, 4, 0.1), abs=1e-4)

    def test_complexity_equals_sum_of_rounds(self):
        report = run_equal(5, 0.2, 3)
        assert report.complexity == sum(report.per_round_swaps)
        assert report.complexity > 0

    def test_complexity_is_derived_not_stored(self):
        assert "complexity" not in {field.name for field in dataclasses.fields(CoolingReport)}
        assert isinstance(run_equal(4, 0.1, 2).complexity, int)

    def test_swap_audit_hook(self):
        seen = []
        config = HbacConfig.equal(4, 0.15, 2)
        report = register_compression(config, on_swap=lambda r, x, v, k: seen.append((r, x, v, k)))
        assert len(seen) == report.complexity
        assert all(1 <= r <= 2 and 1 <= x <= v for r, x, v, k in seen)

    @pytest.mark.parametrize("n,eps", [(4, 0.1), (5, 0.1), (6, 0.1), (5, 0.01)])
    def test_terminal_row_attains_targets_equal(self, n, eps):
        precision = 1e-9
        report = run_equal(n, eps, n - 2, precision=precision)
        final = report.round_limits.values[-1]
        targets = report.targets.values[-1]
        rel = np.abs(final - targets) / np.maximum(targets, 1e-300)
        assert np.all(rel <= 10 * precision)

    @pytest.mark.parametrize("values", UNEQUAL_SETS)
    def test_terminal_row_attains_targets_unequal(self, values):
        precision = 1e-9
        n = len(values)
        config = HbacConfig(RegisterBiases.from_values(values), n - 2, precision=precision)
        report = register_compression(config)
        final = report.round_limits.values[-1]
        targets = report.targets.values[-1]
        mask = targets > 0
        assert np.all(np.abs(final[mask] / targets[mask] - 1) <= 10 * precision)
        assert np.all(np.abs(final[~mask]) <= 10 * precision)

    def test_rows_never_drop_below_defaults(self):
        for values in UNEQUAL_SETS:
            config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2)
            report = register_compression(config)
            assert np.all(report.round_limits.values >= np.asarray(values)[None, :])

    def test_hierarchy_and_monotone_rounds(self):
        report = run_equal(6, 0.1, 4)
        rl = report.round_limits.values
        # descending within each completed round
        assert np.all(np.diff(rl, axis=1) <= 1e-9)
        # rows never cool less in later rounds; repairs may land a hair below
        # the previous round's recorded value (both converge to the same
        # database level), so allow precision-scale dips
        assert np.all(np.diff(rl, axis=0) >= -1e-6)

    def test_mode_equivalence_at_limit(self):
        precision = 1e-9
        full = run_equal(5, 0.1, 3, precision=precision)
        lim = run_equal(5, 0.1, 3, precision=precision, mode="lim")
        f_row, l_row = full.round_limits.values[-1], lim.round_limits.values[-1]
        assert np.all(np.abs(l_row / f_row - 1) <= 10 * precision)
        assert lim.complexity != full.complexity

    def test_while_pass_count_reported(self):
        report = run_equal(3, 0.1, 1)
        assert report.while_passes >= report.complexity > 0

    def test_divergence_cap(self):
        with pytest.raises(DivergenceError) as exc:
            run_equal(5, 0.3, 3, iteration_cap=3)
        assert exc.value.passes is not None and exc.value.round_index == 1

    @pytest.mark.parametrize("n,cap,head,target", [(5, 653, 2, 3), (6, 1717, 1, 2)])
    def test_divergence_names_top_level_head(self, n, cap, head, target):
        # The cap is spent inside a re-entry at a deeper head; the error names
        # the top-level head whose pass budget ran out, and the re-entry target.
        with pytest.raises(DivergenceError) as exc:
            run_equal(n, 1e-5, n - 2, iteration_cap=cap)
        assert exc.value.round_index == 2 and exc.value.subspace == head
        message = f"exceeded {cap} passes (round 2, head {head}, target {target})"
        assert message in str(exc.value)

    def test_explicit_targets_shape_checked(self):
        config = HbacConfig.equal(4, 0.1, 2)
        with pytest.raises(ValueError):
            register_compression(config, targets=numerical_limits([0.1] * 4, 1))

    def test_explicit_targets_match_internal_run(self):
        config = HbacConfig.equal(4, 0.1, 2)
        targets = numerical_limits([0.1] * 4, 2, config.precision)
        a = register_compression(config)
        b = register_compression(config, targets=targets)
        assert a.complexity == b.complexity
        assert np.array_equal(a.round_limits.values, b.round_limits.values)


class TestSubspaceCompression:
    def test_head_at_target_is_noop(self):
        targets = numerical_limits([0.2] * 4, 1)
        rl = np.zeros((1, 4))
        rl[0] = targets.values[0]  # already initialized to the limits
        swaps, passes = subspace_compression(HbacConfig.equal(4, 0.2, 1), 1, 1, 0, targets, rl)
        assert swaps == 0 and passes == 0
        assert np.array_equal(rl[0], targets.values[0])

    def test_first_exchange_is_the_three_qubit_compressor(self):
        targets = numerical_limits([0.2] * 3, 1)
        rl = np.zeros((1, 3))
        rl[0] = 0.2
        seen = []
        swaps, passes = subspace_compression(
            HbacConfig.equal(3, 0.2, 1), 1, 1, 0, targets, rl,
            on_swap=lambda r, x, v, k: seen.append((r, x, v, k)))
        assert seen[0] == (1, 1, 1, 3)
        assert swaps == len(seen) and passes >= swaps
        assert rl[0, 0] == pytest.approx(single_round_limit(0.2, 2), rel=1e-7)
        assert rl[0, 1] == 0.2 and rl[0, 2] == 0.2

    def test_pass_starting_at_cap_counts_and_exchanges_nothing(self):
        # Round 2, re-entry at head 1: the head's cap is its round-1 level,
        # and it already sits above it (short of its round-2 target, so the
        # sweep still runs a pass there); every ancilla is at its target.
        targets = numerical_limits([0.2] * 4, 2)
        t = targets.values
        rl = np.array([t[0], [(t[0, 0] + t[1, 0]) / 2, *t[1, 1:]]])
        before = rl.copy()
        seen = []
        swaps, passes = subspace_compression(HbacConfig.equal(4, 0.2, 2), 2, 1, 1, targets, rl,
                                             on_swap=lambda *e: seen.append(e))
        assert passes == 1
        assert swaps == 0 and seen == []
        assert np.array_equal(rl, before)

    def test_validates_head_and_flag(self):
        targets = numerical_limits([0.2] * 3, 1)
        config = HbacConfig.equal(3, 0.2, 1)
        with pytest.raises(ValueError):
            subspace_compression(config, 1, 3, 0, targets, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            subspace_compression(config, 1, 1, 2, targets, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            subspace_compression(config, 2, 1, 0, targets, np.zeros((1, 3)))

    @pytest.mark.parametrize("mode", ["full", "lim"])
    def test_while_passes_sums_returned_passes(self, monkeypatch, mode):
        real = hbac.subspace_compression
        returned = []

        def counted(*args, **kw):
            swaps, passes = real(*args, **kw)
            returned.append(passes)
            return swaps, passes

        monkeypatch.setattr(hbac, "subspace_compression", counted)
        report = run_equal(5, 0.1, 3, mode=mode)
        assert len(returned) == 3 + 2 + 1  # heads 1..n-r-1 of rounds 1..3
        assert report.while_passes == sum(returned) > 0


def sweep_rows(capsys, ns, eps):
    """(n, complexity) rows of ``qcool sweep --format json``, the one sweep loop."""
    code = cli.main(["sweep", "--ns", ns, "--epsilon", eps, "--format", "json"])
    assert code == 0
    return [(row["n"], row["complexity"]) for row in json.loads(capsys.readouterr().out)["rows"]]


class TestComplexitySweep:
    def test_growth_small_sizes(self, capsys):
        rows = sweep_rows(capsys, "3,4,5", "0.1")
        ns = [n for n, _ in rows]
        counts = [c for _, c in rows]
        assert ns == [3, 4, 5]
        assert counts[0] < counts[1] < counts[2]

    def test_zero_bias_row(self, capsys):
        rows = sweep_rows(capsys, "4", "0.0")
        assert rows == [(4, 0)]

    def test_explicit_rounds(self):
        for n in (4, 5):
            assert register_compression(HbacConfig(RegisterBiases.equal(n, 0.1), 1)).complexity > 0


def gate(beta):
    """The gate's verdict on *beta*, from the scalars of the walk over it."""
    return hbac._only_limiting_pair(beta[0], max(beta), len(beta), *hbac._limiting_probamps(beta))


def cooling_run(values, mode):
    """Everything a cooling run of *values* reports, its exchange events included."""
    events = []
    config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2, mode=mode)
    report = register_compression(config, on_swap=lambda *e: events.append(e))
    return (report.complexity, report.per_round_swaps, report.while_passes,
            report.round_limits.values.tobytes(), events)


def force_full_mask(monkeypatch):
    """Full passes always build the mask; lim passes read the pair from the full build."""
    def full_build_pair(beta):
        p = _probamps_raw(beta)
        return p[p.size // 2 - 1], p[p.size // 2], min(beta[1:])

    monkeypatch.setattr(hbac, "_only_limiting_pair", lambda *args: False)
    monkeypatch.setattr(hbac, "_limiting_probamps", full_build_pair)


def line_hits(func, text, call):
    """call()'s result and how often the line of *func* containing *text* ran during it."""
    lines, first = inspect.getsourcelines(func)
    target = first + next(i for i, line in enumerate(lines) if text in line)
    hits = []

    def in_func(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits.append(target)
        return in_func

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_func if frame.f_code is func.__code__ else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, len(hits)


class TestLimitingPairFastPath:
    @settings(max_examples=500, deadline=None)
    @given(product_registers())
    def test_gate_and_scalars_match_full_mask(self, beta):
        p = _probamps_raw(beta)
        half = p.size // 2
        mask = _beneficial_mask(p[:half], p[::-1][:half])
        limiting = half - 1
        p_k, p_kk, b_min = hbac._limiting_probamps(beta)
        assert p_k == p[limiting] and p_kk == p[half]
        assert b_min == min(beta[1:])
        assert _beneficial(p_k, p_kk) == mask[limiting]
        if gate(beta):
            assert not mask[:limiting].any()

    @pytest.mark.parametrize("shift,verdict", [(2e-9, True), (0.5e-9, False), (-1e-6, False)])
    def test_gate_margin(self, shift, verdict):
        rest = [0.1, 0.2, 0.05]
        a = [math.atanh(b) for b in rest]
        head = math.tanh(sum(a) - 2.0 * min(a) + shift)
        assert gate([head, *rest]) is verdict

    @pytest.mark.parametrize("beta", [[0.1] * 4, [0.9, 1.0, 0.2], [0.0, 0.0], [0.5, -0.1, 0.1]])
    def test_gate_defers(self, beta):
        # equal biases (other pairs tie the limiting one), a saturated qubit,
        # zero biases and a negative bias all take the full mask
        assert not gate(beta)

    @pytest.mark.parametrize("mode", ["full", "lim"])
    @pytest.mark.parametrize("values", [(eps,) * n for n in range(3, 7) for eps in (0.1, 1e-5)]
                             + UNEQUAL_SETS, ids=lambda v: ",".join(map(repr, v)))
    def test_same_run_as_full_mask_path(self, monkeypatch, values, mode):
        real_gate = hbac._only_limiting_pair
        verdicts = []
        monkeypatch.setattr(hbac, "_only_limiting_pair",
                            lambda *args: verdicts.append(real_gate(*args)) or verdicts[-1])
        fast = cooling_run(values, mode)
        if mode == "full":
            assert sum(verdicts) > 0.9 * len(verdicts)
        else:
            assert not verdicts  # lim mode never consults the gate
        force_full_mask(monkeypatch)
        assert cooling_run(values, mode) == fast

    @pytest.mark.parametrize("mode", ["full", "lim"])
    @pytest.mark.parametrize("values, complexity", [
        ((0.0, 0.2, 0.1), {"full": 31, "lim": 30}),
        ((0.0, 0.3, 0.3, 0.3), {"full": 512, "lim": 510}),
    ])
    def test_zero_default_head(self, monkeypatch, values, complexity, mode):
        # A head whose default bias is 0 starts its first pass at exactly 0.0,
        # so that pass converges only if the head stays 0.0 (no ratio to take).
        fast, hits = line_hits(hbac._sub_compress, "converged = gamma[0] == 0.0",
                               lambda: cooling_run(values, mode))
        assert hits == 1
        assert fast[0] == complexity[mode]
        config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2, mode=mode)
        report = register_compression(config)
        final, targets = report.round_limits.values[-1], report.targets.values[-1]
        assert np.all(np.abs(final / targets - 1.0) <= 10 * config.precision)
        force_full_mask(monkeypatch)
        assert cooling_run(values, mode) == fast
