import dataclasses
import inspect
import json
import linecache
import math
import re
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcool.cli as cli
import qcool.hbac as hbac
from qcool import (CoolingReport, DivergenceError, HbacConfig, LimitMatrix, RegisterBiases,
                   analytic_limit, numerical_limits, register_compression, single_round_limit,
                   subspace_compression)
from qcool.compress import _beneficial_mask, _limiting_verdict
from qcool.limits import DEFAULT_PRECISION
from qcool.regstate import _probamps_raw
import oracles
from oracles import (NEAR_FLOOR_ABOVE, NEAR_FLOOR_BELOW, _beneficial, cool_head_fixed_point,
                     largest_bias_verdict, limiting_probamps, pass_loop)
from strategies import product_registers

UNEQUAL_SETS = [
    (0.3, 0.05, 0.2, 0.1),
    (0.15, 0.4, 0.1, 0.2, 0.05),
    (0.2, 0.1, 0.3, 0.05, 0.1, 0.15),
]


#: Biases near 0, in the middle and near 1, where the full-mask walk's sums round past 1.
NEAR_ONE = [0.0, 1e-5, 0.1, 0.5, 0.9, 0.999, 0.999999, 1.0 - 2.0 ** -52, 1.0]


def run_equal(n, eps, rounds, **kw):
    return register_compression(HbacConfig.equal(n, eps, rounds, **kw))


class TestConfig:
    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            HbacConfig.equal(4, 0.1, 3)
        with pytest.raises(ValueError):
            HbacConfig.equal(4, 0.1, 0)

    @pytest.mark.parametrize("kw, message", [
        ({"rounds": 2.0}, "rounds must be an integer, got 2.0"),
        ({"rounds": 2, "iteration_cap": 2.5}, "iteration cap must be an integer, got 2.5"),
    ], ids=["rounds", "iteration_cap"])
    def test_counts_must_be_integers(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            register_compression(HbacConfig.equal(4, 0.1, **kw))

    def test_counts_are_stored_as_int(self):
        config = HbacConfig.equal(4, 0.1, np.int64(2), iteration_cap=np.int64(1))
        assert (config.rounds, config.iteration_cap) == (2, 1)
        assert type(config.rounds) is int and type(config.iteration_cap) is int
        # a bool is refused, as the count it names
        with pytest.raises(ValueError, match=re.escape("rounds must be an integer, got True")):
            HbacConfig.equal(4, 0.1, True)
        with pytest.raises(ValueError, match=re.escape(
                "iteration cap must be an integer, got False")):
            HbacConfig.equal(4, 0.1, 2, iteration_cap=False)

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

    @pytest.mark.parametrize("values", [
        (1e-05, 1.0, 0.1, 0.999),
        (0.999999, 0.3, 0.9, 0.5, 1.0, 0.9),
        (0.999999, 0.1, 0.999, 0.999999, 0.0, 1.0),
    ], ids=lambda v: ",".join(map(repr, v)))
    def test_full_mask_walk_keeps_biases_at_most_one(self, values):
        # Exactly, no marginal exceeds 1; summed in floats, the full-mask
        # walk's steps take a bias of 1 to 1.0000000000000002 on these
        # registers, and the walk caps it.
        config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2)
        rl = register_compression(config).round_limits.values
        assert np.all((np.asarray(values) <= rl) & (rl <= 1.0))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(NEAR_ONE), min_size=3, max_size=5),
           st.sampled_from(["full", "lim"]), st.sampled_from([50, 1000]))
    @example([1e-05, 1.0, 0.1, 0.999], "full", 50)
    def test_every_bias_stays_in_range(self, values, mode, cap):
        # Each run returns limits in [default, 1] or stops at its pass cap or
        # at a numerical limit outside [0, 1], which names its target.  On the
        # reference pass loop every pass reads biases in [default, 1]; on the
        # kernels, so do the biases each kernel and each full-mask walk returns.
        def in_range(gamma):
            assert all(f <= b <= 1.0 for f, b in zip(values[-len(gamma):], gamma))

        def checked_verdict(verdict):
            def check(*args):
                in_range(sys._getframe(1).f_locals["gamma"])  # the reference pass's biases
                return verdict(*args)
            return check

        def checked_result(func):
            def check(*args):
                result = func(*args)
                in_range(result[0])
                return result
            return check

        config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2, mode=mode,
                            iteration_cap=cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_limiting_verdict", checked_verdict(oracles._limiting_verdict))
            mp.setattr(oracles, "_beneficial", checked_verdict(oracles._beneficial))
            mp.setattr(hbac, "_kernel", lambda q, lim: partial(pass_loop, lim))
            reference = cooling_outcome(config)
        kernel = hbac._kernel
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hbac, "_kernel", lambda q, lim: checked_result(kernel(q, lim)))
            mp.setattr(hbac, "_full_walk", checked_result(hbac._full_walk))
            assert cooling_outcome(config) == reference
        if reference[0] is DivergenceError:
            return
        if reference[0] is ValueError:
            assert re.fullmatch(r"limit entries must lie in \[0, 1\]: round \d+, qubit \d+ "
                                r"settled at \S+", reference[1])
            with pytest.raises(ValueError, match=re.escape(reference[1])):
                numerical_limits(values, config.rounds, iteration_cap=cap)
            return
        rl = np.frombuffer(reference, dtype=float).reshape(config.rounds, len(values))
        assert np.all((np.asarray(values) <= rl) & (rl <= 1.0))

    def test_explicit_targets_shape_checked(self):
        # subspace_compression checks the shape, in the first call of round 1
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
        # the rows of zeros lie below the defaults too; r, x and z are checked first
        targets = numerical_limits([0.2] * 3, 1)
        config = HbacConfig.equal(3, 0.2, 1)
        with pytest.raises(ValueError, match="subspace head 3 out of range"):
            subspace_compression(config, 1, 3, 0, targets, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="re-entry flag"):
            subspace_compression(config, 1, 1, 2, targets, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="round 2 out of range"):
            subspace_compression(config, 2, 1, 0, targets, np.zeros((1, 3)))

    @pytest.mark.parametrize("target_shape, rl_shape, message", [
        ((2, 5), (2, 4), "targets shape (2, 5) does not match (2, 4)"),
        ((1, 4), (2, 4), "targets shape (1, 4) does not match (2, 4)"),
        ((2, 4), (1, 4), "rl shape (1, 4) does not match (2, 4)"),
        ((2, 4), (2, 3), "rl shape (2, 3) does not match (2, 4)"),
    ], ids=["targets-columns", "targets-rows", "rl-rows", "rl-columns"])
    def test_limit_database_shape_checked(self, target_shape, rl_shape, message):
        # Every (round, qubit) of the call reads both arrays: too few entries
        # would fail far inside, and extra ones would go unread.
        targets = LimitMatrix(np.full(target_shape, 0.3))
        rl = np.full(rl_shape, 0.2)
        with pytest.raises(ValueError, match=re.escape(message)):
            subspace_compression(HbacConfig.equal(4, 0.2, 2), 2, 1, 0, targets, rl)
        assert np.array_equal(rl, np.full(rl_shape, 0.2))

    @pytest.mark.parametrize("row, message", [
        ([0.2, 0.2, 0.15, 0.2], "qubit 3 must be between its default 0.2 and 1, got 0.15"),
        ([0.3, math.nan, 0.2, 0.2], "qubit 2 must be between its default 0.2 and 1, got nan"),
        ([0.3, 1.5, 1.5, 0.2], "qubit 2 must be between its default 0.2 and 1, got 1.5"),
        ([1.0 + 2.0 ** -52, 0.2, 0.2, 0.2],
         "qubit 1 must be between its default 0.2 and 1, got 1.0000000000000002"),
        ([0.3, 0.2, 0.2, math.inf], "qubit 4 must be between its default 0.2 and 1, got inf"),
    ])
    def test_row_below_its_default_is_refused(self, row, message):
        # Every pass reads its biases floored at the defaults, so a row below
        # them would be read as another row, and the verdict needs biases of
        # at most 1; cooling writes neither.
        targets = numerical_limits([0.2] * 4, 1)
        rl = np.array([row])
        with pytest.raises(ValueError, match=re.escape(f"round 1 bias of {message}")):
            subspace_compression(HbacConfig.equal(4, 0.2, 1), 1, 1, 0, targets, rl)
        assert np.array_equal(rl, [row], equal_nan=True)

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


def verdict_on(beta):
    """The limiting verdict on *beta*, from the scalars of the walk over it."""
    return _limiting_verdict(beta[0], *limiting_probamps(beta))


def gate(beta):
    """Whether the gate accepts *beta*, rather than deferring to the full mask."""
    return verdict_on(beta) is not None


def margin_register(shift):
    """A register whose best non-limiting pair's log ratio is -2 *shift*, near the gate's margin."""
    rest = [0.1, 0.2, 0.05]
    a = [math.atanh(b) for b in rest]
    return [math.tanh(sum(a) - 2.0 * min(a) + shift), *rest]


#: With these defaults and a precision of 0.0, the q = 4 kernel steps down
#: through each of its loops: ancilla 3 pins, then ancilla 2; the head then
#: rounds to 1.0, where the gate defers, the walk makes every ancilla live
#: again, and the next pass converges, as the head cannot rise.
PIN_THEN_WALK = [1.0 - 2.0 ** -24] + [1.0 - 2.0 ** -20] * 3

#: With these defaults ancilla 3, whose default 0.2 lies below every other
#: ancilla's, pins, then ancilla 2: in the lower loops a kernel's gate takes
#: the smallest live ancilla, at least 0.3, and ``oracles.pass_loop`` 0.2.
PINNED_BELOW_LIVE = [0.5, 0.3, 0.3, 0.2]

#: At q = 20 the reference's limiting head probamp, 1/2 (2^-54)^19 from
#: halved factors, is below 2^-1022, where the kernels' unhalved product,
#: (2^-53)^19, is normal.  A cap of 1e-300 ends the full-mode walk at its
#: first exchange; at cap inf it walks 2^18 pairs, about 1.5 s.
UNDERFLOW = [0.0] + [1.0 - 2.0 ** -53] * 19


@st.composite
def verdict_registers(draw):
    """Biases of q = 2..26 qubits, as :func:`product_registers` draws them or on edges.

    The head may be 1.0, 1 + 2^-52 or anywhere up to 2.0, where the verdict
    defers, and the ancillas 0.0, -0.0, 1.0 or 1 - 2^-53.
    """
    beta = draw(product_registers(max_q=26))
    if draw(st.booleans()):
        beta[1:] = [draw(st.just(b) | st.sampled_from([0.0, -0.0, 1.0, 1.0 - 2.0 ** -53]))
                    for b in beta[1:]]
    if draw(st.booleans()):
        beta[0] = draw(st.sampled_from([1.0, 1.0 + 2.0 ** -52]) | st.floats(0.0, 2.0))
    return beta


def cooling_outcome(config):
    """The bytes of a cooling run's limits, or the type and message of the error it stops on."""
    try:
        return register_compression(config).round_limits.values.tobytes()
    except (DivergenceError, ValueError) as exc:
        return type(exc), str(exc)


def cooling_run(values, mode):
    """Everything a cooling run of *values* reports, its exchange events included."""
    events = []
    config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2, mode=mode)
    report = register_compression(config, on_swap=lambda *e: events.append(e))
    return (report.complexity, report.per_round_swaps, report.while_passes,
            report.round_limits.values.tobytes(), events)


def force_full_mask(monkeypatch, mode):
    """Full passes always build the mask; lim passes read the pair from the full build.

    Full mode runs the kernels with a gate ratio of 0.0, which the kernels
    read at each pass and no pair meets, so every pass runs
    :func:`hbac._full_walk`.  Lim mode runs the reference pass loop, whose
    biases the full build reads.
    """
    def full_build_pair(p_k, p_kk):
        p = _probamps_raw(sys._getframe(1).f_locals["gamma"])  # the pass's floored biases
        return _beneficial(p[p.size // 2 - 1], p[p.size // 2])

    if mode == "full":
        monkeypatch.setattr(hbac, "_GATE_RATIO", 0.0)
    else:
        monkeypatch.setattr(hbac, "_kernel", lambda q, lim: partial(pass_loop, lim))
        monkeypatch.setattr(oracles, "_beneficial", full_build_pair)


def record_walks(monkeypatch):
    """A list that gets one entry per full-mask walk cooling runs from now on."""
    real = hbac._full_walk
    walks = []

    def recorded(*args):
        walks.append(None)
        return real(*args)

    monkeypatch.setattr(hbac, "_full_walk", recorded)
    return walks


def line_hits(funcs, text, call):
    """call()'s result and how often a line containing *text* of one of *funcs* ran during it."""
    codes = {func.__code__ for func in funcs}
    hits = []

    def in_func(frame, event, arg):
        if event == "line" and text in linecache.getline(frame.f_code.co_filename,
                                                         frame.f_lineno):
            hits.append(frame.f_lineno)
        return in_func

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_func if frame.f_code in codes else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, len(hits)


def _bits(values):
    """The bytes of *values* as doubles, so -0.0 and 0.0 differ."""
    return np.array(values, dtype=float).tobytes()


def verdict_calls(raw, floor, exchanges):
    """The biases the reference pass loop returns, and every verdict's arguments.

    Runs :func:`oracles.pass_loop`, the referee of every kernel, in full mode
    on the sub-register *raw* with defaults *floor*: its first *exchanges*
    verdicts say exchange the limiting pair, and the next says nothing
    moves, so the pass returns its floored biases.  The cap is never met,
    and a negative precision keeps a pass from converging unless the head
    stays at 0.0.
    """
    calls = []

    def verdict_stub(*args):
        calls.append(args)
        return len(calls) <= exchanges

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_limiting_verdict", verdict_stub)
        gamma, swaps, passes = pass_loop(False, list(raw), list(floor), math.inf, -1.0,
                                         exchanges + 2, None)
    assert swaps == exchanges and passes == len(calls)
    return gamma, calls


class TestLimitingPairFastPath:
    @settings(max_examples=1000, deadline=None)
    @given(verdict_registers())
    # the smallest entry just above and just below the reference's normal
    # floor; UNDERFLOW, where only a halved p_k underflows; both sides of
    # the gate's margin; a gap of 2^-51 to the head's 1; and a head just
    # below 1 over small ancillas (both forms accept; not beneficial)
    @example([0.3] + [NEAR_FLOOR_ABOVE] * 19)
    @example([0.3] + [NEAR_FLOOR_BELOW] * 19)
    @example(UNDERFLOW)
    @example(margin_register(2e-9))
    @example(margin_register(0.5e-9))
    @example([1.0 - 2.0 ** -51] + [0.01] * 17)
    @example([1.0 - 2.0 ** -53, 1e-5, 1e-5])
    def test_verdict_matches_reference(self, beta):
        # The package's verdict has no guard on the build's smallest entry:
        # it is the reference's with that guard, which tests/oracles.py keeps.
        args = (beta[0], *limiting_probamps(beta))
        assert _limiting_verdict(*args) is oracles._limiting_verdict(*args)

    @settings(max_examples=500, deadline=None)
    @given(product_registers())
    def test_gate_and_scalars_match_full_mask(self, beta):
        p = _probamps_raw(beta)
        half = p.size // 2
        mask = _beneficial_mask(p[:half], p[::-1][:half])
        limiting = half - 1
        p_k, p_kk, b_min = limiting_probamps(beta)
        assert p_k == p[limiting] and p_kk == p[half]
        assert b_min == min(beta[1:])
        # the pass's own loop builds the verdict's scalars, bit for bit
        _, calls = verdict_calls(beta, beta, 0)
        assert _bits(calls[0]) == _bits((beta[0], p_k, p_kk, b_min))
        assert _beneficial(p_k, p_kk) == mask[limiting]
        # the guard on the smallest entry accepts every register the guard on
        # the largest bias accepted, with the same verdict
        old = largest_bias_verdict(beta[0], max(beta), len(beta), p_k, p_kk, b_min)
        if old is not None:
            assert verdict_on(beta) is old
        if gate(beta):
            assert verdict_on(beta) == mask[limiting]
            assert not mask[:limiting].any()

    @settings(max_examples=300, deadline=None)
    @given(product_registers(), st.data())
    def test_fused_pass_floors_and_walks_the_floored_biases(self, beta, data):
        # Each pass's loop floors each qubit at max(default, raw), keeping
        # the default on a tie, after applying the last exchange's step s;
        # its scalars are those of the full build of the floored biases, bit
        # for bit.  The defaults tie the biases before or after one exchange.
        p_k, p_kk, _ = limiting_probamps(beta)
        step = 2.0 * (p_kk - p_k)
        moved = [beta[0] + step] + [b - step for b in beta[1:]]
        floor = [data.draw(st.sampled_from([0.0, -0.0, b, m]) | st.floats(0.0, 1.0))
                 for b, m in zip(beta, moved)]
        start = [b if b > f else f for f, b in zip(floor, beta)]
        p_k, p_kk, _ = limiting_probamps(start)
        step = 2.0 * (p_kk - p_k)
        moved = [start[0] + step] + [b - step for b in start[1:]]
        gamma, calls = verdict_calls(beta, floor, 1)
        assert _bits(gamma) == _bits([m if m > f else f for f, m in zip(floor, moved)])
        if len(calls) == 1:
            assert gamma[0] == start[0] == 0.0
            return
        p = _probamps_raw(gamma)
        half = p.size // 2
        assert _bits(calls[1]) == _bits((gamma[0], p[half - 1], p[half], min(gamma[1:])))

    def test_ancillas_above_one_never_reach_the_verdict(self, monkeypatch):
        # With two ancillas above 1 the verdict's scalars are all in range
        # while other entries of the build are negative: the four scalars
        # accept [0.99, 1.5, 1.5, 0.2] with nothing beneficial, yet the full
        # mask exchanges.  So cooling refuses such a row before any pass.
        beta = [0.99, 1.5, 1.5, 0.2]
        assert verdict_on(beta) is False
        p = _probamps_raw(beta)
        assert _beneficial_mask(p[:p.size // 2], p[::-1][:p.size // 2]).any()
        kernels = []
        monkeypatch.setattr(hbac, "_kernel", lambda *args: kernels.append(args))
        rl = np.array([beta])
        targets = LimitMatrix(np.array([[0.999, 0.1, 0.1, 0.1]]))
        config = HbacConfig(RegisterBiases.equal(4, 0.1), 1)
        with pytest.raises(ValueError, match=re.escape(
                "round 1 bias of qubit 2 must be between its default 0.1 and 1, got 1.5")):
            subspace_compression(config, 1, 1, 0, targets, rl)
        assert kernels == [] and np.array_equal(rl, [beta])

    @pytest.mark.parametrize("shift,verdict", [(2e-9, True), (0.5e-9, False), (-1e-6, False)])
    def test_gate_margin(self, shift, verdict):
        assert gate(margin_register(shift)) is verdict

    @pytest.mark.parametrize("beta", [[0.1] * 4, [0.9, 1.0, 0.2], [0.0, 0.0]])
    def test_gate_defers(self, beta):
        # equal biases (other pairs tie the limiting one), a saturated qubit
        # and zero biases all take the full mask
        assert not gate(beta)

    def test_negative_biases_are_refused_where_they_enter(self):
        # The verdict has no sign test: a bias enters cooling as a default, a
        # target or a row entry, and each of them refuses a negative one.
        beta = [0.5, -0.1, 0.1]
        with pytest.raises(ValueError, match=re.escape("bias must lie in [0, 1], got -0.1")):
            RegisterBiases.from_values(beta)
        with pytest.raises(ValueError, match=re.escape("bias must lie in [0, 1], got -0.1")):
            numerical_limits(beta, 1)
        with pytest.raises(ValueError, match=re.escape("limit entries must lie in [0, 1]")):
            LimitMatrix(np.array([beta]))
        config = HbacConfig.equal(3, 0.0, 1)
        with pytest.raises(ValueError, match=re.escape(
                "round 1 bias of qubit 2 must be between its default 0.0 and 1, got -0.1")):
            subspace_compression(config, 1, 1, 0, numerical_limits([0.0] * 3, 1),
                                 np.array([beta]))

    @pytest.mark.parametrize("mode", ["full", "lim"])
    @pytest.mark.parametrize("values", [(eps,) * n for n in range(3, 7) for eps in (0.1, 1e-5)]
                             + UNEQUAL_SETS, ids=lambda v: ",".join(map(repr, v)))
    def test_same_run_as_full_mask_path(self, monkeypatch, values, mode):
        walks = record_walks(monkeypatch)
        fast = cooling_run(values, mode)
        passes = fast[2]
        if mode == "full":
            assert len(walks) <= 0.1 * passes  # the gate accepts nearly every pass
        else:
            assert not walks  # lim mode has no gate and no walk
        force_full_mask(monkeypatch, mode)
        walks.clear()
        assert cooling_run(values, mode) == fast
        if mode == "full":
            assert len(walks) > 0.9 * passes  # now nearly every pass walks

    @pytest.mark.parametrize("mode", ["full", "lim"])
    @pytest.mark.parametrize("values, complexity", [
        ((0.0, 0.2, 0.1), {"full": 31, "lim": 30}),
        ((0.0, 0.3, 0.3, 0.3), {"full": 512, "lim": 510}),
    ])
    def test_zero_default_head(self, monkeypatch, values, complexity, mode):
        # A head whose default bias is 0 starts its first pass at exactly 0.0,
        # so that pass converges only if the head stays 0.0 (no ratio to take).
        kernels = [hbac._kernel(q, mode == hbac.MODE_LIM) for q in range(2, len(values) + 1)]
        fast, hits = line_hits(kernels, "if h == 0.0:", lambda: cooling_run(values, mode))
        assert hits == 1
        assert fast[0] == complexity[mode]
        config = HbacConfig(RegisterBiases.from_values(values), len(values) - 2, mode=mode)
        report = register_compression(config)
        final, targets = report.round_limits.values[-1], report.targets.values[-1]
        assert np.all(np.abs(final / targets - 1.0) <= 10 * config.precision)
        force_full_mask(monkeypatch, mode)
        assert cooling_run(values, mode) == fast


def _sub_register_entry(pool):
    # a tie with another entry, a signed zero, 1.0, or anywhere in [0, 1]
    return st.sampled_from(pool) | st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def sub_registers(draw):
    """Biases and defaults of q = 2..12 qubits, with ties, signed zeros and 1.0."""
    beta = draw(product_registers(max_q=12))  # heads near the gate and the tie
    raw = [draw(st.just(b) | _sub_register_entry(beta)) for b in beta]
    floor = [draw(st.just(b) | _sub_register_entry(raw)) for b in raw]
    return raw, floor


def pass_run(loop, raw, floor, cap, precision, budget, record):
    """What *loop* returns on copies of the inputs, and every pair it exchanged."""
    swaps = []
    gamma, exchanges, passes = loop(list(raw), list(floor), cap, precision, budget,
                                    swaps.append if record else None)
    return _bits(gamma), exchanges, passes, swaps


class TestPassKernels:
    @settings(max_examples=400, deadline=None)
    @given(sub_registers(), st.booleans(),
           st.sampled_from([math.inf, 1.0, 0.0]) | st.floats(0.0, 1.0),
           st.sampled_from([-1.0, 0.0, 1e-12, DEFAULT_PRECISION, 1e-3, 0.5]),
           st.integers(1, 40), st.booleans())
    @example(([0.1, 0.1], [0.1, 0.1]), False, math.inf, -1.0, 40, True)
    @example(([0.3] * 9, [0.3] * 9), False, math.inf, DEFAULT_PRECISION, 40, True)
    # every ancilla on its floor: three pin, and five stay live in the last loop
    @example(([0.3] * 9, [0.3] * 9), True, math.inf, DEFAULT_PRECISION, 40, True)
    @example(([-0.0, 0.0, 1.0], [0.0, -0.0, 1.0]), True, math.inf, -1.0, 40, True)
    # Where the written-out verdict flips: the gate's margin (accept, defer),
    # an ancilla of 1.0, a tie, and ancillas that pin and are then walked
    # at a head of 1.0; a pinned default below every live ancilla, where
    # the gate's minimum and the reference's differ;
    # a walk that exchanges nothing and keeps a -0.0 head; and where only
    # the reference's halved p_k underflows.
    @example((margin_register(2e-9),) * 2, False, math.inf, DEFAULT_PRECISION, 40, True)
    @example((margin_register(2e-9),) * 2, True, math.inf, DEFAULT_PRECISION, 40, True)
    @example((margin_register(0.5e-9),) * 2, False, math.inf, DEFAULT_PRECISION, 40, True)
    @example((margin_register(0.5e-9),) * 2, True, math.inf, DEFAULT_PRECISION, 40, True)
    @example(([0.9, 1.0, 0.2],) * 2, False, math.inf, DEFAULT_PRECISION, 40, True)
    @example(([0.9, 1.0, 0.2],) * 2, True, math.inf, DEFAULT_PRECISION, 40, True)
    @example(([0.1] * 4,) * 2, False, math.inf, DEFAULT_PRECISION, 40, True)
    @example(([0.1] * 4,) * 2, True, math.inf, DEFAULT_PRECISION, 40, True)
    @example((PIN_THEN_WALK,) * 2, False, math.inf, 0.0, 40, True)
    @example((PIN_THEN_WALK,) * 2, True, math.inf, 0.0, 40, True)
    @example((PINNED_BELOW_LIVE,) * 2, False, math.inf, DEFAULT_PRECISION, 40, True)
    @example((PINNED_BELOW_LIVE,) * 2, True, math.inf, DEFAULT_PRECISION, 40, True)
    @example(([-0.0, 0.0, 0.0],) * 2, False, math.inf, -1.0, 40, True)
    @example((UNDERFLOW,) * 2, False, 1e-300, DEFAULT_PRECISION, 2, True)
    @example((UNDERFLOW,) * 2, True, 1e-300, DEFAULT_PRECISION, 2, True)
    def test_kernel_matches_reference(self, sub, lim, cap, precision, budget, record):
        # Each size's kernel in each mode, to q = 12 as cooling at n = 12
        # compiles, returns the reference loop's biases bit for bit, its
        # exchange and pass counts, and makes the same swap calls.  The
        # reference asks oracles._limiting_verdict, the verdict with a normal
        # floor, on the smallest of every ancilla, so this holds the kernels'
        # written-out gate and tie test to it.
        raw, floor = sub
        args = (raw, floor, cap, precision, budget, record)
        assert (pass_run(hbac._kernel(len(raw), lim), *args)
                == pass_run(partial(pass_loop, lim), *args))

    @pytest.mark.parametrize("lim", [False, True], ids=["full", "lim"])
    def test_loops_step_down_and_walk_back(self, lim):
        # Both registers step the q = 4 kernel down from 3 live ancillas to 2
        # and then 1, each pin setting the pinned ancilla's factors once.
        # PIN_THEN_WALK's head then reaches 1.0, and in full mode the walk
        # returns to 3 live ancillas.  PINNED_BELOW_LIVE, an example of
        # test_kernel_matches_reference, stays in the last loop to the budget.
        kernel = hbac._kernel(4, lim)
        for values, precision, walks, counts in (
                (PIN_THEN_WALK, 0.0, 0 if lim else 1, (2, 3)),
                (PINNED_BELOW_LIVE, DEFAULT_PRECISION, 0, (40, 41))):
            run = partial(kernel, list(values), list(values), math.inf, precision, 40, None)
            for text in ("pk3 = ", "pk2 = "):
                assert line_hits([kernel], text, run)[1] == 1
            assert line_hits([kernel], "every ancilla is live again", run)[1] == walks
            assert run()[1:] == counts

    @pytest.mark.parametrize("lim", [False, True], ids=["full", "lim"])
    def test_kernel_source_grows_linearly(self, lim):
        # At most three ancillas pin, so a kernel has at most four loops of
        # O(q) lines each, and each qubit more adds the same count of lines.
        lines = [len(inspect.getsource(hbac._kernel(q, lim)).splitlines()) for q in range(5, 9)]
        assert len({b - a for a, b in zip(lines, lines[1:])}) == 1

    def test_kernel_per_size_with_source(self):
        full, lim = hbac._kernel(4, False), hbac._kernel(4, True)
        assert hbac._kernel(4, False) is full and hbac._kernel(4, True) is lim
        assert full is not lim and full.__globals__ is vars(hbac) is lim.__globals__
        assert full.__code__.co_filename != lim.__code__.co_filename
        for kernel, mode in ((full, "full"), (lim, "lim")):
            assert inspect.getsource(kernel).startswith(
                f"def _pass_loop_{mode}_4(raw, floor, cap, precision, budget, swap):")
