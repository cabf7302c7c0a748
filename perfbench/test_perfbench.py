"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run a cheap subset of each workload's ops, traced, so they take seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CHEAP_FIXED = {"cool.n5.eps0.1", "cool.unequal4", "optswaps.verify.n9.s0",
               "optswaps.verify.n9.s2", "circuit.n9.s1", "circuit.lim.n8",
               "limits.analytic.n12.eps1e-2", "bounds.n16.eps1e-5"}
COUNTS = ("hbac.exchanges", "hbac.passes", "compress.swaps_selected", "circuits.gates")


def cheap_ops(seed: int) -> list[workloads.Op]:
    ops = [op for w in workloads.WORKLOADS for op in workloads.job_list(w, seed)]
    return [op for op in ops
            if op.op_id in CHEAP_FIXED or op.op_id.startswith("circuit.pool")]


def traced_pass(seed: int):
    tracer = spans.Tracer()
    expected = workloads.load_expected()
    with tracer.installed():
        results = run.run_pass(cheap_ops(seed), expected, tracer)
    return results, tracer.spans


def test_counts_and_digests_repeat_across_runs_and_seeds():
    first, first_spans = traced_pass(seed=3)
    again, again_spans = traced_pass(seed=3)
    assert not any(r.failed for r in first + again)
    assert [r.sha for r in first] == [r.sha for r in again]
    m1 = spans.layer_metrics(first_spans, 0)
    m2 = spans.layer_metrics(again_spans, 0)
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    assert m1["hbac.passes"] > 0 and m1["circuits.gates"] > 0

    other, other_spans = traced_pass(seed=4)
    assert not any(r.failed for r in other)
    fixed = {r.op.op_id: r.sha for r in first if r.op.op_id in CHEAP_FIXED}
    assert fixed == {r.op.op_id: r.sha for r in other if r.op.op_id in CHEAP_FIXED}

    def fixed_counts(span_list):
        kept = [s for s in span_list if s.op_id in CHEAP_FIXED]
        return {k: spans.layer_metrics(kept, 0)[k] for k in COUNTS}
    assert fixed_counts(first_spans) == fixed_counts(other_spans)


def test_cool_json_matches_boundary_counts():
    results, span_list = traced_pass(seed=0)
    (cool_span,) = [s for s in span_list if s.name == "hbac.register_compression"
                    and s.op_id == "cool.n5.eps0.1"]
    rc, stdout, *_ = run.call_main(("cool", "--n", "5", "--epsilon", "0.1"))
    payload = json.loads(stdout)
    assert rc == 0
    assert cool_span.counts == {"passes": payload["while_passes"],
                                "exchanges": payload["complexity"]}


def test_known_failure_is_reported_not_raised(capsys):
    (op,) = [op for op in workloads.job_list("limits", 0) if op.known_failure]
    result = run.run_op(op, workloads.load_expected())
    assert result.rc == 2 and result.failed and result.known
    attempted, failed, correct = run.report_ops([[result]])
    assert (attempted, failed, correct) == (1, 1, True)
    assert "known failure: limits.n10.eps0.1" in capsys.readouterr().out


def test_wrong_output_is_a_failure_and_incorrect():
    (op,) = [op for op in workloads.job_list("cool", 0) if op.op_id == "cool.unequal4"]
    result = run.run_op(op, {op.op_id: "0" * 64})
    assert result.failed and not result.known
    assert run.report_ops([[result]])[2] is False


def test_tracer_restores_every_binding():
    from qcool import cli, compress, hbac
    before = (cli.find_optswaps, cli.main, hbac.subspace_compression, compress.find_optswaps)
    with spans.Tracer().installed():
        assert cli.find_optswaps is not before[0]
        assert hbac.subspace_compression is not before[2]
    assert (cli.find_optswaps, cli.main, hbac.subspace_compression,
            compress.find_optswaps) == before


def test_seed_fixes_the_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.job_list(w, 7) == workloads.job_list(w, 7)
    picks = {tuple(op.op_id for op in workloads.job_list("limits", s)) for s in range(6)}
    assert len(picks) > 1
    expected = workloads.load_expected()
    for w in workloads.WORKLOADS:
        for op in workloads.job_list(w, None):
            assert op.known_failure is not None or op.op_id in expected


def test_metric_names_and_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(spans.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for name, _ in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    layer = spans.layer_metrics([], 0)
    assert set(layer) | {"trace.overhead_s"} == {name for name, _ in spans.PER_LAYER}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
