"""qcool benchmark: time CLI job lists in process and check every output.

Usage, from the repository root:

    python3 perfbench/run.py --workload cool --seed 1 --seconds 30 --trace 0

Workloads are ``cool``, ``limits`` and ``single_shot`` (see workloads.py).
One pass runs the workload's job list once through ``qcool.cli.main`` in
this process; passes repeat while the next one is expected to end within
``--seconds`` (at least one runs).  With ``--trace 0`` the last stdout line
reports the end-to-end metrics; with ``--trace 1`` the untraced passes are
followed by traced ones, the last line reports the per-layer metrics, and
the spans go to ``perfbench/out/``.  Every timing is a median over passes,
and the sample counts are printed above the result.

BLAS and OpenMP are pinned to one thread before numpy is imported.  The
program is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("ops_ok_frac", "fraction"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cool", "limits", "single_shot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, generate the inputs and warm up (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


@dataclass(frozen=True)
class OpResult:
    """Outcome of one op: exit code, output digest and size, timing, verdict."""

    op: object
    rc: int
    sha: str
    out_bytes: int
    wall: float
    cpu: float
    problem: str | None

    @property
    def failed(self) -> bool:
        return self.problem is not None

    @property
    def known(self) -> bool:
        return self.failed and self.problem.startswith("known:")


def call_main(argv) -> tuple[int, str, str, float, float]:
    """Run ``qcool.cli.main`` with captured output; any exception is an exit 1."""
    from qcool import cli
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            rc = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return rc, out.getvalue(), err.getvalue(), wall, cpu


def run_op(op, expected, tracer=None) -> OpResult:
    import workloads
    if tracer is not None:
        tracer.op_id = op.op_id
    rc, stdout, stderr, wall, cpu = call_main(op.argv)
    sha, size = workloads.digest(stdout)
    problem = workloads.verdict(op, rc, stdout, stderr, sha, expected)
    return OpResult(op, rc, sha, size, wall, cpu, problem)


def run_pass(ops, expected, tracer=None) -> list[OpResult]:
    return [run_op(op, expected, tracer) for op in ops]


def measure(ops, expected, seconds, tracer=None):
    """Repeat passes while the next is expected to end within *seconds*.

    Returns the op results of each pass and, when traced, each pass's spans.
    """
    results, spans = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            results.append(run_pass(ops, expected))
        else:
            tracer.spans = []
            with tracer.installed():
                results.append(run_pass(ops, expected, tracer))
            spans.append(tracer.spans)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results, spans


def warm_up() -> None:
    import workloads
    for argv in workloads.WARM_UP:
        rc, *_ = call_main(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up call {' '.join(argv)} exited {rc}")


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, generate inputs and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed), "--setup-probe"],
                       check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict[str, object]:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def report_ops(results) -> tuple[int, int, bool]:
    """Print every failure once; returns (attempted, failed, correct)."""
    attempted = sum(len(r) for r in results)
    failed = sum(res.failed for r in results for res in r)
    correct = not any(res.failed and not res.known for r in results for res in r)
    seen = set()
    for res in (res for r in results for res in r if res.failed):
        if (res.op.op_id, res.problem) in seen:
            continue
        seen.add((res.op.op_id, res.problem))
        kind = "known failure" if res.known else "WRONG"
        print(f"{kind}: {res.op.op_id} ({' '.join(res.op.argv)[:80]}): "
              f"{res.problem.removeprefix('known: ')}; counted in failed")
    return attempted, failed, correct


def write_spans(workload, seed, env, span_passes) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "environment": env,
           "passes": [[{"id": s.span_id, "parent": s.parent, "name": s.name,
                        "op": s.op_id, "start": s.start, "end": s.end,
                        "counts": s.counts} for s in spans] for spans in span_passes]}
    path.write_text(json.dumps(doc) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "qcool" / "__init__.py").is_file():
        print(f"perfbench: no qcool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcool
    if Path(qcool.__file__).resolve().parent != SRC / "qcool":
        print(f"perfbench: imported qcool from {qcool.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import PER_LAYER, Tracer, layer_metrics, median_metrics

    ops = workloads.job_list(args.workload, args.seed)
    warm_up()
    if args.setup_probe:
        return 0
    expected = workloads.load_expected()
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    env = environment()
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))

    plain, _ = measure(ops, expected, args.seconds)
    walls = [sum(r.wall for r in p) for p in plain]
    cpus = [sum(r.cpu for r in p) for p in plain]
    results = plain
    if args.trace:
        tracer = Tracer()
        traced, span_passes = measure(ops, expected, args.seconds, tracer)
        results = plain + traced
        per_pass = [layer_metrics(spans, sum(r.out_bytes for r in p))
                    for spans, p in zip(span_passes, traced)]
        layers = median_metrics(per_pass)
        layers["trace.overhead_s"] = (statistics.median(sum(r.wall for r in p) for p in traced)
                                      - statistics.median(walls))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        path = write_spans(args.workload, args.seed, env, span_passes)
        print(f"spans: {path.relative_to(ROOT)}")
    attempted, failed, correct = report_ops(results)
    print(f"samples: {len(plain)} untraced pass(es)"
          + (f", {len(results) - len(plain)} traced" if args.trace else "")
          + f", {len(ops)} ops per pass"
          + ("" if args.trace else f", {len(setup)} setup probes")
          + "; medians reported, too few samples for a tail percentile")
    if not args.trace:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
