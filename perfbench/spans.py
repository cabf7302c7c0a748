"""Spans around qcool's public functions and the per-layer metrics built from them.

A traced pass replaces each wrapped function at every name a qcool module
binds it to: ``cli`` and ``hbac`` import names at import time, so patching
only the defining module would record nothing.  Spans are kept in memory and
written out when the benchmark ends.

Which end-to-end metric each layer should move, and on which workload:

* ``hbac.*``: ``wall_s`` on ``cool``; no change predicted on ``single_shot``,
  which never enters hbac.  Passes and exchanges are exact counts.
* ``limits.*``: ``wall_s`` on ``limits``; also part of ``cool``, where
  ``numerical_limits`` runs under the ``hbac.register_compression`` span.
* ``compress.*`` and ``regstate.*``: ``wall_s`` and ``peak_rss_mib`` on
  ``single_shot``.
* ``circuits.*`` and ``cli.*``: ``wall_s`` on ``single_shot``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from qcool.compress import REL_TIE_TOL


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    op_id: str | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def _cooling_counts(args, result) -> dict[str, int]:
    return {"passes": result.while_passes, "exchanges": result.complexity}


def _verify_counts(args, result) -> dict[str, int]:
    # Pair comparisons the exhaustive check makes: |K||L| + |K|^2, or half^2
    # when no swap is selected.
    p = args[0].probamps
    half = p.size // 2
    head, tail = p[:half], p[::-1][:half]
    k = result.swaps_performed
    if k == 0:
        return {"pairs": half * half}
    scale = np.maximum(np.abs(head), np.abs(tail))
    nonben = int(np.count_nonzero((head - tail) > REL_TIE_TOL * scale))
    return {"pairs": k * nonben + k * k}


def _swap_counts(args, result) -> dict[str, int]:
    return {"swaps": len(result)}


def _probamp_counts(args, result) -> dict[str, int]:
    return {"bytes": result.probamps.nbytes}


def _gate_counts(args, result) -> dict[str, int]:
    return {"gates": len(result)}


# (span name, defining module, attribute, counter)
WRAPPED = (
    ("cli.main", "qcool.cli", "main", None),
    ("hbac.register_compression", "qcool.hbac", "register_compression", _cooling_counts),
    ("hbac.subspace_compression", "qcool.hbac", "subspace_compression", None),
    ("limits.numerical_limits", "qcool.limits", "numerical_limits", None),
    ("limits.analytic_limit", "qcool.limits", "analytic_limit", None),
    ("compress.verify_optimality", "qcool.compress", "verify_optimality", _verify_counts),
    ("compress.find_optswaps", "qcool.compress", "find_optswaps", _swap_counts),
    ("compress.bias_gain", "qcool.compress", "bias_gain", None),
    ("regstate.probamps", "qcool.regstate", "probamps", _probamp_counts),
    ("regstate.marginal_bias", "qcool.regstate", "marginal_bias", None),
    ("circuits.nb_maxcomp", "qcool.circuits", "nb_maxcomp", _gate_counts),
    ("circuits.lim_comp", "qcool.circuits", "lim_comp", _gate_counts),
    ("circuits.export_text", "qcool.circuits", "export_text", None),
    ("circuits.circuit_permutation", "qcool.circuits", "circuit_permutation", None),
    ("circuits.parse_text", "qcool.circuits", "parse_text", None),
)

# (metric, unit), in output order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("hbac.subspace_compression.calls", "count"),
    ("hbac.subspace_compression.s", "s"),
    ("hbac.register_compression.s", "s"),
    ("hbac.passes", "count"),
    ("hbac.exchanges", "count"),
    ("hbac.exchanges_per_pass", "count/pass"),
    ("hbac.s_per_pass", "s/pass"),
    ("limits.numerical_limits.calls", "count"),
    ("limits.numerical_limits.s", "s"),
    ("limits.analytic_limit.calls", "count"),
    ("limits.analytic_limit.s", "s"),
    ("compress.verify_optimality.calls", "count"),
    ("compress.verify_optimality.s", "s"),
    ("compress.verify.pairs_computed", "count"),
    ("compress.find_optswaps.s", "s"),
    ("compress.bias_gain.s", "s"),
    ("compress.swaps_selected", "count"),
    ("regstate.probamps.calls", "count"),
    ("regstate.probamps.s", "s"),
    ("regstate.probamps.bytes_computed", "bytes"),
    ("regstate.marginal_bias.s", "s"),
    ("circuits.nb_maxcomp.s", "s"),
    ("circuits.lim_comp.s", "s"),
    ("circuits.gates", "count"),
    ("circuits.export_text.s", "s"),
    ("circuits.circuit_permutation.s", "s"),
    ("circuits.parse_text.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records one span per call of every function in WRAPPED while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, self.op_id, perf_counter())
            self.spans.append(span)
            self._stack.append(span.span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every qcool binding of each wrapped function; restore on exit."""
        patched: list[tuple[object, str, object]] = []
        try:
            for name, module, attr, counter in WRAPPED:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self._wrap(name, original, counter)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "qcool" or mod_name.startswith("qcool.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)


def _outermost_seconds(spans: list[Span]) -> dict[str, float]:
    # Seconds per span name, leaving out spans nested in one of the same name.
    by_id = {s.span_id: s for s in spans}
    secs = {name: 0.0 for name, *_ in WRAPPED}
    for s in spans:
        parent = s.parent
        while parent is not None and by_id[parent].name != s.name:
            parent = by_id[parent].parent
        if parent is None:
            secs[s.name] += s.end - s.start
    return secs


def layer_metrics(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer totals of one traced pass (everything but trace.overhead_s)."""
    calls = {name: 0 for name, *_ in WRAPPED}
    counts: dict[str, int] = {}
    for s in spans:
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    secs = _outermost_seconds(spans)
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
    cli_self = sum((s.end - s.start - child_s.get(s.span_id, 0.0)
                    for s in spans if s.name == "cli.main"), 0.0)
    passes = counts.get("passes", 0)
    exchanges = counts.get("exchanges", 0)
    sub_s = secs["hbac.subspace_compression"]
    return {
        "hbac.subspace_compression.calls": calls["hbac.subspace_compression"],
        "hbac.subspace_compression.s": sub_s,
        "hbac.register_compression.s": secs["hbac.register_compression"],
        "hbac.passes": passes,
        "hbac.exchanges": exchanges,
        "hbac.exchanges_per_pass": exchanges / passes if passes else 0.0,
        "hbac.s_per_pass": sub_s / passes if passes else 0.0,
        "limits.numerical_limits.calls": calls["limits.numerical_limits"],
        "limits.numerical_limits.s": secs["limits.numerical_limits"],
        "limits.analytic_limit.calls": calls["limits.analytic_limit"],
        "limits.analytic_limit.s": secs["limits.analytic_limit"],
        "compress.verify_optimality.calls": calls["compress.verify_optimality"],
        "compress.verify_optimality.s": secs["compress.verify_optimality"],
        "compress.verify.pairs_computed": counts.get("pairs", 0),
        "compress.find_optswaps.s": secs["compress.find_optswaps"],
        "compress.bias_gain.s": secs["compress.bias_gain"],
        "compress.swaps_selected": counts.get("swaps", 0),
        "regstate.probamps.calls": calls["regstate.probamps"],
        "regstate.probamps.s": secs["regstate.probamps"],
        "regstate.probamps.bytes_computed": counts.get("bytes", 0),
        "regstate.marginal_bias.s": secs["regstate.marginal_bias"],
        "circuits.nb_maxcomp.s": secs["circuits.nb_maxcomp"],
        "circuits.lim_comp.s": secs["circuits.lim_comp"],
        "circuits.gates": counts.get("gates", 0),
        "circuits.export_text.s": secs["circuits.export_text"],
        "circuits.circuit_permutation.s": secs["circuits.circuit_permutation"],
        "circuits.parse_text.s": secs["circuits.parse_text"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.s": secs["cli.main"],
        "cli.self_s": cli_self,
        "cli.output_bytes": output_bytes,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
