"""Metrics: end to end from the untraced passes, per layer from the traced one.

Each metric is (value, unit, sample count); the count is 0 for values
that are not a statistic over timed samples.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np

from common import median, quantile
from tracer import LAYERS

BATTERIES = ("assoc", "tree_roundtrip", "coloring_sweep", "triangle_scan", "decompose")


def _peak_rss_mb(sessions) -> float:
    """Peak resident set: of the `varword` child processes for cli-sessions, else of this process."""
    child_kb = max((getattr(s, "peak_rss_kb", 0) for s in sessions), default=0)
    kb = child_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def end_to_end(workload: str, passes, setup) -> dict:
    ps = [p for p, _ in passes]
    sessions = [s for _, s in passes]
    ops = [dt for p in ps for _, dt in p.ops]
    attempted = len(ops)
    m = {
        "setup_s": (setup["setup_s"][0], "s", setup["setup_s"][1]),
        # the mean pass, not the median: on object-search a pass whose
        # builder search succeeds also verifies that certificate (about a
        # third of a pass), so pass times fall in two clusters and their
        # median jumps between them from run to run
        "wall_s": (sum(p.wall_s for p in ps) / len(ps), "s", len(ps)),
        "peak_rss_mb": (_peak_rss_mb(sessions), "MB", 0),
        "fail_frac": (sum(p.failed for p in ps) / attempted, "1", attempted),
    }
    if workload == "sweep-batteries":
        for name in BATTERIES:
            times = [dt for p in ps for dt in p.times(name)]
            m[f"{name}_s"] = (median(times), "s", len(times))
        # the fixed battery runs each sweep once; a pass repeats the short
        # ones, so their medians stand in for one run of each
        m["wall_s"] = (sum(m[f"{name}_s"][0] for name in BATTERIES), "s",
                       min(m[f"{name}_s"][2] for name in BATTERIES))
    else:
        ms = [dt * 1e3 for dt in ops]
        verify = [dt * 1e3 for p in ps for dt in p.times("verify")]
        m["ops_per_s"] = (attempted / sum(ops), "1/s", attempted)
        m["op_p50_ms"] = (median(ms), "ms", len(ms))
        m["op_p95_ms"] = (quantile(ms, 0.95), "ms", len(ms))
        m["verify_p50_ms"] = (median(verify), "ms", len(verify))
    if workload == "cli-sessions":
        cold = [dt * 1e3 for p in ps for dt in p.times("version")]
        m["cold_start_ms"] = (median(cold), "ms", len(cold))
    return m


# ---------------------------------------------------------------------------
# per layer


def workers_probe(seed: int) -> dict:
    """One sweep and one exhausting search at workers=1 and workers=nproc.

    Runs untraced; the outputs must be identical for both worker counts.
    """
    from common import NOT_FOUND
    from varword import search, sweeps
    import wl_objects

    nproc = len(os.sched_getaffinity(0))
    checks = []
    coloring = wl_objects.exhausting_coloring(seed)

    def sweep(workers):
        return repr(sweeps.assoc_exhaustive(2, 4, workers=workers))

    def line(workers):
        try:
            return repr(search.search_line_with_letter(coloring, workers=workers))
        except NOT_FOUND as exc:
            return f"{type(exc).__name__}: {exc}"

    out = {"nproc": nproc, "failed": 0}
    for name, fn, reps in (("sweeps", sweep, 3), ("search", line, 40)):
        times = {1: [], nproc: []}
        results = set()
        for _ in range(reps):
            for workers in (1, nproc):
                t0 = time.perf_counter()
                results.add(fn(workers))
                times[workers].append(time.perf_counter() - t0)
        same = len(results) == 1
        checks.append(same)
        out["failed"] += not same
        out[name] = {"t1_s": median(times[1]), "tn_s": median(times[nproc]), "repeats": reps,
                     "identical": same, "speedup": median(times[1]) / median(times[nproc])}
    out["checks"] = checks
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(plain, traced, tracer, setup, probe) -> dict:
    (p0, _), (p1, session) = plain, traced
    sid, parent, dur, self_t = tracer.arrays()
    names = tracer.names
    layer_of = np.array([LAYERS.index(layer) if layer in LAYERS else -1 for layer in tracer.layer_of])
    span_layer = layer_of[sid] if len(sid) else np.zeros(0, int)
    calls = np.array(tracer.calls)

    def ids(*prefixes):
        return [i for i, n in enumerate(names) if n.startswith(prefixes)]

    def self_of(*prefixes):
        return float(self_t[np.isin(sid, ids(*prefixes))].sum())

    def incl(name):
        return dur[sid == names.index(name)] if name in names else np.zeros(0)

    def ncalls(name):
        return int(calls[names.index(name)]) if name in names else 0

    def p50_ms(name):
        d = incl(name)
        return (float(np.median(d)) * 1e3 if len(d) else 0.0, "ms", len(d))

    m = {}
    for i, layer in enumerate(LAYERS):
        # metric names start with a letter, so _kernels reports as kernels
        m[f"{layer.lstrip('_')}.self_s"] = (float(self_t[span_layer == i].sum()), "s", 0)
        m[f"{layer.lstrip('_')}.calls"] = (int(calls[layer_of == i].sum()), "count", 0)

    work = getattr(session, "work", {}) or {}
    for kernel, key, unit in (("assoc_sweep", "checks", "checks_per_s"),
                              ("tree_roundtrip_sweep", "elements", "elements_per_s"),
                              ("line_letter_coloring_sweep", "colorings", "colorings_per_s")):
        t = self_of(f"_kernels.{kernel}")
        m[f"kernels.{kernel}.self_s"] = (t, "s", 0)
        m[f"kernels.{kernel}.{unit}"] = (_ratio(work.get(key, 0), t), "1/s", 0)
    adj, tri = self_of("_kernels.henson_adjacency"), self_of("_kernels.henson_triangle", "_kernels.pack_rows")
    m["kernels.henson_adjacency.self_s"] = (adj, "s", 0)
    m["kernels.henson_triangle.self_s"] = (tri, "s", 0)
    m["kernels.henson_triangle.edges_per_s"] = (_ratio(getattr(session, "edges", 0), tri), "1/s", 0)
    m["sweeps.build_prefix_table_s"] = (float(incl("sweeps.build_prefix_table").sum()), "s", 0)
    m["sweeps.line_letter_certs_s"] = (float(incl("sweeps.line_letter_certs").sum()), "s", 0)

    for name in ("words.substitute", "words.compose", "trees.tree_from_generator"):
        m[f"{name}.per_s"] = (_ratio(ncalls(name), float(incl(name).sum())), "1/s", 0)
    m["largeness.pw_split.p50_ms"] = p50_ms("largeness.pw_split")
    m["largeness.brown_select.p50_ms"] = p50_ms("largeness.brown_select")
    m["colorings.lookups"] = (ncalls("colorings.Coloring.__call__"), "count", 0)
    m["colorings.parse_s"] = (float(incl("colorings.Coloring.parse").sum()), "s", 0)

    line = names.index("search.search_line_with_letter") if "search.search_line_with_letter" in names else -2
    lookup = names.index("colorings.Coloring.__call__") if "colorings.Coloring.__call__" in names else -2
    under = np.zeros(len(sid), bool)
    for i in range(len(sid)):  # parents precede children, so one forward sweep suffices
        under[i] = sid[i] == line or (parent[i] >= 0 and under[parent[i]])
    searches = int((sid == line).sum())
    m["search.line.p50_ms"] = p50_ms("search.search_line_with_letter")
    m["search.line.lookups_per_search"] = (_ratio(int((under & (sid == lookup)).sum()), searches), "count", searches)
    m["search.line.hit_frac"] = (_ratio(getattr(session, "line_found", 0), getattr(session, "line_total", 0)),
                                 "1", getattr(session, "line_total", 0))
    m["search.builder.p50_ms"] = p50_ms("search.iterate_builder")
    m["search.builder.hit_frac"] = (_ratio(getattr(session, "builder_found", 0), getattr(session, "builder_total", 0)),
                                    "1", getattr(session, "builder_total", 0))
    m["prehomog.csl.p50_ms"] = p50_ms("prehomog.csl_search")
    m["henson.envelope.p50_ms"] = p50_ms("henson.minimal_envelope")
    m["henson.embed.p50_ms"] = p50_ms("henson.greedy_embed")
    m["certificates.verify.self_s"] = (self_of("certificates.verify_certificate"), "s", 0)
    m["certificates.verify.p50_ms"] = p50_ms("certificates.verify_certificate")
    m["certificates.checked_count"] = (getattr(session, "checked_count", 0), "count", 0)
    m["certificates.json_bytes"] = (getattr(session, "json_bytes", 0), "bytes", 0)
    m["cli.import_s"] = (setup["cli.import_s"][0], "s", setup["cli.import_s"][1])

    layered = float(self_t[span_layer >= 0].sum())
    m["trace.overhead_frac"] = (p1.wall_s / p0.wall_s - 1, "1", 0)
    m["trace.unattributed_frac"] = (1 - layered / p1.wall_s, "1", 0)
    m["trace.spans"] = (len(sid), "count", 0)
    m["sweeps.workers_speedup"] = (probe["sweeps"]["speedup"], "x", probe["sweeps"]["repeats"])
    m["search.workers_speedup"] = (probe["search"]["speedup"], "x", probe["search"]["repeats"])
    return m
