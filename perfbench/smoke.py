"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload it checks that every metric BENCHMARK.json names is
emitted with that unit, that a traced pass gives the same output digest
as an untraced one, and that the same seed regenerates the same input
digest while another seed does not.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 11


def shrink():
    """Cut every mix to a few requests; the batteries keep their exact sizes."""
    import wl_cli
    import wl_objects
    import wl_sweeps

    wl_sweeps.REPEATS = {"coloring_sweep": 1, "triangle_scan": 1, "decompose": 1}
    wl_objects.MIX = {kind: 2 for kind in wl_objects.MIX}
    wl_objects.LINE_EXHAUSTED = {3: 1, 4: 1}
    wl_cli.SCRIPT = {cmd: 1 for cmd in wl_cli.SCRIPT}
    wl_cli.LINE_EXHAUSTED = 1


def check(cond, msg):
    if not cond:
        print(f"smoke: FAIL {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke: ok   {msg}")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import report
    from common import digest

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    seed_inputs = {}
    for workload in run.WORKLOADS:
        mod = run.workload_module(workload)
        a, b, c = (digest(mod.make_specs(s, 0)) for s in (SEED, SEED, SEED + 1))
        seed_inputs[workload] = (a, b, c)
    shrink()
    for workload in run.WORKLOADS:
        a, b, c = seed_inputs[workload]
        check(a == b, f"{workload}: same seed, same input digest")
        check(a != c, f"{workload}: another seed, another input digest")
        setup = run.measure_setup(workload, SEED)
        plain, traced, tracer = run.run_traced(workload, SEED)
        check(plain[0].failed == traced[0].failed == 0, f"{workload}: every operation passes its check "
              f"{plain[0].errors + traced[0].errors}")
        check(plain[0].digest == traced[0].digest, f"{workload}: output digest equal with tracing on and off")
        check(tracer.wrapped > 0, f"{workload}: the traced pass wrapped {tracer.wrapped} bindings")
        metrics = {
            0: report.end_to_end(workload, [plain], setup),
            1: report.layer_metrics(plain, traced, tracer, setup, report.workers_probe(SEED)),
        }
        for trace, names in want.items():
            missing = [n for n, unit in names.items() if n not in metrics[trace] or metrics[trace][n][1] != unit]
            check(not missing, f"{workload}: every trace={trace} metric emitted with its unit {missing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
