"""Benchmark of the varword engine: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload object-search --seed 1 --seconds 20 --trace 0

Workloads: sweep-batteries, object-search, cli-sessions (see the wl_*.py
modules for what each runs and why it was chosen).  ``--trace 0``
measures the end-to-end metrics with nothing wrapped.  ``--trace 1``
makes the separate traced run: one untraced pass, then the same pass
with every public function of the package wrapped, and prints the
per-layer metrics.  Every metric is printed by name with its unit; the
last line of stdout is one JSON object with the metrics BENCHMARK.json
names, and the full record goes to .perfbench_out/.

BENCHMARK.json lists, of the per-layer metrics, every exact value (call,
lookup and byte counts and hit fractions, which repeat exactly for a
seed) and only those measured times and rates that are above 0 on all
three workloads; a time of a layer that a workload leaves idle is 0 on
every run of it, so it is printed and recorded but not listed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep-batteries", "object-search", "cli-sessions")
# fresh processes per set-up measurement, each 0.3 to 1.2 s on 2 cores
SETUP_PROBES = 11


def workload_module(name):
    import wl_cli
    import wl_objects
    import wl_sweeps

    return {"sweep-batteries": wl_sweeps, "object-search": wl_objects, "cli-sessions": wl_cli}[name]


# ---------------------------------------------------------------------------
# set-up


def probe_setup(workload: str, seed: int, pass_index: int) -> None:
    """Child side of the set-up measurement: import, then generate one pass's inputs."""
    t0 = time.perf_counter()
    import varword.cli  # noqa: F401  (the import every workload pays)

    t1 = time.perf_counter()
    import varword.sweeps  # noqa: F401

    specs = workload_module(workload).make_specs(seed, pass_index)
    print(json.dumps({"import_s": t1 - t0, "inputs_s": time.perf_counter() - t1, "requests": len(specs)}))


def measure_setup(workload: str, seed: int) -> dict:
    """Median wall time of fresh processes that import varword and build one pass's inputs.

    Probe i builds the inputs of pass i: the cost of generating inputs
    varies from one draw to the next (the defeating colorings come from a
    backtracking search), so a median over the draws of several passes
    is steadier across seeds than repeating one draw.
    """
    walls, imports = [], []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", str(i), "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        ).stdout
        walls.append(time.perf_counter() - t0)
        imports.append(json.loads(out.splitlines()[-1])["import_s"])
    from common import median

    return {"setup_s": (median(walls), len(walls)), "cli.import_s": (median(imports), len(imports))}


# ---------------------------------------------------------------------------
# provenance


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if there is none."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            try:
                return int(getattr(ctypes.CDLL(lib), symbol)())
            except (OSError, AttributeError):
                continue
    return None


def machine_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # older numpy has no dict form; provenance is best effort
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import hashlib

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "varword").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": have_numba,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running


def run_pass(workload: str, specs, tracer=None, in_process=False):
    """One pass; cli-sessions requests go to `varword` subprocesses unless `in_process`."""
    from common import Pass

    mod = workload_module(workload)
    p = Pass(tracer)
    if workload == "cli-sessions":
        session = mod.run_pass(specs, p, ROOT, in_process=in_process)
    else:
        session = mod.run_pass(specs, p)
    return p, session


def run_untraced(workload: str, seed: int, seconds: float):
    """Whole passes on fresh inputs while the next one still fits in `seconds`."""
    mod = workload_module(workload)
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, mod.make_specs(seed, len(passes))))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def run_traced(workload: str, seed: int):
    """Pass 0 untraced, then pass 0 again (fresh objects) with every layer wrapped.

    cli-sessions calls ``varword.cli.main`` in-process in both passes, so
    that the wrapped calls are in this process and the two passes compare.
    """
    from tracer import Tracer

    mod = workload_module(workload)
    plain = run_pass(workload, mod.make_specs(seed, 0), in_process=True)
    specs = mod.make_specs(seed, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, specs, tracer, in_process=True)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", type=int, metavar="PASS", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "varword" / "__init__.py").is_file():
        print(f"perfbench: no varword sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup is not None:
        probe_setup(args.workload, args.seed, args.probe_setup)
        return 0

    import report
    from common import digest

    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = measure_setup(args.workload, args.seed)
    mod = workload_module(args.workload)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "input_digest": digest(mod.make_specs(args.seed, 0)),
        "wrapped_bindings": 0,
    }
    if args.trace:
        plain, traced, tracer = run_traced(args.workload, args.seed)
        record["wrapped_bindings"] = tracer.wrapped
        probe = report.workers_probe(args.seed)
        metrics = report.layer_metrics(plain, traced, tracer, setup, probe)
        passes = [plain, traced]
        failed = sum(p.failed for p, _ in passes) + probe["failed"]
        if plain[0].digest != traced[0].digest:
            failed += 1
            plain[0].errors.append("traced pass output differs from the untraced pass")
        tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        passes = run_untraced(args.workload, args.seed, args.seconds)
        metrics = report.end_to_end(args.workload, passes, setup)
        failed = sum(p.failed for p, _ in passes)
        wanted = [m["name"] for m in spec["end_to_end"]]

    attempted = sum(len(p.ops) for p, _ in passes) + (len(probe["checks"]) if args.trace else 0)
    record.update(
        attempted=attempted,
        failed=failed,
        output_digest=passes[0][0].digest,
        pass_digests=[p.digest for p, _ in passes],
        pass_wall_s=[p.wall_s for p, _ in passes],
        errors=[e for p, _ in passes for e in p.errors],
        metrics={name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
    )
    if args.trace:
        record["workers_probe"] = probe
    for err in record["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, {failed} failed, "
          f"fail_frac = {failed / attempted:.6f}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f" (n={n})" if n else ""))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
