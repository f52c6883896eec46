#!/usr/bin/env python3
"""smoothcdf benchmark: one closed-loop client driving the public API.

    python3 benchmarks/run.py --workload sweep-kernel --seed 0 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced run and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``--record-goldens`` reruns every workload at the default seed
and rewrites goldens.json.  See README.md in this directory.
"""

import os

# Cap BLAS/OpenMP threads before numpy loads: the sweeps already fan out
# over WORKERS threads, and OpenBLAS would otherwise add its own per core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_in_ref": "ref", "work_per_ref": "1/ref",
              "peak_rss_mb": "MB"}
WORKLOADS = ("sweep-kernel", "sweep-table", "normality", "fit-query")
KINDS = ("edf", "szasz", "bernstein", "kernel", "hermite_half")
COMPUTED = ("models.draws", "simulation.ise_evals", "simulation.ndtr_evals",
            "simulation.szasz_table_mb")


def _import_program():
    if not (SRC / "smoothcdf" / "__init__.py").is_file():
        sys.exit(f"run.py: no smoothcdf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smoothcdf
    if Path(smoothcdf.__file__).resolve().parent != SRC / "smoothcdf":
        sys.exit(f"run.py: imported smoothcdf from {smoothcdf.__file__}, not {SRC}")


def setup(name, seed):
    """Everything before the first timed pass: inputs, goldens, warm-up."""
    import workloads
    goldens = json.loads(GOLDENS.read_text())[name]
    if seed != workloads.DEFAULT_SEED:
        goldens = None  # recorded for the default seed only
    workload = workloads.build(name, seed, OUT / f"{name}-{os.getpid()}")
    workload.warm_up()
    return workload, goldens


def probe_setup(name, seed):
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"run.py: setup probe failed (exit {proc.returncode}, output {line!r})")
    return elapsed


def run_passes(workload, seconds, checks, goldens, ruler):
    """Run passes until ``seconds`` have gone by; check every output.

    A pass times the yardstick after each of its calls (each table row, on
    the sweeps), so the yardstick sees the host over the same stretch of
    time as the pass.  A pass's own time leaves those yardstick runs out.
    """
    times, ticks, latencies = [], [], []
    while sum(times) + sum(map(sum, ticks)) < seconds or len(latencies) < workload.min_calls:
        k = len(times)
        start = time.perf_counter()
        out = workload.run_pass(k, latencies, ruler.tick)
        elapsed = time.perf_counter() - start
        ticks.append(ruler.take())
        times.append(elapsed - sum(ticks[-1]))
        workload.check(out, k, checks, goldens if k == 0 else None)
    return times, ticks, latencies


def end_to_end(name, seed, seconds):
    import workloads
    import yardstick
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    workload, goldens = setup(name, seed)
    ruler = yardstick.Yardstick(workload.yardstick, workloads.WORKERS)
    ruler.run()  # warm-up
    checks = workloads.Checks()
    times, ticks, latencies = run_passes(workload, seconds, checks, goldens, ruler)
    # each pass in units of the yardstick runs between its own calls, so the
    # host's speed over that pass cancels out; the mean, not the median, of
    # these ratios because a run makes as few as four passes
    in_ref = [t / statistics.mean(refs) for t, refs in zip(times, ticks)]
    wall_in_ref = statistics.mean(in_ref)
    wall = statistics.median(times)
    values = {
        "setup_s": statistics.median(setups),
        "wall_in_ref": wall_in_ref,
        "work_per_ref": workload.units_per_pass / wall_in_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    # raw wall times and call latencies are reported ungated: on a shared
    # host their run-to-run spread exceeds the largest bound a gated metric
    # may carry
    detail = {"passes": len(times), "pass_s": times, "yardstick": workload.yardstick,
              "yardstick_s": ticks, "pass_in_ref": in_ref,
              "wall_s": wall, "work_per_s": workload.units_per_pass / wall,
              "calls": len(latencies),
              "call_p50_ms": 1e3 * statistics.median(latencies),
              "call_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
              "unit_of_work": workload.unit, "units_per_pass": workload.units_per_pass}
    return checks, metrics, detail, []


def layer_times(table):
    """Per-layer seconds of one traced pass."""
    is_ = lambda name: (lambda n: n == name)  # noqa: E731
    est = lambda method, kind="": (  # noqa: E731
        lambda n: n.startswith("estimators." + kind) and n.endswith("." + method))
    out = {
        "models.sample_s": table.duration(is_("models.sample")),
        "models.quantile_s": table.duration(is_("models.quantile")),
        "simulation.point_self_s": table.self_time(is_("simulation.normality_experiment")),
        "special.hermite_basis_s": table.duration(is_("special.hermite_basis")),
        "estimators.fit_from_spec_s": table.duration(is_("estimators.fit_from_spec")),
        "estimators.fit_s": table.duration(is_("estimators.fit"), outermost=True),
        "theory.exact_moments_s": table.duration(is_("theory.szasz_exact_moments"),
                                                 outermost=True),
        "theory.checks_s": table.duration(is_("theory.run_theory_checks")),
        "cli.estimate_s": table.duration(is_("cli.main:estimate")),
    }
    for family in ("kernel", "szasz", "hermite_half", "edf"):
        out[f"simulation.{family}_self_s"] = table.self_time(
            is_(f"simulation.sweep:{family}"))
    for method in ("evaluate", "quantile", "density"):
        out[f"estimators.{method}_s"] = table.duration(est(method), outermost=True)
    for kind in KINDS:
        for method in ("evaluate", "quantile"):
            out[f"estimators.{kind}.{method}_s"] = table.duration(
                est(method, kind + "."), outermost=True)
    return out


def per_layer(name, seed, seconds):
    import smoothcdf
    import tracing
    import workloads
    workload, goldens = setup(name, seed)
    tracer = tracing.Tracer()
    traced = workloads.build(name, seed, OUT / f"{name}-{os.getpid()}",
                             lambda d: tracing.traced_distribution(tracer, d))
    checks = workloads.Checks()
    plain_times, traced_times, layers, spans = [], [], [], []
    while not traced_times or sum(plain_times) + sum(traced_times) < seconds:
        k = len(traced_times)
        start = time.perf_counter()
        workload.run_pass(k, [])
        plain_times.append(time.perf_counter() - start)
        tracing.install(tracer, smoothcdf)
        try:
            start = time.perf_counter()
            out = traced.run_pass(k, [])
            traced_times.append(time.perf_counter() - start)
        finally:
            tracer.restore()
        batch = tracer.take()
        spans.extend(batch)
        layers.append(layer_times(tracing.SpanTable(batch)))
        traced.check(out, k, checks, goldens if k == 0 else None)
        if k == 0:
            values = traced.counts(k, out)
    for key in layers[0]:
        values[key] = statistics.median(p[key] for p in layers)
    if workload.fanout_call is None:
        values["simulation.fanout_speedup"] = 0.0  # no fan-out on this path
    else:
        seconds_at = {1: 0.0, workloads.WORKERS: 0.0}
        digests = set()
        for workers in (1, workloads.WORKERS, workloads.WORKERS, 1):
            elapsed, out_digest = workload.fanout_call(workers)
            seconds_at[workers] += elapsed
            digests.add(out_digest)
        checks.check("fan-out output identical for every worker count", len(digests) == 1)
        values["simulation.fanout_speedup"] = seconds_at[1] / seconds_at[workloads.WORKERS]
    values["trace.overhead_frac"] = (statistics.median(traced_times)
                                     / statistics.median(plain_times) - 1.0)
    values["failed_frac"] = len(checks.failures) / checks.attempted
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(values.items())}
    detail = {"traced_passes": len(traced_times), "plain_pass_s": plain_times,
              "traced_pass_s": traced_times, "spans": len(spans), "computed": list(COMPUTED)}
    return checks, metrics, detail, spans


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_frac", "_speedup")):
        return "ratio"
    return "count"


def environment(name, seed, trace):
    import numpy
    import scipy
    import workloads
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "workload": name, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "caches": caches,
        "workers": workloads.WORKERS, "blas_threads_cap": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def record_goldens():
    import workloads
    goldens = {}
    for name in WORKLOADS:
        workload = workloads.build(name, workloads.DEFAULT_SEED, OUT / f"{name}-{os.getpid()}")
        checks = workloads.Checks()
        out = workload.run_pass(0, [])
        workload.check(out, 0, checks, None)
        if checks.failures:
            sys.exit(f"run.py: {name} fails its invariants: {checks.failures}")
        goldens[name] = workload.goldens(out)
        print(f"{name}: {checks.attempted} invariants pass", file=sys.stderr)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")

    _import_program()
    try:
        if args.record_goldens:
            record_goldens()
            return 0
        if args.setup_probe:
            setup(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        measure = per_layer if args.trace else end_to_end
        checks, metrics, detail, spans = measure(args.workload, args.seed, args.seconds)
    finally:
        for leftover in OUT.glob(f"*-{os.getpid()}"):
            shutil.rmtree(leftover, ignore_errors=True)

    env = environment(args.workload, args.seed, args.trace)
    report = {"environment": env, "detail": detail, "failures": checks.failures,
              "metrics": metrics, "spans": spans}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report) + "\n")
    print(json.dumps({"environment": env, "detail": detail}), file=sys.stderr)
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
