"""The four benchmark workloads: inputs from a seed, one pass, checks.

Every pass draws fresh inputs: pass k of a run with seed s uses the master
seed ``pass_seed(s, k)``.  The same seed gives the same inputs, and the
median pass of a run averages over inputs as well as over timing noise.
Every call into ``smoothcdf`` goes through a module attribute, so the
traced run's wrappers see it.

Checks come in two kinds.  Goldens were recorded for pass 0 at
``DEFAULT_SEED`` by ``run.py --record-goldens``: integers and strings must
match exactly, floats within ``RTOL`` relative, and vectors by a digest of
their values printed to ``DIGEST_DIGITS`` significant digits.  Seed-free
invariants run on every pass of every seed.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import shutil
import time
from pathlib import Path

import numpy as np

from smoothcdf import cli, estimators, models, simulation, theory

DEFAULT_SEED = 0
WORKERS = 2
RTOL = 1e-9
DIGEST_DIGITS = 9
ENGINE_ATOL = 1e-10  # sweep engine against the public fitted object, as in the tests
ROUND_TRIP_TOL = 1e-8
SERIES_TOL = 1e-9
MONOTONE_SLACK = 1e-12

KERNEL_GRID = tuple(i / 1000.0 for i in range(2, 201))
SZASZ_GRID = tuple(range(2, 201))
HERMITE_GRID = tuple(range(2, 61))

KERNEL_M = 10
TABLE_M = 50
EDF_M = 1000  # the anchor's 3-SE check needs the mean of many skewed ISE values
NORMALITY_M = 1000
CRITERION_7_M = 3000
FIT_POOL = 5
FIT_N = 1000


def _no_tick():
    pass


def pass_seed(seed, k):
    return simulation.repetition_seed(seed, k)


def model_set():
    return {
        "exp2": models.make_exponential(2.0),
        "weibull1": models.make_weibull_mixture([[0.5, 1.0, 1.0], [0.5, 4.0, 4.0]]),
        "weibull2": models.make_weibull_mixture([[0.5, 1.5, 1.5], [0.5, 5.0, 5.0]]),
        "weibull3": models.make_weibull_mixture(
            [[0.35, 1.5, 1.5], [0.35, 4.5, 4.5], [0.3, 8.0, 8.0]]),
        "beta33": models.make_beta(3.0, 3.0),
    }


def digest(values):
    text = ",".join(f"{float(v):.{DIGEST_DIGITS - 1}e}" for v in np.ravel(values))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def exact_digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()[:20]


class Checks:
    """Correctness checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def golden(self, prefix, got, want):
        for key, expected in want.items():
            actual = got.get(key)
            if isinstance(expected, float):
                ok = actual is not None and math.isclose(actual, expected, rel_tol=RTOL)
            elif isinstance(expected, list):
                ok = actual is not None and len(actual) == len(expected) and all(
                    a is e if None in (a, e) else math.isclose(a, e, rel_tol=RTOL)
                    for a, e in zip(actual, expected))
            else:
                ok = actual == expected
            self.check(f"golden {prefix} {key}", ok, f"{actual!r} != {expected!r}")

    def goldens(self, got, want):
        for label, entry in want.items():
            self.golden(label, got.get(label, {}), entry)


def _spec(family, param, standardize=False):
    if family == "szasz":
        return {"kind": "szasz", "m": int(param)}
    if family == "kernel":
        return {"kind": "kernel", "h": float(param)}
    return {"kind": "hermite_half", "N": int(param), "standardize": standardize}


class SweepWorkload:
    """Monte Carlo MISE sweeps, one public call per (model, family, n)."""

    unit = "ISE evaluations"
    min_calls = 0
    yardstick = "parallel"  # the sweeps fan their grid columns out over WORKERS threads

    def __init__(self, seed, calls, fanout_label, wrap_dist=None):
        self.seed = seed
        wrap = wrap_dist or (lambda d: d)
        self.calls = [(label, dataclasses.replace(cfg, dist=wrap(cfg.dist)))
                      for label, cfg in calls]
        self.fanout_label = fanout_label
        self.units_per_pass = sum(cfg.M * len(cfg.param_grid) for _, cfg in self.calls)

    def configs(self, k):
        # each call draws its own stream, so the sample maxima that set the
        # Szasz table sizes vary independently from call to call
        base = pass_seed(self.seed, k)
        return [(label, dataclasses.replace(cfg, master_seed=simulation.repetition_seed(base, i)))
                for i, (label, cfg) in enumerate(self.calls)]

    @staticmethod
    def _call(cfg, workers):
        if cfg.estimator_family == "edf":
            est, se = simulation.mise_monte_carlo(cfg, 0, workers)
            return {"mise": est, "se": se}
        res = simulation.parameter_sweep(cfg, workers)
        return {"argmin_param": res.argmin_param, "argmin_mise": res.argmin_mise,
                "argmin_se": res.argmin_se, "mise_digest": digest(res.mise),
                "mise_vector": res.mise, "se_vector": res.se}

    def warm_up(self):
        # the last grid value of every call at full M: the largest Szasz
        # tables, so that the allocator has grown to them before pass 0
        for _, cfg in self.configs(0):
            self._call(dataclasses.replace(cfg, param_grid=cfg.param_grid[-1:]), WORKERS)

    def run_pass(self, k, latencies, tick=_no_tick):
        # a call, for the latency metrics, is one table row: the sweeps the
        # pass makes for one (model, n), back to back
        out = {}
        for _, row in itertools.groupby(self.configs(k), key=lambda c: c[0].split("/", 1)[1]):
            elapsed = 0.0
            for label, cfg in row:
                start = time.perf_counter()
                out[label] = self._call(cfg, WORKERS)
                elapsed += time.perf_counter() - start
                tick()
            latencies.append(elapsed)
        return out

    def fanout_call(self, workers):
        """Seconds and exact output digest of one pass-0 call at ``workers``."""
        cfg = dict(self.configs(0))[self.fanout_label]
        start = time.perf_counter()
        res = self._call(cfg, workers)
        return time.perf_counter() - start, exact_digest(res["mise_vector"])

    @staticmethod
    def goldens(out):
        return {label: {k: v for k, v in res.items() if not k.endswith("_vector")}
                for label, res in out.items()}

    def check(self, out, k, checks, goldens):
        if goldens is not None:
            checks.goldens(self.goldens(out), goldens)
        edf_rows = []
        for label, cfg in self.configs(k):
            res = out[label]
            if cfg.estimator_family == "edf":
                edf_rows.append((cfg.n, cfg.M, res["mise"]))
                continue
            mise, se = res["mise_vector"], res["se_vector"]
            checks.check(f"{label} mise finite and >= 0",
                         bool(np.all(np.isfinite(mise)) and np.all(mise >= 0.0)))
            checks.check(f"{label} se finite and >= 0",
                         bool(np.all(np.isfinite(se)) and np.all(se >= 0.0)))
            j = int(np.argmin(mise))
            checks.check(f"{label} argmin is the grid minimum",
                         res["argmin_param"] == cfg.param_grid[j]
                         and res["argmin_mise"] == float(mise[j]))
            if k == 0:
                self._check_engine(label, cfg, checks)
        if edf_rows and k == 0:
            # the criterion-1 anchor, once per run, pooled over the rows.  The
            # SE is exact: n * ISE is the Cramer-von Mises statistic, whose
            # variance is (4n - 3) / (180 n)
            diff = sum(est - 1.0 / (6.0 * n) for n, _, est in edf_rows)
            pooled_se = math.sqrt(sum((4 * n - 3) / (180.0 * n**3 * reps)
                                      for n, reps, _ in edf_rows))
            checks.check("EDF MISE within 3 SE of 1/(6n), pooled over rows",
                         abs(diff) <= 3.0 * pooled_se, f"diff {diff:.3e} se {pooled_se:.3e}")

    @staticmethod
    def _check_engine(label, cfg, checks):
        # the sweep engine at M=2 against the public fitted objects on the
        # same two repetitions, at the first, middle and last grid value
        rows = simulation.samples_matrix(cfg.dist, cfg.master_seed, 2, cfg.n)
        grid = cfg.param_grid
        for param in (grid[0], grid[len(grid) // 2], grid[-1]):
            small = dataclasses.replace(cfg, param_grid=(param,), M=2)
            engine, _ = simulation.mise_monte_carlo(small, param, WORKERS)
            spec = _spec(cfg.estimator_family, param, cfg.standardize)
            public = np.mean([simulation.ise(estimators.fit_from_spec(spec, r, cfg.dist),
                                             cfg.dist) for r in rows])
            checks.check(f"{label} engine equals public ise at {param:g}",
                         abs(engine - public) <= ENGINE_ATOL, f"{engine!r} vs {public!r}")

    def counts(self, k, out):
        del out  # the counts follow from the configs and samples alone
        ise_evals = ndtr = draws = 0
        table_bytes = 0.0
        for _, cfg in self.configs(k):
            ise_evals += cfg.M * len(cfg.param_grid)
            draws += cfg.M * cfg.n
            if cfg.estimator_family == "kernel":
                ndtr += cfg.M * cfg.n * cfg.quadrature_nodes * len(cfg.param_grid)
            if cfg.estimator_family == "szasz":
                x_max = float(simulation.samples_matrix(
                    cfg.dist, cfg.master_seed, cfg.M, cfg.n).max())
                for m in cfg.param_grid:
                    c_max = max(1, math.ceil(m * x_max))
                    table_bytes += 8.0 * ((c_max + 1) * cfg.quadrature_nodes
                                          + cfg.M * (c_max + 1))
        return {"simulation.ise_evals": ise_evals, "simulation.ndtr_evals": ndtr,
                "models.draws": draws, "simulation.szasz_table_mb": table_bytes / 1e6,
                "cli.bytes_written": 0}


def sweep_kernel(seed, wrap_dist=None):
    """Gaussian-kernel sweeps over the acceptance grid, criterion-3 models."""
    ms = model_set()
    calls = [(f"kernel/{name}/n=50",
              simulation.ExperimentConfig(ms[name], "kernel", KERNEL_GRID, n=50, M=KERNEL_M))
             for name in ("exp2", "weibull1", "weibull2", "weibull3")]
    return SweepWorkload(seed, calls, "kernel/exp2/n=50", wrap_dist)


def sweep_table(seed, wrap_dist=None):
    """Szasz, Hermite and EDF sweeps on two benchmark-table rows; no kernel.

    Exp(2) at n=20 and the three-component Weibull mixture at n=200 give
    the smallest and the largest sample maxima of the table rows, so the
    per-column Szasz working set spans its whole range across the L2 size.
    Two rows keep a pass near 4.5 s, so that a run makes four passes: the
    cost of a pass follows its sample maxima, and fewer passes left the
    run's mean too dependent on them.
    """
    ms = model_set()
    calls = []
    for name, n in (("exp2", 20), ("weibull3", 200)):
        def cfg(family, grid, standardize=False, reps=TABLE_M):
            return simulation.ExperimentConfig(ms[name], family, grid, n=n, M=reps,
                                               standardize=standardize)
        calls += [
            (f"edf/{name}/n={n}", cfg("edf", (0,), reps=EDF_M)),
            (f"szasz/{name}/n={n}", cfg("szasz", SZASZ_GRID)),
            (f"hermite_half/{name}/n={n}", cfg("hermite_half", HERMITE_GRID)),
            (f"hermite_half-std/{name}/n={n}", cfg("hermite_half", HERMITE_GRID, True)),
        ]
    return SweepWorkload(seed, calls, "szasz/exp2/n=20", wrap_dist)


class NormalityWorkload:
    """normality_experiment at the criterion-7 setting, four estimator specs."""

    SPECS = (("edf", {"kind": "edf"}),
             ("szasz", {"kind": "szasz", "m": 252}),
             ("kernel", {"kind": "kernel", "h": 0.05}),
             ("hermite_half", {"kind": "hermite_half", "N": 20}))
    X, N = 0.4, 500
    unit = "estimator values"
    min_calls = 0
    yardstick = "serial"  # Beta sampling and point evaluation run on the client thread
    units_per_pass = NORMALITY_M * len(SPECS)

    def __init__(self, seed, wrap_dist=None):
        self.seed = seed
        self.dist = (wrap_dist or (lambda d: d))(model_set()["beta33"])

    def _call(self, spec, reps, master_seed, workers=WORKERS):
        return simulation.normality_experiment(self.dist, spec, self.X, self.N, reps,
                                               master_seed, workers=workers)

    def warm_up(self):
        for _, spec in self.SPECS:
            self._call(spec, 20, self.seed)

    def run_pass(self, k, latencies, tick=_no_tick):
        out = {}
        for label, spec in self.SPECS:
            start = time.perf_counter()
            out[label] = self._call(spec, NORMALITY_M, pass_seed(self.seed, k))
            latencies.append(time.perf_counter() - start)
            tick()
        return out

    def fanout_call(self, workers):
        start = time.perf_counter()
        res = self._call(dict(self.SPECS)["hermite_half"], NORMALITY_M,
                         pass_seed(self.seed, 0), workers)
        return time.perf_counter() - start, exact_digest(res.values)

    def criterion_7(self):
        # the acceptance test's exact setting, M=3000 and the run's seed as
        # master seed: at the default seed the Szasz KS distance is 0.0745
        return {label: self._call(dict(self.SPECS)[label], CRITERION_7_M, self.seed).ks_distance
                for label in ("edf", "szasz")}

    def goldens(self, out):
        g = {label: {"ks_distance": res.ks_distance, "values_digest": digest(res.values)}
             for label, res in out.items()}
        g["criterion-7"] = self.criterion_7()
        return g

    def check(self, out, k, checks, goldens):
        if goldens is not None:
            checks.goldens(self.goldens(out), goldens)
        fx = float(self.dist.cdf(self.X))
        rows = simulation.samples_matrix(self.dist, pass_seed(self.seed, k), 3, self.N)
        for label, spec in self.SPECS:
            res = out[label]
            v = res.values
            checks.check(f"normality/{label} reference mean is F(x)",
                         res.reference_mean == fx)
            checks.check(f"normality/{label} KS in (0, 1)", 0.0 < res.ks_distance < 1.0)
            checks.check(f"normality/{label} values finite", bool(np.all(np.isfinite(v))))
            if label != "hermite_half":  # the truncated series is not a proper CDF
                checks.check(f"normality/{label} values in [0, 1]",
                             bool(np.all((v >= 0.0) & (v <= 1.0))))
            if label == "edf":
                checks.check("normality/edf values are multiples of 1/n",
                             bool(np.all(np.abs(v * self.N - np.round(v * self.N)) < 1e-9)))
            public = [float(estimators.fit_from_spec(spec, r, self.dist).evaluate(self.X))
                      for r in rows]
            checks.check(f"normality/{label} point path equals public fit",
                         bool(np.allclose(v[:3], public, rtol=0.0, atol=1e-12)),
                         f"{v[:3]!r} vs {public!r}")

    def counts(self, k, out):
        del k, out
        return {"simulation.ise_evals": 0,
                "simulation.ndtr_evals": NORMALITY_M * self.N,  # the kernel spec
                "models.draws": NORMALITY_M * len(self.SPECS) * self.N,
                "simulation.szasz_table_mb": 0.0, "cli.bytes_written": 0}


class FitQueryWorkload:
    """The library and CLI path: fit, evaluate, quantile, density, ise."""

    LEVELS = tuple(i / 20.0 for i in range(1, 20))
    FAMILIES = ("edf", "szasz", "kernel", "hermite_half", "bernstein")
    CLI_POINTS = "0.5,1,2,4"
    MOMENT_POINTS = (0.5, 1.0, 2.0, 4.0)
    unit = "query points answered"
    min_calls = 100  # query rounds, so that call_p90_ms has ten beyond it
    yardstick = "serial"
    fanout_call = None  # the library path has no fan-out
    units_per_pass = (FIT_POOL * len(FAMILIES) * (512 + len(LEVELS)) + FIT_POOL * 512
                      + len(CLI_POINTS.split(",")))

    def __init__(self, seed, out_dir, wrap_dist=None):
        self.seed = seed
        ms = model_set()
        wrap = wrap_dist or (lambda d: d)
        self.dists = {"weibull1": wrap(ms["weibull1"]), "beta33": wrap(ms["beta33"])}
        self.points = {
            "weibull1": np.linspace(0.0, float(ms["weibull1"].quantile(0.999)), 512),
            "beta33": np.linspace(0.0, 1.0, 512),
        }
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.sample_file = self.out_dir / "sample.txt"
        first = self._samples(0)["weibull1"][0]
        self.sample_file.write_text("\n".join(repr(float(v)) for v in first) + "\n")

    def _samples(self, k):
        base = pass_seed(self.seed, k)
        seeds = [simulation.repetition_seed(base, i) for i in range(FIT_POOL)]
        return {model: [models.sample(dist, s, FIT_N) for s in seeds]
                for model, dist in self.dists.items()}

    def _fit(self, family, values):
        if family == "edf":
            return estimators.edf_fit(values)
        if family == "szasz":
            return estimators.szasz_fit(values, 100)
        if family == "kernel":
            return estimators.kernel_fit(values, 0.1)
        if family == "bernstein":
            return estimators.bernstein_fit(values, 100)
        weibull = self.dists["weibull1"]
        return estimators.hermite_half_standardized_fit(values, 20, weibull.mean, weibull.sd)

    @staticmethod
    def _model(family):
        return "beta33" if family == "bernstein" else "weibull1"

    def _round(self, family, values):
        model = self._model(family)
        fit = self._fit(family, values)
        res = {"fit": fit, "evaluate": fit.evaluate(self.points[model]),
               "quantile": [_quantile_or_none(fit, p) for p in self.LEVELS],
               "ise": simulation.ise(fit, self.dists[model])}
        if family == "szasz":
            res["density"] = fit.density(self.points[model])
        return res

    def _cli(self, argv):
        out_dir = self.out_dir / "cli"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--out-dir", str(out_dir)])
        written = len(buf.getvalue().encode())
        written += sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
        return code, buf.getvalue(), written

    def warm_up(self):
        samples = self._samples(0)
        for family in self.FAMILIES:
            fit = self._fit(family, samples[self._model(family)][0][::50])
            fit.evaluate(0.5)
            fit.quantile(0.5)

    def run_pass(self, k, latencies, tick=_no_tick):
        samples = self._samples(k)
        out = {}
        for i in range(FIT_POOL):
            for family in self.FAMILIES:
                start = time.perf_counter()
                out[f"{family}/{i}"] = self._round(family, samples[self._model(family)][i])
                latencies.append(time.perf_counter() - start)
            tick()
        out["cli_estimate"] = self._cli(["estimate", "--sample", str(self.sample_file),
                                         "--kind", "szasz", "--m", "100",
                                         "--points", self.CLI_POINTS])
        tick()
        out["cli_theory"] = self._cli(["theory-check", "--level", "full"])
        tick()
        out["moments"] = [theory.szasz_exact_moments(self.dists["weibull1"], 100, FIT_N, x)
                          for x in self.MOMENT_POINTS]
        tick()
        return out

    def goldens(self, out):
        g = {}
        for i in range(FIT_POOL):
            for family in self.FAMILIES:
                r = out[f"{family}/{i}"]
                entry = {"evaluate_digest": digest(r["evaluate"]),
                         "quantile": [None if q is None else float(q)
                                      for q in r["quantile"]],
                         "ise": float(r["ise"])}
                if "density" in r:
                    entry["density_digest"] = digest(r["density"])
                g[f"{family}/{i}"] = entry
        g["cli_estimate"] = {"exit": out["cli_estimate"][0],
                             "stdout_digest": hashlib.sha256(
                                 out["cli_estimate"][1].encode()).hexdigest()[:20]}
        g["moments"] = {"bias": [m.bias for m in out["moments"]],
                        "variance": [m.variance for m in out["moments"]]}
        return g

    def check(self, out, k, checks, goldens):
        del k
        if goldens is not None:
            checks.goldens(self.goldens(out), goldens)
        for i in range(FIT_POOL):
            for family in self.FAMILIES:
                self._check_round(f"{family}/{i}", family, out[f"{family}/{i}"], checks)
        code, stdout, _ = out["cli_estimate"]
        checks.check("cli estimate exit code 0", code == 0, str(code))
        checks.check("cli estimate prints a header and one row per point",
                     len(stdout.splitlines()) == 1 + len(self.CLI_POINTS.split(",")))
        code, stdout, _ = out["cli_theory"]
        checks.check("cli theory-check full passes", code == 0 and "FAIL" not in stdout,
                     stdout[-200:])
        for x, m in zip(self.MOMENT_POINTS, out["moments"]):
            checks.check(f"exact moments at {x:g} finite, variance >= 0",
                         math.isfinite(m.bias) and m.variance >= 0.0)

    def _check_round(self, key, family, r, checks):
        fit, vals = r["fit"], r["evaluate"]
        checks.check(f"{key} evaluations finite", bool(np.all(np.isfinite(vals))))
        if family != "hermite_half":  # the truncated series is not a proper CDF
            checks.check(f"{key} evaluations in [0, 1]",
                         bool(np.all((vals >= 0.0) & (vals <= 1.0))))
            checks.check(f"{key} evaluations non-decreasing",
                         bool(np.all(np.diff(vals) >= -MONOTONE_SLACK)))
        if family != "kernel":  # the Gaussian kernel leaks mass below 0
            checks.check(f"{key} Fhat(0) = 0", fit.evaluate(0.0) == 0.0)
        for p, q in zip(self.LEVELS, r["quantile"]):
            if q is None:  # only the truncated Hermite series may stay below a level
                ok = family == "hermite_half" and _stays_below(fit, p)
            elif family == "edf":
                ok = fit.evaluate(q) >= p > fit.evaluate(np.nextafter(q, -np.inf))
            else:
                ok = abs(fit.evaluate(q) - p) <= ROUND_TRIP_TOL
            checks.check(f"{key} quantile round trip at {p:g}", ok, repr(q))
        checks.check(f"{key} ise finite and >= 0", math.isfinite(r["ise"]) and r["ise"] >= 0.0)
        if family == "szasz":
            dens = r["density"]
            checks.check(f"{key} density finite and >= 0",
                         bool(np.all(np.isfinite(dens)) and np.all(dens >= 0.0)))
            worst = max(abs(fit.evaluate(x) - _szasz_series(fit, x))
                        for x in self.points["weibull1"][1::64])
            checks.check(f"{key} finite form equals series form", worst <= SERIES_TOL,
                         f"max difference {worst:.3e}")

    def counts(self, k, out):
        del k
        return {"simulation.ise_evals": FIT_POOL * len(self.FAMILIES),
                "simulation.ndtr_evals": 0,
                "models.draws": FIT_POOL * len(self.dists) * FIT_N,
                "simulation.szasz_table_mb": 0.0,
                "cli.bytes_written": out["cli_estimate"][2] + out["cli_theory"][2]}


def _quantile_or_none(fit, p):
    # QuantileBracketError is the documented answer when the estimate never
    # reaches p; the check then confirms that it stays below p
    try:
        return fit.quantile(p)
    except estimators.QuantileBracketError:
        return None


def _stays_below(fit, p):
    # the range the quantile search scans first, past which the
    # Hermite-function series has decayed to its limit
    grid = np.linspace(0.0, 2.0 * float(fit.sample[-1]) + 10.0 * fit.scale, 4097)
    return bool(np.max(fit.evaluate(grid)) < p)


def _szasz_series(fit, x):
    # Fhat(x) = sum_k V_k(m x) F_n(k / m); the weights past k_max carry
    # the tail mass that poisson_weights reports, below 1e-30
    pw = theory.poisson_weights(fit.m, x)
    k = np.arange(pw.k_max + 1)
    edf = np.searchsorted(fit.sample, k / fit.m, side="right") / fit.n
    return float(np.sum(pw.weights * edf))


def build(name, seed, out_dir, wrap_dist=None):
    if name == "sweep-kernel":
        return sweep_kernel(seed, wrap_dist)
    if name == "sweep-table":
        return sweep_table(seed, wrap_dist)
    if name == "normality":
        return NormalityWorkload(seed, wrap_dist)
    if name == "fit-query":
        return FitQueryWorkload(seed, out_dir, wrap_dist)
    raise ValueError(f"unknown workload {name!r}")
