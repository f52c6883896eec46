"""Command-line entry point for reproducible estimation runs.

Commands: estimate, sweep, normality, asymptotics, theory-check.
Experiment commands read JSON configs (reproducible), one-shot estimation
takes flags.  Every command ends in ``_write_run``: its data files, its
stdout, then a run manifest (config digest, seed, package, Python, numpy
and scipy versions, CPU count, workers, timestamps, peak RSS, output
paths) in --out-dir.  Exit codes: 0 success, 1 check failure, 2
usage or config error: a ValueError, or a TypeError from a config key the
command does not take, a required one it lacks or a value of the wrong
type.

Each config is read by the library's own constructors and checks: a sweep
config's keys are ``ExperimentConfig``'s fields, a normality config's the
arguments of ``_normality_run``, and the distribution and estimator specs
inside them are parsed by ``distribution_from_spec`` and the estimators'
spec parser, which name a missing or unknown key.

Floats are serialized as shortest round-trip decimals, so rereading a CSV
reproduces the binary values exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .asymptotics import c_opt, c_star, m_opt_mise, m_opt_mse, mise_constants, pointwise_coeffs
from .estimators import KINDS, fit_from_spec
from .models import distribution_from_spec
from .simulation import ExperimentConfig, normality_experiment, parameter_sweep
from .theory import run_theory_checks

try:
    import resource
except ImportError:  # no getrusage on Windows
    resource = None

_STAMP = "%Y-%m-%dT%H:%M:%S%z"  # the manifest's timestamps


def _fmt(x):
    # shortest decimal that round-trips; integers drop the trailing .0
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _digest(obj):
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _peak_rss_bytes():
    # ru_maxrss counts KiB on Linux and bytes on macOS; None where it is missing
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * (1 if sys.platform == "darwin" else 1024)


def _write_run(args, config, master_seed, files, stdout):
    # a run's data files ({name: text}, in order), its stdout, then its
    # manifest with the facts of the run: the versions it ran on, the CPUs it
    # saw, the workers it was given where the command takes them and its
    # process's peak resident memory
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(stdout)
    manifest = {
        "command": args.command,
        "config_digest": _digest(config),
        "master_seed": master_seed,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        **({"workers": args.workers} if "workers" in args else {}),
        "started_at": args.started_at,
        "finished_at": time.strftime(_STAMP),
        "peak_rss_bytes": _peak_rss_bytes(),
        "outputs": [str(out_dir / name) for name in files],
    }
    path = out_dir / f"{args.command.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _read_sample_file(path):
    values = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read sample file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a decimal literal: {text!r}") from exc
    if not values:
        raise ValueError(f"{path}: no observations found")
    return values


def _read_json(path):
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse JSON config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"JSON config {path} must be an object")
    return config


def cmd_estimate(args):
    values = _read_sample_file(args.sample)
    # the flags given, as argparse typed them; the spec parser rejects one
    # that --kind does not read
    spec = {key: getattr(args, key) for key in ("kind", "m", "N", "h", "sigma", "standardize")
            if getattr(args, key) is not None}
    if args.points is not None:
        try:
            points = [float(t) for t in args.points.split(",") if t.strip()]
        except ValueError as exc:
            raise ValueError(f"bad --points list: {exc}") from exc
    else:
        points = _read_sample_file(args.points_file)
    if not points:
        raise ValueError("no evaluation points given")
    fit = fit_from_spec(spec, values)
    rows = "\n".join(["x,F_hat"] + [f"{_fmt(x)},{_fmt(fit.evaluate(x))}" for x in points])
    _write_run(args, {"sample": str(args.sample), "estimator": spec, "points": points}, None,
               {"estimate.csv": rows + "\n"}, rows)
    return 0


def _sweep_config(dist, **fields):
    # the other keys of a sweep config are ExperimentConfig's fields, whose
    # defaults and checks are the only ones
    return ExperimentConfig(distribution_from_spec(dist), **fields)


def cmd_sweep(args):
    raw = _read_json(args.config)
    config = _sweep_config(**raw)
    result = parameter_sweep(config, workers=args.workers)
    lines = ["param,mise,se"]
    lines += [f"{_fmt(p)},{_fmt(v)},{_fmt(s)}"
              for p, v, s in zip(result.params, result.mise, result.se)]
    summary = {
        "argmin_param": result.argmin_param,
        "argmin_mise": result.argmin_mise,
        "se": result.argmin_se,
        "argmin_on_grid_edge": result.argmin_on_grid_edge,
    }
    _write_run(args, raw, config.master_seed,
               {"sweep.csv": "\n".join(lines) + "\n",
                "sweep_summary.json": json.dumps(summary, indent=2) + "\n"},
               json.dumps(summary))
    return 0


def _normality_run(dist, estimator, x, n, M=10_000, master_seed=0, *, workers):
    # a normality config's keys are this function's arguments before workers;
    # returns the result and the checked master seed
    result = normality_experiment(distribution_from_spec(dist), estimator, x, n, M,
                                  master_seed, workers)
    return result, int(master_seed)


def cmd_normality(args):
    raw = _read_json(args.config)
    result, master_seed = _normality_run(**raw, workers=args.workers)
    summary = {
        "ks_distance": result.ks_distance,
        "reference_mean": result.reference_mean,
        "reference_sd": result.reference_sd,
    }
    _write_run(args, raw, master_seed,
               {"normality_values.csv": "value\n" + "\n".join(map(_fmt, result.values)) + "\n",
                "normality_summary.json": json.dumps(summary, indent=2) + "\n"},
               json.dumps(summary))
    return 0


def cmd_asymptotics(args):
    try:
        dist_spec = json.loads(args.dist)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad --dist spec: {exc}") from exc
    dist = distribution_from_spec(dist_spec)
    x, n, a = args.x, args.n, args.a
    coeffs = pointwise_coeffs(dist, x)
    consts = mise_constants(dist, a)
    try:
        opt_mse = m_opt_mse(coeffs, n).m_opt
    except ValueError:
        opt_mse = None  # degenerate point, e.g. f'(x) = 0
    report = {
        "dist": dist_spec,
        "x": x,
        "n": n,
        "a": a,
        "sigma2": coeffs.sigma2,
        "bS": coeffs.bS,
        "VS": coeffs.VS,
        "m_opt_mse": opt_mse,
        "C1": consts.C1,
        "C2": consts.C2,
        "C3": consts.C3,
        "m_opt_mise": m_opt_mise(consts, n).m_opt,
        "c_star": c_star(consts),
        "c_opt": c_opt(consts),
    }
    _write_run(args, {"dist": dist_spec, "x": x, "n": n, "a": a}, None,
               {"asymptotics.json": json.dumps(report, indent=2) + "\n"}, json.dumps(report))
    return 0


def cmd_theory_check(args):
    report = run_theory_checks(args.level)
    lines = [f"[{'pass' if check['passed'] else 'FAIL'}] {check['name']}: "
             f"observed={check['observed']:.12g} predicted={check['predicted']:.12g}"
             for check in report["checks"]]
    _write_run(args, {"level": args.level}, None,
               {"theory_check.json": json.dumps(report, indent=2) + "\n"}, "\n".join(lines))
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smoothcdf",
        description="Smooth CDF estimation on the half line: fits, sweeps and checks.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="evaluate one fitted estimator at given points")
    p.add_argument("--sample", required=True, help="file with one observation per line")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--m", type=int, help="order for szasz/bernstein")
    p.add_argument("--h", type=float, help="bandwidth for kernel")
    p.add_argument("--N", type=int, help="truncation order for hermite_half")
    p.add_argument("--standardize", action="store_const", const=True)
    p.add_argument("--sigma", type=float, help="known scale for hermite_half; needs --standardize")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", help="comma-separated evaluation points")
    group.add_argument("--points-file", help="file with one evaluation point per line")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="Monte Carlo MISE over a parameter grid")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("normality", help="sampling distribution of Fhat(x) vs normal law")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("asymptotics", help="bias/variance coefficients and optimal orders")
    p.add_argument("--dist", required=True, help='model spec, e.g. {"kind":"exponential","rate":2}')
    p.add_argument("--x", required=True, type=float)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("theory-check", help="run the squared-weight identity suite")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_theory_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started_at = time.strftime(_STAMP)
    try:
        return args.func(args)
    except (TypeError, ValueError) as exc:
        print(f"smoothcdf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
