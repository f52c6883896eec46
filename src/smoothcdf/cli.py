"""Command-line entry point for reproducible estimation runs.

Commands: estimate, sweep, normality, asymptotics, theory-check.
Experiment commands read JSON configs (reproducible), one-shot estimation
takes flags.  Every command writes its data files plus a run manifest
(config digest, seed, version, timestamps, output paths) into --out-dir.
Exit codes: 0 success, 1 check failure, 2 usage or config error.

Floats are serialized as shortest round-trip decimals, so rereading a CSV
reproduces the binary values exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .asymptotics import c_opt, c_star, m_opt_mise, m_opt_mse, mise_constants, pointwise_coeffs
from .estimators import KINDS, fit_from_spec
from .models import distribution_from_spec
from .simulation import ExperimentConfig, normality_experiment, parameter_sweep
from .theory import run_theory_checks


class ConfigError(ValueError):
    """Bad config file, sample file or estimator spec (exit code 2)."""


def _fmt(x):
    # shortest decimal that round-trips; integers drop the trailing .0
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _digest(obj):
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _write_manifest(out_dir, command, config_obj, master_seed, outputs, started):
    manifest = {
        "command": command,
        "config_digest": _digest(config_obj),
        "master_seed": master_seed,
        "version": __version__,
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": [str(p) for p in outputs],
    }
    path = Path(out_dir) / f"{command.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _read_sample_file(path):
    values = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: not a decimal literal: {text!r}") from exc
    if not values:
        raise ConfigError(f"{path}: no observations found")
    return values


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse JSON config {path}: {exc}") from exc


def _estimator_spec_from_args(args):
    # argparse has already made m and N ints, h and sigma floats
    spec = {key: getattr(args, key) for key in ("kind", "m", "N", "h", "sigma")
            if getattr(args, key) is not None}
    if args.standardize:
        spec["standardize"] = True
    return spec


def cmd_estimate(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    values = _read_sample_file(args.sample)
    spec = _estimator_spec_from_args(args)
    if args.points is not None:
        try:
            points = [float(t) for t in args.points.split(",") if t.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --points list: {exc}") from exc
    else:
        points = _read_sample_file(args.points_file)
    if not points:
        raise ConfigError("no evaluation points given")
    try:
        fit = fit_from_spec(spec, values)
        estimates = [float(fit.evaluate(float(x))) for x in points]
    except KeyError as exc:
        raise ConfigError(f"estimator spec is missing {exc}") from exc

    rows = ["x,F_hat"] + [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(points, estimates)]
    out_dir = _ensure_dir(args.out_dir)
    csv_path = out_dir / "estimate.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print("\n".join(rows))
    _write_manifest(out_dir, "estimate",
                    {"sample": str(args.sample), "estimator": spec, "points": points},
                    None, [csv_path], started)
    return 0


def _sweep_config(raw):
    try:
        dist = distribution_from_spec(raw["dist"])
        return ExperimentConfig(
            dist=dist,
            estimator_family=raw["estimator_family"],
            param_grid=tuple(raw["param_grid"]),
            n=raw["n"],
            M=raw.get("M", 10_000),
            master_seed=int(raw.get("master_seed", 0)),
            quadrature_nodes=raw.get("quadrature_nodes", 512),
            standardize=bool(raw.get("standardize", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep config: {exc}") from exc


def cmd_sweep(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    raw = _read_json(args.config)
    config = _sweep_config(raw)
    result = parameter_sweep(config, workers=args.workers)

    out_dir = _ensure_dir(args.out_dir)
    csv_path = out_dir / "sweep.csv"
    lines = ["param,mise,se"]
    lines += [f"{_fmt(p)},{_fmt(v)},{_fmt(s)}"
              for p, v, s in zip(result.params, result.mise, result.se)]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    summary = {
        "argmin_param": result.argmin_param,
        "argmin_mise": result.argmin_mise,
        "se": result.argmin_se,
    }
    summary_path = out_dir / "sweep_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    _write_manifest(out_dir, "sweep", raw, config.master_seed,
                    [csv_path, summary_path], started)
    return 0


def cmd_normality(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    raw = _read_json(args.config)
    try:
        dist = distribution_from_spec(raw["dist"])
        estimator = dict(raw["estimator"])
        x = float(raw["x"])
        n = raw["n"]
        m_reps = raw.get("M", 10_000)
        master_seed = int(raw.get("master_seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad normality config: {exc}") from exc
    try:
        result = normality_experiment(dist, estimator, x, n, m_reps, master_seed,
                                      workers=args.workers)
    except KeyError as exc:
        raise ConfigError(f"estimator spec is missing {exc}") from exc

    out_dir = _ensure_dir(args.out_dir)
    csv_path = out_dir / "normality_values.csv"
    csv_path.write_text("value\n" + "\n".join(_fmt(v) for v in result.values) + "\n",
                        encoding="utf-8")
    summary = {
        "ks_distance": result.ks_distance,
        "reference_mean": result.reference_mean,
        "reference_sd": result.reference_sd,
    }
    summary_path = out_dir / "normality_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    _write_manifest(out_dir, "normality", raw, master_seed,
                    [csv_path, summary_path], started)
    return 0


def cmd_asymptotics(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    try:
        dist_spec = json.loads(args.dist)
        dist = distribution_from_spec(dist_spec)
    except (KeyError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"bad --dist spec: {exc}") from exc
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
    out_dir = _ensure_dir(args.out_dir)
    path = out_dir / "asymptotics.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report))
    _write_manifest(out_dir, "asymptotics",
                    {"dist": dist_spec, "x": x, "n": n, "a": a}, None, [path], started)
    return 0


def cmd_theory_check(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    report = run_theory_checks(args.level)
    out_dir = _ensure_dir(args.out_dir)
    path = out_dir / "theory_check.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: observed={check['observed']:.12g} "
              f"predicted={check['predicted']:.12g}")
    _write_manifest(out_dir, "theory-check", {"level": args.level}, None, [path], started)
    return 0 if report["passed"] else 1


def _ensure_dir(out_dir):
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--sigma", type=float)
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
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError too
        print(f"smoothcdf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
