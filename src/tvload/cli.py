"""Command-line front end: estimate, select-r, simulate, bootstrap.

Every command writes its artifacts into a flat output directory together with
a JSON run report (all parameters and the seed, so the run is reproducible)
and a manifest listing each artifact's SHA-256 hash.  Numeric output is
printed with 17 significant digits, which round-trips float64 losslessly;
``bootstrap`` rebuilds an estimate run from those files bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from ._table import write_table
from .bootstrap import residual_bootstrap, write_bands_csv, write_plot_csv
from .errors import MissingDataError, ParameterError, TvloadError
from .factors import (
    FactorEstimate,
    nonstationary_factors,
    pca_factors,
    read_panel_csv,
    scale_only,
    select_num_factors,
    standardize,
)
from .gls import (
    GlsFit,
    build_design,
    fit_iterative,
    loadings_from_coeffs,
    read_coefficients_csv,
    write_coefficients_csv,
    write_covariance_csv,
    write_loadings_csv,
)
from .sim import (
    default_grid,
    read_grid_json,
    run_experiment,
    write_detail_csv,
    write_report_csv,
)
from .wavelet import evaluate_basis, select_resolution


def _resolve_threads(value) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("TVLOAD_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ParameterError(f"TVLOAD_THREADS must be an integer, got {env!r}") from exc
    return max(1, os.cpu_count() or 1)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir, names) -> None:
    manifest = {"artifacts": {name: _sha256(os.path.join(outdir, name)) for name in sorted(names)}}
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _write_factors_csv(path, F) -> None:
    T, r = F.shape
    write_table(path, ["t", *(f"factor_{i}" for i in range(1, r + 1))], F[:, None, :],
                rows=range(1, T + 1))


def _read_table_csv(path) -> np.ndarray:
    """The numeric columns after the first of a headed CSV table."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(x) for x in rec[1:]] for rec in reader])


# ---------------------------------------------------------------- estimate


def cmd_estimate(args) -> int:
    threads = _resolve_threads(args.threads)
    outdir = args.output_dir or "tvload_estimate"
    os.makedirs(outdir, exist_ok=True)
    panel = read_panel_csv(args.input)

    if args.nonstationary:
        work = scale_only(panel)
        standardization = "scale-only"
        method = f"GeneralizedCovariance({args.k},{args.d},{args.dprime})"
    else:
        work = standardize(panel)
        standardization = "center-scale"
        method = "PCA"

    r = args.r
    selection = None
    if r is None:
        r_max = args.r_max if args.r_max is not None else min(8, min(work.T, work.N) - 1)
        sel = select_num_factors(
            panel, r_max, first_difference_panel=args.first_difference
        )
        r = sel.r
        selection = {"r": sel.r, "r_max": r_max}
    if args.nonstationary:
        est = nonstationary_factors(work, r, k=args.k, d=args.d, dprime=args.dprime)
    else:
        est = pca_factors(work, r)

    J = args.J if args.J is not None else select_resolution(work.T)
    basis = evaluate_basis(args.family, J, work.T)
    design = build_design(est, basis)
    fit = fit_iterative(work, est, basis, delta=args.delta, max_iter=args.max_iter,
                        design=design)

    _write_factors_csv(os.path.join(outdir, "factors.csv"), est.F)
    write_loadings_csv(fit, panel, os.path.join(outdir, "loadings.csv"))
    write_coefficients_csv(fit, panel, basis, os.path.join(outdir, "coefficients.csv"))
    write_covariance_csv(
        fit.Gamma_e, panel.series_ids, os.path.join(outdir, "residual_covariance.csv")
    )
    report = {
        "command": "estimate",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input),
            "r": int(r),
            "family": args.family,
            "J": int(J),
            "delta": args.delta,
            "max_iter": args.max_iter,
            "nonstationary": bool(args.nonstationary),
            "k": args.k,
            "d": args.d,
            "dprime": args.dprime,
            "first_difference": bool(args.first_difference),
            "seed": args.seed,
            "threads": threads,
        },
        "input": {
            "path": os.path.abspath(args.input),
            "sha256": _sha256(args.input),
            "T": work.T,
            "N": work.N,
            "series_ids": list(panel.series_ids),
        },
        "method": method,
        "standardization": standardization,
        "selection": selection,
        "eigenvalues": [float(v) for v in est.eigenvalues],
        "design_gram_condition": design.gram_condition,
        "iterations": fit.n_iter,
        "deltas": [float(d) for d in fit.deltas],
        "converged": fit.converged,
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    _write_manifest(
        outdir,
        ["factors.csv", "loadings.csv", "coefficients.csv",
         "residual_covariance.csv", "report.json"],
    )
    print(f"estimate: r={r} J={J} family={args.family} iterations={fit.n_iter} -> {outdir}")
    return 0


# ---------------------------------------------------------------- select-r


def cmd_select_r(args) -> int:
    outdir = args.output_dir or "tvload_select_r"
    os.makedirs(outdir, exist_ok=True)
    panel = read_panel_csv(args.input)
    r_max = args.r_max if args.r_max is not None else min(8, min(panel.T, panel.N) - 1)
    sel = select_num_factors(panel, r_max, first_difference_panel=args.first_difference)

    write_table(os.path.join(outdir, "ic_values.csv"), ["c", "r", "ic"],
                sel.ic_full[:, :, None], [(r,) for r in range(sel.ic_full.shape[1])],
                rows=[format(c, ".17g") for c in sel.c_grid])
    report = {
        "command": "select-r",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input),
            "r_max": int(r_max),
            "first_difference": bool(args.first_difference),
            "seed": args.seed,
        },
        "input": {"path": os.path.abspath(args.input), "sha256": _sha256(args.input),
                  "T": panel.T, "N": panel.N},
        "chosen_r": int(sel.r),
        "c_grid": [float(c) for c in sel.c_grid],
        "r_full_by_c": [int(x) for x in sel.r_full],
        "subsample_variance_by_c": [float(v) for v in sel.variance],
        "stability_intervals": [
            {"c_lo": float(lo), "c_hi": float(hi), "r": int(rr), "width": float(w)}
            for lo, hi, rr, w in sel.intervals
        ],
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    _write_manifest(outdir, ["ic_values.csv", "report.json"])
    print(f"select-r: chosen r={sel.r} (r_max={r_max}) -> {outdir}")
    return 0


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    threads = _resolve_threads(args.threads)
    outdir = args.output_dir or "tvload_simulate"
    os.makedirs(outdir, exist_ok=True)
    cells = read_grid_json(args.input) if args.input else default_grid()
    reports = []
    for cfg, family in cells:
        reports.append(
            run_experiment(
                cfg, family=family, n_reps=args.reps, seed=args.seed,
                J=args.J, delta=args.delta, max_iter=args.max_iter,
                n_threads=threads,
            )
        )
    write_report_csv(reports, os.path.join(outdir, "report.csv"))
    write_detail_csv(reports, os.path.join(outdir, "detail.csv"))
    report = {
        "command": "simulate",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input) if args.input else None,
            "reps": args.reps,
            "seed": args.seed,
            "J": args.J,
            "delta": args.delta,
            "max_iter": args.max_iter,
        },
        "cells": [
            {
                "N": rep.config.N,
                "T": rep.config.T,
                "r": rep.config.r,
                "theta": list(rep.config.resolved_theta()),
                "family": rep.family,
                "r2_mean": rep.r2_mean,
                "mse_median": rep.mse_median,
                "median_rep": rep.median_rep,
                "n_failures": len(rep.failures),
            }
            for rep in reports
        ],
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    _write_manifest(outdir, ["report.csv", "detail.csv", "report.json"])
    print(f"simulate: {len(reports)} cells x {args.reps} reps -> {outdir}")
    return 0


# ---------------------------------------------------------------- bootstrap


def _reload_estimate(run_dir):
    """Rebuild panel, basis, factors and fit from an estimate run directory."""
    report_path = os.path.join(run_dir, "report.json")
    if not os.path.exists(report_path):
        raise ParameterError(f"not an estimate run directory (no report.json): {run_dir}")
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("command") != "estimate":
        raise ParameterError(f"{report_path} was written by {report.get('command')!r}, "
                             "need an estimate run")
    params = report["parameters"]
    input_path = report["input"]["path"]
    if not os.path.exists(input_path):
        raise MissingDataError(f"original input panel not found: {input_path}")
    if _sha256(input_path) != report["input"]["sha256"]:
        raise ParameterError(f"input panel changed since the estimate run: {input_path}")

    panel = read_panel_csv(input_path)
    if report["standardization"] == "scale-only":
        work = scale_only(panel)
    else:
        work = standardize(panel)
    basis = evaluate_basis(params["family"], params["J"], work.T)
    F = _read_table_csv(os.path.join(run_dir, "factors.csv"))
    est = FactorEstimate(
        F=F,
        eigenvalues=np.array(report["eigenvalues"]),
        method="lag_covariance" if params["nonstationary"] else "pca",
        r=params["r"],
        params={"k": params["k"], "d": params["d"], "dprime": params["dprime"]}
        if params["nonstationary"] else {},
    )
    beta = read_coefficients_csv(
        os.path.join(run_dir, "coefficients.csv"), panel.series_ids, basis, params["r"]
    )
    gamma = _read_table_csv(os.path.join(run_dir, "residual_covariance.csv"))
    fit = GlsFit(
        beta=beta,
        Lambda=loadings_from_coeffs(beta, basis),
        Gamma_e=gamma,
        n_iter=report["iterations"],
        deltas=tuple(report["deltas"]),
        converged=report["converged"],
    )
    return panel, work, basis, est, fit, report


def cmd_bootstrap(args) -> int:
    threads = _resolve_threads(args.threads)
    outdir = args.output_dir or "tvload_bootstrap"
    os.makedirs(outdir, exist_ok=True)
    panel, work, basis, est, fit, est_report = _reload_estimate(args.input)
    bands = residual_bootstrap(
        work, fit, est, basis,
        B=args.B, level=args.level, seed=args.seed,
        refit_factors=args.refit_factors,
        delta=args.delta, max_iter=args.max_iter,
        n_threads=threads,
    )
    write_bands_csv(bands, fit, panel, os.path.join(outdir, "bands.csv"))
    names = ["bands.csv", "report.json"]
    for sid in panel.series_ids:
        for n in range(est.r):
            name = f"plot_{sid}_factor{n + 1}.csv"
            write_plot_csv(bands, fit, panel, sid, n + 1, os.path.join(outdir, name))
            names.append(name)
    report = {
        "command": "bootstrap",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input),
            "B": args.B,
            "level": args.level,
            "seed": args.seed,
            "refit_factors": bool(args.refit_factors),
            "delta": args.delta,
            "max_iter": args.max_iter,
            "threads": threads,
        },
        "estimate_run": {
            "path": os.path.abspath(args.input),
            "input_sha256": est_report["input"]["sha256"],
        },
        "n_failed": len(bands.failed),
        "failed": [[b, msg] for b, msg in bands.failed],
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    _write_manifest(outdir, names)
    print(f"bootstrap: B={args.B} level={args.level} failed={len(bands.failed)} -> {outdir}")
    return 0


# ---------------------------------------------------------------- wiring


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="input file (panel CSV, grid JSON, or estimate run dir)")
    p.add_argument("--output-dir", help="artifact directory (created if missing)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: TVLOAD_THREADS env, then CPU count)")
    p.add_argument("--family", choices=["haar", "d8"], default="haar")
    p.add_argument("--J", type=int, default=None, help="resolution override")
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--nonstationary", action="store_true")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--dprime", type=int, default=1)
    p.add_argument("--first-difference", action="store_true")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--B", type=int, default=100)
    p.add_argument("--level", type=float, default=0.95)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvload",
        description="Factor models with smoothly time-varying loadings.",
    )
    parser.add_argument("--version", action="version", version=f"tvload {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="extract factors and fit loading curves")
    _add_shared(p)
    p.set_defaults(func=cmd_estimate, needs_input=True)

    p = sub.add_parser("select-r", help="choose the number of factors")
    _add_shared(p)
    p.set_defaults(func=cmd_select_r, needs_input=True)

    p = sub.add_parser("simulate", help="run the Monte Carlo experiment grid")
    _add_shared(p)
    p.add_argument("--reps", type=int, default=100, help="replications per cell")
    p.set_defaults(func=cmd_simulate, needs_input=False)

    p = sub.add_parser("bootstrap", help="confidence bands from an estimate run")
    _add_shared(p)
    p.add_argument("--refit-factors", action="store_true")
    p.set_defaults(func=cmd_bootstrap, needs_input=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.needs_input:
            if not args.input:
                raise ParameterError(f"{args.command} requires --input")
            if not os.path.exists(args.input):
                raise MissingDataError(f"input not found: {args.input}")
        return args.func(args)
    except json.JSONDecodeError as exc:
        record = {"error": "JSONDecodeError", "message": str(exc),
                  "line": exc.lineno, "column": exc.colno}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    except TvloadError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "path": getattr(exc, "filename", None)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
