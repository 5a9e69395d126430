"""Command-line front end: estimate, select-r, simulate, bootstrap.

Every command takes only the flags it reads.  Once its work has succeeded it
writes its artifacts into a flat output directory together with a JSON run
report (every parameter that can change an output, so the run is
reproducible) and a manifest listing each artifact's SHA-256 hash.  Numeric
output is printed with 17 significant digits, which round-trips float64
losslessly; ``bootstrap`` rebuilds an estimate run from those files
bit-exactly.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

# One BLAS thread unless the caller sets one: the commands run many small
# products, which BLAS threading slows down.  numpy reads these variables
# when it loads, so they are set before the first numpy import.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__
from ._table import read_table, write_table
from .errors import MissingDataError, ParameterError, ShapeError, TvloadError
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
    read_coefficients_csv,
    write_coefficients_csv,
    write_covariance_csv,
    write_loadings_csv,
)
from .wavelet import evaluate_basis, select_resolution


def _resolve_threads(value) -> int:
    """``--threads``, or else the number of CPUs this process may run on; at least 1."""
    if value is None:
        value = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
    return max(1, value)


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


def _write_run(outdir, report, artifacts) -> None:
    """Create ``outdir``, then write each artifact (name -> writer of a path),
    ``report.json`` and the manifest; a rejected run never gets this far."""
    os.makedirs(outdir, exist_ok=True)
    for name, write in artifacts.items():
        write(os.path.join(outdir, name))
    _write_json(os.path.join(outdir, "report.json"), report)
    names = sorted([*artifacts, "report.json"])
    manifest = {"artifacts": {name: _sha256(os.path.join(outdir, name)) for name in names}}
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _write_factors_csv(path, F) -> None:
    T, r = F.shape
    write_table(path, ["t", *(f"factor_{i}" for i in range(1, r + 1))], F[:, None, :],
                rows=range(1, T + 1))


# ---------------------------------------------------------------- estimate


def cmd_estimate(args) -> int:
    if args.r is not None and args.r_max is not None:
        raise ParameterError("--r-max applies only without --r, which fixes the number of factors")
    panel = read_panel_csv(args.input)

    if args.nonstationary:
        work = scale_only(panel)
        standardization = "scale-only"
        # the lag-covariance scale T^-(2d+d') is fixed at d = d' = 1
        method = f"GeneralizedCovariance({args.k},1,1)"
        # rank selection differences the panel as read
        select_from = panel
    else:
        work = standardize(panel)
        standardization = "center-scale"
        method = "PCA"
        # selection standardizes its panel, and takes a standardized one as it is
        select_from = work
    del panel  # work carries the series ids
    # A grid too short for the basis fails here, before any factor work.
    J = args.J if args.J is not None else select_resolution(work.T)
    basis = evaluate_basis(args.family, J, work.T)

    r = args.r
    selection = None
    if r is None:
        pass_r = "pass --r to fit a chosen number of factors"
        try:
            sel = select_num_factors(select_from, args.r_max,
                                     first_difference_panel=args.nonstationary)
        except ParameterError as exc:
            raise ParameterError(f"{exc}; {pass_r}") from None
        if sel.r == 0:
            raise ParameterError(
                f"rank selection found no common factor (r_max={sel.r_max}); {pass_r}")
        if sel.r == sel.r_max:
            # only the under-penalized plateau at r_max was stable: no selection
            raise ParameterError(
                f"rank selection found only the trivial plateau at r_max={sel.r_max}; "
                f"{pass_r}")
        r = sel.r
        selection = {"r": sel.r, "r_max": sel.r_max, "plateau_width": sel.plateau_width,
                     "n_stable_intervals": len(sel.intervals)}
    if args.nonstationary:
        est = nonstationary_factors(work, r, k=args.k)
    else:
        est = pca_factors(work, r)

    fit = fit_iterative(work, est, basis)

    report = {
        "command": "estimate",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input),
            "r": int(r),
            "family": args.family,
            "J": int(J),
            "nonstationary": bool(args.nonstationary),
            "k": args.k,
        },
        "input": {
            "path": os.path.abspath(args.input),
            "sha256": _sha256(args.input),
            "T": work.T,
            "N": work.N,
            "series_ids": list(work.series_ids),
        },
        "method": method,
        "standardization": standardization,
        "selection": selection,
        "eigenvalues": [float(v) for v in est.eigenvalues],
        **_spectrum_diagnostics(est.eigenvalues, r),
        "design_gram_condition": fit.design.gram_condition,
        "iterations": fit.n_iter,
        "deltas": [float(d) for d in fit.deltas],
        "converged": fit.converged,
    }
    _write_run(args.output_dir, report, {
        "factors.csv": lambda path: _write_factors_csv(path, est.F),
        "loadings.csv": lambda path: write_loadings_csv(fit, path),
        "coefficients.csv": lambda path: write_coefficients_csv(fit, path),
        "residual_covariance.csv": lambda path: write_covariance_csv(fit, path),
    })
    print(f"estimate: r={r} J={J} family={args.family} iterations={fit.n_iter} "
          f"-> {args.output_dir}")
    return 0


def _spectrum_diagnostics(eigenvalues, r: int) -> dict:
    """The eigengap lambda_r / lambda_{r+1} and the r factors' share of the spectrum.

    Each is None where its denominator is not positive, or missing.
    """
    w = [float(v) for v in eigenvalues]

    def ratio(num, den):
        return num / den if den > 0.0 else None

    return {
        "eigengap": ratio(w[r - 1], w[r]) if r < len(w) else None,
        "factor_variance_share": ratio(math.fsum(w[:r]), math.fsum(w)),
    }


# ---------------------------------------------------------------- select-r


def cmd_select_r(args) -> int:
    panel = read_panel_csv(args.input)
    sel = select_num_factors(panel, args.r_max, first_difference_panel=args.first_difference)

    report = {
        "command": "select-r",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input),
            "r_max": sel.r_max,
            "first_difference": bool(args.first_difference),
        },
        "input": {"path": os.path.abspath(args.input), "sha256": _sha256(args.input),
                  "T": panel.T, "N": panel.N},
        "chosen_r": int(sel.r),
        # only the under-penalized plateau at r_max was stable: no real selection
        "trivial_plateau": bool(sel.r == sel.r_max),
        # a narrow chosen plateau among many stable ones is a fragile choice
        "plateau_width": sel.plateau_width,
        "n_stable_intervals": len(sel.intervals),
        "c_grid": [float(c) for c in sel.c_grid],
        "r_full_by_c": [int(x) for x in sel.r_full],
        "subsample_variance_by_c": [float(v) for v in sel.variance],
        "stability_intervals": [
            {"c_lo": float(lo), "c_hi": float(hi), "r": int(rr), "width": float(w)}
            for lo, hi, rr, w in sel.intervals
        ],
    }
    _write_run(args.output_dir, report, {
        "ic_values.csv": lambda path: write_table(
            path, ["c", "r", "ic"], sel.ic_full[:, :, None],
            [(r,) for r in range(sel.ic_full.shape[1])],
            rows=[format(c, ".17g") for c in sel.c_grid]),
    })
    print(f"select-r: chosen r={sel.r} (r_max={sel.r_max}) -> {args.output_dir}")
    return 0


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    # only this command runs sim, and through it metrics, so only it loads them
    from .sim import (default_grid, read_grid_json, run_experiment, write_detail_csv,
                      write_report_csv)

    threads = _resolve_threads(args.threads)
    cells = read_grid_json(args.input) if args.input else default_grid()
    reports = []
    for cfg, family in cells:
        reports.append(
            run_experiment(
                cfg, family=family, n_reps=args.reps, seed=args.seed,
                J=args.J, n_threads=threads,
            )
        )
    report = {
        "command": "simulate",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input) if args.input else None,
            "reps": args.reps,
            "seed": args.seed,
            "J": args.J,
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
                "failures": [[i, msg] for i, msg in rep.failures],
            }
            for rep in reports
        ],
    }
    _write_run(args.output_dir, report, {
        "report.csv": lambda path: write_report_csv(reports, path),
        "detail.csv": lambda path: write_detail_csv(reports, path),
    })
    print(f"simulate: {len(reports)} cells x {args.reps} reps -> {args.output_dir}")
    return 0


# ---------------------------------------------------------------- bootstrap


def _report_field(report, report_path, key, kind):
    """The value at a dotted ``key`` of a run report, which must be a ``kind``;
    a ``list`` must hold numbers.  A missing or mistyped key raises
    ``ParameterError`` naming the file and the key."""
    value = report
    for name in key.split("."):
        if not isinstance(value, dict) or name not in value:
            raise ParameterError(f"{report_path}: no {key!r} key")
        value = value[name]
    # bool is an int subclass: true is no integer, and 1 is no bool
    if kind is list:
        ok = isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    else:
        ok = isinstance(value, kind) and isinstance(value, bool) == (kind is bool)
    if not ok:
        expected = "a list of numbers" if kind is list else f"a {kind.__name__}"
        raise ParameterError(f"{report_path}: {key!r} is not {expected}")
    return value


def _reload_estimate(run_dir):
    """Rebuild the factors and the fit, with its panel and basis, from an estimate
    run directory; returns (factors, fit, report)."""
    report_path = os.path.join(run_dir, "report.json")
    if not os.path.exists(report_path):
        raise ParameterError(f"not an estimate run directory (no report.json): {run_dir}")
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    command = report.get("command") if isinstance(report, dict) else None
    if command != "estimate":
        raise ParameterError(f"{report_path} was written by {command!r}, need an estimate run")
    field = functools.partial(_report_field, report, report_path)
    family, J, r, k = (field("parameters.family", str), field("parameters.J", int),
                       field("parameters.r", int), field("parameters.k", int))
    nonstationary = field("parameters.nonstationary", bool)
    input_path, input_sha256 = field("input.path", str), field("input.sha256", str)
    eigenvalues = field("eigenvalues", list)
    deltas = field("deltas", list)
    if not os.path.exists(input_path):
        raise MissingDataError(f"original input panel not found: {input_path}")
    if _sha256(input_path) != input_sha256:
        raise ParameterError(f"input panel changed since the estimate run: {input_path}")

    work = (scale_only if nonstationary else standardize)(read_panel_csv(input_path))
    basis = evaluate_basis(family, J, work.T)
    factors_path = os.path.join(run_dir, "factors.csv")
    F = read_table(factors_path)[2]
    if F.shape != (work.T, r):
        raise ShapeError(f"{factors_path}: a table of shape {F.shape}, expected {(work.T, r)}")
    est = FactorEstimate(
        F=F,
        eigenvalues=np.array(eigenvalues),
        method="lag_covariance" if nonstationary else "pca",
        r=r,
        params={"k": k} if nonstationary else {},
    )
    beta = read_coefficients_csv(
        os.path.join(run_dir, "coefficients.csv"), work.series_ids, basis, r
    )
    fit = GlsFit(beta, build_design(est, basis), work, deltas)
    return est, fit, report


def cmd_bootstrap(args) -> int:
    # only this command runs bootstrap, so only it loads it
    from .bootstrap import residual_bootstrap, write_bands_csv, write_plot_csv

    threads = _resolve_threads(args.threads)
    est, fit, est_report = _reload_estimate(args.input)
    bands = residual_bootstrap(
        fit.panel, fit, est, fit.design.basis,
        B=args.B, level=args.level, seed=args.seed,
        n_threads=threads,
    )
    report = {
        "command": "bootstrap",
        "version": __version__,
        "parameters": {
            "input": os.path.abspath(args.input),
            "B": args.B,
            "level": args.level,
            "seed": args.seed,
        },
        "estimate_run": {
            "path": os.path.abspath(args.input),
            "input_sha256": est_report["input"]["sha256"],
        },
        "n_failed": len(bands.failed),
        "failed": [[b, msg] for b, msg in bands.failed],
    }
    artifacts = {"bands.csv": lambda path: write_bands_csv(bands, fit, path)}
    for sid in fit.panel.series_ids:
        for k in range(1, est.r + 1):
            artifacts[f"plot_{sid}_factor{k}.csv"] = functools.partial(
                write_plot_csv, bands, fit, sid, k)
    _write_run(args.output_dir, report, artifacts)
    print(f"bootstrap: B={args.B} level={args.level} failed={len(bands.failed)} "
          f"-> {args.output_dir}")
    return 0


# ---------------------------------------------------------------- wiring

# Every flag is defined once, and every command lists the flags it reads, so
# a flag that a command would ignore is a usage error there.
_FLAGS = {
    "--input": dict(help="input file (panel CSV, grid JSON, or estimate run dir)"),
    "--output-dir": dict(help="artifact directory, created once the run has succeeded"),
    "--seed": dict(type=int, default=0),
    "--threads": dict(type=int, default=None,
                      help="worker threads (default: the CPUs this process may use)"),
    "--family": dict(choices=["haar", "d8"], default="haar"),
    "--J": dict(type=int, default=None, help="resolution override"),
    "--nonstationary": dict(action="store_true", help="integrated factors: lag-covariance "
                            "extraction, rank selection on the differenced panel"),
    "--k": dict(type=int, default=1),
    "--first-difference": dict(action="store_true"),
    "--r": dict(type=int, default=None),
    "--r-max": dict(type=int, default=None),
    "--B": dict(type=int, default=100),
    "--level": dict(type=float, default=0.95),
    "--reps": dict(type=int, default=100, help="replications per cell"),
}

# command: (handler, help, whether --input is required, flags it reads)
_COMMANDS = {
    "estimate": (cmd_estimate, "extract factors and fit loading curves", True,
                 "--input --output-dir --family --J --nonstationary --k --r --r-max"),
    "select-r": (cmd_select_r, "choose the number of factors", True,
                 "--input --output-dir --r-max --first-difference"),
    "simulate": (cmd_simulate, "run the Monte Carlo experiment grid", False,
                 "--input --output-dir --seed --threads --J --reps"),
    "bootstrap": (cmd_bootstrap, "confidence bands from an estimate run", True,
                  "--input --output-dir --seed --threads --B --level"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvload",
        description="Factor models with smoothly time-varying loadings.",
    )
    parser.add_argument("--version", action="version", version=f"tvload {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, needs_input, flags) in _COMMANDS.items():
        # no abbreviations: select-r would read --r as --r-max, simulate as --reps
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func, needs_input=needs_input,
                       output_dir="tvload_" + name.replace("-", "_"))
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
