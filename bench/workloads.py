"""The benchmark's workloads: the inputs each one generates, the tvload commands
it runs, and the checks of their outputs.

Every check is computed here, apart from the program: the Haar basis, the
principal components, the least-squares fits and the bootstrap bands are
rebuilt in numpy from the generated inputs and the documented rules.  Only
``simulate-grid`` calls into tvload, for the panels ``simulate_dgp`` draws.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------- numpy references


def resolution(T: int) -> int:
    """Smallest J with 4^J >= T (the documented resolution rule)."""
    J = 0
    while 4**J < T:
        J += 1
    return J


def haar_basis(J: int, T: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Periodic Haar design on u = t/T: the constant, then 2^(j/2) psi(2^j u - k)."""
    u = np.arange(1, T + 1) / T
    cols, index = [np.ones(T)], [(-1, 0)]
    for j in range(J):
        for k in range(2**j):
            x = 2.0**j * u - k
            psi = ((x > 0) & (x <= 0.5)).astype(float) - ((x > 0.5) & (x <= 1)).astype(float)
            cols.append(2.0 ** (j / 2) * psi)
            index.append((j, k))
    return np.column_stack(cols), index


def design(B: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Factor-times-basis regressors [B * F_1 | ... | B * F_r]."""
    return np.hstack([B * F[:, [i]] for i in range(F.shape[1])])


def loading_field(B: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Lambda[t, m, i] = sum_c B[t, c] beta[m, i, c]."""
    return np.einsum("tc,mic->tmi", B, beta)


def standardized(Y: np.ndarray) -> np.ndarray:
    return (Y - Y.mean(axis=0)) / Y.std(axis=0, ddof=1)


def rel_err(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _signs_by_largest(X: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(X), axis=0)
    return np.where(X[lead, np.arange(X.shape[1])] < 0, -1.0, 1.0)


def level_factors(Y: np.ndarray, theta, r: int) -> np.ndarray:
    """Factor estimate of the Monte Carlo harness, from its documented rule.

    Stationary cells: principal-component eigenvectors V of the standardized
    panel, applied to the scaled uncentered panel, F = (Y / sd) V / sqrt(N lambda)
    with lambda the eigenvalues of Z'Z / (NT).  Random-walk cells: the leading
    eigenvectors of the symmetrized lag-1 covariance T^-3 sum Z_{t-1} Z_t' of the
    scale-only panel, F = (Y / sd) L.  Signs make each score column's (or
    eigenvector's) largest entry positive.
    """
    T, N = Y.shape
    sd = Y.std(axis=0, ddof=1)
    if max(theta) < 1.0:
        Z = (Y - Y.mean(axis=0)) / sd
        w, V = np.linalg.eigh(Z.T @ Z / (N * T))
        w, V = w[::-1][:r], V[:, ::-1][:, :r]
        scale = 1.0 / np.sqrt(N * w)
        return (Y / sd) @ V * scale * _signs_by_largest(Z @ V * scale)
    X = Y / sd
    Zc = X - X.mean(axis=0)
    C = Zc[:-1].T @ Zc[1:] * float(T) ** -3
    w, V = np.linalg.eigh(0.5 * (C + C.T))
    L = V[:, ::-1][:, :r]
    return X @ (L * _signs_by_largest(L))


def procrustes(F_ref: np.ndarray, F_est: np.ndarray) -> np.ndarray:
    """Rotate F_est by the correlation Procrustes solution, rescale to F_ref's sd."""
    Zr = (F_ref - F_ref.mean(axis=0)) / F_ref.std(axis=0, ddof=1)
    Ze = (F_est - F_est.mean(axis=0)) / F_est.std(axis=0, ddof=1)
    U, _, Vt = np.linalg.svd(Zr.T @ Ze / (F_ref.shape[0] - 1))
    F_rot = F_est @ (Vt.T @ U.T)
    return F_rot * (F_ref.std(axis=0, ddof=1) / F_rot.std(axis=0, ddof=1))


def trace_r2(F_ref: np.ndarray, F_est: np.ndarray) -> float:
    Q, _ = np.linalg.qr(F_est)
    P_ref = Q @ (Q.T @ F_ref)
    return float(np.sum(F_ref * P_ref) / np.sum(F_ref * F_ref))


# ---------------------------------------------------------------- inputs


def factor_panel(rng: np.random.Generator, N: int, T: int, r: int) -> np.ndarray:
    """Panel of a stationary r-factor model with smooth loadings and noise.

    Factors are AR(1) with coefficients in [0.2, 0.6] after a 100-step burn-in;
    loadings a + b cos(pi w u) vary mildly around a common positive level;
    noise is independent with standard deviations in [0.5, 1].
    """
    theta = rng.uniform(0.2, 0.6, size=r)
    shocks = rng.normal(size=(T + 100, r))
    F = np.empty_like(shocks)
    F[0] = shocks[0]
    for t in range(1, T + 100):
        F[t] = theta * F[t - 1] + shocks[t]
    F = F[100:]
    u = np.arange(1, T + 1) / T
    a = rng.normal(1.0, 0.5, size=(N, r))
    b = rng.uniform(-0.5, 0.5, size=(N, r))
    w = rng.uniform(0.5, 2.0, size=(N, r))
    Lam = a + b * np.cos(np.pi * w * u[:, None, None])
    noise = rng.normal(size=(T, N)) * rng.uniform(0.5, 1.0, size=N)
    return np.einsum("tmi,ti->tm", Lam, F) + noise


def series_ids(N: int) -> list[str]:
    return [f"s{m + 1:03d}" for m in range(N)]


def write_panel(path: Path, Y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["t", *series_ids(Y.shape[1])]) + "\n")
        for t, row in enumerate(Y):
            fh.write(f"{t + 1}," + ",".join(format(v, ".17g") for v in row) + "\n")


# ---------------------------------------------------------------- artifacts


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(outdir: Path, skip=()) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(outdir.iterdir()) if p.name not in skip}


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_manifest(outdir: Path) -> list[str]:
    manifest = json.loads((outdir / "manifest.json").read_text())["artifacts"]
    return [f"manifest hash of {name} does not match the file"
            for name, digest in manifest.items() if sha256(outdir / name) != digest]


def read_factors(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def read_coefficients(path: Path, ids, index, r: int) -> np.ndarray:
    pos = {sid: m for m, sid in enumerate(ids)}
    col = {jk: c for c, jk in enumerate(index)}
    beta = np.full((len(ids), r, len(index)), np.nan)
    for sid, factor, j, k, value in read_rows(path)[1]:
        beta[pos[sid], int(factor) - 1, col[(int(j), int(k))]] = float(value)
    return beta


def read_long_field(path: Path, value_cols, T: int, N: int, r: int) -> np.ndarray:
    """Columns of a t,series,factor,... table in t-major order, shaped (T, N, r, k)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2, *value_cols), ndmin=2)
    if data.shape[0] != T * N * r:
        raise ValueError(f"{path.name}: {data.shape[0]} rows, expected {T * N * r}")
    grid = np.stack(np.meshgrid(np.arange(1, T + 1), np.arange(N), np.arange(1, r + 1),
                                indexing="ij"), axis=-1).reshape(-1, 3)
    if not (np.array_equal(data[:, 0], grid[:, 0]) and np.array_equal(data[:, 1], grid[:, 2])):
        raise ValueError(f"{path.name}: rows are not in (t, series, factor) order")
    return data[:, 2:].reshape(T, N, r, len(value_cols))


def check_series_column(path: Path, ids, r: int) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        seen = [next(reader)[1] for _ in range(len(ids) * r)]
    expected = [sid for sid in ids for _ in range(r)]
    return [] if seen == expected else [f"{path.name}: series column out of order"]


# ---------------------------------------------------------------- workloads


class Workload:
    """One benchmark workload: inputs from a seed, one CLI command, its checks."""

    name = ""
    # artifacts that may differ between repeated identical commands
    volatile: tuple[str, ...] = ()

    def __init__(self, seed: int, inputs: Path, root: Path):
        self.seed = seed
        self.inputs = inputs
        self.root = root

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        """Arguments of the program process that ends the set-up."""
        return ["--version"]

    def check_setup(self) -> list[str]:
        return []

    def command_args(self, outdir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, outdir: Path) -> list[str]:
        """Problems found in one command's outputs (empty when all checks pass)."""
        raise NotImplementedError


class SimulateGrid(Workload):
    name = "simulate-grid"
    reps = 12
    # cells 0 and 1 share the design and differ only in the wavelet family
    cells = (
        {"N": 20, "T": 512, "r": 2, "theta": [0.5, 0.5], "family": "haar",
         "noise_cov": {"kind": "diag"}},
        {"N": 20, "T": 512, "r": 2, "theta": [0.5, 0.5], "family": "d8",
         "noise_cov": {"kind": "diag"}},
        {"N": 20, "T": 1024, "r": 2, "theta": [1.0, 1.0], "family": "haar",
         "noise_cov": {"kind": "toeplitz", "gamma": 0.5}},
        {"N": 20, "T": 2048, "r": 2, "theta": [0.0, 0.0], "family": "d8",
         "noise_cov": {"kind": "toeplitz", "gamma": 0.7}},
        {"N": 20, "T": 2048, "r": 2, "theta": [1.0, 1.0], "family": "haar",
         "noise_cov": {"kind": "diag"}},
    )

    @property
    def grid(self) -> Path:
        return self.inputs / "grid.json"

    def make_inputs(self) -> None:
        self.grid.write_text(json.dumps(list(self.cells), indent=2) + "\n")

    def command_args(self, outdir: Path) -> list[str]:
        return ["simulate", "--input", str(self.grid), "--output-dir", str(outdir),
                "--reps", str(self.reps), "--seed", str(self.seed)]

    def check(self, outdir: Path) -> list[str]:
        problems = check_manifest(outdir)
        report = json.loads((outdir / "report.json").read_text())
        if len(report["cells"]) != len(self.cells):
            return problems + [f"{len(report['cells'])} cells reported, expected {len(self.cells)}"]
        problems += [f"cell {c}: {cell['n_failures']} failed replications"
                     for c, cell in enumerate(report["cells"]) if cell["n_failures"]]
        _, rows = read_rows(outdir / "detail.csv")
        if len(rows) != len(self.cells) * self.reps:
            return problems + [f"detail.csv has {len(rows)} rows, expected "
                               f"{len(self.cells) * self.reps}"]
        by_cell = [rows[c * self.reps:(c + 1) * self.reps] for c in range(len(self.cells))]
        for c, (cell, cell_rows) in enumerate(zip(self.cells, by_cell)):
            if [(int(x[1]), x[4], int(x[5])) for x in cell_rows] != [
                (cell["T"], cell["family"], rep) for rep in range(1, self.reps + 1)
            ]:
                problems.append(f"cell {c}: detail rows do not list replications 1..{self.reps}")
                continue
            r2 = np.array([float(x[6]) for x in cell_rows])
            if not np.all((r2 > 0.0) & (r2 <= 1.0)):
                problems.append(f"cell {c}: R^2 outside (0, 1]: {r2.min()}..{r2.max()}")
            if cell["family"] == "haar":
                rep = 1 + self.seed % self.reps
                row = cell_rows[rep - 1]
                problems += self._recompute(c, cell, rep, float(row[6]), float(row[7]))
        if [x[6] for x in by_cell[0]] != [x[6] for x in by_cell[1]]:
            problems.append("paired haar and d8 cells report different R^2")
        return problems

    def _recompute(self, c: int, cell: dict, rep: int, r2: float, mse: float) -> list[str]:
        """Replication ``rep`` of a Haar cell, fitted here from simulate_dgp's panel."""
        sys.path.insert(0, str(self.root / "src"))
        try:
            from tvload.sim import DgpConfig, DiagonalUniformCov, ToeplitzCov, simulate_dgp
        finally:
            sys.path.pop(0)
        noise = cell["noise_cov"]
        cov = (ToeplitzCov(gamma=noise["gamma"]) if noise["kind"] == "toeplitz"
               else DiagonalUniformCov())
        ds = simulate_dgp(DgpConfig(N=cell["N"], T=cell["T"], r=cell["r"],
                                    theta=tuple(cell["theta"]), noise_cov=cov,
                                    seed=(self.seed, rep)))
        F = procrustes(ds.F, level_factors(ds.Y, cell["theta"], cell["r"]))
        B, _ = haar_basis(resolution(cell["T"]), cell["T"])
        X = design(B, F)
        coef = np.linalg.lstsq(X, ds.Y, rcond=None)[0]
        beta = coef.T.reshape(cell["N"], cell["r"], B.shape[1])
        diff = loading_field(B, beta) - ds.Lambda
        mse_ref = float(np.sqrt((diff**2).sum(axis=(1, 2))).sum() / (cell["N"] * cell["T"]))
        r2_ref = trace_r2(ds.F, F)
        problems = []
        if abs(r2 - r2_ref) > 1e-9 * r2_ref:
            problems.append(f"cell {c} rep {rep}: R^2 {r2!r} vs recomputed {r2_ref!r}")
        if abs(mse - mse_ref) > 1e-8 * mse_ref:
            problems.append(f"cell {c} rep {rep}: loading error {mse!r} vs recomputed {mse_ref!r}")
        return problems


class _PanelWorkload(Workload):
    """A workload whose input is a panel CSV drawn from ``factor_panel``."""

    N = T = r = 0

    @property
    def panel_csv(self) -> Path:
        return self.inputs / "panel.csv"

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, self.N, self.T, self.r])
        self.Y = factor_panel(rng, self.N, self.T, self.r)
        write_panel(self.panel_csv, self.Y)

    def check_fit(self, run: Path) -> tuple[list[str], dict]:
        """Check an estimate run's artifacts; return problems and the fitted pieces."""
        problems = check_manifest(run)
        report = json.loads((run / "report.json").read_text())
        T, N = self.Y.shape
        r = report["parameters"]["r"]
        J = report["parameters"]["J"]
        if r != self.r:
            problems.append(f"estimate chose r={r}, the panel has rank {self.r}")
        if J != resolution(T):
            problems.append(f"estimate used J={J}, the resolution rule gives {resolution(T)}")
        if problems:
            return problems, {}
        ids = series_ids(N)
        Z = standardized(self.Y)
        F = read_factors(run / "factors.csv")
        if F.shape != (T, r):
            return [f"factors.csv has shape {F.shape}, expected {(T, r)}"], {}
        gram_err = float(np.max(np.abs(F.T @ F / T - np.eye(r))))
        if gram_err > 1e-9:
            problems.append(f"factors.csv: F'F/T differs from I_r by {gram_err:.3g}")
        _, V = np.linalg.eigh(Z.T @ Z)
        Q, _ = np.linalg.qr(Z @ V[:, ::-1][:, :r])
        span_err = float(np.linalg.norm(F - Q @ (Q.T @ F)) / np.linalg.norm(F))
        if span_err > 1e-8:
            problems.append(f"factors.csv leaves the top-{r} principal subspace by {span_err:.3g}")

        B, index = haar_basis(J, T)
        beta = read_coefficients(run / "coefficients.csv", ids, index, r)
        coef = np.linalg.lstsq(design(B, F), Z, rcond=None)[0]
        beta_ref = coef.T.reshape(N, r, B.shape[1])
        err = rel_err(beta, beta_ref)
        if not err <= 1e-8:
            problems.append(f"coefficients.csv differs from least squares by {err:.3g}")
        Lam = loading_field(B, beta)
        gamma_rows = read_rows(run / "residual_covariance.csv")[1]
        if [row[0] for row in gamma_rows] != ids:
            problems.append("residual_covariance.csv: series labels out of order")
        E = Z - np.einsum("tmi,ti->tm", Lam, F)
        gamma = np.array([[float(v) for v in row[1:]] for row in gamma_rows])
        err = rel_err(gamma, E.T @ E / T)
        if not err <= 1e-9:
            problems.append(f"residual_covariance.csv differs from the residuals by {err:.3g}")
        return problems, {"Z": Z, "F": F, "B": B, "beta": beta, "Lambda": Lam}


class EstimateWide(_PanelWorkload):
    name = "estimate-wide"
    N, T, r = 100, 2048, 3
    # report.json carries wall-clock timings, and manifest.json hashes it
    volatile = ("report.json", "manifest.json")

    def command_args(self, outdir: Path) -> list[str]:
        return ["estimate", "--input", str(self.panel_csv), "--output-dir", str(outdir),
                "--family", "haar"]

    def check(self, outdir: Path) -> list[str]:
        problems, fit = self.check_fit(outdir)
        if not fit:
            return problems
        report = json.loads((outdir / "report.json").read_text())
        if (report["selection"] or {}).get("r") != self.r:
            problems.append(f"rank selection did not report r={self.r}: {report['selection']}")
        T, N, r = self.T, self.N, self.r
        problems += check_series_column(outdir / "loadings.csv", series_ids(N), r)
        Lam = read_long_field(outdir / "loadings.csv", (3,), T, N, r)[..., 0]
        err = rel_err(Lam, fit["Lambda"])
        if not err <= 1e-12:
            problems.append(f"loadings.csv differs from the coefficients by {err:.3g}")
        return problems


class BootstrapBands(_PanelWorkload):
    name = "bootstrap-bands"
    N, T, r = 20, 1024, 2
    draws, level = 200, 0.95

    @property
    def estimate_run(self) -> Path:
        return self.inputs / "estimate"

    def setup_args(self) -> list[str]:
        return ["estimate", "--input", str(self.panel_csv), "--output-dir",
                str(self.estimate_run), "--family", "haar", "--r", str(self.r)]

    def check_setup(self) -> list[str]:
        problems, self.fit = self.check_fit(self.estimate_run)
        return problems

    def command_args(self, outdir: Path) -> list[str]:
        return ["bootstrap", "--input", str(self.estimate_run), "--output-dir", str(outdir),
                "--B", str(self.draws), "--seed", str(self.seed)]

    def reference_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Bands by the documented per-draw rule, refitted by least squares.

        Draw b resamples grid rows of the residuals with ``default_rng([seed, b])``
        and adds them to the fitted common component; the bands are the
        linear-interpolation quantiles of the refitted loading fields.
        """
        Z, F, B, Lam = (self.fit[k] for k in ("Z", "F", "B", "Lambda"))
        T, N, r = Lam.shape
        X_hat = np.einsum("tmi,ti->tm", Lam, F)
        E = Z - X_hat
        X = design(B, F)
        H = np.linalg.solve(X.T @ X, X.T)
        stack = np.empty((self.draws, T, N, r))
        for b in range(1, self.draws + 1):
            idx = np.random.default_rng([self.seed, b]).integers(0, T, size=T)
            beta = (H @ (X_hat + E[idx])).T.reshape(N, r, B.shape[1])
            stack[b - 1] = loading_field(B, beta)
        lo, hi = np.quantile(stack, [(1 - self.level) / 2, (1 + self.level) / 2], axis=0,
                             method="linear")
        return lo, hi

    def check(self, outdir: Path) -> list[str]:
        problems = check_manifest(outdir)
        report = json.loads((outdir / "report.json").read_text())
        if report["n_failed"] or report["failed"]:
            problems.append(f"{report['n_failed']} bootstrap draws failed")
        T, N, r = self.T, self.N, self.r
        ids = series_ids(N)
        problems += check_series_column(outdir / "bands.csv", ids, r)
        table = read_long_field(outdir / "bands.csv", (3, 4, 5, 6), T, N, r)
        lower, point, upper, level = np.moveaxis(table, -1, 0)
        if np.any(lower > upper):
            problems.append(f"bands.csv: lower > upper at {int(np.sum(lower > upper))} points")
        if np.any(level != self.level):
            problems.append("bands.csv: level column differs from --level")
        err = rel_err(point, self.fit["Lambda"])
        if not err <= 1e-12:
            problems.append(f"bands.csv: point column differs from the fit by {err:.3g}")
        lo, hi = self.reference_bands()
        scale = float(np.max(np.abs(self.fit["Lambda"])))
        err = max(float(np.max(np.abs(lower - lo))), float(np.max(np.abs(upper - hi)))) / scale
        if not err <= 1e-9:
            problems.append(f"bands differ from the recomputed bootstrap by {err:.3g}")
        for path in sorted(outdir.glob("plot_*.csv")):
            match = re.fullmatch(r"plot_(.+)_factor(\d+)\.csv", path.name)
            if match is None or match[1] not in ids or not 1 <= int(match[2]) <= r:
                problems.append(f"{path.name}: not a curve of the fit")
                continue
            m, i = ids.index(match[1]), int(match[2]) - 1
            plot = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            want = np.column_stack([np.arange(1, T + 1), point[:, m, i],
                                    lower[:, m, i], upper[:, m, i]])
            if plot.shape != want.shape or not np.array_equal(plot, want):
                problems.append(f"{path.name}: not a slice of bands.csv")
        return problems


WORKLOADS = {w.name: w for w in (SimulateGrid, EstimateWide, BootstrapBands)}
