"""Acceptance gate: ten end-to-end criteria at frozen tolerances.

Every test prints one ``ACCEPTANCE <k> PASS/FAIL: ...`` line before its
assertions; run with ``-s`` to see the PASS lines (FAIL detail always
shows).  Criterion 1 fails: its targets come from a published simulation
study that is not in this repository, so the code cannot be checked against
the design behind them; its docstring records what was measured.  The
targets are asserted as given; loosening them would hide a real property of
the pipeline.
"""

import json

import numpy as np

from tvload.bootstrap import residual_bootstrap, write_bands_csv
from tvload.cli import main as cli_main
from tvload.factors import FactorEstimate, make_panel
from tvload.gls import build_design, fit_iterative, gls_step
from tvload.metrics import procrustes_rotation, r2_factors
from tvload.sim import DgpConfig, DiagonalUniformCov, default_grid, run_experiment
from tvload.wavelet import _D8_H, _cascade_values, evaluate_basis

from reference import loadings_from_coeffs

SEED = 0
THREADS = 8


def _line(k, ok, detail):
    print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}")


def _factors(F):
    F = np.asarray(F, dtype=float)
    return FactorEstimate(F=F, eigenvalues=np.zeros(F.shape[1]), method="pca")


def _noisy_bootstrap_fit(seed, T=64, N=5, r=1, J=3):
    rng = np.random.default_rng(seed)
    basis = evaluate_basis("haar", J, T)
    F = rng.normal(size=(T, r))
    beta = rng.normal(size=(N, r, 2**J))
    Lambda = loadings_from_coeffs(beta, basis)
    Y = np.einsum("tmi,ti->tm", Lambda, F) + rng.normal(size=(T, N))
    panel = make_panel(Y)
    fac = _factors(F)
    return panel, fac, basis, fit_iterative(panel, fac, basis)


# ------------------------------------------------------------ criterion 1


def test_criterion_01_monte_carlo_accuracy_windows():
    """Three-cell accuracy study, 100 replications per cell.

    Four clauses; the two R2 windows of the stationary cells hold and the
    other two clauses miss, so this test fails:

    * (N=20, T=512, theta=0, Diag, haar): mean R2 lands in its window, but
      the median loading error sits at 0.20, four times the 0.05 budget.
      Measured breakdown at the resolution rule's J=5 (32 Haar columns):

          Haar projection of the true loadings (basis bias)   0.005
          stage 2 fed the true factors (40 reps)              0.111
          stage 2 fed the extracted factors (100 reps)        0.20

      The basis bias is negligible; the oracle error is estimation noise
      from fitting 64 coefficients per series on 512 points, and it is
      already twice the budget.  Factor extraction adds the rest.  The
      level-keeping scores of the harness barely move it (0.2010 with
      centered scores, 0.2016 with level-keeping ones), so the gap is not
      the centering offset of criterion 4.
    * (N=20, T=512, theta=1, Diag, haar): the random-walk cell recovers
      factors *more* accurately (mean R2 0.9646) than its target window
      [0.675, 0.815] allows.

    The targets come from a published simulation study.  The repository
    holds only the paper's abstract, not its table, its MSE definition,
    its resolution rule or the design of its cells, so it cannot settle
    whether the budget, the metric or this pipeline's design accounts for
    the gap.  The targets stay as given until that study can be compared
    against the code.
    """
    cells = [
        ("A", DgpConfig(N=20, T=512, r=2, theta=(0.0, 0.0),
                        noise_cov=DiagonalUniformCov()), "haar", 0.9341, 0.04, 0.05),
        ("B", DgpConfig(N=30, T=1024, r=2, theta=(0.5, 0.5),
                        noise_cov=DiagonalUniformCov()), "d8", 0.8671, 0.05, None),
        ("C", DgpConfig(N=20, T=512, r=2, theta=(1.0, 1.0),
                        noise_cov=DiagonalUniformCov()), "haar", 0.7450, 0.07, None),
    ]
    checks, parts = [], []
    for name, cfg, family, target, tol, mse_cap in cells:
        rep = run_experiment(cfg, family=family, n_reps=100, seed=SEED,
                             n_threads=THREADS)
        ok_r2 = abs(rep.r2_mean - target) <= tol
        checks.append(ok_r2)
        parts.append(f"{name} R2 {rep.r2_mean:.4f} vs {target}+-{tol}"
                     f" {'ok' if ok_r2 else 'MISS'}")
        if mse_cap is not None:
            ok_mse = rep.mse_median < mse_cap
            checks.append(ok_mse)
            parts.append(f"{name} MSE {rep.mse_median:.4f} < {mse_cap}"
                         f" {'ok' if ok_mse else 'MISS'}")
    detail = "; ".join(parts)
    _line(1, all(checks), detail)
    assert all(checks), detail


# ------------------------------------------------------------ criterion 2


def test_criterion_02_mse_monotone_in_sample_length():
    """Median loading error never increases with T on the default grid."""
    groups = {}
    for cfg, family in default_grid():
        rep = run_experiment(cfg, family=family, n_reps=100, seed=SEED,
                             n_threads=THREADS)
        groups.setdefault((family, cfg.theta), {})[cfg.T] = rep.mse_median
    bad = []
    for (family, theta), by_T in sorted(groups.items()):
        seq = [by_T[T] for T in (512, 1024, 2048)]
        if not (seq[1] <= 1.1 * seq[0] and seq[2] <= 1.1 * seq[1]):
            bad.append(f"{family} theta={theta[0]}: "
                       + " -> ".join(f"{m:.4f}" for m in seq))
    _line(2, not bad, "all 6 (family, theta) groups non-increasing in T"
          if not bad else "; ".join(bad))
    assert not bad, "; ".join(bad)


# ------------------------------------------------------------ criterion 3


def test_criterion_03_dense_oracle_equivalence():
    """Kronecker-factored solve equals the dense-materialized solve."""
    rng = np.random.default_rng(SEED)
    T, N, J = 16, 3, 2
    basis = evaluate_basis("haar", J, T)
    worst = 0.0
    for _ in range(100):
        fac = _factors(rng.normal(size=(T, 1)))
        panel = make_panel(rng.normal(size=(T, N)))
        A = rng.normal(size=(N, N))
        gamma = A @ A.T + 0.5 * np.eye(N)
        d = build_design(fac, basis)
        fast = gls_step(panel, d, gamma)
        dense = gls_step(panel, d, gamma, sigma_full=np.kron(gamma, np.eye(T)))
        worst = max(worst, float(np.max(np.abs(fast - dense))))
    ok = worst <= 1e-8
    _line(3, ok, f"max |kron - dense| = {worst:.2e} over 100 instances")
    assert ok


# ------------------------------------------------------------ criterion 4


def test_criterion_04_noiseless_recovery():
    """Noiseless panels, loadings inside the basis span, 20 replications.

    Stage 2 regresses the raw, uncentered panel on the extracted factors.
    Principal components of the centered panel have zero sample mean,
    while the simulated factors keep a sample mean of order T^(-1/2), so
    centered scores leave Lambda(t) mean(F) unexplained: min R2 0.988 and
    max MSE 7e-3 at T=512.  The harness therefore extracts eigenvectors
    from the standardized panel but takes the scores of the scaled,
    uncentered panel (``restore_level``).  On a noiseless panel with
    loadings in the basis span those scores span the true factors, and the
    loading stage is exact up to rounding.
    """
    spec = {(m, 1): ("constant", {"c": 0.5 + 0.1 * m}) for m in range(1, 11)}
    cfg = DgpConfig(N=10, T=512, r=1, theta=(0.0,), loading_spec=spec,
                    noise_cov=DiagonalUniformCov(1e-30, 2e-30),
                    factor_innovation_sds=(0.9,))
    rep = run_experiment(cfg, family="haar", n_reps=20, seed=SEED,
                         n_threads=THREADS)
    min_r2 = min(r2 for _, r2, _ in rep.replications)
    max_mse = max(m for _, _, m in rep.replications)
    ok = min_r2 >= 0.999 and max_mse <= 1e-6
    detail = f"min R2 {min_r2:.4f} (>= 0.999), max MSE {max_mse:.2e} (<= 1e-6)"
    _line(4, ok, detail)
    assert ok, detail


# ------------------------------------------------------------ criterion 5


def test_criterion_05_wavelet_identities():
    checks = []
    for J, T in ((2, 8), (5, 512), (5, 1024)):
        b = evaluate_basis("haar", J, T)
        dev = float(np.max(np.abs(b.B.T @ b.B / T - np.eye(2**J))))
        checks.append((f"haar gram ({J},{T}) {dev:.1e}", dev <= 1e-12))

    b = evaluate_basis("d8", 3, 1024)
    dev = float(np.max(np.abs(b.B.T @ b.B / 1024 - np.eye(8))))
    checks.append((f"d8 gram (3,1024) {dev:.1e}", dev <= 0.01))

    x, phi = _cascade_values(12)
    pts = np.concatenate([np.random.default_rng(SEED).uniform(0.0, 7.0, 64),
                          [0.3125, 1.5]])
    pu = max(abs(sum(np.interp(q - k, x, phi, left=0.0, right=0.0) for k in range(-7, 8)) - 1.0)
             for q in pts)
    checks.append((f"d8 partition of unity {pu:.1e}", pu <= 1e-8))

    _, phi10 = _cascade_values(10)
    L = 2**10
    idx = np.arange(phi10.size)
    rhs = np.zeros_like(phi10)
    for n in range(8):
        src = 2 * idx - n * L
        inside = (src >= 0) & (src < phi10.size)
        rhs[inside] += _D8_H[n] * phi10[src[inside]]
    rhs *= np.sqrt(2.0)
    ts = float(np.max(np.abs(phi10 - rhs)))
    checks.append((f"d8 two-scale {ts:.1e}", ts <= 1e-8))

    ok = all(flag for _, flag in checks)
    _line(5, ok, "; ".join(name for name, _ in checks))
    assert ok, checks


# ------------------------------------------------------------ criterion 6


def test_criterion_06_procrustes_optimality():
    rng = np.random.default_rng(SEED)
    T, r = 64, 3
    worst_nuc, worst_gap = 0.0, np.inf
    for _ in range(100):
        F_ref = rng.normal(size=(T, r))
        F_est = F_ref @ rng.normal(size=(r, r)) + 0.3 * rng.normal(size=(T, r))
        rot = procrustes_rotation(F_ref, F_est)
        Zr = (F_ref - F_ref.mean(axis=0)) / F_ref.std(axis=0, ddof=1)
        Ze = (F_est - F_est.mean(axis=0)) / F_est.std(axis=0, ddof=1)
        C = Zr.T @ Ze / (T - 1)
        nuc = float(np.linalg.svd(C, compute_uv=False).sum())
        worst_nuc = max(worst_nuc, abs(rot.trace_value - nuc))
        # 1000 Haar-random orthogonal contenders per instance
        Q, R = np.linalg.qr(rng.normal(size=(1000, r, r)))
        Q = Q * np.sign(np.einsum("nii->ni", R))[:, None, :]
        contenders = float(np.einsum("ab,nba->n", C, Q).max())
        worst_gap = min(worst_gap, rot.trace_value - contenders)
    ok = worst_nuc <= 1e-9 and worst_gap >= -1e-9
    _line(6, ok, f"max |trace - nuclear| = {worst_nuc:.2e}; "
          f"min lead over contenders = {worst_gap:.2e}")
    assert ok


# ------------------------------------------------------------ criterion 7


def test_criterion_07_r2_span_invariance():
    rng = np.random.default_rng(SEED)
    worst, done = 0.0, 0
    while done < 100:
        F = rng.normal(size=(50, 3))
        H = rng.normal(size=(3, 3))
        if abs(np.linalg.det(H)) < 1e-2:
            continue
        done += 1
        worst = max(worst, abs(r2_factors(F, F @ H) - 1.0))
    ok = worst <= 1e-9
    _line(7, ok, f"max |R2 - 1| = {worst:.2e} over 100 invertible maps")
    assert ok


# ------------------------------------------------------------ criterion 8


def test_criterion_08_sur_collapse():
    """The GLS collapse holds against the dense oracle on every design path.

    ``gls_step`` without ``sigma_full`` is per-series least squares for any
    weight Gamma_e (x) I_T it accepts; the dense oracle whitens by the
    materialized NT x NT weight.  With a random SPD Gamma_e and r=2 the two
    agree on a dyadic Haar grid, an off-grid Haar grid and two d8 grids.  A
    serially correlated weight I_N (x) 0.6^|s-t|, which does not collapse,
    moves the dense fit well past the tolerance, so the check can fail.
    """
    rng = np.random.default_rng(SEED)
    N, r, J = 5, 2, 3
    worst, moved = 0.0, np.inf
    for family, T in (("haar", 32), ("haar", 30), ("d8", 32), ("d8", 27)):
        basis = evaluate_basis(family, J, T)
        for _ in range(10):
            d = build_design(_factors(rng.normal(size=(T, r))), basis)
            panel = make_panel(rng.normal(size=(T, N)))
            A = rng.normal(size=(N, N))
            gamma = A @ A.T + 0.5 * np.eye(N)
            fast = gls_step(panel, d, gamma)
            dense = gls_step(panel, d, gamma, sigma_full=np.kron(gamma, np.eye(T)))
            worst = max(worst, float(np.max(np.abs(fast - dense))))
        lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        serial = gls_step(panel, d, gamma, sigma_full=np.kron(np.eye(N), 0.6 ** lag))
        moved = min(moved, float(np.max(np.abs(fast - serial))))
    ok = worst <= 1e-8 and moved > 1e-2
    _line(8, ok, f"max |kron - dense| = {worst:.2e} over 40 weights on haar T=32, 30 "
          f"and d8 T=32, 27; a serially correlated weight moves it by >= {moved:.2e}")
    assert ok


# ------------------------------------------------------------ criterion 9


def test_criterion_09_bootstrap_nesting_and_determinism(tmp_path):
    panel, fac, basis, fit = _noisy_bootstrap_fit(9)
    wide = residual_bootstrap(panel, fit, fac, basis, B=40, level=0.95, seed=11)
    narrow = residual_bootstrap(panel, fit, fac, basis, B=40, level=0.90, seed=11)
    nested = bool(np.all(wide.lower <= narrow.lower)
                  and np.all(narrow.upper <= wide.upper))

    again = residual_bootstrap(panel, fit, fac, basis, B=40, level=0.95, seed=11)
    p1, p2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    write_bands_csv(wide, fit, p1)
    write_bands_csv(again, fit, p2)
    identical = p1.read_bytes() == p2.read_bytes()

    ok = nested and identical
    _line(9, ok, f"90% inside 95%: {nested}; same-seed band files identical: "
          f"{identical}")
    assert ok


# ------------------------------------------------------------ criterion 10


def test_criterion_10_cli_simulate_determinism(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"N": 5, "T": 64, "r": 2, "theta": [0.0, 0.0], "family": "haar"},
        {"N": 5, "T": 64, "r": 2, "theta": [0.5, 0.5], "family": "d8"},
    ]))
    outs = []
    for name, threads in (("runA", "2"), ("runB", "4")):
        out = tmp_path / name
        assert cli_main(["simulate", "--input", str(grid), "--output-dir",
                         str(out), "--reps", "5", "--seed", "3",
                         "--threads", threads]) == 0
        outs.append(out)
    names = ("report.csv", "detail.csv", "report.json", "manifest.json")
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in names)
    _line(10, same, "report files byte-identical across two runs "
          "(different thread counts)")
    assert same
