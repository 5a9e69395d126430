"""Two-stage estimation of factor models with smoothly time-varying loadings.

Stage one extracts common factors from a standardized panel (principal
components for stationary data, lag-covariance eigenvectors for integrated
data).  Stage two treats the factors as observed and fits each series'
loading path on a periodized wavelet basis by two-pass feasible GLS.
Simulation, bootstrap banding and a small CLI sit on top.

The public names below load their module on first use (PEP 562), so
``import tvload`` loads no numpy and a command loads only the modules it
runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ["TvloadError", "ParameterError", "ShapeError", "MissingDataError",
                   "DegenerateSeriesError", "NumericError", "RankDeficiencyError",
                   "RegistryError"],
        "wavelet": ["WaveletFamily", "WaveletBasis", "select_resolution", "haar_eval",
                    "evaluate_basis"],
        "factors": ["Panel", "make_panel", "read_panel_csv", "write_panel_csv", "scale_only",
                    "standardize", "first_difference", "FactorEstimate", "pca_factors",
                    "restore_level", "generalized_covariance", "nonstationary_factors",
                    "FactorSelection", "select_num_factors"],
        "gls": ["GlsFit", "build_design", "gls_step", "fit_iterative"],
        "metrics": ["procrustes_rotation", "r2_factors", "loading_mse", "median_path"],
        "bootstrap": ["BandSet", "residual_bootstrap", "write_bands_csv", "write_plot_csv"],
        "sim": ["ToeplitzCov", "DiagonalUniformCov", "DgpConfig", "SimulatedDataset",
                "ExperimentReport", "gen_noise_cov", "loading_library", "default_loading_spec",
                "simulate_dgp", "run_experiment", "default_grid", "read_grid_json",
                "write_report_csv", "write_detail_csv"],
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
