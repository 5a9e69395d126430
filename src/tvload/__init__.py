"""Two-stage estimation of factor models with smoothly time-varying loadings.

Stage one extracts common factors from a standardized panel (principal
components for stationary data, lag-covariance eigenvectors for integrated
data).  Stage two treats the factors as observed and fits each series'
loading path on a periodized wavelet basis by two-pass feasible GLS.
Simulation, bootstrap banding and a small CLI sit on top.
"""

from .bootstrap import BandSet, residual_bootstrap, write_bands_csv, write_plot_csv
from .errors import (
    DegenerateSeriesError,
    MissingDataError,
    NumericError,
    ParameterError,
    RankDeficiencyError,
    RegistryError,
    ShapeError,
    TvloadError,
)
from .factors import (
    FactorEstimate,
    FactorSelection,
    Panel,
    first_difference,
    generalized_covariance,
    make_panel,
    nonstationary_factors,
    pca_factors,
    read_panel_csv,
    restore_level,
    scale_only,
    select_num_factors,
    standardize,
    write_panel_csv,
)
from .gls import (
    GlsFit,
    build_design,
    common_component,
    fit_iterative,
    gls_step,
    loadings_from_coeffs,
)
from .metrics import loading_mse, median_path, procrustes_rotation, r2_factors
from .sim import (
    DgpConfig,
    DiagonalUniformCov,
    ExperimentReport,
    SimulatedDataset,
    ToeplitzCov,
    default_grid,
    default_loading_spec,
    gen_noise_cov,
    loading_library,
    read_grid_json,
    run_experiment,
    simulate_dgp,
    write_detail_csv,
    write_report_csv,
)
from .wavelet import (
    WaveletBasis,
    WaveletFamily,
    evaluate_basis,
    haar_eval,
    select_resolution,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TvloadError",
    "ParameterError",
    "ShapeError",
    "MissingDataError",
    "DegenerateSeriesError",
    "NumericError",
    "RankDeficiencyError",
    "RegistryError",
    # wavelet
    "WaveletFamily",
    "WaveletBasis",
    "select_resolution",
    "haar_eval",
    "evaluate_basis",
    # panel + factors
    "Panel",
    "make_panel",
    "read_panel_csv",
    "write_panel_csv",
    "scale_only",
    "standardize",
    "first_difference",
    "FactorEstimate",
    "pca_factors",
    "restore_level",
    "generalized_covariance",
    "nonstationary_factors",
    "FactorSelection",
    "select_num_factors",
    # gls
    "GlsFit",
    "build_design",
    "gls_step",
    "fit_iterative",
    "loadings_from_coeffs",
    "common_component",
    # metrics
    "procrustes_rotation",
    "r2_factors",
    "loading_mse",
    "median_path",
    # bootstrap
    "BandSet",
    "residual_bootstrap",
    "write_bands_csv",
    "write_plot_csv",
    # simulation
    "ToeplitzCov",
    "DiagonalUniformCov",
    "DgpConfig",
    "SimulatedDataset",
    "ExperimentReport",
    "gen_noise_cov",
    "loading_library",
    "default_loading_spec",
    "simulate_dgp",
    "run_experiment",
    "default_grid",
    "read_grid_json",
    "write_report_csv",
    "write_detail_csv",
]
