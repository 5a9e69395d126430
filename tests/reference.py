"""Dense references that the tests compare the package against.

The package holds a loading field once per run of its basis and never forms
the common component from a built field; these two build both whole.
"""

import numpy as np

from tvload.gls import loading_rows
from tvload.wavelet import expand_runs


def loadings_from_coeffs(beta, basis):
    """Every loading curve on the grid, T x N x r: ``loading_rows`` spread over the grid."""
    return expand_runs(loading_rows(beta, basis), basis.run_lengths)


def common_component(Lambda, F):
    """The common part of a T x N x r field on T x r factors: X[t, m] = Lambda[t, m] . F[t]."""
    return np.matmul(Lambda, F[:, :, None])[:, :, 0]
