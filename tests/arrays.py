"""Array forms of the float records, for tests that compute with numpy.

The filter belief is two float tuples (``EstimatorState(m, p)``, ``p`` the
10 distinct covariance entries row by row from the diagonal) and a
curvature report keeps its 2x2 matrix as ``entries``; these helpers convert
between those and arrays. :func:`belief` refuses a covariance that is not
exactly symmetric, since only one triangle is kept.
"""

import numpy as np

from asymloc.filters import EstimatorState

# where each of the 16 covariance entries sits among the 10 distinct ones
_UPPER_INDEX = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])


def belief(mean, cov) -> EstimatorState:
    """The state with mean ``mean`` (4,) and covariance ``cov`` (4, 4)."""
    m = np.asarray(mean, dtype=float)
    if m.shape != (4,):
        raise ValueError(f"mean must have shape (4,), got {m.shape}")
    p = np.asarray(cov, dtype=float)
    if p.shape != (4, 4) or not np.array_equal(p, p.T, equal_nan=True):
        raise ValueError(f"cov must be exactly symmetric with shape (4, 4), got {p.shape}")
    return EstimatorState(tuple(m.tolist()), tuple(p[np.triu_indices(4)].tolist()))


def mean_of(state: EstimatorState) -> np.ndarray:
    return np.array(state.m)


def cov_of(state: EstimatorState) -> np.ndarray:
    return np.array(state.p)[_UPPER_INDEX]


def matrix_of(report) -> np.ndarray:
    """A curvature report's ``[[a, b], [b, c]]`` from its ``entries``."""
    a, b, c = report.entries
    return np.array([[a, b], [b, c]])
