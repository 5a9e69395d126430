"""Exception taxonomy shared across the package."""

import os
from contextlib import contextmanager


class TvloadError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(TvloadError, ValueError):
    """A scalar argument or configuration field is out of range."""


class ShapeError(TvloadError, ValueError):
    """Array dimensions are inconsistent with the operation's contract."""


class MissingDataError(TvloadError, ValueError):
    """Input data contains missing cells; the offending positions are reported."""


class DegenerateSeriesError(TvloadError, ValueError):
    """A series has zero variance and cannot be standardized."""


class NumericError(TvloadError, RuntimeError):
    """A numerical routine failed (eigensolver, non-PD covariance, ...)."""


class RankDeficiencyError(NumericError):
    """A regression design is rank deficient; offending columns are reported."""


class RegistryError(TvloadError, KeyError):
    """An unknown name was requested from a function registry."""

    # a KeyError's str is the repr of its key; this one's is its message
    __str__ = Exception.__str__


@contextmanager
def naming_file(path):
    """Name ``path`` as the ``filename`` of a ``UnicodeDecodeError`` raised inside,
    as an ``OSError`` names its file, so that a report of the error can say
    which file is not UTF-8 text."""
    try:
        yield
    except UnicodeDecodeError as exc:
        exc.filename = os.fspath(path)
        raise
