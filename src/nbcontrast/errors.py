"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: validation problems exit 2, data
problems exit 3, missing upstream artifacts exit 4.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """A configuration or argument violates its invariants."""


class DataError(Exception):
    """An input file or record is malformed or inconsistent."""


class DependencyError(Exception):
    """A required upstream artifact is missing."""
