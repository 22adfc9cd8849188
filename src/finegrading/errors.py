"""Shared exception types.

Every failure that a caller can usefully react to raises a subclass of
:class:`FineGradingError` with a message naming the offending object; bare
``AssertionError`` is reserved for internal consistency defects.  A message
that quotes input (scalar text, a table key) quotes at most its first
characters, through :func:`_quote`, so hostile input is not echoed in full.
"""


def _quote(obj):
    """repr(obj) cut to 40 characters, "..." marking a cut."""
    text = repr(obj)
    return text if len(text) <= 40 else text[:40] + "..."


class FineGradingError(Exception):
    """Base class for all package errors."""


class ScalarError(FineGradingError):
    """Arithmetic error in the exact scalar field (division by zero, pole, parse)."""


class GroupError(FineGradingError):
    """Malformed grading-group data (literal syntax, coordinate arity, order)."""


class LinAlgError(FineGradingError):
    """Exact linear algebra failure (inconsistent system, insufficient eigenvalues)."""


class AlgebraError(FineGradingError):
    """Structure-constant algebra violation (parity, axioms, bad homomorphism data)."""


class CliffordError(FineGradingError):
    """Quadratic-space/Clifford failure (unsupported Gram data, no matching case)."""


class GradingError(FineGradingError):
    """Grading verification failure (degree additivity, basis mismatch)."""
