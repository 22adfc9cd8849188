"""Shared exception types.

Every failure that a caller can usefully react to raises a subclass of
:class:`FineGradingError` with a message naming the offending object; bare
``AssertionError`` is reserved for internal consistency defects.  A message
that quotes input (scalar text, a table key) quotes at most its first
characters, through :func:`_quote`, so hostile input is not echoed in full;
of a long string or list it reads only the head.
"""


def _quote(obj):
    """repr(obj) cut to 40 characters, "..." marking a cut."""
    text = _repr_head(obj, 41)
    return text if len(text) <= 40 else text[:40] + "..."


def _repr_head(obj, n):
    """repr(obj)[:n], reading only the head of a long str or list."""
    if type(obj) is str and len(obj) > n:
        # a prefix holding the quote characters of the whole text makes
        # repr choose the same quote as for the whole text
        head = obj[:n] + "'" * ("'" in obj) + '"' * ('"' in obj)
        return repr(head)[:n]
    if type(obj) is list:
        text = "["
        for i, item in enumerate(obj):
            if i:
                text += ", "
            if len(text) >= n:
                return text[:n]
            text += _repr_head(item, n - len(text))
        return (text + "]")[:n]
    return repr(obj)[:n]


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
