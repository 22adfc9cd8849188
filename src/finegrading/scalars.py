"""Exact arithmetic in the field F = Q(zeta)(a).

``zeta`` (printed ``z``) is a fixed primitive 12th root of unity and ``a`` is
a transcendental parameter.  Every scalar in the package is an element of this
field, represented exactly:

* :class:`Cyc` — an element of Q(zeta), stored as four rational coordinates
  ``c0 + c1*z + c2*z^2 + c3*z^3`` modulo the minimal polynomial
  ``z^4 - z^2 + 1``.  Internally the four numerators share one positive
  denominator and the 5-tuple is kept gcd-reduced, so structural equality is
  arithmetic equality.  Useful constants: ``i = z^3``, ``omega = z^4 = z^2-1``
  (a primitive cube root of unity), ``-1 = z^6``.

* :class:`Scalar` — a rational function ``num/den`` in ``a`` with ``Cyc``
  coefficients.  The canonical form has monic denominator and coprime
  numerator/denominator, so again ``==`` on the stored data is field equality.

Fast path: a canonical constant has a one-term ``num == (c,)`` and
``den == (1,)``, and carries a positive integer code ``k``; zero and functions
of ``a`` carry ``k == 0``.  Codes come from a registry ``{(c.n, c.d): code}``
fed by a counter that never repeats, so a code names one value for the life of
the process (a ``Cyc`` is gcd-reduced with ``d > 0``, so equal coordinates are
equal values).  ``*``, ``+`` (so ``-``), unary ``-`` and ``inverse`` of two
coded constants test ``self.k and other.k`` and read a dict keyed by the codes
``(self.k, other.k)`` (by ``self.k`` for ``-`` and ``inverse``), whose entries
are canonical ``Scalar`` results; a ``Scalar`` is immutable, so every caller
may share one.  A miss runs the ``Cyc`` operation once.  Each table and the
registry is cleared when it reaches ``_TABLE_BOUND`` entries.  Clearing is
exact: codes are never reused, so an old entry can never answer for another
value; after a clear an equal value may get a new code and miss once.  A zero
operand of ``+`` returns the other and a zero operand of ``*`` returns zero
without a lookup.  Only functions of ``a`` take the polynomial path.  There,
when both denominators are 1, the sum or product of the numerators is already
canonical (its gcd with 1 is 1 and the denominator is monic), so ``*`` and
``+`` build it directly and run no gcd; a sum that cancels returns ``ZERO``.

Invariant: a canonical ``num`` is empty if and only if the scalar is zero, so
hot loops test ``x.num`` where others call ``x.is_zero()``.

The text grammar accepted by :func:`parse_scalar` and produced by
``str(Scalar)`` uses integers, ``/`` for rationals, ``z``, ``a``, the
operators ``+ - * ^`` and parentheses, e.g. ``(3/4)*a + z^3``.  Parsing the
printed form of any scalar returns an equal scalar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd

from .errors import ScalarError, _quote

__all__ = [
    "Cyc",
    "Scalar",
    "ZERO",
    "ONE",
    "ALPHA",
    "ZETA",
    "scalar",
    "parse_scalar",
    "root_of_unity",
]


class Cyc:
    """An element of Q(zeta_12) with coordinates over the basis 1, z, z^2, z^3."""

    __slots__ = ("n", "d", "_hash")

    def __init__(self, n, d=1):
        n = tuple(int(v) for v in n)
        if len(n) != 4:
            raise ScalarError("Cyc needs exactly 4 coordinates, got %r" % (n,))
        d = int(d)
        if d == 0:
            raise ScalarError("zero denominator in Cyc")
        if d < 0:
            n = tuple(-v for v in n)
            d = -d
        g = gcd(d, *n)
        if g > 1:
            n = tuple(v // g for v in n)
            d //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):  # immutable
        raise AttributeError("Cyc is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_rational(cls, value):
        f = Fraction(value)
        return cls((f.numerator, 0, 0, 0), f.denominator)

    # -- predicates --------------------------------------------------------
    def is_zero(self):
        return self.n == (0, 0, 0, 0)

    def is_rational(self):
        return self.n[1] == self.n[2] == self.n[3] == 0

    def to_fraction(self):
        if not self.is_rational():
            raise ScalarError("%s is not rational" % self)
        return Fraction(self.n[0], self.d)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self.n, other.n
        d, e = self.d, other.d
        if d == e:
            return _cyc((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]), d)
        return _cyc(tuple(x * e + y * d for x, y in zip(a, b)), d * e)

    def __neg__(self):
        a = self.n
        return _cyc((-a[0], -a[1], -a[2], -a[3]), self.d)

    def __sub__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self.n, other.n
        if a[1] == a[2] == a[3] == 0:
            s = a[0]
            return _cyc((s * b[0], s * b[1], s * b[2], s * b[3]), self.d * other.d)
        if b[1] == b[2] == b[3] == 0:
            s = b[0]
            return _cyc((s * a[0], s * a[1], s * a[2], s * a[3]), self.d * other.d)
        t0 = a[0] * b[0]
        t1 = a[0] * b[1] + a[1] * b[0]
        t2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
        t3 = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0]
        t4 = a[1] * b[3] + a[2] * b[2] + a[3] * b[1]
        t5 = a[2] * b[3] + a[3] * b[2]
        t6 = a[3] * b[3]
        # reduce with z^4 = z^2 - 1, z^5 = z^3 - z, z^6 = -1
        return _cyc((t0 - t4 - t6, t1 - t5, t2 + t4, t3 + t5), self.d * other.d)

    # Galois conjugates zeta -> zeta^k for k in {5, 7, 11}.
    def conj5(self):
        a0, a1, a2, a3 = self.n
        return _cyc((a0 + a2, -a1, -a2, a1 + a3), self.d)

    def conj7(self):
        a0, a1, a2, a3 = self.n
        return _cyc((a0, -a1, a2, -a3), self.d)

    def conj11(self):
        a0, a1, a2, a3 = self.n
        return _cyc((a0 + a2, a1, -a2, -a1 - a3), self.d)

    def inverse(self):
        if self.is_zero():
            raise ScalarError("division by zero in Q(zeta)")
        return _cyc_inverse(self.n, self.d)

    def __truediv__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        return _power(self, int(k), CYC_ONE)

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.d))
            object.__setattr__(self, "_hash", h)
        return h

    # -- printing -------------------------------------------------------------
    def __str__(self):
        return _format_cyc(self)

    def __repr__(self):
        return "Cyc(%s)" % self


def _power(x, k, one):
    """x ** k by repeated squaring (Cyc and Scalar share it)."""
    if k < 0:
        return _power(x.inverse(), -k, one)
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


_new = object.__new__
_set_n = Cyc.n.__set__
_set_d = Cyc.d.__set__
_set_cyc_hash = Cyc._hash.__set__


def _cyc(n, d):
    """Cyc of a ring operation's int coordinates ``n`` over ``d > 0``, without
    ``int()``; the gcd runs only when ``d != 1`` (``d == 1`` is already reduced)."""
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = (n[0] // g, n[1] // g, n[2] // g, n[3] // g)
            d //= g
    c = _new(Cyc)
    _set_n(c, n)
    _set_d(c, d)
    _set_cyc_hash(c, None)
    return c


@lru_cache(maxsize=4096)
def _cyc_inverse(n, d):
    a = _cyc(n, d)
    c = a.conj5() * a.conj7() * a.conj11()
    norm = a * c
    if not norm.is_rational():
        raise AssertionError("Galois norm not rational: %s" % norm)
    f = norm.to_fraction()
    if f == 0:
        raise ScalarError("division by zero in Q(zeta)")
    return Cyc(
        tuple(v * f.denominator for v in c.n),
        c.d * f.numerator,
    )


CYC_ZERO = Cyc((0, 0, 0, 0))
CYC_ONE = Cyc((1, 0, 0, 0))
CYC_ZETA = Cyc((0, 1, 0, 0))
CYC_I = Cyc((0, 0, 0, 1))
CYC_OMEGA = Cyc((-1, 0, 1, 0))  # z^2 - 1
CYC_MINUS_ONE = Cyc((-1, 0, 0, 0))


def _format_rational(f):
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _format_cyc(c):
    """Render a Cyc in the scalar grammar, lowest z-power first."""
    if c.is_zero():
        return "0"
    parts = []
    for k, num in enumerate(c.n):
        if num == 0:
            continue
        coeff = Fraction(num, c.d)
        if k == 0:
            parts.append((coeff, ""))
        else:
            mono = "z" if k == 1 else "z^%d" % k
            parts.append((coeff, mono))
    pieces = []
    for idx, (coeff, mono) in enumerate(parts):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if mono == "":
            body = _format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (_format_rational(mag), mono)
        if idx == 0:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# polynomials over Cyc (internal helpers for Scalar)
# ---------------------------------------------------------------------------

_P_ZERO = ()
_P_ONE = (CYC_ONE,)


def _p_trim(cs):
    i = len(cs)
    while i > 0 and cs[i - 1].is_zero():
        i -= 1
    return tuple(cs[:i])


def _p_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _p_trim(out)


def _p_neg(p):
    return tuple(-c for c in p)


def _p_mul(p, q):
    if not p or not q:
        return _P_ZERO
    if len(p) == 1:
        c = p[0]
        return _p_trim([c * x for x in q])
    if len(q) == 1:
        c = q[0]
        return _p_trim([x * c for x in p])
    out = [CYC_ZERO] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci.is_zero():
            continue
        for j, cj in enumerate(q):
            if cj.is_zero():
                continue
            out[i + j] = out[i + j] + ci * cj
    return _p_trim(out)


def _p_scale(p, c):
    return _p_trim([x * c for x in p])


def _p_divmod(p, q):
    """Exact polynomial division over the field Q(zeta)."""
    if not q:
        raise ScalarError("polynomial division by zero")
    r = list(p)
    dq = len(q) - 1
    lc_inv = q[-1].inverse()
    quot = [CYC_ZERO] * max(0, len(p) - dq)
    while len(r) - 1 >= dq and _p_trim(r):
        r = list(_p_trim(r))
        if len(r) - 1 < dq:
            break
        k = len(r) - 1 - dq
        c = r[-1] * lc_inv
        quot[k] = c
        for j, cj in enumerate(q):
            r[k + j] = r[k + j] - c * cj
        r = r[:-1]
    return _p_trim(quot), _p_trim(r)


def _p_gcd(p, q):
    """Monic gcd via the Euclidean algorithm.  Each remainder is made monic
    before it divides, which keeps the coefficients from swelling."""
    while q:
        q = _p_scale(q, q[-1].inverse())
        p, q = q, _p_divmod(p, q)[1]
    return _p_scale(p, p[-1].inverse()) if p else _P_ZERO


def _p_eval(p, value):
    out = CYC_ZERO
    for c in reversed(p):
        out = out * value + c
    return out


class Scalar:
    """An element of Q(zeta)(a) in canonical num/den form."""

    __slots__ = ("num", "den", "k", "_hash")

    def __init__(self, num, den=_P_ONE):
        num = _p_trim(num)
        den = _p_trim(den)
        if not den:
            raise ScalarError("zero denominator in Scalar")
        if not num:
            den = _P_ONE
        else:
            if len(den) > 1 or len(num) > 1:
                g = _p_gcd(num, den)
                if len(g) > 1:
                    num, _ = _p_divmod(num, g)
                    den, _ = _p_divmod(den, g)
            lc = den[-1]
            if lc != CYC_ONE:
                inv = lc.inverse()
                num = _p_scale(num, inv)
                den = _p_scale(den, inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "k", _code(num[0]) if len(num) == 1 == len(den) else 0)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_cyc(cls, c):
        return ZERO if c.is_zero() else _canonical((c,), _P_ONE)

    @classmethod
    def from_rational(cls, value):
        return cls.from_cyc(Cyc.from_rational(value))

    # -- predicates -------------------------------------------------------
    def is_zero(self):
        return not self.num

    def is_constant(self):
        return len(self.num) <= 1 and self.den == _P_ONE

    def constant_value(self):
        if not self.is_constant():
            raise ScalarError("%s is not constant in a" % self)
        return self.num[0] if self.num else CYC_ZERO

    # -- field operations ----------------------------------------------------
    def __add__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        k = self.k
        if k and other.k:
            try:
                return _ADD[k, other.k]
            except KeyError:
                return _constant_miss(_ADD, (k, other.k), self.num[0] + other.num[0])
        p, q = self.num, other.num
        if not q:
            return self
        if not p:
            return other
        if self.den == _P_ONE and other.den == _P_ONE:
            num = _p_add(p, q)
            return _canonical(num, _P_ONE) if num else ZERO
        return Scalar(
            _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den)),
            _p_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        k = self.k
        if k:
            try:
                return _NEG[k]
            except KeyError:
                return _constant_miss(_NEG, k, -self.num[0])
        return _canonical(_p_neg(self.num), self.den)

    def __sub__(self, other):
        # Through __add__, so that every addition or subtraction is one add.
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        k = self.k
        if k and other.k:
            try:
                return _MUL[k, other.k]
            except KeyError:
                return _constant_miss(_MUL, (k, other.k), self.num[0] * other.num[0])
        p, q = self.num, other.num
        if not p or not q:
            return ZERO
        if self.den == _P_ONE and other.den == _P_ONE:
            return _canonical(_p_mul(p, q), _P_ONE)
        return Scalar(_p_mul(p, q), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        k = self.k
        if k:
            try:
                return _INVERSE[k]
            except KeyError:
                return _constant_miss(_INVERSE, k, self.num[0].inverse())
        p = self.num
        if not p:
            raise ScalarError("division by zero in Q(zeta)(a)")
        return Scalar(self.den, p)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ScalarError("division by zero in Q(zeta)(a)")
        return Scalar(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        return _power(self, int(k), ONE)

    # -- specialization -----------------------------------------------------
    def specialize(self, value):
        """Evaluate at a = value (a Cyc); raises on a pole."""
        if not isinstance(value, Cyc):
            value = Cyc.from_rational(value)
        den = _p_eval(self.den, value)
        if den.is_zero():
            raise ScalarError(
                "pole: denominator of %s vanishes at a = %s" % (self, value)
            )
        return _p_eval(self.num, value) / den

    # -- comparisons ------------------------------------------------------
    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    # -- printing -----------------------------------------------------------
    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "Scalar(%s)" % self


_N_ZERO = CYC_ZERO.n
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__
_set_k = Scalar.k.__set__
_set_scalar_hash = Scalar._hash.__set__

# The registry and the constant tables of the module docstring; each is
# cleared when it reaches the bound.
_TABLE_BOUND = 4096
_CODES = {}  # (c.n, c.d) -> code of the constant c
_next_code = count(1).__next__
_MUL = {}  # (code, code) -> canonical product
_ADD = {}  # (code, code) -> canonical sum
_NEG = {}  # code -> canonical negation
_INVERSE = {}  # code -> canonical inverse


def _code(c):
    """The code of the nonzero constant ``c``, a fresh one if it has none."""
    key = (c.n, c.d)
    k = _CODES.get(key)
    if k is None:
        if len(_CODES) >= _TABLE_BOUND:
            _CODES.clear()
        k = _CODES[key] = _next_code()
    return k


def _canonical(num, den):
    """The Scalar of data already in canonical form, e.g. a constant ``(c,), (1,)``."""
    s = _new(Scalar)
    _set_num(s, num)
    _set_den(s, den)
    _set_k(s, _code(num[0]) if len(num) == 1 == len(den) else 0)
    _set_scalar_hash(s, None)
    return s


def _constant_miss(table, key, c):
    """Store and return the canonical Scalar of the ``Cyc`` result ``c``."""
    if len(table) >= _TABLE_BOUND:
        table.clear()
    r = table[key] = ZERO if c.n == _N_ZERO else _canonical((c,), _P_ONE)
    return r


ZERO = _canonical(_P_ZERO, _P_ONE)
ONE = _canonical((CYC_ONE,), _P_ONE)
ALPHA = _canonical((CYC_ZERO, CYC_ONE), _P_ONE)
ZETA = Scalar.from_cyc(CYC_ZETA)
IUNIT = Scalar.from_cyc(CYC_I)
OMEGA = Scalar.from_cyc(CYC_OMEGA)
MINUS_ONE = Scalar.from_cyc(CYC_MINUS_ONE)
HALF = Scalar.from_rational(Fraction(1, 2))


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, Cyc):
        return Scalar.from_cyc(x)
    if x.__class__ is int:
        return _canonical((_cyc((x, 0, 0, 0), 1),), _P_ONE) if x else ZERO
    if isinstance(x, (int, Fraction)):
        return Scalar.from_rational(x)
    return NotImplemented


def scalar(x):
    """Coerce ints, Fractions, Cyc, Scalar, or grammar text to a Scalar."""
    if x.__class__ is Scalar:
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    s = _coerce(x)
    if s is NotImplemented:
        raise ScalarError("cannot coerce %r to a scalar" % (x,))
    return s


def root_of_unity(n):
    """The canonical primitive n-th root of unity zeta^(12/n), n | 12."""
    n = int(n)
    if n <= 0 or 12 % n != 0:
        raise ScalarError(
            "no order-%d root of unity in Q(zeta_12); supported orders: 1, 2, 3, 4, 6, 12"
            % n
        )
    return Scalar.from_cyc(CYC_ZETA ** (12 // n))


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _format_poly(p):
    """Polynomial in a, highest power first, in the scalar grammar."""
    if not p:
        return "0"
    pieces = []
    first = True
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c.is_zero():
            continue
        if k == 0:
            body = _format_cyc(c)
            if not first and body.startswith("-"):
                body = "- " + body[1:].lstrip()
                pieces.append(body)
                continue
            pieces.append(body if first else "+ " + body)
            first = False
            continue
        mono = "a" if k == 1 else "a^%d" % k
        neg = False
        if c == CYC_ONE:
            body = mono
        elif c == CYC_MINUS_ONE:
            body = mono
            neg = True
        else:
            cs = _format_cyc(c)
            if cs.startswith("-") and " " not in cs:
                neg = True
                cs = cs[1:]
            if " " in cs or "/" in cs or not _is_plain_int(cs):
                body = "(%s)*%s" % (cs, mono)
            else:
                body = "%s*%s" % (cs, mono)
        if first:
            pieces.append("-" + body if neg else body)
            first = False
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces) if pieces else "0"


def _is_plain_int(text):
    try:
        int(text)
        return True
    except ValueError:
        return False


def format_scalar(s):
    if s.den == _P_ONE:
        return _format_poly(s.num)
    num = _format_poly(s.num)
    den = _format_poly(s.den)
    return "(%s)/(%s)" % (num, den)


# ---------------------------------------------------------------------------
# parsing: expr := term ((+|-) term)* ; term := factor ((*|/) factor)* ;
# factor := '-' factor | primary ('^' int)? ; primary := int | z | a | (expr)
# ---------------------------------------------------------------------------

# Hostile text fails fast: exponent literals and the degree in a of every value
# formed before its gcd reduction are at most MAX_PARSE_DEGREE (models print
# degree 1; a gcd takes ms at degree 16, s at 32), a power's bits at most MAX_PARSE_BITS,
# and parentheses nest at most MAX_PARSE_NESTING deep (the parser recurses once per level).
MAX_PARSE_DEGREE = 16
MAX_PARSE_BITS = 1 << 16
MAX_PARSE_NESTING = 64


class _Tokens:
    """The tokens of scalar text, scanned one ahead of the parser, so that a
    limit fires within the text read so far."""

    def __init__(self, text):
        self.text = text
        self.end = 0
        self.nesting = 0
        self.tok = self._scan()

    def _scan(self):
        """The token after ``self.end``, or None at the end of the text."""
        text, n = self.text, len(self.text)
        i = self.end
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            return None
        ch, j = text[i], i + 1
        if ch.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            kind = "int"
        elif ch in "za+-*/^()":
            kind = ch
        else:
            raise ScalarError("unexpected character %r in scalar text %s" % (ch, _quote(text)))
        self.end = j
        return kind, text[i:j]

    def peek(self):
        return self.tok[0] if self.tok else None

    def take(self, kind=None):
        tok = self.tok
        if tok is None:
            raise ScalarError("unexpected end of scalar text")
        if kind is not None and tok[0] != kind:
            raise ScalarError("expected %r, found %s in scalar text" % (kind, _quote(tok[1])))
        self.tok = self._scan()
        return tok


def parse_scalar(text):
    """Parse the scalar grammar; see the module docstring."""
    toks = _Tokens(text)
    try:
        value = _parse_expr(toks)
    except ValueError as exc:  # an integer literal over the interpreter's digit limit
        raise ScalarError("%s in scalar text %s" % (exc, _quote(text))) from None
    if toks.peek() is not None:
        raise ScalarError(
            "trailing input %s in scalar text %s" % (_quote(toks.take()[1]), _quote(text))
        )
    return value


def _degree(s):
    return max(len(s.num), len(s.den)) - 1


def _limit(toks, what, size, bound):
    if size > bound:
        raise ScalarError(
            "%s %d exceeds %d in scalar text %s" % (what, size, bound, _quote(toks.text))
        )


def _parse_expr(toks):
    value = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.take()[0]
        rhs = _parse_term(toks)
        dv, dr = _degree(value), _degree(rhs)
        polys = len(value.den) == len(rhs.den) == 1
        _limit(toks, "degree in a", max(dv, dr) if polys else dv + dr, MAX_PARSE_DEGREE)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(toks):
    value = _parse_factor(toks)
    while toks.peek() in ("*", "/"):
        op = toks.take()[0]
        rhs = _parse_factor(toks)
        _limit(toks, "degree in a", _degree(value) + _degree(rhs), MAX_PARSE_DEGREE)
        value = value * rhs if op == "*" else value / rhs
    return value


def _bits(s):
    return max(
        max(c.d.bit_length(), *(abs(v).bit_length() for v in c.n)) for c in s.num + s.den
    )


def _parse_factor(toks):
    negate = False
    while toks.peek() == "-":
        toks.take()
        negate = not negate
    value = _parse_primary(toks)
    if toks.peek() == "^":
        toks.take()
        neg = False
        if toks.peek() == "-":
            toks.take()
            neg = True
        k = int(toks.take("int")[1])
        _limit(toks, "exponent", k, MAX_PARSE_DEGREE)
        _limit(toks, "degree in a", _degree(value) * k, MAX_PARSE_DEGREE)
        _limit(toks, "coordinate bit length", _bits(value) * k, MAX_PARSE_BITS)
        value = value ** (-k if neg else k)
    return -value if negate else value


def _parse_primary(toks):
    kind, text = toks.take()
    if kind == "int":
        return Scalar.from_rational(int(text))
    if kind == "z":
        return ZETA
    if kind == "a":
        return ALPHA
    if kind == "(":
        toks.nesting += 1
        _limit(toks, "parenthesis nesting", toks.nesting, MAX_PARSE_NESTING)
        value = _parse_expr(toks)
        toks.take(")")
        toks.nesting -= 1
        return value
    raise ScalarError("unexpected token %r in scalar text" % text)
