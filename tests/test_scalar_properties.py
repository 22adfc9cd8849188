"""Property tests of the exact field Q(zeta12)(a) (needs ``hypothesis``).

Field laws for the cyclotomic constants ``Cyc``, for constant ``Scalar``s and
for rational functions in ``a`` whose numerator and denominator have degree at
most 2, plus the text round trip ``parse_scalar(format_scalar(x)) == x``.
The constant tables of ``Scalar`` are checked against ``Cyc`` arithmetic done
directly, past their bound, and beside the polynomial path of ``a``.
The runs are derandomized, so every run checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from finegrading import scalars  # noqa: E402
from finegrading.errors import ScalarError  # noqa: E402
from finegrading.scalars import (  # noqa: E402
    ALPHA,
    CYC_MINUS_ONE,
    CYC_OMEGA,
    CYC_ONE,
    CYC_ZERO,
    CYC_ZETA,
    ONE,
    ZERO,
    Cyc,
    Scalar,
    format_scalar,
    parse_scalar,
)

fixed = settings(max_examples=60, deadline=None, derandomize=True, database=None)

cycs = st.builds(
    Cyc,
    st.tuples(*[st.integers(-9, 9)] * 4),
    st.integers(1, 12),
)
nonzero_cycs = cycs.filter(lambda c: not c.is_zero())
constants = cycs.map(Scalar.from_cyc)
# numerator and denominator of degree at most 2 in a
functions = st.builds(
    Scalar,
    st.lists(cycs, min_size=1, max_size=3),
    st.lists(cycs, min_size=1, max_size=3).filter(
        lambda den: any(not c.is_zero() for c in den)
    ),
)
elements = st.one_of(constants, functions)
# 0, +-1, non-unit denominators and non-rational elements, besides random ones
special_cycs = st.sampled_from(
    [CYC_ZERO, CYC_ONE, CYC_MINUS_ONE, Cyc((1, 0, 0, 0), 2), Cyc((-3, 0, 0, 0), 4),
     CYC_ZETA, CYC_OMEGA, Cyc((1, 0, 0, 1), 2), Cyc((0, 2, 0, -1), 3)]
)
table_cycs = st.one_of(special_cycs, cycs)


@fixed
@given(cycs, cycs, cycs)
def test_cyc_ring_laws(x, y, w):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + w == x + (y + w)
    assert (x * y) * w == x * (y * w)
    assert (x + y) * w == x * w + y * w
    assert x + CYC_ZERO == x
    assert x * CYC_ONE == x
    assert (x - x).is_zero()


@fixed
@given(nonzero_cycs, cycs)
def test_cyc_inverse(x, y):
    assert x * x.inverse() == CYC_ONE
    assert (y / x) * x == y


@fixed
@given(cycs, cycs)
def test_cyc_conjugations_are_field_automorphisms(x, y):
    for conj in (Cyc.conj5, Cyc.conj7, Cyc.conj11):
        assert conj(x + y) == conj(x) + conj(y)
        assert conj(x * y) == conj(x) * conj(y)
        assert conj(conj(x)) == x


@pytest.mark.parametrize(
    "values", [constants, functions], ids=["constants", "functions"]
)
def test_scalar_field_laws(values):
    @fixed
    @given(values, values, values)
    def laws(x, y, w):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + w == x + (y + w)
        assert (x * y) * w == x * (y * w)
        assert (x + y) * w == x * w + y * w
        assert x + ZERO == x
        assert x * ONE == x
        assert (x - y) + y == x
        assert hash(x * y) == hash(y * x)
        if not x.is_zero():
            assert x * x.inverse() == ONE
            assert (y / x) * x == y

    laws()


@fixed
@given(elements)
def test_format_parse_round_trip(x):
    text = format_scalar(x)
    assert parse_scalar(text) == x, text


@fixed
@given(table_cycs, table_cycs)
def test_constant_tables_match_cyc_arithmetic(x, y):
    sx, sy = Scalar.from_cyc(x), Scalar.from_cyc(y)
    assert sx * sy == Scalar.from_cyc(x * y)
    assert sx + sy == Scalar.from_cyc(x + y)
    assert sx - sy == Scalar.from_cyc(x - y)
    assert -sx == Scalar.from_cyc(-x)
    if x.is_zero():
        with pytest.raises(ScalarError):
            sx.inverse()
    else:
        assert sx.inverse() == Scalar.from_cyc(x.inverse())


def test_constant_product_table_past_its_bound():
    bound = scalars._TABLE_BOUND
    xs = [Cyc((k, 1, 0, 0), 1 + k % 3) for k in range(-40, 40)]
    ys = [Cyc((1, 0, k, 0), 1 + k % 5) for k in range(1, 61)]
    assert len(xs) * len(ys) > bound
    for _ in range(2):  # the second pass meets evicted keys again
        for x in xs:
            for y in ys:
                assert Scalar.from_cyc(x) * Scalar.from_cyc(y) == Scalar.from_cyc(x * y)
    assert len(scalars._MUL) <= bound


def _constructed_constants(c):
    """The constant c from every constructor that can make one."""
    a, two = Scalar.from_cyc(c), Cyc((2, 0, 0, 0))
    return [
        a,
        parse_scalar(format_scalar(a)),
        Scalar((c,)),
        Scalar((CYC_ZERO, c), (CYC_ZERO, CYC_ONE)),  # (c*a)/a
        Scalar((c * two, c), (two, CYC_ONE)),  # c(a+2)/(a+2)
        (ALPHA + a) - ALPHA,
        (a * ALPHA) / ALPHA,
    ]


@fixed
@given(table_cycs, table_cycs)
def test_constants_from_every_constructor_carry_a_code(x, y):
    for sx, sy in zip(_constructed_constants(x), _constructed_constants(y)):
        for s, c in ((sx, x), (sy, y)):
            assert s == Scalar.from_cyc(c)
            assert (s.k != 0) == (not c.is_zero())
        assert sx * sy == Scalar.from_cyc(x * y)
        assert sx + sy == Scalar.from_cyc(x + y)
        assert sx - sy == Scalar.from_cyc(x - y)
        assert -sx == Scalar.from_cyc(-x)
        if not x.is_zero():
            assert sx.inverse() == Scalar.from_cyc(x.inverse())
            assert (sx * sy).k != 0 or y.is_zero()


@fixed
@given(functions)
def test_zero_and_functions_of_a_carry_no_code(f):
    assert ZERO.k == 0 and (ONE - ONE).k == 0 and ALPHA.k == 0
    if len(f.num) > 1 or len(f.den) > 1:
        assert f.k == 0 and (-f).k == 0 and (f * ALPHA).k == 0


def test_constant_tables_past_several_clears(monkeypatch):
    bound = 7
    monkeypatch.setattr(scalars, "_TABLE_BOUND", bound)
    cs = [Cyc((k, 1, 0, -k), 1 + k % 4) for k in range(-6, 6)] + [CYC_ZERO, CYC_ONE]
    first = Scalar.from_cyc(cs[0]).k
    for _ in range(2):  # the second pass meets cleared codes and keys again
        for x in cs:
            sx = Scalar.from_cyc(x)
            assert -sx == Scalar.from_cyc(-x)
            if not x.is_zero():
                assert sx.inverse() == Scalar.from_cyc(x.inverse())
            for y in cs:
                sy = Scalar.from_cyc(y)
                assert sx * sy == Scalar.from_cyc(x * y)
                assert sx + sy == Scalar.from_cyc(x + y)
                assert sx - sy == Scalar.from_cyc(x - y)
        for table in (scalars._CODES, scalars._MUL, scalars._ADD, scalars._NEG,
                      scalars._INVERSE):
            assert len(table) <= bound
    # the registry was cleared, and codes are never reused
    assert Scalar.from_cyc(cs[0]).k > first


@fixed
@given(table_cycs, functions)
def test_constant_times_function_of_a(x, f):
    c = Scalar.from_cyc(x)
    expected = Scalar(tuple(x * n for n in f.num), f.den)
    assert c * f == expected
    assert f * c == expected
    assert c * ALPHA == Scalar((CYC_ZERO, x))


# polynomials in a of degree at most 3: zero, constants and functions of a
polynomials = st.lists(table_cycs, max_size=4).map(Scalar)


@fixed
@given(polynomials, polynomials)
def test_polynomial_fast_path_is_canonical(p, q):
    # with both denominators 1, * and + skip the gcd of Scalar(); the result
    # must be the canonical form Scalar() computes
    product = Scalar(scalars._p_mul(p.num, q.num), scalars._P_ONE)
    total = Scalar(scalars._p_add(p.num, q.num), scalars._P_ONE)
    assert ((p * q).num, (p * q).den) == (product.num, product.den)
    assert ((p + q).num, (p + q).den) == (total.num, total.den)
    # a sum that cancels and a product with zero come back as ZERO itself
    if not p.is_zero():
        assert p + (-p) is ZERO
    if total.is_zero() and not (p.is_zero() or q.is_zero()):
        assert p + q is ZERO
    assert p * ZERO is ZERO
