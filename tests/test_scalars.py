"""Exact-field tests: cyclotomic layer, rational functions, text grammar.

Randomized identities use random.Random(12) — a fixed, documented sequence so
every run exercises exactly the same elements.
"""

import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from finegrading.errors import ScalarError
from finegrading import scalars
from finegrading.constructions import build_D21
from finegrading.scalars import (
    ALPHA,
    Cyc,
    CYC_I,
    CYC_OMEGA,
    CYC_ONE,
    CYC_ZETA,
    ONE,
    Scalar,
    ZERO,
    ZETA,
    MAX_PARSE_DEGREE,
    MAX_PARSE_NESTING,
    parse_scalar,
    root_of_unity,
    scalar,
)


def rand_cyc(rng):
    return Cyc([rng.randint(-6, 6) for _ in range(4)], rng.randint(1, 9))


def rand_scalar(rng, deg=2):
    num = [rand_cyc(rng) for _ in range(rng.randint(1, deg + 1))]
    den = [rand_cyc(rng) for _ in range(rng.randint(1, deg))]
    while all(c.is_zero() for c in den):
        den = [rand_cyc(rng) for _ in range(rng.randint(1, deg))]
    return Scalar(num, den)


class TestCyc:
    def test_zeta_is_primitive_12th_root(self):
        assert CYC_ZETA ** 12 == CYC_ONE
        for k in range(1, 12):
            assert CYC_ZETA ** k != CYC_ONE

    def test_minimal_polynomial(self):
        z = CYC_ZETA
        assert z ** 4 - z ** 2 + CYC_ONE == Cyc((0, 0, 0, 0))

    def test_i_and_omega(self):
        assert CYC_I == CYC_ZETA ** 3
        assert CYC_I * CYC_I == -CYC_ONE
        assert CYC_OMEGA == CYC_ZETA ** 4
        assert CYC_OMEGA ** 3 == CYC_ONE
        assert CYC_OMEGA != CYC_ONE
        # 1 + omega + omega^2 = 0
        assert CYC_ONE + CYC_OMEGA + CYC_OMEGA ** 2 == Cyc((0, 0, 0, 0))

    def test_field_identities_random(self):
        rng = random.Random(12)
        for _ in range(300):
            x, y, w = rand_cyc(rng), rand_cyc(rng), rand_cyc(rng)
            assert (x + y) * w == x * w + y * w
            assert x * y == y * x
            assert (x * y) * w == x * (y * w)
            if not x.is_zero():
                assert x * x.inverse() == CYC_ONE

    def test_normalization_structural_equality(self):
        assert Cyc((2, 4, 0, 0), 6) == Cyc((1, 2, 0, 0), 3)
        assert Cyc((1, 0, 0, 0), -2) == Cyc((-1, 0, 0, 0), 2)
        assert hash(Cyc((2, 4, 0, 0), 6)) == hash(Cyc((1, 2, 0, 0), 3))


class TestScalar:
    def test_constants_fast_path(self):
        a = scalar(Fraction(3, 4))
        b = scalar(-2)
        assert a + b == scalar(Fraction(-5, 4))
        assert a * b == scalar(Fraction(-3, 2))

    def test_rational_function_canonical_form(self):
        # (a^2 - 1)/(a - 1) reduces to a + 1
        a = ALPHA
        s = (a * a - ONE) / (a - ONE)
        assert s == a + ONE
        # denominator made monic: (a)/(2a - 2) == (1/2)*a/(a - 1)
        t = a / (scalar(2) * a - scalar(2))
        assert t.den == (a - ONE).num

    def test_field_identities_random(self):
        rng = random.Random(12)
        for _ in range(60):
            x, y, w = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
            assert (x + y) * w == x * w + y * w
            assert (x - x).is_zero()
            if not x.is_zero():
                assert (y / x) * x == y

    def test_high_degree_common_factor_cancels(self):
        # the gcd of two degree-27 polynomials with a common cubic factor
        a = ALPHA
        p = (a + ZETA) ** 24 + ONE
        q = (a + scalar(2)) ** 24 + scalar(3)
        g = (a - ZETA * ZETA) ** 3 + scalar(5)
        got = (p * g) / (q * g)
        assert len(got.num) == len(got.den) == 25
        _assert_same(got, p / q)

    def test_division_by_zero(self):
        with pytest.raises(ScalarError):
            ONE / ZERO
        with pytest.raises(ScalarError):
            Scalar((CYC_ONE,), ())

    def test_specialize(self):
        s = (ALPHA + ONE) / (ALPHA - ONE)
        assert s.specialize(3) == Cyc((2, 0, 0, 0))
        with pytest.raises(ScalarError) as err:
            s.specialize(1)
        assert "pole" in str(err.value) and "1" in str(err.value)

    def test_specialize_is_homomorphism_random(self):
        rng = random.Random(12)
        pts = [Cyc.from_rational(2), Cyc.from_rational(Fraction(-1, 2)), CYC_OMEGA]
        for _ in range(40):
            x, y = rand_scalar(rng), rand_scalar(rng)
            for p in pts:
                try:
                    xs, ys = x.specialize(p), y.specialize(p)
                except ScalarError:
                    continue
                assert (x + y).specialize(p) == xs + ys
                assert (x * y).specialize(p) == xs * ys


def _coords(c):
    return [Fraction(v, c.d) for v in c.n]


def _ref_cyc(coords):
    """The Cyc of four Fractions, through the public normalizing constructor."""
    d = lcm(*(c.denominator for c in coords))
    return Cyc([c.numerator * (d // c.denominator) for c in coords], d)


def _ref_add(x, y):
    return _ref_cyc([u + v for u, v in zip(_coords(x), _coords(y))])


def _ref_mul(x, y):
    a, b = _coords(x), _coords(y)
    t = [Fraction(0)] * 7
    for i in range(4):
        for j in range(4):
            t[i + j] += a[i] * b[j]
    # z^4 = z^2 - 1, z^5 = z^3 - z, z^6 = -1
    return _ref_cyc([t[0] - t[4] - t[6], t[1] - t[5], t[2] + t[4], t[3] + t[5]])


def _ref_constant(c):
    """The general canonicalizing constructor on the polynomials c / 1."""
    return Scalar([c], [CYC_ONE])


def _assert_same(got, want):
    assert len(got.num) == len(want.num) and len(got.den) == len(want.den)
    for c, r in zip(got.num + got.den, want.num + want.den):
        assert c.n == r.n and c.d == r.d, (got, want)
        assert all(type(v) is int for v in c.n) and type(c.d) is int
    assert hash(got) == hash(want)


class TestConstantFastPath:
    """Every constant result equals, field by field, the general constructor's."""

    def operands(self):
        rng = random.Random(12)
        fixed = [ZERO, scalar(1), scalar(-3), scalar(Fraction(1, 2)), scalar(Fraction(-1, 2)),
                 scalar(Fraction(2, 3)), scalar(Fraction(3, 2)), ZETA, ZETA ** 4,
                 Scalar.from_cyc(Cyc((3, -6, 9, 12), 4)), Scalar.from_cyc(Cyc((1, 1, 1, 1), 6))]
        rand = [Scalar.from_cyc(rand_cyc(rng)) for _ in range(30)]
        return fixed + rand + [-x for x in rand[:10]]

    def test_add_sub_mul_neg(self):
        ops = self.operands()
        for x in ops:
            cx = x.constant_value()
            _assert_same(-x, _ref_constant(_ref_mul(cx, -CYC_ONE)))
            for y in ops:
                cy = y.constant_value()
                _assert_same(x + y, _ref_constant(_ref_add(cx, cy)))
                _assert_same(x - y, _ref_constant(_ref_add(cx, _ref_mul(cy, -CYC_ONE))))
                _assert_same(x * y, _ref_constant(_ref_mul(cx, cy)))

    def test_reducing_pairs(self):
        half, x = scalar(Fraction(1, 2)), Scalar.from_cyc(Cyc((1, 2, 3, 4), 6))
        _assert_same(half + half, ONE)
        _assert_same(x + (-x), ZERO)
        _assert_same(x - x, ZERO)
        _assert_same(scalar(Fraction(2, 3)) * scalar(Fraction(3, 2)), ONE)
        assert (half + half).num[0].d == 1 and (x + (-x)).num == ()
        assert (x + ZERO) is x and (ZERO + x) is x and (x * ZERO) is ZERO

    def test_rational_function_takes_general_path(self):
        x = (ALPHA + scalar(Fraction(1, 2))) / (ALPHA - ZETA)
        y = scalar(Fraction(2, 3))
        P = scalars
        _assert_same(x + y, Scalar(P._p_add(x.num, P._p_mul(y.num, x.den)), x.den))
        _assert_same(x * y, Scalar(P._p_mul(x.num, y.num), x.den))
        _assert_same(-x, Scalar(P._p_neg(x.num), x.den))
        _assert_same(x - x, ZERO)
        assert (x * y).specialize(3) == x.specialize(3) * y.constant_value()
        w = ONE / (ALPHA - ZETA)  # one-term numerator, not a constant
        _assert_same(w + y, Scalar(P._p_add(w.num, P._p_mul(y.num, w.den)), w.den))
        _assert_same(w * w, Scalar(w.num, P._p_mul(w.den, w.den)))


class TestRootOfUnity:
    def test_orders(self):
        for n in (1, 2, 3, 4, 6, 12):
            e = root_of_unity(n)
            assert e ** n == ONE
            for k in range(1, n):
                assert e ** k != ONE

    def test_epsilon4_is_i(self):
        assert root_of_unity(4) == ZETA ** 3

    def test_unsupported_order(self):
        with pytest.raises(ScalarError) as err:
            root_of_unity(5)
        assert "5" in str(err.value)


class TestGrammar:
    def test_examples(self):
        assert parse_scalar("(3/4)*a + z^3") == scalar(Fraction(3, 4)) * ALPHA + ZETA ** 3
        assert parse_scalar("-1/2") == scalar(Fraction(-1, 2))
        assert parse_scalar("z^4") == ZETA ** 4
        assert parse_scalar("1 - a") == ONE - ALPHA

    def test_round_trip_random(self):
        rng = random.Random(12)
        for _ in range(150):
            s = rand_scalar(rng)
            assert parse_scalar(str(s)) == s, str(s)

    def test_parse_errors(self):
        for bad in ("1 +", "(a", "q", "3//4", "a^", ""):
            with pytest.raises(ScalarError):
                parse_scalar(bad)

    def test_hostile_text_fails_fast(self):
        for bad, what in (
            ("(a+z)^100000", "exponent 100000"),
            ("(a+z)^17", "exponent 17"),
            ("((a+z)^8)^3", "degree in a 24"),
            ("(a^9 + 1)*(a^8 + 1)", "degree in a 17"),
            ("1/(a^9 + 1) + 1/(a^8 + 1)", "degree in a 17"),
            ("((((((2^16)^16)^16)^16)^16)^16)", "coordinate bit length"),
            ("2^" + "9" * 5000, "scalar text"),
        ):
            start = time.perf_counter()
            with pytest.raises(ScalarError, match=what):
                parse_scalar(bad)
            assert time.perf_counter() - start < 1.0, bad

    @pytest.mark.parametrize("bad,what", [
        ("1 " + "2" * 10 ** 6, "trailing input '2222"),
        ("2" * 10 ** 6 + "x", "unexpected character 'x'"),
        ("(a+z)^17" + " " * 10 ** 6, "exponent 17 exceeds 16"),
        ("a^" + "9" * 10 ** 6, "digits"),
        ("(1 " + "1" * 10 ** 6, r"expected '\)', found '1111"),
    ], ids=["trailing", "character", "limit", "digits", "token"])
    def test_errors_quote_at_most_40_characters_of_the_text(self, bad, what):
        # a megabyte of text: the message quotes 40 characters of it
        with pytest.raises(ScalarError, match=what) as err:
            parse_scalar(bad)
        assert len(str(err.value)) < 250

    def test_quoted_text_is_cut_at_40_characters(self):
        with pytest.raises(ScalarError) as err:
            parse_scalar("1 " + "2" * 50)
        assert str(err.value) == "trailing input '%s... in scalar text '1 %s..." % (
            "2" * 39, "2" * 37)
        with pytest.raises(ScalarError, match="trailing input '2' in scalar text '1 2'$"):
            parse_scalar("1 2")

    def test_parenthesis_nesting_is_bounded(self):
        deep = "(" * MAX_PARSE_NESTING + "a" + ")" * MAX_PARSE_NESTING
        assert parse_scalar(deep) == ALPHA
        for levels in (MAX_PARSE_NESTING + 1, 400):
            with pytest.raises(ScalarError, match="parenthesis nesting %d exceeds %d"
                               % (MAX_PARSE_NESTING + 1, MAX_PARSE_NESTING)):
                parse_scalar("(" * levels + "1" + ")" * levels)

    def test_nesting_limit_fires_before_the_rest_of_the_text_is_read(self):
        # tokens are scanned on demand: the 65th parenthesis fails the parse
        # without a token list for the other 99,935 characters
        text = "(" * 100000
        tracemalloc.start()
        try:
            with pytest.raises(ScalarError, match="parenthesis nesting 65 exceeds 64"):
                parse_scalar(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_long_runs_of_unary_minus_parse(self):
        assert parse_scalar("-" * 3001 + "a^2") == -(ALPHA ** 2)
        assert parse_scalar("--a") == ALPHA

    def test_bounds_admit_what_models_print(self):
        assert parse_scalar("(a+z)^16") == (ALPHA + ZETA) ** 16
        assert parse_scalar("a^9 + a^8") == ALPHA ** 9 + ALPHA ** 8
        table = build_D21().algebra.table
        printed = max(max(len(c.num), len(c.den)) - 1 for terms in table.values() for _, c in terms)
        assert 1 <= printed and 8 * printed <= MAX_PARSE_DEGREE
