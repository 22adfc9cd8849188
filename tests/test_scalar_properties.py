"""Property tests of the exact field Q(zeta12)(a) (needs ``hypothesis``).

Field laws for the cyclotomic constants ``Cyc``, for constant ``Scalar``s and
for rational functions in ``a`` whose numerator and denominator have degree at
most 2, plus the text round trip ``parse_scalar(format_scalar(x)) == x``.
The runs are derandomized, so every run checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from finegrading.scalars import (  # noqa: E402
    CYC_ONE,
    CYC_ZERO,
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
