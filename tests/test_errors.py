"""The 40-character quoting of input in error messages (needs ``hypothesis``).

``errors._quote`` gives ``repr(obj)`` cut to 40 characters, with "..."
marking a cut, and reads only the head of a long string or list.
"""

import tracemalloc

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from finegrading.errors import _quote  # noqa: E402

fixed = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# quote characters, backslashes, escapes and non-ASCII, so that each lands
# before and after the 40-character cut
texts = st.text(st.sampled_from("ab'\"\\\n\t\x00\x7fé☃\U0001f600"), max_size=80)
values = st.one_of(st.integers(-10 ** 50, 10 ** 50), st.none(), st.booleans(), texts,
                   st.lists(texts, max_size=3))


def cut(obj):
    text = repr(obj)
    return text if len(text) <= 40 else text[:40] + "..."


@fixed
@given(texts)
def test_quote_is_the_repr_cut_to_40_characters(s):
    assert _quote(s) == cut(s)


@fixed
@given(values, values)
def test_quote_of_a_term_is_the_repr_cut_to_40_characters(k, c):
    assert _quote([k, c]) == cut([k, c])


@pytest.mark.parametrize("obj", [
    "(" * 10 ** 6,
    "'\"" + "x" * 10 ** 6,
    [5, "2" * 10 ** 6],
    ["x" * 10 ** 6, 0],
    ["x" * 37, "y" * 10 ** 6],
], ids=["parentheses", "both-quotes", "term-text", "term-index", "cut-at-comma"])
def test_quoting_a_megabyte_reads_only_its_head(obj):
    tracemalloc.start()
    try:
        quoted = _quote(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 4
    assert quoted == cut(obj)
