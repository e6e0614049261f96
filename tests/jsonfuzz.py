"""Hypothesis strategy for arbitrary JSON documents, shared by the fuzz tests."""

from hypothesis import strategies as st


def json_values(*strings):
    """Any JSON value; `strings` are leaves a parser under test may accept."""
    return st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-5, 70)
        | st.integers()
        | st.floats()
        | st.text(max_size=4)
        | st.sampled_from(strings or ("",)),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=8,
    )
