"""JSON documents shared by the tests: a Hypothesis strategy for arbitrary
values, and one nested past the recursion limit of json.loads."""

from hypothesis import strategies as st

DEEP_JSON = b"[" * 100000 + b"]" * 100000


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
