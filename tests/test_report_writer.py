"""The report writer cli.json_text against the json module: the same text
as json.dumps(obj, sort_keys=True, indent=2, default=str) on nested data,
shared sub-objects included, and the same TypeError on keys that json
refuses."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weildescent.cli import json_text
from weildescent.fields import MODULAR, RATIONAL, field_make

PROPS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

K = field_make(RATIONAL, 7)
TAGS = [K.full_tag(), K.top_tag(), field_make(MODULAR, 13, 3).full_tag()]

strings = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", 'a"b\\c']),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]),
)
scalars = st.one_of(
    strings,
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    floats,
    st.fractions(max_denominator=10**6),
    st.sampled_from(TAGS),
)
# one family of keys per dict, so that json can sort them
keys = st.one_of(
    st.just(strings),
    st.just(st.one_of(st.integers(-(2**70), 2**70), st.booleans(), floats)),
    st.just(st.none()),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        keys.flatmap(lambda k: st.dictionaries(k, children, max_size=4)),
    )


values = st.recursive(scalars, containers, max_leaves=25)


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=str)


@PROPS
@given(values)
def test_writer_matches_json_dumps(obj):
    assert json_text(obj) == reference(obj)


@PROPS
@given(values, values)
def test_shared_sub_object_at_same_and_other_depths(shared, other):
    # the same object at one depth several times (the shared entry dicts of
    # a report) and at other depths, where its text is indented differently
    obj = {
        "row": [shared, other, shared],
        "again": [shared, [shared, {"deep": shared}]],
        "top": shared,
        "tuple": (shared, shared),
    }
    assert json_text(obj) == reference(obj)
    assert json_text([shared, shared]) == reference([shared, shared])


@pytest.mark.parametrize(
    "obj",
    [
        {1: 0, "a": 1},
        {None: 1, 0: 2},
        {"a": {1.5: 0, "b": 1}},
        {(1, 2): 3},
        [{frozenset(): 0}],
    ],
)
def test_keys_json_refuses_raise_type_error(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        json_text(obj)
