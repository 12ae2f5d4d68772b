"""The vectorized edge-list parser against the per-entry reference loop."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from swwl import load_dataset
from swwl.graphs import _edge_arrays

from oracles import loop_edge_arrays

endpoints = st.integers(-2, 40) | st.integers(-2, 40).map(float)
weights = st.floats(allow_nan=False) | st.integers(-5, 5) | st.booleans()
valid_entries = st.one_of(
    st.tuples(endpoints, endpoints).map(list),
    st.tuples(endpoints, endpoints, weights).map(list),
)
numbers = st.integers() | st.floats()
junk = st.none() | st.text(max_size=3) | st.sampled_from(["0", "3", "3.0", "1.5", "x"])
invalid_entries = st.one_of(
    st.lists(endpoints, max_size=1),  # [] or [u]
    st.lists(numbers, min_size=4, max_size=5),  # [u, v, w, x, ...]
    st.tuples(endpoints, st.floats().filter(lambda x: not float(x).is_integer())).map(list),
    st.tuples(endpoints, numbers).map(list),  # out-of-range and huge integers
    st.tuples(junk, endpoints).map(list),  # string and null endpoints
    st.tuples(endpoints, endpoints, junk).map(list),  # string and null weights
    st.tuples(endpoints, st.lists(endpoints, max_size=2)).map(list),  # nested lists
    numbers | junk | st.dictionaries(st.text(max_size=2), endpoints, max_size=2),  # no list
)
valid_lists = st.lists(valid_entries, max_size=12)
any_lists = st.lists(st.one_of(valid_entries, invalid_entries), max_size=12)


def outcome(parse, edges_raw):
    try:
        edges, weights = parse(edges_raw, 7)
    except Exception as exc:  # noqa: BLE001 - class and message are compared
        return type(exc), str(exc)
    return edges.dtype, edges.shape, edges.tolist(), weights.dtype, weights.tolist()


@settings(max_examples=300, deadline=None)
@given(edges_raw=valid_lists)
def test_valid_lists_parse_as_the_loop_does(edges_raw):
    expected = outcome(loop_edge_arrays, edges_raw)
    assert expected[0] == np.int64
    assert outcome(_edge_arrays, edges_raw) == expected


@settings(max_examples=600, deadline=None)
@given(edges_raw=any_lists | numbers | junk)
def test_any_list_gives_the_loops_result_or_error(edges_raw):
    assert outcome(_edge_arrays, edges_raw) == outcome(loop_edge_arrays, edges_raw)


def test_mixed_entry_lengths_and_integer_floats_load(tmp_path):
    path = tmp_path / "ds.jsonl"
    record = {"id": "g", "nodes": [[0.0], [1.0], [2.0], [3.0]],
              "edges": [[0, 1], [1.0, 2.0, 0.5], [2, 3, 2], [3.0, 0]]}
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "h", "edges": []}) + "\n")
    mixed, empty = load_dataset(path).records
    assert mixed.graph.edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 0]]
    assert mixed.graph.weights.tolist() == [1.0, 0.5, 2.0, 1.0]
    assert empty.graph.edges.shape == (0, 2) and empty.graph.weights.shape == (0,)
