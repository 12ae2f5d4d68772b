"""Dataset containers, JSONL ingestion and validation."""

import contextlib
import gc
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swwl import (
    AttributedGraph,
    Dataset,
    GraphRecord,
    WlConfig,
    compute_standardization,
    embed_dataset,
    load_dataset,
    save_dataset,
)
from swwl.errors import ParseError, SchemaError, ValidationError
from swwl.graphs import StandardizationStats

from oracles import apply_standardization, degree, unique_checked_degrees


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_minimal_record(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_lines(
        path,
        ['{"id":"g0","nodes":[[0.0],[2.0]],"edges":[[0,1,1.0]],"scalars":[],"target":1.0}'],
    )
    ds = load_dataset(path)
    assert len(ds) == 1
    rec = ds.records[0]
    assert rec.id == "g0"
    assert rec.graph.node_count == 2
    assert ds.attr_dim == 1
    assert ds.scalar_dim == 0
    assert rec.target == 1.0
    assert rec.graph.weights[0] == 1.0


def test_load_out_of_range_edge(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_lines(path, ['{"id":"g0","nodes":[[0.0],[1.0]],"edges":[[0,5,1.0]]}'])
    with pytest.raises(ValidationError, match="5"):
        load_dataset(path)


def test_load_dimension_mismatch(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_lines(
        path,
        [
            '{"id":"a","nodes":[[0.0]],"edges":[]}',
            '{"id":"b","nodes":[[0.0,1.0,2.0]],"edges":[]}',
        ],
    )
    with pytest.raises(SchemaError):
        load_dataset(path)


@pytest.mark.parametrize(
    "lines, rec_id, first, repeat",
    [
        (['{"id":"a","nodes":[[0.0]]}', '{"id":"b","nodes":[[1.0]]}',
          '{"id":"a","nodes":[[2.0]]}'], "a", 1, 3),
        # an explicit id equal to the default id of a later line
        (['{"id":"record-2","nodes":[[0.0]]}', '{"nodes":[[1.0]]}'], "record-2", 1, 2),
    ],
    ids=["explicit", "explicit-and-default"],
)
def test_repeated_record_id_is_a_parse_error_naming_both_lines(
    tmp_path, lines, rec_id, first, repeat
):
    path = tmp_path / "ds.jsonl"
    write_lines(path, lines)
    message = f"line {repeat}: record id '{rec_id}' repeats the id of line {first}"
    with pytest.raises(ParseError, match=message) as info:
        load_dataset(path)
    assert info.value.line == repeat


@pytest.mark.parametrize(
    "raw", ["null", "true", '["x"]', '{"x": 1}'], ids=["null", "boolean", "array", "object"]
)
def test_record_id_that_is_not_a_string_or_a_number_is_a_parse_error(tmp_path, raw):
    path = tmp_path / "ds.jsonl"
    write_lines(path, ['{"id":"a","nodes":[[0.0]]}', f'{{"id":{raw},"nodes":[[1.0]]}}'])
    message = "line 2: record id .* is not a string or a number"
    with pytest.raises(ParseError, match=message) as info:
        load_dataset(path)
    assert info.value.line == 2


def test_numeric_and_absent_record_ids_keep_their_string_form(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_lines(path, ['{"id":5,"nodes":[[0.0]]}', '{"id":1.5,"nodes":[[1.0]]}',
                       '{"nodes":[[2.0]]}'])
    assert load_dataset(path).ids == ["5", "1.5", "record-3"]


@pytest.mark.parametrize("as_bytes", [False, True])
def test_bytes_that_are_not_utf8_are_a_parse_error_naming_the_line(tmp_path, as_bytes):
    good = '{"nodes":[[0.0]],"edges":[]}'  # ids default to record-<line>, so differ
    # the bad byte lies beyond the decoder's first read-ahead chunk
    data = "\n".join([good] * 400).encode() + b'\n{"id":"\xb8","nodes":[[0.0]]}\n'
    path = tmp_path / "ds.jsonl"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="line 401: not UTF-8") as info:
        load_dataset(data if as_bytes else path)
    assert info.value.line == 401


def test_load_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_lines(path, ['{"id":"a","nodes":[[0.0]],"edges":[]}', "{not json"])
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)


_HUGE = int("9" * 400)  # a JSON integer beyond the double range


@pytest.mark.parametrize(
    "field, value",
    [("nodes", [[0.0], [_HUGE]]), ("edges", [[0, _HUGE]]), ("target", _HUGE),
     ("scalars", [_HUGE])],
    ids=["nodes", "edges", "target", "scalars"],
)
def test_integer_beyond_double_range_is_parse_error(tmp_path, field, value):
    good = {"id": "a", "nodes": [[0.0], [1.0]], "edges": [[0, 1]], "target": 1.0,
            "scalars": [0.5]}
    path = tmp_path / "ds.jsonl"
    write_lines(path, [json.dumps(good), json.dumps({**good, "id": "b", field: value})])
    with pytest.raises(ParseError, match="line 2") as info:
        load_dataset(path)
    assert info.value.line == 2


def test_missing_weight_defaults_to_one(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_lines(path, ['{"id":"a","nodes":[[0.0],[1.0]],"edges":[[0,1]]}'])
    ds = load_dataset(path)
    assert ds.records[0].graph.weights.tolist() == [1.0]


# one bad line after a good one, and the typed error that refuses it
BAD_JSONL_LINES = {
    "not-an-object": ("[1, 2]", ParseError, "expected a JSON object, got list"),
    "no-nodes": ('{"id": "b", "edges": []}', ParseError, "missing field 'nodes'"),
    "ragged-nodes": ('{"id": "b", "nodes": [[0.0], [1.0, 2.0]]}', ParseError,
                     "malformed node attributes"),
    "text-nodes": ('{"id": "b", "nodes": "abc"}', ParseError, "malformed node attributes"),
    "nan-scalar": ('{"id": "b", "nodes": [[0.0]], "scalars": [NaN]}', ValidationError,
                   "record 'b': non-finite scalar covariate"),
    # nodes, scalars and target take JSON numbers only, not booleans or text
    "object-nodes": ('{"id": "b", "nodes": {"x": 1}}', ParseError,
                     "line 2: malformed node attributes"),
    "text-in-nodes": ('{"id": "b", "nodes": [["0.5"]]}', ParseError,
                      "line 2: malformed node attributes"),
    "boolean-nodes": ('{"id": "b", "nodes": [true, false]}', ParseError,
                      "line 2: malformed node attributes"),
    "object-scalars": ('{"id": "b", "nodes": [[0.0]], "scalars": {"x": 1}}', ParseError,
                       "line 2: 'scalars' must be a list of JSON numbers"),
    "ragged-scalars": ('{"id": "b", "nodes": [[0.0]], "scalars": [[1.0], [2.0, 3.0]]}',
                       ParseError, "line 2: 'scalars' must be a list of JSON numbers"),
    "text-scalar": ('{"id": "b", "nodes": [[0.0]], "scalars": ["3"]}', ParseError,
                    "line 2: 'scalars' must be a list of JSON numbers"),
    "list-target": ('{"id": "b", "nodes": [[0.0]], "scalars": [1.0], "target": [1.0]}',
                    ParseError, "line 2: 'target' must be a JSON number"),
    "object-target": ('{"id": "b", "nodes": [[0.0]], "scalars": [1.0], "target": {"x": 1}}',
                      ParseError, "line 2: 'target' must be a JSON number"),
    "text-target": ('{"id": "b", "nodes": [[0.0]], "scalars": [1.0], "target": "abc"}',
                    ParseError, "line 2: 'target' must be a JSON number"),
    "numeric-text-target": ('{"id": "b", "nodes": [[0.0]], "scalars": [1.0], '
                            '"target": "2.5"}', ParseError,
                            "line 2: 'target' must be a JSON number"),
    "boolean-target": ('{"id": "b", "nodes": [[0.0]], "scalars": [1.0], "target": true}',
                       ParseError, "line 2: 'target' must be a JSON number"),
    # json.loads raises RecursionError, not ValueError, past the recursion limit
    "nested-too-deep": ('{"id": "b", "nodes": ' + "[" * 100_000 + "]" * 100_000 + "}",
                        ParseError, "line 2: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("line, error, message", BAD_JSONL_LINES.values(), ids=BAD_JSONL_LINES)
def test_malformed_jsonl_record_is_refused(tmp_path, line, error, message):
    path = tmp_path / "ds.jsonl"
    write_lines(path, ['{"id": "a", "nodes": [[0.0]], "scalars": [1.0]}', line])
    with pytest.raises(error, match=message):
        load_dataset(path)


def test_one_dimensional_nodes_carry_one_attribute_each(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_lines(path, ['{"id": "a", "nodes": [0.5, 1.5, 2.5], "edges": [[0, 2]]}'])
    graph = load_dataset(path).records[0].graph
    assert graph.attributes.tolist() == [[0.5], [1.5], [2.5]]


def test_node_attributes_take_integers_beyond_the_int64_range(tmp_path):
    # numpy gives such a list an object dtype; it holds JSON numbers, so it loads
    path = tmp_path / "ds.jsonl"
    write_lines(path, [f'{{"id": "a", "nodes": [[{2**70}], [1.5]]}}'])
    assert load_dataset(path).records[0].graph.attributes.tolist() == [[2.0**70], [1.5]]
    write_lines(path, [f'{{"id": "a", "nodes": [[{10**400}], [1.5]]}}'])
    with pytest.raises(ParseError, match="line 1: number out of range"):
        load_dataset(path)


def test_graph_and_record_keep_copies_of_the_callers_arrays():
    attributes = np.array([[0.0], [1.0], [2.0]])
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    weights = np.array([1.0, 2.0])
    scalars = np.array([0.5])
    graph = AttributedGraph(attributes, edges, weights)
    record = GraphRecord(graph=graph, scalars=scalars, target=1.0, id="a")
    for array in (attributes, edges, weights, scalars):
        assert array.flags.writeable
    # writes the checks would refuse: a NaN, a self-loop, an endpoint out of range
    attributes[0, 0] = np.nan
    edges[0] = [2, 2]
    edges[1] = [0, 7]
    weights[1] = np.inf
    scalars[0] = np.nan
    assert graph.attributes.tolist() == [[0.0], [1.0], [2.0]]
    assert graph.edges.tolist() == [[0, 1], [1, 2]]
    assert graph.weights.tolist() == [1.0, 2.0]
    assert graph.degrees.tolist() == [1, 2, 1]
    assert record.scalars.tolist() == [0.5]


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        AttributedGraph(np.zeros((2, 1)), np.array([[1, 1]]))


def test_duplicate_edge_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        AttributedGraph(np.zeros((3, 1)), np.array([[0, 1], [1, 0]]))


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        AttributedGraph(np.array([[np.nan]]), np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        AttributedGraph(np.zeros((2, 1)), np.array([[0, 1]]), np.array([np.inf]))


def test_degree_hand_counts():
    path_graph = AttributedGraph(np.zeros((3, 1)), np.array([[0, 1], [1, 2]]))
    assert degree(path_graph, 1) == 2
    assert degree(path_graph, 0) == 1
    isolated = AttributedGraph(np.zeros((1, 1)), np.zeros((0, 2)))
    assert degree(isolated, 0) == 0
    star = AttributedGraph(np.zeros((4, 1)), np.array([[0, 1], [0, 2], [0, 3]]))
    assert degree(star, 0) == 3
    with pytest.raises(IndexError):
        degree(star, 4)


def random_dataset(rng, n_records=6, d=3, m=2, with_targets=True):
    records = []
    for i in range(n_records):
        n = int(rng.integers(2, 9))
        attrs = rng.standard_normal((n, d))
        pairs = np.array([[u, v] for u in range(n) for v in range(u + 1, n)])
        keep = rng.random(len(pairs)) < 0.5
        edges = pairs[keep]
        weights = rng.standard_normal(keep.sum()) ** 2 + 0.1
        graph = AttributedGraph(attrs, edges, weights)
        records.append(
            GraphRecord(
                graph=graph,
                scalars=rng.standard_normal(m),
                target=float(rng.standard_normal()) if with_targets else None,
                id=f"rec{i}",
            )
        )
    return Dataset(records=tuple(records))


def test_round_trip_bit_exact(tmp_path):
    ds = random_dataset(np.random.default_rng(0))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.ids == ds.ids
    for a, b in zip(ds, back):
        assert np.array_equal(a.graph.attributes, b.graph.attributes)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert np.array_equal(a.graph.weights, b.graph.weights)
        assert np.array_equal(a.scalars, b.scalars)
        assert a.target == b.target
    # a second save reproduces the file byte for byte
    path2 = tmp_path / "ds2.jsonl"
    save_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic GC on or off, then restore its setting."""
    was_enabled = gc.isenabled()
    set_collector(enabled)
    try:
        yield
    finally:
        set_collector(was_enabled)


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def passes_during(call, *args):
    """The generation of each collector pass that ``call(*args)`` starts,
    with the collector on and its generations emptied beforehand."""
    passes = []

    def hook(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    with collector(True):
        gc.collect()
        gc.callbacks.append(hook)
        try:
            call(*args)
            # counted before anything else allocates: the allocations made
            # during a pause may start a young pass at the next allocation
            count = len(passes)
        finally:
            gc.callbacks.remove(hook)
    return passes[:count]


def large_dataset(n_records=20, n_nodes=800):
    """Records big enough that one record's JSON lists outnumber the young
    generation's threshold (700 allocations)."""
    rng = np.random.default_rng(3)
    path = np.stack([np.arange(n_nodes - 1), np.arange(1, n_nodes)], axis=1)
    return Dataset(records=tuple(
        GraphRecord(
            graph=AttributedGraph(rng.standard_normal((n_nodes, 2)), path),
            scalars=rng.standard_normal(1),
            target=float(i),
            id=f"rec{i}",
        )
        for i in range(n_records)
    ))


def test_load_and_save_start_no_collector_pass(tmp_path, monkeypatch):
    ds = large_dataset()
    path = tmp_path / "ds.jsonl"
    assert passes_during(save_dataset, ds, path) == []
    assert passes_during(load_dataset, path) == []
    assert load_dataset(path).ids == ds.ids
    # without the pause the same calls start passes, so the empty counts
    # above are not for want of allocations
    monkeypatch.setattr("swwl.graphs._GcPaused", contextlib.nullcontext)
    assert passes_during(save_dataset, ds, path)
    assert passes_during(load_dataset, path)


GOOD_RECORD = b'{"nodes":[[0.0],[1.0]],"edges":[[0,1]]}\n'


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "data, error",
    [
        (GOOD_RECORD, None),
        (GOOD_RECORD + b"{not json\n", ParseError),
        (GOOD_RECORD + b'{"nodes":[[0.0],[1.0]],"edges":[[0,5]]}\n', ValidationError),
        (GOOD_RECORD + b'{"id":"\xb8","nodes":[[0.0]]}\n', ParseError),
    ],
    ids=["loaded", "parse-error", "validation-error", "not-utf8"],
)
def test_load_leaves_the_callers_collector_setting(tmp_path, enabled, data, error):
    path = tmp_path / "ds.jsonl"
    path.write_bytes(data)
    with collector(enabled):
        if error is None:
            load_dataset(path)
        else:
            with pytest.raises(error):
                load_dataset(path)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_save_leaves_the_callers_collector_setting(tmp_path, enabled):
    with collector(enabled):
        save_dataset(random_dataset(np.random.default_rng(4)), tmp_path / "ds.jsonl")
        assert gc.isenabled() is enabled


def test_degree_sum_equals_twice_edges():
    ds = random_dataset(np.random.default_rng(1))
    for rec in ds:
        g = rec.graph
        assert g.degrees.sum() == 2 * g.edge_count


def test_targets_required_for_training():
    ds = random_dataset(np.random.default_rng(2), with_targets=False)
    assert not ds.has_targets
    with pytest.raises(SchemaError):
        ds.targets()


def test_scalar_dim_mismatch_rejected():
    g = AttributedGraph(np.zeros((2, 1)), np.zeros((0, 2)))
    a = GraphRecord(graph=g, scalars=np.array([1.0]), target=None, id="a")
    b = GraphRecord(graph=g, scalars=np.array([1.0, 2.0]), target=None, id="b")
    with pytest.raises(SchemaError):
        Dataset(records=(a, b))


@pytest.mark.parametrize("rec_id", [7, None, ("a",)], ids=["int", "none", "tuple"])
def test_record_id_that_is_not_a_string_is_refused(rec_id):
    g = AttributedGraph(np.zeros((2, 1)), np.zeros((0, 2)))
    with pytest.raises(ValidationError, match="is not a string"):
        GraphRecord(graph=g, scalars=np.zeros(0), target=None, id=rec_id)


def test_repeated_record_id_is_a_schema_error_naming_it():
    g = AttributedGraph(np.zeros((2, 1)), np.zeros((0, 2)))
    a = GraphRecord(graph=g, scalars=np.zeros(0), target=None, id="a")
    b = GraphRecord(graph=g, scalars=np.zeros(0), target=None, id="b")
    with pytest.raises(SchemaError, match="record id 'a' appears more than once"):
        Dataset(records=(a, b, a))
    assert Dataset(records=(a, b)).ids == ["a", "b"]


def test_standardization_statistics_and_reuse():
    rng = np.random.default_rng(3)
    train = random_dataset(rng, n_records=5, d=2, m=0)
    stats = compute_standardization(train)
    stacked = np.vstack([rec.graph.attributes for rec in train])
    np.testing.assert_allclose(stats.mean, stacked.mean(axis=0))
    np.testing.assert_allclose(stats.std, stacked.std(axis=0))

    scaled = apply_standardization(train, stats)
    rescaled = np.vstack([rec.graph.attributes for rec in scaled])
    np.testing.assert_allclose(rescaled.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(rescaled.std(axis=0), 1.0, atol=1e-12)

    # test-time data reuses the training statistics verbatim
    test = random_dataset(rng, n_records=4, d=2, m=0)
    expected = (test.records[0].graph.attributes - stats.mean) / stats.std
    shifted = apply_standardization(test, stats)
    np.testing.assert_allclose(shifted.records[0].graph.attributes, expected)
    # and so does the embedding
    kwargs = dict(seed=1, n_projections=3, n_quantiles=4)
    store = embed_dataset(test, WlConfig(iterations=(0,)), standardization=stats, **kwargs)
    plain = embed_dataset(shifted, WlConfig(iterations=(0,)), **kwargs)
    assert np.array_equal(store.blocks[0], plain.blocks[0])

    # persistence keeps the numbers identical
    back = StandardizationStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.std, stats.std)


def test_zero_spread_dimension_keeps_unit_scale():
    g = AttributedGraph(np.array([[1.0, 0.5], [1.0, 1.5]]), np.zeros((0, 2)))
    ds = Dataset(records=(GraphRecord(graph=g, scalars=np.zeros(0), target=None, id="a"),))
    stats = compute_standardization(ds)
    assert stats.std[0] == 1.0
    out = apply_standardization(ds, stats)
    np.testing.assert_allclose(out.records[0].graph.attributes[:, 0], 0.0)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        "mean",
        {"mean": [0.0]},
        {"mean": 0.0, "std": [1.0]},
        {"mean": [0.0], "std": "1"},
        {"mean": ["0"], "std": [1.0]},
        {"mean": [[0.0]], "std": [1.0]},
        {"mean": [True], "std": [1.0]},
        {"mean": [0.0, 1.0], "std": [1.0]},
        {"mean": [0.0], "std": [-1.0]},
        {"mean": [0.0], "std": [0.0]},
        {"mean": [float("nan")], "std": [1.0]},
        {"mean": [0.0], "std": [float("inf")]},
        {"mean": [int("9" * 400)], "std": [1.0]},
    ],
)
def test_malformed_standardization_is_parse_error(obj):
    with pytest.raises(ParseError):
        StandardizationStats.from_dict(obj)


def test_standardization_nested_too_deep_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "standardization.json"
    path.write_text('{"mean": ' + "[" * 100_000 + "]" * 100_000 + ', "std": [1.0]}')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 JSON: maximum "
                                         "recursion depth exceeded"):
        StandardizationStats.load(path)


def test_standardization_of_another_dimension_is_refused():
    rng = np.random.default_rng(4)
    dataset = random_dataset(rng, n_records=2, d=2, m=0)
    stats = StandardizationStats.from_dict({"mean": [0], "std": [1]})
    with pytest.raises(ValidationError, match="1 attribute dimensions, dataset has 2"):
        embed_dataset(dataset, WlConfig(iterations=(0,)), seed=0, n_projections=2,
                      n_quantiles=2, standardization=stats)


@st.composite
def graph_inputs(draw):
    """Attributes, edges and weights, mostly valid, sometimes refused.

    Edges are pairs of nodes, endpoints one past either end of the range,
    self-loops, or a copy of an earlier edge, as given or reversed. A few
    draws put a non-finite value among the attributes or weights, give one
    weight too many, or leave the weights to their default.
    """
    n = draw(st.integers(1, 8))
    node, outside = st.integers(0, n - 1), st.sampled_from([-1, n])
    edges = []
    kinds = ["pair"] * 4 + ["outside", "loop", "copy", "reverse"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "outside":
            edges.append(draw(st.permutations([draw(outside), draw(node)])))
        elif kind == "loop":
            u = draw(node)
            edges.append([u, u])
        elif kind == "pair" or not edges:
            edges.append(draw(st.lists(node, min_size=2, max_size=2, unique=n > 1)))
        else:
            u, v = draw(st.sampled_from(edges))
            edges.append([u, v] if kind == "copy" else [v, u])
    attrs = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * n, max_size=2 * n)))
    weights = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=len(edges),
                                     max_size=len(edges))))
    flaw = draw(st.sampled_from([None] * 26 + ["attribute", "weight", "count", "default"]))
    if flaw == "attribute":
        attrs[draw(st.integers(0, attrs.size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    elif flaw == "weight" and edges:
        weights[draw(st.integers(0, len(edges) - 1))] = draw(st.sampled_from([np.nan, -np.inf]))
    elif flaw == "count":
        weights = np.append(weights, 1.0)
    return (attrs.reshape(n, 2), np.array(edges, dtype=np.int64).reshape(-1, 2),
            None if flaw == "default" else weights)


def _validation_outcome(make, attrs, edges, weights):
    try:
        degrees = make(attrs, edges, weights)
    except ValidationError as exc:
        return "refused", str(exc)
    return degrees.dtype, degrees.tolist()


@settings(max_examples=400, deadline=None)
@given(graph_inputs())
def test_graph_refusals_and_degrees_match_the_unique_version(inputs):
    expected = _validation_outcome(unique_checked_degrees, *inputs)
    got = _validation_outcome(lambda *a: AttributedGraph(*a).degrees, *inputs)
    assert got == expected
