"""Writers refuse what their readers refuse.

Every artifact has one rule, which its writer runs on what it is about to
write and its reader on what it read. A save either raises a SwwlError and
leaves no file (nor, for a store, its directory), or writes a file that
loads back equal.
"""

import itertools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from swwl import GramMatrix, KernelConfig, StandardizationStats, WlConfig, embed_dataset, fit
from swwl.errors import ParseError, SwwlError, ValidationError
from swwl import gp, kernels, sliced
from swwl.binio import read_container, write_container
from swwl.gp import GpModel, _correlation, load_model, save_model
from swwl.kernels import (
    assemble_gram,
    assemble_gram_aniso,
    load_gram_binary,
    load_gram_text,
    save_gram_binary,
    save_gram_text,
    scalar_abs_distances,
    sq_distances,
)
from swwl.sliced import PqFingerprint, PqStore, load_pq_store, save_pq_store
from swwl.synthetic import generate_regression_dataset

HEX = "0123456789abcdef" * 4
_fresh = itertools.count()


def _small_store():
    dataset = generate_regression_dataset(seed=1, n_graphs=6, mean_nodes=8, scalar_dim=1)
    store = embed_dataset(dataset, WlConfig(iterations=(0, 1)), seed=0, n_projections=3,
                          n_quantiles=4, per_iteration=True)
    return replace(store, source_sha256=HEX)


def _with_nan(array):
    array = array.copy()
    array.flat[0] = np.nan
    return array


# --- each case a saver wrote and its reader refused -------------------------

STORE_CASES = {
    "repeated-id": lambda s: replace(s, ids=("a",) * len(s.ids)),
    "no-id": lambda s: replace(s, ids=(), blocks=tuple(b[:0] for b in s.blocks),
                               targets=s.targets[:0], scalars=s.scalars[:0]),
    "block-width": lambda s: replace(s, blocks=(s.blocks[0][:, :-1],) + s.blocks[1:]),
    "block-count": lambda s: replace(s, blocks=s.blocks[:1]),
    "r-1": lambda s: replace(s, fingerprints=tuple(replace(fp, r=1.0) for fp in s.fingerprints)),
    "targets-length": lambda s: replace(s, targets=s.targets[:2]),
    "digest-without-scalars": lambda s: replace(s, scalars=None),
    "nan-block": lambda s: replace(s, blocks=(_with_nan(s.blocks[0]),) + s.blocks[1:]),
    "standardized-1": lambda s: replace(
        s, fingerprints=tuple(replace(fp, standardized=1) for fp in s.fingerprints)),
}


@pytest.mark.parametrize("case", STORE_CASES)
def test_save_pq_store_refuses_what_load_pq_store_refuses(tmp_path, case):
    store = _small_store()
    save_pq_store(tmp_path / "valid", store)  # well formed before the damage
    out = tmp_path / "out"
    with pytest.raises(ValidationError):
        save_pq_store(out, STORE_CASES[case](store))
    assert not out.exists()


def _gram():
    store = _small_store()
    return assemble_gram(store, None, KernelConfig(gamma=0.5))


GRAM_CASES = {
    "repeated-ids": lambda g: GramMatrix(g.values, ("a",) * g.size, g.fingerprint),
    "ids-not-str": lambda g: GramMatrix(g.values, tuple(range(g.size)), g.fingerprint),
    "nan": lambda g: GramMatrix(_with_nan(g.values), g.row_ids, g.fingerprint),
    # fingerprints that JSON cannot carry, or would read back otherwise
    "fingerprint-numpy-integer": lambda g: replace(g, fingerprint={**g.fingerprint,
                                                                   "seed": np.int64(1)}),
    "fingerprint-tuple": lambda g: replace(g, fingerprint={**g.fingerprint, "iterations": (0, 1)}),
    "fingerprint-nan": lambda g: replace(g, fingerprint={**g.fingerprint, "gamma": math.nan}),
    "fingerprint-integer-key": lambda g: replace(g, fingerprint={**g.fingerprint, 1: "a"}),
    "fingerprint-not-a-dict": lambda g: replace(g, fingerprint=list(g.fingerprint)),
}


@pytest.mark.parametrize("case", GRAM_CASES)
def test_save_gram_binary_refuses_what_load_gram_binary_refuses(tmp_path, case):
    path = tmp_path / "gram.bin"
    with pytest.raises(ValidationError):
        save_gram_binary(GRAM_CASES[case](_gram()), path)
    assert not path.exists()


@pytest.mark.parametrize("case", GRAM_CASES)
def test_save_gram_text_refuses_what_its_line_or_load_gram_text_cannot_carry(tmp_path, case):
    # the line is the binary Gram's header: the text saver refuses what the
    # binary one refuses, with the same message
    gram, path = GRAM_CASES[case](_gram()), tmp_path / "gram.txt"
    with pytest.raises(ValidationError) as binary:
        save_gram_binary(gram, tmp_path / "gram.bin")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(binary.value))}$"):
        save_gram_text(gram, path)
    assert not path.exists()


@pytest.mark.parametrize("key, value", [
    ("note", "two words"), ("note", "a\nb"), ("note", "x "), ("a b", 1), ("a=b", 1),
    ("seed", 1.5), ("gamma", "x"), ("gamma", None),
], ids=["value-with-a-space", "value-with-a-newline", "value-with-trailing-space",
        "key-with-a-space", "key-with-equals", "seed-a-float", "gamma-text", "gamma-null"])
def test_a_fingerprint_the_earlier_text_line_refused_loads_back_equal(tmp_path, key, value):
    gram = _gram()
    gram = replace(gram, fingerprint={**gram.fingerprint, key: value})
    save_gram_text(gram, tmp_path / "gram.txt")
    assert load_gram_text(tmp_path / "gram.txt").fingerprint == gram.fingerprint


def _model():
    rng = np.random.default_rng(10)
    ids = tuple(f"r{i}" for i in range(12))
    fp = PqFingerprint(seed=0, n_projections=1, n_quantiles=5, r=2.0, dim=5)
    return fit(rng.standard_normal((12, 5)), rng.standard_normal((12, 2)),
               rng.standard_normal(12), ids=ids, fingerprint=fp)


MODEL_CASES = {
    "two-records": lambda m: replace(m, chol=m.chol[:2, :2], targets=m.targets[:2],
                                     train_features=m.train_features[:2],
                                     train_scalars=m.train_scalars[:2], train_ids=m.train_ids[:2]),
    "ranges-times-10": lambda m: replace(m, ranges=10.0 * m.ranges),
    "negative-nugget": lambda m: replace(m, nugget=-5.0),
    "repeated-ids": lambda m: replace(m, train_ids=("a",) * m.size),
}


@pytest.mark.parametrize("case", MODEL_CASES)
def test_save_model_refuses_what_load_model_refuses(tmp_path, case):
    path = tmp_path / "model.bin"
    with pytest.raises(ValidationError):
        save_model(MODEL_CASES[case](_model()), path)
    assert not path.exists()


@pytest.mark.parametrize("artifact", ["store", "model"])
def test_a_malformed_fingerprint_is_refused_as_every_other_field(tmp_path, artifact):
    # P = true is refused by the writer, with no file, and by the reader,
    # naming the file it read
    if artifact == "store":
        good, path = _small_store(), tmp_path / "emb" / sliced.PQ_STORE_NAME
        bad = replace(good, fingerprints=(replace(good.fingerprints[0], n_projections=True),)
                      + good.fingerprints[1:])
        save, load = (lambda s: save_pq_store(path.parent, s)), (lambda: load_pq_store(path.parent))
    else:
        good, path = _model(), tmp_path / "model.bin"
        bad = replace(good, fingerprint=replace(good.fingerprint, n_projections=True))
        save, load = (lambda m: save_model(m, path)), (lambda: load_model(path))
    with pytest.raises(ValidationError, match="^malformed embedding fingerprint"):
        save(bad)
    assert not path.exists()
    save(good)
    magic = sliced.PQ_STORE_MAGIC if artifact == "store" else gp.MODEL_MAGIC
    header, arrays = read_container(path, magic)
    for fp in header.get("fingerprints") or [header.get("fingerprint")]:
        fp["projections"] = True
    write_container(path, magic, header, arrays)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: malformed embedding"):
        load()


@pytest.mark.parametrize(
    "mean, std",
    [([0.0, 0.0], [0.0, 1.0]), ([0.0, 0.0], [-1.0, 1.0]), ([0.0], [1.0, 1.0]),
     ([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0]), ([[0.0]], [[1.0]])],
    ids=["zero-std", "negative-std", "lengths", "nan-mean", "inf-std", "not-1d"],
)
def test_standardization_stats_refuse_what_from_dict_refuses(mean, std):
    # std = [0, 1] gave a divide-by-zero warning and "attributes contain
    # non-finite values" at embed time
    with pytest.raises(ValidationError):
        StandardizationStats(mean=np.array(mean), std=np.array(std))


def test_standardization_stats_take_lists_as_arrays():
    # lists raised a bare AttributeError, and text must be a ValidationError
    listed = StandardizationStats(mean=[0.0, 1.0], std=[1.0, 2.0])
    arrays = StandardizationStats(mean=np.array([0.0, 1.0]), std=np.array([1.0, 2.0]))
    assert isinstance(listed.mean, np.ndarray) and listed.sha256() == arrays.sha256()
    with pytest.raises(ValidationError, match="^'mean' must be a vector of numbers"):
        StandardizationStats(mean="abc", std=[1.0])


# --- property: any drawn object either is refused or round-trips ------------

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)
BAD_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf])
IDS = st.text(max_size=3)


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(FINITE, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


def _poison(draw, array):
    """``array`` with one entry NaN or infinite (unchanged if empty)."""
    if array.size:
        array = array.copy()
        array.flat[draw(st.integers(0, array.size - 1))] = draw(BAD_NUMBER)
    return array


@st.composite
def stores(draw):
    n = draw(st.integers(1, 4))
    ids = tuple(draw(st.lists(IDS, min_size=n, max_size=n, unique=True)))
    fps, blocks = [], []
    for k in range(draw(st.integers(1, 3))):
        p, q = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        fps.append(PqFingerprint(
            seed=draw(st.integers(0, 2**40)), n_projections=p, n_quantiles=q, r=2.0,
            dim=draw(st.integers(1, 4)), block=None if k == 0 else k - 1,
            iterations=draw(st.none() | st.lists(st.integers(0, 5), max_size=3).map(tuple)),
            standardized=draw(st.booleans()),
            standardization_sha256=draw(st.none() | st.just(HEX)),
        ))
        blocks.append(_matrix(draw, n, p * q))
    m = draw(st.integers(0, 2))
    scalars = _matrix(draw, n, m) if draw(st.booleans()) else None
    store = PqStore(
        ids=ids, blocks=tuple(blocks), fingerprints=tuple(fps),
        targets=_matrix(draw, 1, n)[0] if draw(st.booleans()) else None,
        scalars=scalars,
        source_sha256=None if scalars is None else draw(st.none() | st.just(HEX)),
    )
    field = draw(st.sampled_from([None, "ids", "blocks", "fingerprints", "targets",
                                  "scalars", "source_sha256"]))
    if field == "ids":
        store = replace(store, ids=draw(st.sampled_from([
            ids[:1] * n, ids[:-1], ids + ("extra",), (7,) + ids[1:]])))
    elif field == "blocks":
        block = draw(st.sampled_from([_poison(draw, blocks[0]), blocks[0][:, 1:],
                                      blocks[0][:-1], blocks[0].reshape(-1)]))
        store = replace(store, blocks=draw(st.sampled_from(
            [(block,) + store.blocks[1:], store.blocks[:-1], store.blocks + (block,)])))
    elif field == "fingerprints":
        fp = draw(st.sampled_from([replace(fps[0], r=1.0), replace(fps[0], r=math.nan),
                                   replace(fps[0], n_projections=fps[0].n_projections + 1)]))
        store = replace(store, fingerprints=(fp,) + store.fingerprints[1:])
    elif field == "targets":
        targets = np.arange(float(n + 1)) if store.targets is None else store.targets
        store = replace(store, targets=draw(st.sampled_from(
            [targets[:-1], _poison(draw, targets), targets.reshape(1, -1)])))
    elif field == "scalars":
        scalars = np.ones((n + 1, 1)) if scalars is None else scalars
        store = replace(store, scalars=draw(st.sampled_from(
            [scalars[:-1], _poison(draw, scalars), scalars.reshape(-1)])))
    elif field == "source_sha256":
        store = replace(store, source_sha256=draw(st.sampled_from(
            [HEX.upper(), HEX[:-1], "z" * 64, HEX])))
    return store


def _fresh_path(tmp_path, name):
    return tmp_path / f"{next(_fresh)}" / name


def _reader_refuses_it_too(module, rule, save, load, path):
    """``save(path)`` with ``module``'s payload check and ``rule`` switched
    off writes a file that ``load(path)`` refuses: the writer refused only
    what its reader refuses."""
    with mock.patch.object(module, "check_payload"), mock.patch.object(module, rule):
        save(path)
    with pytest.raises(ParseError):
        load(path)


def _optional_equal(a, b):
    return (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(stores())
def test_a_drawn_store_is_refused_or_loads_back_equal(tmp_path, store):
    directory = _fresh_path(tmp_path, "emb")
    try:
        save_pq_store(directory, store)
    except SwwlError:
        assert not directory.exists()
        _reader_refuses_it_too(sliced, "store_from_container",
                               lambda d: save_pq_store(d, store), load_pq_store, directory)
        return
    back = load_pq_store(directory)
    assert back.ids == store.ids and back.fingerprints == store.fingerprints
    assert len(back.blocks) == len(store.blocks)
    assert all(np.array_equal(a, b) for a, b in zip(back.blocks, store.blocks))
    assert _optional_equal(back.targets, store.targets)
    assert _optional_equal(back.scalars, store.scalars)
    assert back.source_sha256 == store.source_sha256


JSON_VALUES = st.none() | st.booleans() | st.integers(-10**6, 10**6) | FINITE | st.text(
    max_size=4) | st.lists(st.integers(-5, 5), max_size=3)


@st.composite
def grams(draw):
    n = draw(st.integers(0, 4))
    values = _matrix(draw, n, n)
    ids = tuple(draw(st.lists(IDS, min_size=n, max_size=n, unique=True)))
    fingerprint = draw(st.dictionaries(st.text(min_size=1, max_size=4), JSON_VALUES, max_size=3))
    field = draw(st.sampled_from([None, "values", "row_ids", "fingerprint"]))
    if field == "values":
        values = _poison(draw, values)
    elif field == "row_ids" and n:
        ids = draw(st.sampled_from([ids[:1] * n, (0,) + ids[1:]]))
    elif field == "fingerprint":
        fingerprint = draw(st.sampled_from([
            {**fingerprint, "gamma": math.nan}, {**fingerprint, "gamma": [math.inf]},
            list(fingerprint), None]))
    return GramMatrix(values, ids, fingerprint)


def _gram_refused_or_loads_back_equal(tmp_path, gram, save, load):
    """The Gram ``load`` reads back from what ``save`` wrote, equal to
    ``gram``; or None if ``save`` refused it, left no file, and with its
    rule switched off writes a file that ``load`` refuses."""
    path = _fresh_path(tmp_path, "gram")
    path.parent.mkdir()
    try:
        save(gram, path)
    except SwwlError:
        assert not path.exists()
        _reader_refuses_it_too(kernels, "gram_from_container", lambda p: save(gram, p), load,
                               path)
        return None
    back = load(path)
    assert np.array_equal(back.values, gram.values)
    assert np.array_equal(np.signbit(back.values), np.signbit(gram.values))
    assert back.row_ids == gram.row_ids and back.fingerprint == gram.fingerprint
    return back


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grams())
def test_a_drawn_binary_gram_is_refused_or_loads_back_equal(tmp_path, gram):
    _gram_refused_or_loads_back_equal(tmp_path, gram, save_gram_binary, load_gram_binary)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grams())
def test_a_drawn_text_gram_is_refused_or_loads_back_equal(tmp_path, gram):
    # refused exactly when the binary Gram is, or read back equal to it
    text, binary = (_gram_refused_or_loads_back_equal(tmp_path, gram, save, load) for save, load in
                    ((save_gram_text, load_gram_text), (save_gram_binary, load_gram_binary)))
    assert (text is None) == (binary is None)


@st.composite
def models(draw):
    n, width, m = draw(st.integers(3, 6)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    features = _matrix(draw, n, width)
    scalars = _matrix(draw, n, m)
    targets = np.arange(float(n)) + _matrix(draw, 1, n)[0] * 1e-3
    ranges = np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=1 + m, max_size=1 + m)))
    nugget = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    corr = _correlation(sq_distances(features, features), scalar_abs_distances(scalars),
                        ranges, nugget)
    ids = tuple(draw(st.lists(IDS, min_size=n, max_size=n, unique=True)))
    fp = draw(st.none() | st.just(PqFingerprint(seed=1, n_projections=1, n_quantiles=width,
                                                r=2.0, dim=2)))
    model = GpModel(ranges=ranges, nugget=nugget, chol=np.linalg.cholesky(corr),
                    targets=targets, train_features=features, train_scalars=scalars,
                    train_ids=ids, fingerprint=fp)
    field = draw(st.sampled_from([None, "ranges", "nugget", "chol", "targets",
                                  "train_features", "train_ids", "records"]))
    try:
        if field == "ranges":
            model = replace(model, ranges=draw(st.sampled_from(
                [10.0 * ranges, -ranges, ranges[:-1], _poison(draw, ranges)])))
        elif field == "nugget":
            model = replace(model, nugget=draw(st.sampled_from([-1.0, math.nan, 2.0 * nugget])))
        elif field == "chol":
            chol = model.chol.copy()
            chol[0, n - 1] = 1e-3
            model = replace(model, chol=draw(st.sampled_from([chol, 2.0 * model.chol])))
        elif field == "targets":
            model = replace(model, targets=_poison(draw, targets))
        elif field == "train_features":
            model = replace(model, train_features=_poison(draw, features))
        elif field == "train_ids":
            model = replace(model, train_ids=draw(st.sampled_from(
                [ids[:1] * n, ids[:-1], (0,) + ids[1:]])))
        elif field == "records":  # a consistent model of two records
            model = replace(model, chol=model.chol[:2, :2], targets=targets[:2],
                            train_features=features[:2], train_scalars=scalars[:2],
                            train_ids=ids[:2])
    except SwwlError:  # GpModel refuses to exist: nothing to save
        assume(False)
    return model


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(models())
def test_a_drawn_model_is_refused_or_loads_back_equal(tmp_path, model):
    path = _fresh_path(tmp_path, "model.bin")
    path.parent.mkdir()
    try:
        save_model(model, path)
    except SwwlError:
        assert not path.exists()
        _reader_refuses_it_too(gp, "model_from_container",
                               lambda p: save_model(model, p), load_model, path)
        return
    back = load_model(path)
    for name in ("ranges", "chol", "targets", "train_features", "train_scalars"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
    assert back.nugget == model.nugget and back.train_ids == model.train_ids
    assert back.fingerprint == model.fingerprint


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), n_graphs=st.integers(3, 6), nodes=st.integers(3, 9),
       m=st.integers(0, 2), p=st.integers(1, 3), q=st.integers(2, 4),
       standardize=st.booleans())
def test_what_the_library_makes_always_saves(tmp_path, seed, n_graphs, nodes, m, p, q,
                                             standardize):
    dataset = generate_regression_dataset(seed=seed, n_graphs=n_graphs, mean_nodes=nodes,
                                          scalar_dim=m)
    stats = None
    if standardize:
        stats = StandardizationStats(mean=np.zeros(dataset.attr_dim),
                                     std=np.full(dataset.attr_dim, 2.0))
    store = embed_dataset(dataset, WlConfig(iterations=(0, 1)), seed=seed, n_projections=p,
                          n_quantiles=q, standardization=stats, per_iteration=True)
    directory = _fresh_path(tmp_path, "emb")
    save_pq_store(directory, store)
    assert load_pq_store(directory).fingerprints == store.fingerprints
    for gram in (assemble_gram(store, store.scalars if m else None,
                               KernelConfig(gamma=0.5, matern_lengthscales=(1.0,) * m)),
                 assemble_gram_aniso(store, [0.5, 2.0])):
        save_gram_binary(gram, directory / "gram.bin")
        save_gram_text(gram, directory / "gram.txt")
        assert np.array_equal(load_gram_binary(directory / "gram.bin").values, gram.values)
        assert np.array_equal(load_gram_text(directory / "gram.txt").values, gram.values)
    model = fit(store.blocks[0], store.scalars if m else None, store.targets, ids=store.ids,
                fingerprint=store.fingerprints[0])
    save_model(model, directory / "model.bin")
    assert np.array_equal(load_model(directory / "model.bin").chol, model.chol)
