"""End-to-end CLI flows on small data: artifacts, manifests, exit codes."""

import argparse
import csv
import json
import os
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import swwl.cli
from swwl import AttributedGraph, Dataset, GraphRecord, errors, load_dataset, save_dataset
from swwl.binio import read_container, write_container
from swwl.cli import build_parser, main
from swwl.gp import (
    MODEL_MAGIC,
    GpSettings,
    build_train_distances,
    fit,
    load_model,
    marginal_posterior,
    save_model,
)
from swwl.kernels import GRAM_MAGIC, load_gram, load_gram_binary, load_gram_text
from swwl.sliced import PQ_STORE_MAGIC, PQ_STORE_NAME, load_pq_store
from swwl.synthetic import generate_regression_dataset

from test_graphs import BAD_JSONL_LINES


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus train/test embedding caches."""
    root = tmp_path_factory.mktemp("cli")
    train, test = root / "train.jsonl", root / "test.jsonl"
    assert run(
        "generate", "--out-train", train, "--out-test", test,
        "--n-train", 12, "--n-test", 5, "--nodes", 30, "--seed", 3,
    ) == 0
    emb_train, emb_test = root / "emb-train", root / "emb-test"
    common = ["--iterations", "0,1", "--projections", 6, "--quantiles", 12, "--seed", 9]
    assert run("embed", "--input", train, "--out", emb_train, *common) == 0
    assert run("embed", "--input", test, "--out", emb_test, *common) == 0
    return root


def store_bytes(directory):
    return (directory / PQ_STORE_NAME).read_bytes()


def test_generate_outputs_and_manifest(workspace):
    train = load_dataset(workspace / "train.jsonl")
    test = load_dataset(workspace / "test.jsonl")
    assert len(train) == 12 and len(test) == 5
    assert train.has_targets and test.has_targets
    manifest = json.loads((workspace / "train.jsonl.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["counts"] == {"train": 12, "test": 5}
    assert manifest["total_ms"] >= 0.95 * sum(manifest["timings_ms"].values())


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--n-train", -1), "--n-train must be at least 1, got -1"),
        (("--n-test", 0), "--n-test must be at least 1, got 0"),
        (("--nodes", -5), "mean_nodes must be at least 2, got -5"),
        (("--nodes", 1), "mean_nodes must be at least 2, got 1"),
        (("--noise", -0.1), "noise_fraction must be finite and nonnegative, got -0.1"),
        (("--noise", "nan"), "noise_fraction must be finite and nonnegative, got nan"),
        (("--node-spread", -1), "node_spread must be finite and nonnegative, got -1.0"),
        (("--node-spread", "inf"), "node_spread must be finite and nonnegative, got inf"),
        (("--scalars", -1), "scalar_dim must be at least 0, got -1"),
    ],
    ids=["n-train-negative", "n-test-0", "nodes-negative", "nodes-1", "noise-negative",
         "noise-nan", "node-spread-negative", "node-spread-inf", "scalars-negative"],
)
def test_generate_refuses_values_it_cannot_honour_exit_2(tmp_path, capsys, flags, message):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert run("generate", "--out-train", train, "--out-test", test, "--n-train", 3,
               "--n-test", 5, "--nodes", 6, *flags) == 2
    assert message in capsys.readouterr().err
    assert not train.exists() and not test.exists()


@pytest.mark.parametrize("command", ["generate", "embed", "fit"])
def test_a_negative_seed_exits_2_naming_it_and_writes_nothing(workspace, tmp_path, capsys,
                                                              command):
    out = tmp_path / "out"
    argv = {
        "generate": ("--out-train", out, "--out-test", tmp_path / "test.jsonl", "--seed", -1),
        "embed": ("--input", workspace / "train.jsonl", "--out", out, "--seed", -1),
        "fit": ("--input", workspace / "train.jsonl", "--embeddings", workspace / "emb-train",
                "--out", out, "--opt-seed", -1),
    }[command]
    assert run(command, *argv) == 2
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n_graphs", [0, -1])
def test_generator_refuses_fewer_than_one_graph(n_graphs):
    message = f"n_graphs must be at least 1, got {n_graphs}"
    with pytest.raises(errors.ValidationError, match=message):
        generate_regression_dataset(seed=0, n_graphs=n_graphs)


def test_embed_writes_one_store(workspace):
    emb = workspace / "emb-train"
    assert sorted(p.name for p in emb.iterdir()) == sorted([PQ_STORE_NAME, "manifest.json"])
    store = load_pq_store(emb)
    ids = load_dataset(workspace / "train.jsonl").ids
    assert store.ids == tuple(ids)
    assert len(store.blocks) == 1 and store.blocks[0].shape == (12, 6 * 12)
    manifest = json.loads((emb / "manifest.json").read_text())
    assert manifest["parameters"]["iterations"] == [0, 1]
    assert manifest["ids"] == list(ids)


def test_embed_rerun_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "again"
    assert run(
        "embed", "--input", workspace / "train.jsonl", "--out", out,
        "--iterations", "0,1", "--projections", 6, "--quantiles", 12, "--seed", 9,
    ) == 0
    assert store_bytes(out) == store_bytes(workspace / "emb-train")


def test_embed_sqrt_skip_schedule(tmp_path):
    rng = np.random.default_rng(0)
    records = tuple(
        GraphRecord(
            graph=AttributedGraph(rng.standard_normal((900, 1)), np.array([[0, 1]])),
            scalars=np.zeros(0),
            target=None,
            id=f"big{i}",
        )
        for i in range(3)
    )
    path = tmp_path / "big.jsonl"
    save_dataset(Dataset(records=records), path)
    out = tmp_path / "emb"
    assert run(
        "embed", "--input", path, "--out", out, "--iterations", "sqrt-skip",
        "--projections", 2, "--quantiles", 4, "--seed", 1,
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["iterations"] == [0, 30, 60, 90]


def test_embed_bad_dataset_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":"x","nodes":[[0.0],[1.0]],"edges":[[0,7]]}\n')
    assert run(
        "embed", "--input", bad, "--out", tmp_path / "emb", "--projections", 2,
        "--quantiles", 4,
    ) == 2


@pytest.mark.parametrize(
    "line, flags, message",
    [(line, (), message) for line, _, message in BAD_JSONL_LINES.values()]
    + [('{"id": "b", "nodes": [[1.0]], "scalars": [2.0]}', ("--iterations=-1,0",),
        "iterations[0] must be at least 0, got -1")],
    ids=[*BAD_JSONL_LINES, "negative-iteration"],
)
def test_embed_refuses_a_malformed_record_or_iteration_exit_2(tmp_path, capsys, line, flags,
                                                              message):
    path = tmp_path / "ds.jsonl"
    path.write_text('{"id": "a", "nodes": [[0.0]], "scalars": [1.0]}\n' + line + "\n")
    out = tmp_path / "emb"
    assert run("embed", "--input", path, "--out", out, "--projections", 2, "--quantiles", 4,
               *flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_failed_embed_leaves_no_output_directory(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":"x","nodes":[[0.0],[1.0]],"edges":[[0,7]]}\n')
    out = tmp_path / "emb"
    assert run(
        "embed", "--input", bad, "--out", out, "--projections", 2, "--quantiles", 4,
        "--standardize",
    ) == 2
    assert not out.exists()


def test_embed_refuses_a_repeated_record_id_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    record = '{"id":"a","nodes":[[0.0],[1.0]],"edges":[[0,1]],"target":1.0}'
    bad.write_text(record + "\n" + record + "\n")
    out = tmp_path / "emb"
    assert run("embed", "--input", bad, "--out", out, "--projections", 2, "--quantiles", 4) == 2
    assert "line 2: record id 'a' repeats the id of line 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "raw", ["null", "true", '["x"]', '{"x": 1}'], ids=["null", "boolean", "array", "object"]
)
def test_embed_refuses_a_record_id_that_is_not_a_string_or_a_number_exit_2(
    tmp_path, capsys, raw
):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":"a","nodes":[[0.0]]}\n' f'{{"id":{raw},"nodes":[[1.0]]}}\n')
    out = tmp_path / "emb"
    assert run("embed", "--input", bad, "--out", out, "--projections", 2, "--quantiles", 4) == 2
    assert "line 2: record id" in capsys.readouterr().err
    assert not out.exists()


def test_gram_identical_caches_all_ones(tmp_path):
    rng = np.random.default_rng(1)
    g = AttributedGraph(rng.standard_normal((6, 2)), np.array([[0, 1], [2, 3]]))
    records = tuple(
        GraphRecord(graph=g, scalars=np.zeros(0), target=None, id=f"same{i}")
        for i in range(4)
    )
    path = tmp_path / "same.jsonl"
    save_dataset(Dataset(records=records), path)
    emb = tmp_path / "emb"
    assert run("embed", "--input", path, "--out", emb, "--projections", 3,
               "--quantiles", 5, "--seed", 0) == 0
    gram_path = tmp_path / "gram.txt"
    assert run("gram", "--embeddings", emb, "--out", gram_path, "--gamma", 1.0) == 0
    gram = load_gram_text(gram_path)
    np.testing.assert_allclose(gram.values, np.ones((4, 4)))


def test_gram_distances_then_exponentiation_matches_gamma(workspace, tmp_path):
    emb = workspace / "emb-train"
    d_path, k_path = tmp_path / "d2.txt", tmp_path / "k.txt"
    assert run("gram", "--embeddings", emb, "--out", d_path, "--distances-only") == 0
    assert run("gram", "--embeddings", emb, "--out", k_path, "--gamma", 1.5,
               "--binary-out", tmp_path / "k.bin") == 0
    d2 = load_gram_text(d_path).values
    k = load_gram_text(k_path).values
    np.testing.assert_allclose(np.exp(-1.5 * d2), k, rtol=1e-15, atol=1e-15)
    kb = load_gram_binary(tmp_path / "k.bin")
    assert np.array_equal(kb.values, k)


@pytest.mark.parametrize("flags", [["--gamma", "1.5"], ["--distances-only"], ["--gammas", "0.5,2"]],
                         ids=["swwl", "distances-only", "aswwl"])
def test_gram_text_and_binary_outputs_load_back_equal(aniso_store, tmp_path, flags):
    text, binary = tmp_path / "gram.txt", tmp_path / "gram.bin"
    assert run("gram", "--embeddings", aniso_store, "--out", text, "--binary-out", binary,
               *flags) == 0
    got, want = load_gram(text), load_gram(binary)
    assert np.array_equal(got.values, want.values)
    assert got.row_ids == want.row_ids == load_pq_store(aniso_store).ids
    assert got.fingerprint == want.fingerprint
    assert np.array_equal(np.loadtxt(text), want.values)


def test_gram_rerun_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run("gram", "--embeddings", workspace / "emb-train", "--out", out,
                   "--gamma", 2.0) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [(), ("--gamma", 1, "--gammas", "0.5,1"), ("--distances-only", "--gamma", 5),
     ("--gammas", "1", "--distances-only")],
    ids=["none", "gamma-and-gammas", "distances-and-gamma", "gammas-and-distances"],
)
def test_gram_takes_exactly_one_kernel_exits_2(workspace, tmp_path, flags):
    with pytest.raises(SystemExit) as info:
        run("gram", "--embeddings", workspace / "emb-train", "--out", tmp_path / "g.txt",
            *flags)
    assert info.value.code == 2
    assert not (tmp_path / "g.txt").exists()


@pytest.fixture(scope="module")
def aniso_store(workspace):
    """The training records with one block per kept iteration (0 and 1)."""
    out = workspace / "emb-aniso"
    assert run("embed", "--input", workspace / "train.jsonl", "--out", out, "--iterations",
               "0,1", "--projections", 6, "--quantiles", 12, "--seed", 9, "--aniso") == 0
    return out


def _exit_code(*argv):
    """``run``'s exit code, argparse's refusals included."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "flags, message",
    [(("--gamma", "nan"), "must be finite and"), (("--gamma", "inf"), "must be finite and"),
     (("--gamma", 0), "must be finite and"),
     # the kernel variance and nugget are no flags of gram's
     (("--gamma", 1, "--variance", -2), "unrecognized arguments: --variance"),
     (("--gamma", 1, "--nugget", -1), "unrecognized arguments: --nugget"),
     (("--gamma", 1, "--variance", "inf"), "unrecognized arguments: --variance"),
     (("--gammas=-1,1,1,1", "--variance", -2, "--nugget", -1), "unrecognized arguments"),
     (("--gammas=-1,1",), "must be finite and"), (("--gammas", "1,nan"), "must be finite and"),
     (("--gammas", "1,1", "--variance", "nan"), "unrecognized arguments: --variance"),
     (("--gammas", "1,1", "--nugget", -1), "unrecognized arguments: --nugget")],
    ids=["gamma-nan", "gamma-inf", "gamma-0", "variance-negative", "nugget-negative",
         "variance-inf", "gammas-variance-nugget-negative", "gammas-negative", "gammas-nan",
         "gammas-variance-nan", "gammas-nugget-negative"],
)
def test_gram_refuses_bad_hyperparameters_exits_2(aniso_store, tmp_path, capsys, flags, message):
    assert _exit_code("gram", "--embeddings", aniso_store, "--out", tmp_path / "g.txt",
                      *flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("flags", [("--variance", 5), ("--nugget", 3), ("--nugget", 0)])
def test_gram_distances_only_refuses_kernel_flags_exits_2(workspace, tmp_path, capsys, flags):
    assert _exit_code("gram", "--embeddings", workspace / "emb-train", "--out",
                      tmp_path / "d.txt", "--distances-only", *flags) == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    assert not (tmp_path / "d.txt").exists()


def test_gram_manifests_record_no_variance_or_nugget(workspace, aniso_store, tmp_path):
    runs = {
        "iso": ("--embeddings", workspace / "emb-train", "--gamma", 1),
        "aniso": ("--embeddings", aniso_store, "--gammas", "1,2"),
        "d2": ("--embeddings", workspace / "emb-train", "--distances-only"),
    }
    for name, flags in runs.items():
        out = tmp_path / f"{name}.txt"
        assert run("gram", "--out", out, *flags) == 0
        parameters = json.loads(Path(f"{out}.manifest.json").read_text())["parameters"]
        assert "variance" not in parameters and "nugget" not in parameters, name
        assert not {"variance", "nugget"} & load_gram(out).fingerprint.keys(), name


def test_embed_has_no_distance_order_flag(workspace, tmp_path):
    # the Gram and the GP use squared Euclidean distances, the r = 2 estimate
    with pytest.raises(SystemExit) as info:
        run("embed", "--input", workspace / "train.jsonl", "--out", tmp_path / "e", "--r", 1)
    assert info.value.code == 2


def test_gram_gammas_without_iteration_blocks_exits_2(workspace, tmp_path, capsys):
    assert run("gram", "--embeddings", workspace / "emb-train", "--out", tmp_path / "g.txt",
               "--gammas", "0.5,1") == 2
    assert "no per-iteration blocks (embed --aniso)" in capsys.readouterr().err


def test_truncated_gram_and_a_store_of_no_record_exit_2(workspace, tmp_path, capsys):
    gram = tmp_path / "gram.bin"
    gram.write_bytes(GRAM_MAGIC.encode() + b"\x00" + b"\x05\x00\x00")
    assert run("check-psd", "--gram", gram) == 2
    assert "truncated header length" in capsys.readouterr().err
    store = tmp_path / "emb"
    store.mkdir()
    header, arrays = read_container(workspace / "emb-train" / PQ_STORE_NAME, PQ_STORE_MAGIC)
    header.update(ids=[], targets=[], scalars=[])
    write_container(store / PQ_STORE_NAME, PQ_STORE_MAGIC, header, {"block0": arrays["block0"][:0]})
    assert run("gram", "--embeddings", store, "--out", tmp_path / "g.txt", "--gamma", 1) == 2
    assert "'ids' lists no record" in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


def test_gram_missing_caches_exits_2(tmp_path):
    assert run("gram", "--embeddings", tmp_path, "--out", tmp_path / "g.txt",
               "--gamma", 1.0) == 2


def test_gram_malformed_store_exits_2(workspace, tmp_path):
    good = store_bytes(workspace / "emb-train")
    for bad in (good[:-8], good + b"\0" * 8, good.replace(b'"seed"', b'"sead"')):
        (tmp_path / PQ_STORE_NAME).write_bytes(bad)
        assert run("gram", "--embeddings", tmp_path, "--out", tmp_path / "g.txt",
                   "--gamma", 1.0) == 2


def test_fit_and_predict_with_another_datasets_embeddings_exit_3(workspace, tmp_path):
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-test", "--out", tmp_path / "m.bin",
    ) == 3
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--multistarts", 1,
    ) == 0
    assert run(
        "predict", "--model", model_path, "--input", workspace / "test.jsonl",
        "--embeddings", workspace / "emb-train", "--out", tmp_path / "p.csv",
    ) == 3


def test_fit_predict_interpolates_train(workspace, tmp_path):
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--nugget", 0.0,
        "--multistarts", 3,
    ) == 0
    pred_path = tmp_path / "pred.csv"
    assert run(
        "predict", "--model", model_path, "--input", workspace / "train.jsonl",
        "--embeddings", workspace / "emb-train", "--out", pred_path,
    ) == 0
    with open(pred_path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["id", "mean", "scale", "lo95", "hi95"]
    truth = load_dataset(workspace / "train.jsonl").targets()
    means = np.array([float(r["mean"]) for r in rows])
    assert np.sqrt(np.mean((means - truth) ** 2)) < 1e-6 * np.std(truth)
    manifest = json.loads(pred_path.with_suffix(".csv.manifest.json").read_text())
    assert manifest["metrics"]["rmse"] < 1e-6 * np.std(truth)


def test_fit_then_predict_test_set_and_reruns(workspace, tmp_path):
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--multistarts", 2,
    ) == 0
    model_path2 = tmp_path / "model2.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path2, "--multistarts", 2,
    ) == 0
    assert model_path.read_bytes() == model_path2.read_bytes()
    model = load_model(model_path)
    assert model.size == 12
    optimizer = json.loads(model_path.with_suffix(".bin.manifest.json").read_text())["optimizer"]
    assert set(optimizer) == {
        "posterior_evaluations", "repeated_points", "failed_points", "log_posterior", "starts",
    }
    assert [set(s) for s in optimizer["starts"]] == [
        {"log_posterior", "posterior_evaluations"}
    ] * 2
    assert max(s["log_posterior"] for s in optimizer["starts"]) == optimizer["log_posterior"]
    assert optimizer["posterior_evaluations"] > 0 and optimizer["repeated_points"] >= 0
    assert 0 <= optimizer["failed_points"] < optimizer["posterior_evaluations"]
    assert optimizer["log_posterior"] == pytest.approx(
        marginal_posterior(np.log(model.ranges), build_train_distances(
            model.train_features, None), model.targets, model.nugget),
        rel=1e-9,
    )
    preds = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
    for p in preds:
        assert run(
            "predict", "--model", model_path, "--input", workspace / "test.jsonl",
            "--embeddings", workspace / "emb-test", "--out", p,
        ) == 0
    assert preds[0].read_bytes() == preds[1].read_bytes()
    # the coverage is the share of test targets between lo95 and hi95
    with open(preds[0]) as fh:
        rows = list(csv.DictReader(fh))
    truth = load_dataset(workspace / "test.jsonl").targets()
    inside = [float(r["lo95"]) <= t <= float(r["hi95"]) for r, t in zip(rows, truth)]
    manifest = json.loads(preds[0].with_suffix(".csv.manifest.json").read_text())
    assert manifest["metrics"]["coverage95"] == pytest.approx(np.mean(inside))
    assert manifest["counts"] == {"records": len(rows), "variances_floored": 0}


def _fit_and_predict(root, train, test, emb_train, emb_test, tag):
    """Run fit and predict; the model and predictions bytes and both manifests."""
    model, pred = root / f"model-{tag}.bin", root / f"pred-{tag}.csv"
    assert run("fit", "--input", train, "--embeddings", emb_train, "--out", model) == 0
    assert run("predict", "--model", model, "--input", test, "--embeddings", emb_test,
               "--out", pred) == 0
    manifests = [json.loads(Path(f"{path}.manifest.json").read_text()) for path in (model, pred)]
    return model.read_bytes(), pred.read_bytes(), manifests


def _with_blank_line(path, target):
    """A copy of ``path`` whose records are the same, but whose bytes are not."""
    target.write_bytes(path.read_bytes() + b"\n")
    return target


def test_store_and_parsed_input_give_identical_artifacts(tmp_path):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert run("generate", "--out-train", train, "--out-test", test, "--n-train", 15,
               "--n-test", 4, "--nodes", 12, "--scalars", 2, "--seed", 8) == 0
    embs = tmp_path / "emb-train", tmp_path / "emb-test"
    for path, emb in zip((train, test), embs):
        assert run("embed", "--input", path, "--out", emb, "--projections", 3,
                   "--quantiles", 5) == 0
    model, pred, manifests = _fit_and_predict(tmp_path, train, test, *embs, "store")
    assert [m["records_from"] for m in manifests] == ["store", "store"]
    parsed = _fit_and_predict(
        tmp_path, _with_blank_line(train, tmp_path / "train2.jsonl"),
        _with_blank_line(test, tmp_path / "test2.jsonl"), *embs, "input",
    )
    assert [m["records_from"] for m in parsed[2]] == ["input", "input"]
    assert parsed[:2] == (model, pred)
    for key in ("fitted", "optimizer"):
        assert parsed[2][0][key] == manifests[0][key]
    assert parsed[2][1]["metrics"] == manifests[1]["metrics"]


def test_edited_input_is_parsed_and_its_targets_used(workspace, tmp_path):
    lines = (workspace / "train.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[3])
    record["target"] += 1.0
    lines[3] = json.dumps(record) + "\n"
    edited = tmp_path / "train.jsonl"
    edited.write_text("".join(lines))
    model_path = tmp_path / "model.bin"
    assert run("fit", "--input", edited, "--embeddings", workspace / "emb-train",
               "--out", model_path) == 0
    manifest = json.loads((tmp_path / "model.bin.manifest.json").read_text())
    assert manifest["records_from"] == "input"
    assert np.array_equal(load_model(model_path).targets, load_dataset(edited).targets())


def _edited_store(source, target, edit):
    """A copy of the store in ``source``, written to ``target`` after ``edit(header, arrays)``."""
    header, arrays = read_container(source / PQ_STORE_NAME, "SWWL-S1")
    edit(header, arrays)
    target.mkdir()
    write_container(target / PQ_STORE_NAME, "SWWL-S1", header, arrays)
    return target


def _without_recorded_records(header, arrays):
    """A store as written before embed recorded targets, scalars and the hash."""
    for key in ("targets", "scalars", "source_sha256"):
        del header[key]


def _nan_feature(header, arrays):
    arrays["block0"][1, 2] = np.nan


def test_store_without_recorded_records_is_accepted(workspace, tmp_path):
    old = _edited_store(workspace / "emb-train", tmp_path / "old-store",
                        _without_recorded_records)
    train, test = workspace / "train.jsonl", workspace / "test.jsonl"
    model, pred, manifests = _fit_and_predict(
        tmp_path, train, test, old, workspace / "emb-test", "old"
    )
    assert [m["records_from"] for m in manifests] == ["input", "store"]
    assert (model, pred) == _fit_and_predict(
        tmp_path, train, test, workspace / "emb-train", workspace / "emb-test", "new"
    )[:2]


def test_fit_without_targets_exits_2_on_both_paths(workspace, tmp_path, capsys):
    records = [json.loads(line) for line in (workspace / "train.jsonl").read_text().splitlines()]
    del records[2]["target"]
    path = tmp_path / "partial.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    emb = tmp_path / "emb"
    assert run("embed", "--input", path, "--out", emb, "--projections", 3,
               "--quantiles", 5) == 0
    assert load_pq_store(emb).targets is None
    for source in (path, _with_blank_line(path, tmp_path / "partial2.jsonl")):
        assert run("fit", "--input", source, "--embeddings", emb,
                   "--out", tmp_path / "model.bin") == 2
        assert "without targets" in capsys.readouterr().err
    assert not (tmp_path / "model.bin").exists()


def test_fit_with_malformed_recorded_targets_exits_2(workspace, tmp_path, capsys):
    def string_target(header, arrays):
        header["targets"][0] = "1.5"

    bad = _edited_store(workspace / "emb-train", tmp_path / "bad-store", string_target)
    assert run("fit", "--input", workspace / "train.jsonl", "--embeddings", bad,
               "--out", tmp_path / "model.bin") == 2
    assert "'targets'" in capsys.readouterr().err


def test_fit_and_predict_refuse_non_finite_inputs_exit_2(workspace, tmp_path, capsys):
    # the store reader refuses the NaN block before fit or predict sees it
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        _edited_store(workspace / "emb-train", tmp_path / "nan-train", _nan_feature),
        "--out", tmp_path / "nan.bin",
    ) == 2
    assert "array 'block0' holds a NaN or infinite entry" in capsys.readouterr().err
    assert not (tmp_path / "nan.bin").exists()
    records = [json.loads(line) for line in (workspace / "train.jsonl").read_text().splitlines()]
    records[4]["target"] = float("nan")
    nan_targets = tmp_path / "nan-targets.jsonl"
    nan_targets.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(
        "fit", "--input", nan_targets, "--embeddings", workspace / "emb-train",
        "--out", tmp_path / "nan.bin",
    ) == 2
    assert "non-finite target" in capsys.readouterr().err
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--multistarts", 1,
    ) == 0
    assert run(
        "predict", "--model", model_path, "--input", workspace / "test.jsonl",
        "--embeddings",
        _edited_store(workspace / "emb-test", tmp_path / "nan-test", _nan_feature),
        "--out", tmp_path / "p.csv",
    ) == 2
    assert "array 'block0' holds a NaN or infinite entry" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("kernel", [("--gamma", 1.0), ("--distances-only",)],
                         ids=["gamma", "distances-only"])
def test_gram_of_a_store_with_a_nan_block_exits_2(workspace, tmp_path, capsys, kernel):
    store = _edited_store(workspace / "emb-train", tmp_path / "nan", _nan_feature)
    out, binary = tmp_path / "gram.txt", tmp_path / "gram.bin"
    assert run("gram", "--embeddings", store, "--out", out, "--binary-out", binary,
               *kernel) == 2
    assert "array 'block0' holds a NaN or infinite entry" in capsys.readouterr().err
    assert not out.exists() and not binary.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--nugget", -0.5), ("--multistarts", 0)],
)
def test_fit_refuses_out_of_range_settings_exit_2(workspace, tmp_path, capsys, flag, value):
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", tmp_path / "model.bin", flag, value,
    ) == 2
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "model.bin").exists()


def test_predict_with_wrong_seed_cache_exits_3(workspace, tmp_path):
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--multistarts", 1,
    ) == 0
    wrong = tmp_path / "wrong-seed"
    assert run(
        "embed", "--input", workspace / "test.jsonl", "--out", wrong,
        "--iterations", "0,1", "--projections", 6, "--quantiles", 12, "--seed", 99,
    ) == 0
    assert run(
        "predict", "--model", model_path, "--input", workspace / "test.jsonl",
        "--embeddings", wrong, "--out", tmp_path / "p.csv",
    ) == 3


def test_check_psd_command(workspace, tmp_path, capsys):
    gram_path = tmp_path / "gram.txt"
    assert run("gram", "--embeddings", workspace / "emb-train", "--out", gram_path,
               "--gamma", 1.0, "--check-psd") == 0
    assert run("check-psd", "--gram", gram_path) == 0
    # handcrafted indefinite matrix fails with the numerical exit code
    bad = tmp_path / "bad.txt"
    bad.write_text('# {"fingerprint": {}, "row_ids": ["a", "b"]}\n1 2\n2 1\n')
    assert run("check-psd", "--gram", bad) == 4
    assert "verdict NOT PSD" in capsys.readouterr().out
    # a text Gram of the earlier format, which swwl gram rebuilds
    old = tmp_path / "old.txt"
    old.write_text("2 0 0 0 0\n1 0\n0 1\n")
    assert run("check-psd", "--gram", old) == 2
    assert f"{old}: the first line is not '# ' and a JSON header" in capsys.readouterr().err


def test_gram_check_psd_and_check_psd_give_one_verdict(workspace, tmp_path, capsys):
    gram_path = tmp_path / "gram.txt"
    assert run("gram", "--embeddings", workspace / "emb-train", "--out", gram_path,
               "--gamma", 1.0, "--check-psd") == 0
    gram_line = capsys.readouterr().out.splitlines()[0]
    assert run("check-psd", "--gram", gram_path) == 0
    assert capsys.readouterr().out.splitlines() == [gram_line]
    assert gram_line.startswith("min eigenvalue ") and " verdict PSD (tol 1e-08)" in gram_line
    gram_psd, check_psd_psd = (
        json.loads(Path(f"{gram_path}{suffix}").read_text())["psd"]
        for suffix in (".manifest.json", ".psd.manifest.json")
    )
    assert gram_psd == check_psd_psd
    assert set(gram_psd) == {"min_eigenvalue", "is_psd", "tol", "trace"}


def test_stage_timer_loses_no_time_across_threads(monkeypatch):
    # each thread's clock advances one second per reading, so every timed
    # body lasts 1000 ms; 8 threads switching often add to one stage
    local = threading.local()

    def clock():
        local.now = getattr(local, "now", 0.0) + 1.0
        return local.now

    monkeypatch.setattr(swwl.cli, "time", types.SimpleNamespace(perf_counter=clock))
    stages = swwl.cli._Stages(argparse.Namespace(command="gram"))

    def work():
        for _ in range(500):
            with stages.time("stage"):
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert stages.timings == {"stage": 8 * 500 * 1000.0}


def test_gram_check_psd_writes_the_same_at_one_and_two_cpus(
    workspace, tmp_path, capsys, monkeypatch
):
    # at two CPUs the check runs beside the export; the timings may overlap
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr("swwl.kernels.usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run("gram", "--embeddings", workspace / "emb-train", "--out", f"{out}.txt",
                   "--gamma", 1.0, "--check-psd", "--binary-out", f"{out}.bin") == 0
        manifest = json.loads(Path(f"{out}.txt.manifest.json").read_text())
        assert {"check_psd", "write"} <= set(manifest["timings_ms"])
        lines = capsys.readouterr().out.replace(str(out), "OUT").splitlines()
        runs.append((Path(f"{out}.txt").read_bytes(), Path(f"{out}.bin").read_bytes(),
                     manifest["psd"], lines))
    assert runs[0] == runs[1]
    assert runs[0][3][0].startswith("min eigenvalue ")
    assert runs[0][3][1].startswith("wrote ")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_check_psd_of_a_non_finite_gram_exits_2(tmp_path, capsys, fmt, value):
    values = np.eye(3)
    values[1, 1] = value
    path = tmp_path / "gram"
    # written by hand: the savers refuse a Gram that holds a NaN or infinity
    header = {"fingerprint": {"seed": 0}, "row_ids": ["a", "b", "c"]}
    if fmt == "text":
        path.write_text(f"# {json.dumps(header)}\n1 0 0\n0 {value} 0\n0 0 1\n")
    else:
        write_container(path, GRAM_MAGIC, header, {"values": values})
    assert run("check-psd", "--gram", path) == 2
    assert (f"{path}: array 'values' holds a NaN or infinite entry at index (1, 1)"
            in capsys.readouterr().err)
    assert not Path(f"{path}.psd.manifest.json").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_check_psd_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
    workspace, tmp_path, capsys, tol
):
    gram_path = tmp_path / "gram.txt"
    assert run("gram", "--embeddings", workspace / "emb-train", "--out", gram_path,
               "--gamma", 1.0) == 0
    capsys.readouterr()
    assert run("check-psd", "--gram", gram_path, "--tol", tol) == 2
    assert "tol must be finite and nonnegative" in capsys.readouterr().err


def test_check_psd_tells_a_binary_gram_from_a_text_one(workspace, tmp_path, capsys):
    text, binary = tmp_path / "g.txt", tmp_path / "gram.bin"
    assert run("gram", "--embeddings", workspace / "emb-train", "--out", text,
               "--gamma", 1.0, "--binary-out", binary) == 0
    capsys.readouterr()
    reports = []
    for path in (text, binary):
        assert run("check-psd", "--gram", path) == 0
        reports.append(json.loads(Path(f"{path}.psd.manifest.json").read_text())["psd"])
    assert reports[0] == reports[1]
    # a text Gram of the wrong encoding is still refused as text
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"1 0 0 0 0\n\xe9\n")
    assert run("check-psd", "--gram", bad) == 2
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("check-psd", "--gram", "g.bin", "--binary"),
     ("fit", "--input", "t.jsonl", "--embeddings", "e", "--out", "m.bin", "--max-evals", 5),
     ("gram", "--embeddings", "e", "--out", "g.txt", "--gamma", 1, "--variance", 2)],
    ids=["check-psd-binary", "fit-max-evals", "gram-variance"],
)
def test_removed_flags_are_refused(argv):
    # check-psd reads the format from the file; each optimizer start has a
    # fixed budget; gram's kernels are correlations, with no nugget
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == 2


@pytest.mark.parametrize(
    "header, values",
    [
        ({"fingerprint": {}, "row_ids": []}, np.zeros((0, 0))),
        ({"fingerprint": {}}, np.eye(2)),
        ({"fingerprint": {}, "row_ids": ["a", "b"]}, None),
        ({"fingerprint": {}, "row_ids": 5}, np.eye(2)),
    ],
    ids=["empty", "no-row-ids", "no-values", "row-ids-int"],
)
def test_check_psd_malformed_binary_exits_2(tmp_path, header, values):
    path = tmp_path / "gram.bin"
    write_container(path, GRAM_MAGIC, header, {} if values is None else {"values": values})
    assert run("check-psd", "--gram", path) == 2


def test_predict_with_malformed_model_exits_2(workspace, tmp_path):
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--multistarts", 1,
    ) == 0
    header, arrays = read_container(model_path, MODEL_MAGIC)
    del header["nugget"]
    write_container(model_path, MODEL_MAGIC, header, arrays)
    assert run(
        "predict", "--model", model_path, "--input", workspace / "test.jsonl",
        "--embeddings", workspace / "emb-test", "--out", tmp_path / "p.csv",
    ) == 2


def _first_two_records(header, arrays):
    """Keep the first 2 training records: every shape and the factor agree."""
    header["n"], header["train_ids"] = 2, header["train_ids"][:2]
    for name in ("targets", "train_features"):
        arrays[name] = arrays[name][:2]
    arrays["chol"] = arrays["chol"][:2, :2]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda h, a: h.update(nugget=-5.0), "nugget must be finite and nonnegative"),
        (lambda h, a: a["ranges"].fill(0.0), "ranges must be finite and positive"),
        (lambda h, a: a["ranges"].fill(-1.0), "ranges must be finite and positive"),
        (lambda h, a: a["chol"].fill(0.5), "'chol' must be lower triangular"),
        (lambda h, a: a["ranges"].fill(50.0),
         "'chol' does not factor R + nugget * I at the stored 'ranges'"),
        (_first_two_records, "need at least 3 training records, got 2"),
    ],
    ids=["nugget-negative", "range-zero", "range-negative", "chol-not-lower", "chol-not-of-ranges",
         "n-2"],
)
def test_predict_with_a_model_no_fit_could_make_exits_2(
    workspace, tmp_path, capsys, damage, message
):
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--multistarts", 1,
    ) == 0
    header, arrays = read_container(model_path, MODEL_MAGIC)
    damage(header, arrays)
    write_container(model_path, MODEL_MAGIC, header, arrays)
    capsys.readouterr()
    assert run(
        "predict", "--model", model_path, "--input", workspace / "test.jsonl",
        "--embeddings", workspace / "emb-test", "--out", tmp_path / "p.csv",
    ) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_predict_with_features_of_another_width_exits_2(workspace, tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    assert run(
        "fit", "--input", workspace / "train.jsonl", "--embeddings",
        workspace / "emb-train", "--out", model_path, "--multistarts", 1,
    ) == 0
    # a model without a fingerprint (as the library writes by default) trained
    # on 5-wide features, given the test store's 72-wide features
    header, arrays = read_container(model_path, MODEL_MAGIC)
    narrow = fit(arrays["train_features"][:, :5], None, arrays["targets"],
                 settings=GpSettings(multistarts=1))
    save_model(narrow, model_path)
    out = tmp_path / "p.csv"
    assert run(
        "predict", "--model", model_path, "--input", workspace / "test.jsonl",
        "--embeddings", workspace / "emb-test", "--out", out,
    ) == 2
    assert "72 wide, the model was trained on 5-wide features" in capsys.readouterr().err
    assert not out.exists()


def test_aniso_flow(tmp_path):
    rng = np.random.default_rng(2)
    records = []
    for i in range(5):
        g = AttributedGraph(rng.standard_normal((7, 2)), np.array([[0, 1], [1, 2], [3, 4]]))
        records.append(GraphRecord(graph=g, scalars=np.zeros(0), target=None, id=f"a{i}"))
    path = tmp_path / "ds.jsonl"
    save_dataset(Dataset(records=tuple(records)), path)
    emb = tmp_path / "emb"
    assert run(
        "embed", "--input", path, "--out", emb, "--iterations", "0,1,2",
        "--projections", 4, "--quantiles", 6, "--seed", 5, "--aniso",
    ) == 0
    assert sorted(p.name for p in emb.iterdir()) == sorted([PQ_STORE_NAME, "manifest.json"])
    store = load_pq_store(emb)
    # the full embedding, then one block per kept iteration
    assert [b.shape for b in store.blocks] == [(5, 24)] * 4
    assert [fp.block for fp in store.fingerprints] == [None, 0, 1, 2]
    gram_path = tmp_path / "aniso.txt"
    assert run(
        "gram", "--embeddings", emb, "--out", gram_path,
        "--gammas", "0.5,1.0,2.0", "--check-psd",
    ) == 0
    gram = load_gram_text(gram_path)
    assert np.all(np.diag(gram.values) == 1.0)
    # the fingerprint is the first iteration's block's: block 0, s = d = 2;
    # it has no single gamma
    header = json.loads(gram_path.read_text().split("\n")[0].removeprefix("# "))
    assert header["row_ids"] == [f"a{i}" for i in range(5)]
    fp = header["fingerprint"]
    assert (fp["kind"], fp["block"], fp["s"], fp["gammas"]) == ("aswwl", 0, 2, [0.5, 1.0, 2.0])
    assert "gamma" not in fp and gram.fingerprint == fp


def test_standardize_roundtrip(workspace, tmp_path):
    out = tmp_path / "std"
    assert run(
        "embed", "--input", workspace / "train.jsonl", "--out", out,
        "--iterations", "0,1", "--projections", 4, "--quantiles", 6,
        "--seed", 2, "--standardize",
    ) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [PQ_STORE_NAME, "manifest.json", "standardization.json"]
    )
    stats = json.loads((out / "standardization.json").read_text())
    assert len(stats["mean"]) == 2
    out_test = tmp_path / "std-test"
    assert run(
        "embed", "--input", workspace / "test.jsonl", "--out", out_test,
        "--iterations", "0,1", "--projections", 4, "--quantiles", 6,
        "--seed", 2, "--standardize-stats", out / "standardization.json",
    ) == 0
    manifest = json.loads((out_test / "manifest.json").read_text())
    assert manifest["parameters"]["standardize"] is True


def test_predict_on_attributes_standardized_by_other_statistics_exits_3(workspace, tmp_path,
                                                                        capsys):
    common = ["--iterations", "0,1", "--projections", 4, "--quantiles", 6, "--seed", 2]
    train, test = workspace / "train.jsonl", workspace / "test.jsonl"
    assert run("embed", "--input", train, "--out", tmp_path / "std", "--standardize",
               *common) == 0
    assert run("embed", "--input", test, "--out", tmp_path / "std-test", "--standardize-stats",
               tmp_path / "std" / "standardization.json", *common) == 0
    # the test records' own statistics, not the training ones
    assert run("embed", "--input", test, "--out", tmp_path / "own-test", "--standardize",
               *common) == 0
    model = tmp_path / "model.bin"
    assert run("fit", "--input", train, "--embeddings", tmp_path / "std", "--out", model,
               "--multistarts", 1) == 0
    assert run("predict", "--model", model, "--input", test, "--embeddings",
               tmp_path / "std-test", "--out", tmp_path / "p.csv") == 0
    capsys.readouterr()
    assert run("predict", "--model", model, "--input", test, "--embeddings",
               tmp_path / "own-test", "--out", tmp_path / "own.csv") == 3
    assert "different configuration" in capsys.readouterr().err
    assert not (tmp_path / "own.csv").exists()


def test_embed_takes_one_source_of_standardization_exits_2(workspace, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"mean": [0.0, 0.0], "std": [1.0, 1.0]}))
    with pytest.raises(SystemExit) as exit_info:
        run("embed", "--input", workspace / "train.jsonl", "--out", tmp_path / "emb",
            "--standardize", "--standardize-stats", stats)
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "emb").exists()


@pytest.mark.parametrize(
    "stats", [{}, [], {"mean": [0], "std": [1]}, {"mean": [0, 0], "std": [1, -1]}]
)
def test_embed_refuses_bad_standardization_stats_exit_2(workspace, tmp_path, stats):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(stats))
    assert run(
        "embed", "--input", workspace / "test.jsonl", "--out", tmp_path / "emb",
        "--projections", 2, "--quantiles", 4, "--standardize-stats", path,
    ) == 2
    assert not (tmp_path / "emb").exists()


@pytest.mark.parametrize(
    "raw, message",
    [(b"mean: [0]", "not UTF-8 JSON"), (b'{"mean": ["\xe9"]}', "not UTF-8 JSON"),
     (b"[0, 1]", "must be a JSON object, got list"),
     (b'{"mean": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
      "not UTF-8 JSON: maximum recursion depth exceeded")],
    ids=["not-json", "not-utf8", "not-an-object", "nested-too-deep"],
)
def test_embed_names_the_standardization_stats_file_it_refuses_exit_2(
    workspace, tmp_path, capsys, raw, message
):
    path = tmp_path / "stats.json"
    path.write_bytes(raw)
    assert run(
        "embed", "--input", workspace / "test.jsonl", "--out", tmp_path / "emb",
        "--projections", 2, "--quantiles", 4, "--standardize-stats", path,
    ) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and message in err
    assert not (tmp_path / "emb").exists()


def test_bench_timing_and_rmse_modes(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(
        "bench", "--out", out, "--mode", "timing", "--nodes", "20,40",
        "--graphs", 4, "--projections", "2,4", "--quantiles", "5", "--seed", 0,
    ) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["stage"] for r in rows} == {"embed", "gram"}
    assert len(rows) == 2 * 2 * 1 * 2
    out2 = tmp_path / "bench-rmse.csv"
    assert run(
        "bench", "--out", out2, "--mode", "rmse", "--nodes", "25,30", "--graphs", 9,
        "--projections", "2", "--quantiles", "4", "--seed", 0,
    ) == 0
    with open(out2) as fh:
        rows = list(csv.DictReader(fh))
    # one row per node count: a 1x1 (P, Q) grid and one repeat
    assert [r["n"] for r in rows] == ["25", "30"]
    assert all(r["stage"] == "rmse" and float(r["rmse"]) >= 0 for r in rows)


def test_bench_timing_writes_every_repeat(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(
        "bench", "--out", out, "--mode", "timing", "--nodes", "10,12", "--graphs", 3,
        "--projections", "2,3", "--quantiles", "3", "--repeats", 2,
    ) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # nodes x repeats x P x Q cells, an embed and a gram row each
    assert len(rows) == 2 * 2 * 2 * 1 * 2
    assert [(r["n"], r["P"], r["stage"]) for r in rows[:8]] == [
        ("10", p, stage) for _ in range(2) for p in ("2", "3") for stage in ("embed", "gram")
    ]
    assert all(r["N"] == "3" and r["rmse"] == "" and float(r["ms"]) >= 0 for r in rows)


@pytest.mark.parametrize("mode", ["timing", "rmse"])
def test_bench_takes_the_iterations_embed_takes(tmp_path, capsys, mode):
    out = tmp_path / "bench.csv"
    argv = ["bench", "--out", out, "--mode", mode, "--nodes", 16, "--graphs", 6,
            "--projections", 2, "--quantiles", 3]
    assert run(*argv, "--iterations", "sqrt-skip") == 0
    manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
    assert manifest["parameters"]["iterations"] == "sqrt-skip"
    assert run(*argv, "--iterations", "0,x") == 2
    assert "cannot parse iteration list '0,x'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["timing", "rmse"])
@pytest.mark.parametrize("repeats", [0, -2])
def test_bench_refuses_fewer_than_one_repeat_exits_2(tmp_path, capsys, mode, repeats):
    out = tmp_path / "bench.csv"
    assert run("bench", "--out", out, "--mode", mode, "--nodes", 10, "--graphs", 3,
               "--projections", 2, "--quantiles", 3, "--repeats", repeats) == 2
    assert f"--repeats must be at least 1, got {repeats}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--nodes", "--projections", "--quantiles"])
def test_bench_names_a_list_flag_with_a_bad_token_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "bench.csv"
    # argparse keeps the last value of a repeated flag
    assert run("bench", "--out", out, "--graphs", 3, "--nodes", 10, "--projections", 2,
               "--quantiles", 3, flag, "10,x") == 2
    noun = flag.strip("-").rstrip("s")
    assert f"cannot parse {noun} list '10,x' given to {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_gram_names_a_bad_gammas_token_exits_2(aniso_store, tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run("gram", "--embeddings", aniso_store, "--out", out, "--gammas", "1,x") == 2
    assert "cannot parse gamma list '1,x' given to --gammas" in capsys.readouterr().err
    assert not out.exists()


def test_jobs_flag_gives_identical_artifacts(workspace, tmp_path):
    out = tmp_path / "parallel"
    assert run(
        "embed", "--input", workspace / "train.jsonl", "--out", out,
        "--iterations", "0,1", "--projections", 6, "--quantiles", 12,
        "--seed", 9, "--jobs", 4,
    ) == 0
    assert store_bytes(out) == store_bytes(workspace / "emb-train")


@pytest.mark.parametrize("jobs", [0, -3])
def test_embed_refuses_fewer_than_one_job_exits_2(workspace, tmp_path, capsys, jobs):
    out = tmp_path / "emb"
    assert run("embed", "--input", workspace / "train.jsonl", "--out", out,
               "--projections", 4, "--quantiles", 5, "--jobs", jobs) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def _repeated_id(header, arrays):
    header["ids"][1] = header["ids"][0]


@pytest.mark.parametrize("command", ["gram", "fit"])
def test_store_with_a_repeated_id_exits_2(workspace, tmp_path, capsys, command):
    store = _edited_store(workspace / "emb-train", tmp_path / "repeated", _repeated_id)
    out = tmp_path / "out"
    flags = ("--gamma", 1.0) if command == "gram" else ("--input", workspace / "train.jsonl")
    assert run(command, "--embeddings", store, "--out", out, *flags) == 2
    assert "'ids' repeats a record id" in capsys.readouterr().err
    assert not out.exists()


def parser_flags():
    """Each subcommand's flag names, as argparse stores them."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
        for name, p in sub.choices.items()
    }


def test_manifests_record_every_flag(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    emb = workspace / "emb-train"
    gram, model = tmp_path / "gram.txt", tmp_path / "model.bin"
    pred, bench = tmp_path / "pred.csv", tmp_path / "bench.csv"
    assert run("gram", "--embeddings", emb, "--out", gram, "--gamma", 1.0) == 0
    assert run("check-psd", "--gram", gram) == 0
    assert run("fit", "--input", workspace / "train.jsonl", "--embeddings", emb,
               "--out", model, "--multistarts", 1) == 0
    assert run("predict", "--model", model, "--input", workspace / "test.jsonl",
               "--embeddings", workspace / "emb-test", "--out", pred) == 0
    assert run("bench", "--out", bench, "--nodes", 20, "--graphs", 3,
               "--projections", 2, "--quantiles", 4) == 0
    # generate and embed again, so that every manifest sees the environment above
    assert run("generate", "--out-train", tmp_path / "train.jsonl", "--out-test",
               tmp_path / "test.jsonl", "--n-train", 2, "--n-test", 1, "--nodes", 5) == 0
    assert run("embed", "--input", tmp_path / "train.jsonl", "--out", tmp_path / "emb",
               "--projections", 2, "--quantiles", 3) == 0
    manifests = {
        "generate": tmp_path / "train.jsonl.manifest.json",
        "embed": tmp_path / "emb" / "manifest.json",
        "gram": tmp_path / "gram.txt.manifest.json",
        "check-psd": tmp_path / "gram.txt.psd.manifest.json",
        "fit": tmp_path / "model.bin.manifest.json",
        "predict": tmp_path / "pred.csv.manifest.json",
        "bench": tmp_path / "bench.csv.manifest.json",
    }
    flags = parser_flags()
    assert set(manifests) == set(flags)
    for command, path in manifests.items():
        manifest = json.loads(path.read_text())
        assert manifest["command"] == command
        assert set(manifest["parameters"]) == flags[command], command
        assert manifest["peak_rss_mb"] > 0
        assert manifest["blas"] == {
            "name": blas["name"],
            "version": blas["version"],
            "threads": {
                "OPENBLAS_NUM_THREADS": "3",
                "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                "MKL_NUM_THREADS": None,
            },
        }


def test_manifest_blas_without_build_config(tmp_path, monkeypatch):
    # numpy before 1.25 has no show_config(mode=...): name and version are null
    def show_config(mode=None):
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")

    monkeypatch.setattr(np, "show_config", show_config)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    out = tmp_path / "train.jsonl"
    assert run("generate", "--out-train", out, "--out-test", tmp_path / "test.jsonl",
               "--n-train", 2, "--n-test", 1, "--nodes", 5) == 0
    blas = json.loads((tmp_path / "train.jsonl.manifest.json").read_text())["blas"]
    assert blas["name"] is None and blas["version"] is None
    assert blas["threads"]["OMP_NUM_THREADS"] == "2"


# the exit-code table in the swwl.errors docstring
EXIT_CODES = {
    errors.SwwlError: 2,
    errors.ParseError: 2,
    errors.SchemaError: 2,
    errors.ValidationError: 2,
    errors.EmptyInputError: 2,
    errors.DimensionMismatchError: 2,
    errors.LengthMismatchError: 2,
    errors.ConfigMismatchError: 3,
    errors.DegenerateDrawError: 4,
    errors.NonSymmetricError: 4,
    errors.OptimizationError: 4,
    errors.ConstantTargetError: 4,
    np.linalg.LinAlgError: 4,
    FileNotFoundError: 2,
    IsADirectoryError: 2,
    PermissionError: 2,
    ValueError: 2,
}


def test_exit_code_table(monkeypatch, tmp_path):
    package_errors = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.SwwlError)
    }
    assert package_errors <= set(EXIT_CODES)
    codes = {}
    for exc_type in EXIT_CODES:
        def fail(args, exc_type=exc_type):
            raise exc_type("boom")

        monkeypatch.setattr("swwl.cli.cmd_check_psd", fail)
        codes[exc_type] = run("check-psd", "--gram", tmp_path / "g.txt")
    assert codes == EXIT_CODES


@pytest.mark.parametrize(
    "command", ["embed-input-dir", "embed-out-file", "check-psd-dir", "fit-out-dir"]
)
def test_a_path_that_cannot_be_opened_or_written_exits_2(workspace, tmp_path, capsys,
                                                         command):
    a_dir, a_file = tmp_path / "a-dir", tmp_path / "a-file"
    a_dir.mkdir()
    a_file.write_text("")
    out, small = tmp_path / "emb", ("--projections", 2, "--quantiles", 4)
    argv = {
        "embed-input-dir": ("embed", "--input", a_dir, "--out", out, *small),
        "embed-out-file": ("embed", "--input", workspace / "test.jsonl", "--out", a_file,
                           *small),
        "check-psd-dir": ("check-psd", "--gram", a_dir),
        # after the whole fit has run
        "fit-out-dir": ("fit", "--input", workspace / "train.jsonl", "--embeddings",
                        workspace / "emb-train", "--out", a_dir),
    }[command]
    assert run(*argv) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()
    assert not list(a_dir.iterdir()) and a_file.read_text() == ""
