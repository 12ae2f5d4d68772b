"""End-to-end CLI flows on small data: artifacts, manifests, exit codes."""

import csv
import json

import numpy as np
import pytest

from swwl import AttributedGraph, Dataset, GraphRecord, load_dataset, save_dataset
from swwl.cli import main
from swwl.gp import load_model
from swwl.kernels import load_gram_binary, load_gram_text
from swwl.sliced import PQ_STORE_NAME, load_pq_store


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


def test_gram_rerun_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run("gram", "--embeddings", workspace / "emb-train", "--out", out,
                   "--gamma", 2.0) == 0
    assert a.read_bytes() == b.read_bytes()


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
    preds = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
    for p in preds:
        assert run(
            "predict", "--model", model_path, "--input", workspace / "test.jsonl",
            "--embeddings", workspace / "emb-test", "--out", p,
        ) == 0
    assert preds[0].read_bytes() == preds[1].read_bytes()


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


def test_check_psd_command(workspace, tmp_path):
    gram_path = tmp_path / "gram.txt"
    assert run("gram", "--embeddings", workspace / "emb-train", "--out", gram_path,
               "--gamma", 1.0, "--check-psd") == 0
    assert run("check-psd", "--gram", gram_path) == 0
    # handcrafted indefinite matrix fails with the numerical exit code
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0 0 0 0\n1 2\n2 1\n")
    assert run("check-psd", "--gram", bad) == 4


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
        "gram", "--embeddings", emb, "--out", gram_path, "--aniso",
        "--gammas", "0.5,1.0,2.0", "--check-psd",
    ) == 0
    gram = load_gram_text(gram_path)
    assert np.all(np.diag(gram.values) == 1.0)


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
        "bench", "--out", out2, "--mode", "rmse", "--nodes", "25", "--graphs", 9,
        "--projections", "2", "--quantiles", "4", "--seed", 0,
    ) == 0
    with open(out2) as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["stage"] == "rmse" and float(r["rmse"]) >= 0 for r in rows)


def test_jobs_flag_gives_identical_artifacts(workspace, tmp_path):
    out = tmp_path / "parallel"
    assert run(
        "embed", "--input", workspace / "train.jsonl", "--out", out,
        "--iterations", "0,1", "--projections", 6, "--quantiles", 12,
        "--seed", 9, "--jobs", 4,
    ) == 0
    assert store_bytes(out) == store_bytes(workspace / "emb-train")


def test_jobs_default_comes_from_environment(monkeypatch):
    from swwl.cli import _default_jobs

    monkeypatch.setenv("SWWL_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.delenv("SWWL_JOBS")
    assert _default_jobs() == 1


def test_wl_cache_output(workspace, tmp_path):
    from swwl.wl import load_wl_embedding

    out = tmp_path / "emb"
    wl_dir = tmp_path / "wl"
    assert run(
        "embed", "--input", workspace / "train.jsonl", "--out", out,
        "--iterations", "0,1", "--projections", 3, "--quantiles", 4,
        "--seed", 0, "--wl-out", wl_dir,
    ) == 0
    caches = sorted(wl_dir.glob("*.wl"))
    assert len(caches) == 12
    emb = load_wl_embedding(caches[0])
    assert emb.config.iterations == (0, 1)
    assert emb.values.shape[1] == 4  # two kept iterations, two attribute dims
