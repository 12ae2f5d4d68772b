"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts live.
"""

import csv
import time

import numpy as np
import pytest

from swwl import (
    AttributedGraph,
    Dataset,
    EmpiricalMeasure,
    GpSettings,
    GraphRecord,
    KernelConfig,
    QuantileGrid,
    TrainDistances,
    WlConfig,
    assemble_gram,
    assemble_gram_aniso,
    check_psd,
    embed_dataset,
    fit,
    load_dataset,
    pq_embed,
    posterior_parts,
    predict,
    q2 as q2_metric,
    rmse as rmse_metric,
    sample_projections,
)
from swwl.cli import main as cli_main
from swwl.synthetic import generate_regression_dataset
from swwl.wl import embed as wl_embed

from oracles import (
    generate_timing_graph,
    naive_sw,
    store_of,
    sw_estimate,
    sw_exact_1d,
    w_exact_tiny,
)


def verdict(number, name, ok, detail):
    line = f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_dataset(rng, n_graphs, n_lo, n_hi, d):
    records = []
    for i in range(n_graphs):
        n = int(rng.integers(n_lo, n_hi + 1))
        attrs = rng.standard_normal((n, d))
        if n >= 2:
            pairs = np.array([[u, v] for u in range(n) for v in range(u + 1, n)])
            edges = pairs[rng.random(len(pairs)) < 0.3]
        else:
            edges = np.zeros((0, 2), dtype=int)
        records.append(
            GraphRecord(
                graph=AttributedGraph(attrs, edges),
                scalars=np.zeros(0),
                target=None,
                id=f"g{i}",
            )
        )
    return Dataset(records=tuple(records))


def test_acceptance_1_positive_definiteness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    worst = np.inf
    for _ in range(100):
        n_graphs = int(rng.integers(5, 41))
        d = int(rng.choice([1, 2, 5]))
        h = int(rng.integers(0, 4))
        dataset = random_dataset(rng, n_graphs, 2, 50, d)
        result = embed_dataset(
            dataset,
            WlConfig(iterations=tuple(range(h + 1))),
            seed=int(rng.integers(1_000_000)),
            n_projections=int(rng.integers(2, 9)),
            n_quantiles=int(rng.integers(3, 17)),
            per_iteration=True,
        )
        gamma = float(10.0 ** rng.uniform(-3, 1))
        gram = assemble_gram(result, None, KernelConfig(gamma=gamma))
        report = check_psd(gram)
        worst = min(worst, report.min_eigenvalue / report.trace)
        assert report.min_eigenvalue >= -1e-8 * report.trace
        gammas = 10.0 ** rng.uniform(-3, 1, h + 1)
        gram_a = assemble_gram_aniso(result, gammas)
        report_a = check_psd(gram_a)
        worst = min(worst, report_a.min_eigenvalue / report_a.trace)
        assert report_a.min_eigenvalue >= -1e-8 * report_a.trace
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "positive definiteness of SWWL/ASWWL Grams",
        elapsed < 120.0,
        f"100 datasets, worst min_eig/trace {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_feature_map_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(1, 5))
        r = float(rng.choice([1.0, 2.0, 3.0]))
        xa = rng.standard_normal((int(rng.integers(1, 20)), s))
        xb = rng.standard_normal((int(rng.integers(1, 20)), s))
        ps = sample_projections(int(rng.integers(1_000_000)), int(rng.integers(1, 9)), s)
        grid = QuantileGrid(int(rng.integers(2, 11)))
        est = sw_estimate(
            pq_embed(EmpiricalMeasure(xa), ps, grid, r=r),
            pq_embed(EmpiricalMeasure(xb), ps, grid, r=r),
        )
        direct = naive_sw(xa, xb, ps.directions, grid.levels, r)
        worst = max(worst, abs(est - direct) / max(1.0, abs(direct)))
        assert est == pytest.approx(direct, abs=1e-12, rel=1e-12)
    verdict(
        2,
        "embedding norm equals direct sliced estimate",
        True,
        f"1000 random pairs, worst deviation {worst:.2e}",
    )


def test_acceptance_3_one_dimensional_oracle():
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        ps = sample_projections(5, 4, 1)
        grid = QuantileGrid(50 * n)
        est = sw_estimate(
            pq_embed(EmpiricalMeasure(x[:, None]), ps, grid),
            pq_embed(EmpiricalMeasure(y[:, None]), ps, grid),
        )
        exact = sw_exact_1d(x, y)
        worst_rel = max(worst_rel, abs(est - exact) / exact)
    ok_match = worst_rel <= 1e-3

    # error shrinks as the level count doubles (levels offset from the
    # breakpoint-aligned counts where the estimator is already exact)
    n = 32
    pairs = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(50)]
    ps = sample_projections(5, 4, 1)
    mean_errors = []
    for mult in (2, 4, 8, 16, 32):
        grid = QuantileGrid(mult * n + 7)
        errs = []
        for x, y in pairs:
            est = sw_estimate(
                pq_embed(EmpiricalMeasure(x[:, None]), ps, grid),
                pq_embed(EmpiricalMeasure(y[:, None]), ps, grid),
            )
            exact = sw_exact_1d(x, y)
            errs.append(abs(est - exact) / exact)
        mean_errors.append(float(np.mean(errs)))
    ok_monotone = all(
        later <= earlier * 1.10 + 1e-12
        for earlier, later in zip(mean_errors, mean_errors[1:])
    )
    verdict(
        3,
        "estimator matches the exact 1-d transport distance",
        ok_match and ok_monotone,
        f"worst rel err {worst_rel:.2e} at Q=50n; errors per doubling {['%.1e' % e for e in mean_errors]}",
    )


def test_acceptance_4_slicing_lower_bounds_tiny_exact_transport():
    rng = np.random.default_rng(13)
    directions = sample_projections(99, 100_000, 2).directions
    worst_gap = -np.inf
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xa, xb = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        exact = w_exact_tiny(EmpiricalMeasure(xa), EmpiricalMeasure(xb), 2.0)
        # per direction, equal sizes: the exact 1-d distance matches sorted ranks
        pa = np.sort(xa @ directions.T, axis=0)
        pb = np.sort(xb @ directions.T, axis=0)
        sliced = float(np.sqrt(np.mean((pa - pb) ** 2)))
        worst_gap = max(worst_gap, sliced - exact)
        assert sliced <= exact + 1e-6
    verdict(
        4,
        "sliced distance lower-bounds exact transport",
        True,
        f"100 pairs, max(sliced - exact) = {worst_gap:.3e}",
    )


def _embed_one(graph, config, projections, grid):
    return pq_embed(EmpiricalMeasure(wl_embed(graph, config)), projections, grid)


def test_acceptance_5_complexity():
    start = time.perf_counter()
    config = WlConfig(iterations=(0, 1, 2, 3))
    grid = QuantileGrid(500)
    projections = sample_projections(0, 50, 8)
    _embed_one(generate_timing_graph(0, 2000), config, projections, grid)  # warmup

    # Gram assembly cost must not depend on graph size once embeddings exist.
    # The two sizes are timed in alternation, so drift in the machine's speed
    # hits both alike; the first round is a warm-up and is dropped.
    embeddings = {
        n_nodes: store_of([
            _embed_one(generate_timing_graph(seed, n_nodes), config, projections, grid)
            for seed in range(100)
        ])
        for n_nodes in (100, 10_000)
    }
    reps = {n_nodes: [] for n_nodes in embeddings}
    for _ in range(8):
        for n_nodes, embedded in embeddings.items():
            t0 = time.perf_counter()
            assemble_gram(embedded, None, KernelConfig(gamma=1.0))
            reps[n_nodes].append(time.perf_counter() - t0)
    ratio = min(reps[10_000][1:]) / min(reps[100][1:])
    ok_gram = 1 / 1.2 <= ratio <= 1.2

    # embedding cost grows at most like n**1.2
    sizes = (1_000, 10_000, 100_000)
    embed_times = []
    for n_nodes in sizes:
        graph = generate_timing_graph(1, n_nodes)
        per_size = []
        for _ in range(5):
            t0 = time.perf_counter()
            _embed_one(graph, config, projections, grid)
            per_size.append(time.perf_counter() - t0)
        embed_times.append(min(per_size))
    slope = float(np.polyfit(np.log(sizes), np.log(embed_times), 1)[0])
    ok_embed = slope <= 1.2
    elapsed = time.perf_counter() - start
    verdict(
        5,
        "assembly size-independent, embedding near-linearithmic",
        ok_gram and ok_embed and elapsed < 600.0,
        f"assembly ratio {ratio:.2f} (100 vs 10k nodes), embed-time slope {slope:.2f}, {elapsed:.0f}s",
    )


def test_acceptance_6_gp_correctness():
    # noise-free interpolation at the training points
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((15, 4))
    y = np.cos(feats @ np.array([0.5, -0.2, 0.1, 0.3])) + 2.0
    model = fit(feats, None, y, settings=GpSettings(nugget=0.0, multistarts=3))
    dist = predict(model, feats, None)
    interp_err = float(np.max(np.abs(dist.mean - y)) / np.max(np.abs(y)))
    scale_max = float(np.max(dist.scale_diagonal()))
    ok_interp = interp_err < 1e-6 and scale_max < 1e-8

    # hand value of the projected residual for R = I, y = (1, 3)
    sw_sq = np.full((2, 2), 1e8)
    np.fill_diagonal(sw_sq, 0.0)
    parts = posterior_parts(
        np.log([1.0]),
        TrainDistances(sw_sq=sw_sq, scalar_abs=None),
        np.array([1.0, 3.0]),
        nugget=0.0,
    )
    ok_s2 = abs(parts.s2 - 2.0) < 1e-10

    # shifting/scaling the targets acts on the prediction exactly
    feats2 = rng.standard_normal((14, 3))
    y2 = np.sin(feats2.sum(axis=1))
    test = rng.standard_normal((5, 3))
    settings = GpSettings(multistarts=3, seed=5)
    base_model = fit(feats2, None, y2, settings=settings)
    base = predict(base_model, test, None)
    shifted = predict(fit(feats2, None, y2 + 4.0, settings=settings), test, None)
    scaled_model = fit(feats2, None, 3.0 * y2, settings=settings)
    scaled = predict(scaled_model, test, None)
    shift_err = float(np.max(np.abs(shifted.mean - base.mean - 4.0)))
    shift_scale_err = float(np.max(np.abs(shifted.scale - base.scale)))
    scale_err = float(np.max(np.abs(scaled.mean - 3.0 * base.mean)))
    var_err = abs(scaled_model.sigma2_hat - 9.0 * base_model.sigma2_hat)
    ok_equivariance = max(shift_err, shift_scale_err, scale_err) < 1e-10 and var_err < 1e-10 * max(
        1.0, base_model.sigma2_hat
    )
    verdict(
        6,
        "GP interpolation, hand residual, target equivariances",
        ok_interp and ok_s2 and ok_equivariance,
        f"interp err {interp_err:.1e}, scale diag {scale_max:.1e}, S2 {parts.s2:.12f}, "
        f"equivariance err {max(shift_err, shift_scale_err, scale_err):.1e}",
    )


def _run_cli_pipeline(root, seed, projections, quantiles):
    train, test = root / "train.jsonl", root / "test.jsonl"
    args = [
        "generate", "--out-train", str(train), "--out-test", str(test),
        "--n-train", "120", "--n-test", "40", "--nodes", "200",
        "--noise", "0.01", "--seed", str(seed),
    ]
    assert cli_main(args) == 0
    emb_train, emb_test = root / "emb-train", root / "emb-test"
    common = [
        "--iterations", "0,1,2,3", "--projections", str(projections),
        "--quantiles", str(quantiles), "--seed", str(seed),
    ]
    assert cli_main(["embed", "--input", str(train), "--out", str(emb_train)] + common) == 0
    assert cli_main(["embed", "--input", str(test), "--out", str(emb_test)] + common) == 0
    model = root / "model.bin"
    assert cli_main([
        "fit", "--input", str(train), "--embeddings", str(emb_train),
        "--out", str(model), "--opt-seed", str(seed),
    ]) == 0
    pred = root / "pred.csv"
    assert cli_main([
        "predict", "--model", str(model), "--input", str(test),
        "--embeddings", str(emb_test), "--out", str(pred),
    ]) == 0
    with open(pred) as fh:
        means = np.array([float(row["mean"]) for row in csv.DictReader(fh)])
    truth = load_dataset(test).targets()
    train_targets = load_dataset(train).targets()
    const = np.full_like(truth, train_targets.mean())
    return (
        rmse_metric(means, truth),
        rmse_metric(const, truth),
        q2_metric(means, truth),
    )


def test_acceptance_7_end_to_end_synthetic_regression(tmp_path):
    start = time.perf_counter()
    rmses, consts, q2s = [], [], []
    for seed in range(5):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        r, c, q = _run_cli_pipeline(root, seed, 50, 500)
        rmses.append(r)
        consts.append(c)
        q2s.append(q)
    elapsed = time.perf_counter() - start
    mean_q2 = float(np.mean(q2s))
    improvement = float(np.mean(consts) / np.mean(rmses))
    verdict(
        7,
        "end-to-end synthetic regression",
        mean_q2 >= 0.9 and improvement >= 3.0 and elapsed < 300.0,
        f"mean Q2 {mean_q2:.4f} (min {min(q2s):.4f}), {improvement:.1f}x better than "
        f"constant predictor, {elapsed:.0f}s for 5 seeds",
    )


def test_acceptance_8_projection_quantile_trend():
    config = WlConfig(iterations=(0, 1, 2, 3))
    results = {}
    for p, q in [(20, 100), (100, 1000), (1, 2)]:
        per_seed = []
        for seed in range(10):
            dataset = generate_regression_dataset(seed=seed, n_graphs=160, mean_nodes=200)
            targets = dataset.targets()
            result = embed_dataset(
                dataset, config, seed=seed, n_projections=p, n_quantiles=q
            )
            feats = np.vstack([e.values for e in result.embeddings])
            model = fit(
                feats[:120], None, targets[:120], settings=GpSettings(seed=seed)
            )
            dist = predict(model, feats[120:], None)
            per_seed.append(rmse_metric(dist.mean, targets[120:]))
        results[(p, q)] = float(np.mean(per_seed))
    moderate = results[(20, 100)]
    rich = results[(100, 1000)]
    tiny = results[(1, 2)]
    ok_plateau = moderate <= 1.05 * rich
    ok_tiny_worse = tiny >= 1.25 * rich
    verdict(
        8,
        "accuracy plateaus above 20 projections and 100 quantiles",
        ok_plateau and ok_tiny_worse,
        f"mean RMSE: (20,100)={moderate:.3e}, (100,1000)={rich:.3e} "
        f"(ratio {moderate / rich:.3f}), (1,2)={tiny:.3e} ({tiny / rich:.1f}x worse)",
    )


def _artifact_bytes(directory):
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def test_acceptance_9_determinism(tmp_path):
    def run_all(root):
        root.mkdir()
        train, test = root / "train.jsonl", root / "test.jsonl"
        assert cli_main([
            "generate", "--out-train", str(train), "--out-test", str(test),
            "--n-train", "10", "--n-test", "4", "--nodes", "25", "--seed", "5",
        ]) == 0
        emb_train, emb_test = root / "emb-train", root / "emb-test"
        common = ["--iterations", "0,1", "--projections", "5", "--quantiles", "8",
                  "--seed", "2"]
        assert cli_main(["embed", "--input", str(train), "--out", str(emb_train),
                         "--aniso"] + common) == 0
        assert cli_main(["embed", "--input", str(test), "--out", str(emb_test)] + common) == 0
        assert cli_main([
            "gram", "--embeddings", str(emb_train), "--out", str(root / "gram.txt"),
            "--gamma", "1.0", "--binary-out", str(root / "gram.bin"),
        ]) == 0
        assert cli_main([
            "gram", "--embeddings", str(emb_train), "--out", str(root / "aniso.txt"),
            "--gammas", "0.5,1.5",
        ]) == 0
        assert cli_main([
            "fit", "--input", str(train), "--embeddings", str(emb_train),
            "--out", str(root / "model.bin"), "--multistarts", "3", "--opt-seed", "1",
        ]) == 0
        assert cli_main([
            "predict", "--model", str(root / "model.bin"), "--input", str(test),
            "--embeddings", str(emb_test), "--out", str(root / "pred.csv"),
        ]) == 0
        assert cli_main([
            "bench", "--out", str(root / "bench.csv"), "--mode", "rmse",
            "--nodes", "20", "--graphs", "8", "--projections", "3",
            "--quantiles", "4", "--seed", "0",
        ]) == 0
        return root

    a = run_all(tmp_path / "a")
    b = run_all(tmp_path / "b")
    arts_a, arts_b = _artifact_bytes(a), _artifact_bytes(b)
    assert set(arts_a) == set(arts_b)
    mismatched = []
    for name in arts_a:
        if name == "bench.csv":
            # timing columns are excluded: everything else must match
            rows_a = [r for r in csv.reader(arts_a[name].decode().splitlines())]
            rows_b = [r for r in csv.reader(arts_b[name].decode().splitlines())]
            stripped_a = [r[:5] + r[6:] for r in rows_a]
            stripped_b = [r[:5] + r[6:] for r in rows_b]
            if stripped_a != stripped_b:
                mismatched.append(name)
        elif arts_a[name] != arts_b[name]:
            mismatched.append(name)
    verdict(
        9,
        "repeated runs produce byte-identical artifacts",
        not mismatched,
        f"{len(arts_a)} artifacts compared, mismatches: {mismatched or 'none'}",
    )
