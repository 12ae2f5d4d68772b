"""Kernel values, Gram assembly, positive definiteness, export formats."""

import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist, pdist, squareform

import swwl.kernels
from swwl import (
    Dataset,
    EmpiricalMeasure,
    GpSettings,
    KernelConfig,
    QuantileGrid,
    WlConfig,
    assemble_gram,
    assemble_gram_aniso,
    check_psd,
    embed_dataset,
    fit,
    matern52,
    pq_embed,
    predict,
    sample_projection_blocks,
    sample_projections,
)
from swwl.binio import write_container
from swwl.errors import (
    DimensionMismatchError,
    LengthMismatchError,
    NonSymmetricError,
    ParseError,
    ValidationError,
)
from swwl.kernels import (
    GRAM_MAGIC,
    GramMatrix,
    correlation_from_distances,
    load_gram,
    load_gram_binary,
    load_gram_text,
    run_calls,
    save_gram_binary,
    save_gram_text,
    sq_distances,
    store_gram,
    usable_cpus,
)
from swwl.synthetic import generate_regression_dataset

from oracles import (
    aswwl_kernel,
    store_of,
    sw_estimate,
    swwl_kernel,
    tensorized_kernel,
    three_pass_finish,
    two_step_kernel_matrix,
    value_by_value_gram_text,
)


def dirac_pair(a, b, seed=0, p=3, q=4):
    """1-d point masses whose estimated distance is exactly |a-b|."""
    ps = sample_projections(seed, p, 1)
    grid = QuantileGrid(q)
    return (
        pq_embed(EmpiricalMeasure(np.array([[float(a)]])), ps, grid),
        pq_embed(EmpiricalMeasure(np.array([[float(b)]])), ps, grid),
    )


def random_embeddings(rng, n, s=2, p=4, q=5, seed=0):
    """A store of n embeddings of random clouds in R^s."""
    ps = sample_projections(seed, p, s)
    grid = QuantileGrid(q)
    return store_of([
        pq_embed(
            EmpiricalMeasure(rng.standard_normal((int(rng.integers(1, 12)), s))),
            ps,
            grid,
            graph_id=f"g{i}",
        )
        for i in range(n)
    ])


class TestSwwlKernel:
    def test_identical_gives_one(self):
        a, _ = dirac_pair(0, 1)
        assert swwl_kernel(a, a, 0.5) == 1.0

    def test_unit_distance_hand_value(self):
        a, b = dirac_pair(0, 1)
        assert sw_estimate(a, b) == pytest.approx(1.0, abs=1e-12)
        assert swwl_kernel(a, b, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_large_precision_decays(self):
        a, b = dirac_pair(0, 1)
        assert swwl_kernel(a, b, 40.0) < 1e-10

    def test_gamma_must_be_positive(self):
        a, b = dirac_pair(0, 1)
        with pytest.raises(ValidationError):
            swwl_kernel(a, b, 0.0)


class TestAswwlKernel:
    def test_single_iteration_matches_plain_kernel(self):
        a, b = dirac_pair(0, 1)
        assert aswwl_kernel([a], [b], [0.7]) == swwl_kernel(a, b, 0.7)

    def test_product_of_two_factors(self):
        a0, b0 = dirac_pair(0, 1, seed=1)   # distance 1
        a1, b1 = dirac_pair(0, 2, seed=2)   # distance 2
        value = aswwl_kernel([a0, a1], [b0, b1], [1.0, 1.0])
        assert value == pytest.approx(math.exp(-(1.0 + 4.0)), rel=1e-12)

    def test_vanishing_precisions_give_one(self):
        a0, b0 = dirac_pair(0, 1)
        assert aswwl_kernel([a0], [b0], [1e-30]) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        a, b = dirac_pair(0, 1)
        with pytest.raises(LengthMismatchError):
            aswwl_kernel([a, a], [b], [1.0, 1.0])
        with pytest.raises(LengthMismatchError):
            aswwl_kernel([a], [b], [1.0, 1.0])


class TestMatern52:
    def test_zero_distance(self):
        assert matern52(0.0, 1.3) == 1.0

    def test_hand_value_at_lengthscale(self):
        want = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
        assert matern52(2.5, 2.5) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.52399, abs=5e-6)

    def test_limit_and_monotonicity(self):
        grid = np.linspace(0.0, 50.0, 400)
        vals = matern52(grid, 1.0)
        assert vals[-1] < 1e-10
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals <= 1.0))

    @pytest.mark.parametrize("lengthscale", [np.nan, np.inf, 0.0, -1.0, True])
    def test_lengthscale_must_be_finite_and_positive(self, lengthscale):
        with pytest.raises(ValidationError, match="lengthscale must be finite and positive"):
            matern52(np.array([0.0, 1.0]), lengthscale)


class TestTensorized:
    def test_identical_records_give_variance(self):
        # a correlation: its variance, the value at identical records, is 1
        a, _ = dirac_pair(0, 1)
        cfg = KernelConfig(gamma=1.0, matern_lengthscales=(2.0,))
        assert tensorized_kernel((a, [0.4]), (a, [0.4]), cfg) == 1.0

    def test_empty_scalar_product(self):
        a, b = dirac_pair(0, 1)
        cfg = KernelConfig(gamma=2.0)
        want = swwl_kernel(a, b, 2.0)
        assert tensorized_kernel((a, np.zeros(0)), (b, np.zeros(0)), cfg) == pytest.approx(want)

    def test_product_of_three_numbers(self):
        # graph factor 0.5 and two Matern factors: one at its lengthscale,
        # one at twice it
        a, b = dirac_pair(0, 1)
        cfg = KernelConfig(gamma=math.log(2.0), matern_lengthscales=(1.0, 0.5))
        got = tensorized_kernel((a, [0.0, 0.0]), (b, [1.0, 1.0]), cfg)
        assert got == pytest.approx(0.5 * matern52(1.0, 1.0) * matern52(2.0, 1.0), rel=1e-12)

    def test_scalar_length_mismatch(self):
        a, b = dirac_pair(0, 1)
        cfg = KernelConfig(gamma=1.0, matern_lengthscales=(1.0,))
        with pytest.raises(LengthMismatchError):
            tensorized_kernel((a, [0.0, 1.0]), (b, [0.0, 1.0]), cfg)


class TestAssembleGram:
    def test_single_record(self):
        rng = np.random.default_rng(0)
        embs = random_embeddings(rng, 1)
        gram = assemble_gram(embs, None, KernelConfig(gamma=1.0))
        assert gram.values.tolist() == [[1.0]]
        # the Gram labels its kernel, and nothing the kernel does not use
        assert {"kind": "swwl", "gamma": 1.0, "matern_lengthscales": []}.items() <= (
            gram.fingerprint.items())
        assert "variance" not in gram.fingerprint and "nugget" not in gram.fingerprint

    def test_duplicate_records(self):
        rng = np.random.default_rng(1)
        emb = random_embeddings(rng, 1)[0]
        gram = assemble_gram(store_of([emb, emb]), None, KernelConfig(gamma=1.0))
        assert gram.values.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_matches_scalar_kernel_entrywise(self):
        rng = np.random.default_rng(2)
        embs = random_embeddings(rng, 6)
        scalars = rng.standard_normal((6, 2))
        cfg = KernelConfig(gamma=0.8, matern_lengthscales=(1.0, 2.5))
        gram = assemble_gram(embs, scalars, cfg)
        for i in range(6):
            for j in range(6):
                want = tensorized_kernel((embs[i], scalars[i]), (embs[j], scalars[j]), cfg)
                assert gram.values[i, j] == pytest.approx(want, rel=1e-12)

    def test_symmetry_exact_and_bounds(self):
        rng = np.random.default_rng(3)
        embs = random_embeddings(rng, 10)
        cfg = KernelConfig(gamma=1.2)
        gram = assemble_gram(embs, None, cfg)
        assert np.array_equal(gram.values, gram.values.T)
        assert np.all(gram.values > 0)
        assert np.all(gram.values <= 1.0)
        assert np.all(np.diag(gram.values) == 1.0)

    def test_random_gram_is_psd(self):
        rng = np.random.default_rng(4)
        embs = random_embeddings(rng, 20, s=3, p=5, q=6)
        gram = assemble_gram(embs, None, KernelConfig(gamma=2.0))
        report = check_psd(gram)
        assert report.min_eigenvalue >= -1e-8 * report.trace
        assert report.is_psd

    def test_aniso_gram_matches_kernel_and_is_psd(self):
        rng = np.random.default_rng(5)
        blocks = sample_projection_blocks(7, 4, 2, 3)
        grid = QuantileGrid(5)
        per_iter = [
            [
                pq_embed(
                    EmpiricalMeasure(rng.standard_normal((int(rng.integers(1, 9)), 2))),
                    blocks[h],
                    grid,
                    graph_id=f"g{i}",
                )
                for i in range(8)
            ]
            for h in range(3)
        ]
        gammas = np.array([0.5, 1.0, 2.0])
        # blocks[0], the full embedding, is not read by the anisotropic assembly
        gram = assemble_gram_aniso(store_of(random_embeddings(rng, 8), *per_iter), gammas)
        # fingerprinted by the first iteration's block, not by blocks[0]
        assert (gram.fingerprint["block"], gram.fingerprint["s"]) == (0, 2)
        assert gram.row_ids == tuple(f"g{i}" for i in range(8))
        for i in range(8):
            for j in range(8):
                want = aswwl_kernel(
                    [per_iter[h][i] for h in range(3)],
                    [per_iter[h][j] for h in range(3)],
                    gammas,
                )
                assert gram.values[i, j] == pytest.approx(want, rel=1e-12)
        assert check_psd(gram).is_psd

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf, True])
    def test_both_assemblies_refuse_bad_hyperparameters(self, gamma):
        # precisions finite and > 0
        embs = random_embeddings(np.random.default_rng(7), 3)
        with pytest.raises(ValidationError, match="gamma must be finite and positive"):
            KernelConfig(gamma=gamma)
        with pytest.raises(ValidationError, match="gamma must be finite and positive"):
            assemble_gram_aniso(store_of(embs, embs), [gamma])
        assert assemble_gram_aniso(store_of(embs, embs), [1.0]).size == 3

    @pytest.mark.parametrize("lengthscale", [0.0, -1.0, math.nan, math.inf])
    def test_matern_lengthscales_must_be_finite_and_positive(self, lengthscale):
        with pytest.raises(ValidationError, match="finite and positive"):
            KernelConfig(gamma=1.0, matern_lengthscales=(1.0, lengthscale))

    def test_distance_cache_equals_direct_assembly(self):
        rng = np.random.default_rng(6)
        embs = random_embeddings(rng, 7)
        gamma = 1.7
        d2 = sq_distances(embs.blocks[0])
        direct = assemble_gram(embs, None, KernelConfig(gamma=gamma)).values
        np.testing.assert_allclose(np.exp(-gamma * d2), direct, rtol=1e-15)


def test_assembly_time_tracks_embedding_width():
    # doubling the projection count doubles the feature width and should
    # roughly double the pairwise-assembly cost (generous bounds). The two
    # widths are timed in turn and each keeps its fastest run, so a burst of
    # other work on the machine slows both or is dropped, not one alone
    import time

    rng = np.random.default_rng(42)
    grid = QuantileGrid(200)
    supports = [rng.standard_normal((40, 3)) for _ in range(80)]

    def store(n_proj):
        ps = sample_projections(0, n_proj, 3)
        return store_of([
            pq_embed(EmpiricalMeasure(s), ps, grid, graph_id=str(i))
            for i, s in enumerate(supports)
        ])

    def assembly_time(embs):
        t0 = time.perf_counter()
        assemble_gram(embs, None, KernelConfig(gamma=1.0))
        return time.perf_counter() - t0

    assembly_time(store(16))  # warmup
    narrow, wide = store(32), store(64)
    times = [(assembly_time(narrow), assembly_time(wide)) for _ in range(7)]
    ratio = min(t for _, t in times) / min(t for t, _ in times)
    assert 1.3 <= ratio <= 3.2


class TestCheckPsd:
    def test_identity(self):
        report = check_psd(GramMatrix(np.eye(3), ("a", "b", "c")))
        assert report.min_eigenvalue == pytest.approx(1.0)
        assert report.is_psd

    def test_hand_indefinite(self):
        # eigenvalues 3 and -1
        report = check_psd(GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b")))
        assert report.min_eigenvalue == pytest.approx(-1.0)
        assert not report.is_psd

    def test_non_symmetric_rejected(self):
        with pytest.raises(NonSymmetricError):
            check_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_a_matrix_that_is_not_square_is_refused(self, shape):
        with pytest.raises(ValidationError, match="not square"):
            check_psd(np.ones(shape))

    def test_asymmetry_is_found_in_any_row_block(self):
        # 130 rows span three 64-row blocks; one pair off by 1e-9 in the last
        values = np.eye(130)
        values[129, 3] = 1e-9
        with pytest.raises(NonSymmetricError):
            check_psd(values)
        values[3, 129] = 1e-9
        assert check_psd(values).is_psd

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, True, np.bool_(True)])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValidationError, match="tol must be finite and nonnegative"):
            check_psd(np.eye(2), tol=tol)


HEADER = '# {"fingerprint": {"seed": 0}, "row_ids": ["a", "b"]}\n'


class TestGramFiles:
    def test_text_round_trip_17_digits(self, tmp_path):
        rng = np.random.default_rng(7)
        embs = random_embeddings(rng, 5)
        gram = assemble_gram(embs, None, KernelConfig(gamma=1.0))
        path = tmp_path / "gram.txt"
        save_gram_text(gram, path)
        # the binary Gram's header, as JSON with sorted keys
        header = {"fingerprint": gram.fingerprint, "row_ids": list(gram.row_ids)}
        assert path.read_text().splitlines()[0] == "# " + json.dumps(header, sort_keys=True)
        back = load_gram_text(path)
        assert np.array_equal(back.values, gram.values)
        assert (back.row_ids, back.fingerprint) == (gram.row_ids, gram.fingerprint)

    @pytest.mark.parametrize("kind", ["swwl", "aswwl", "distances-only"])
    def test_text_and_binary_grams_load_back_equal(self, tmp_path, kind):
        dataset = generate_regression_dataset(seed=3, n_graphs=6, mean_nodes=8, scalar_dim=1)
        store = embed_dataset(dataset, WlConfig(iterations=(0, 1)), seed=2, n_projections=3,
                              n_quantiles=4, per_iteration=True)
        gram = {
            "swwl": lambda: assemble_gram(
                store, store.scalars, KernelConfig(gamma=0.5, matern_lengthscales=(1.0,))),
            "aswwl": lambda: assemble_gram_aniso(store, [0.5, 2.0]),
            # as swwl gram --distances-only labels its matrix
            "distances-only": lambda: store_gram(store, 0, sq_distances(store.blocks[0]),
                                                 kind="sw-squared-distances", gamma=0.0),
        }[kind]()
        text, binary = tmp_path / "gram.txt", tmp_path / "gram.bin"
        save_gram_text(gram, text)
        save_gram_binary(gram, binary)
        got, want = load_gram(text), load_gram(binary)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
        assert np.array_equal(got.values, gram.values)
        assert got.row_ids == want.row_ids == gram.row_ids == store.ids
        assert got.fingerprint == want.fingerprint == gram.fingerprint

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_text_matches_value_by_value_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-320, 300, (n, n))
        special = [-0.0, 5e-324, 1e308, -5e-324, -1e308, 0.0, 1.0 / 3.0]
        picks = rng.integers(0, n * n, size=len(special))
        values.flat[picks] = special
        values.flat[: len(special)] = special[: n * n]
        gram = GramMatrix(values, tuple(f"g{i}" for i in range(n)),
                          {"seed": 3, "projections": 2, "quantiles": 4, "gamma": 0.5})
        ours, reference = tmp_path / "ours.txt", tmp_path / "reference.txt"
        save_gram_text(gram, ours)
        value_by_value_gram_text(gram, reference)
        assert ours.read_bytes() == reference.read_bytes()
        back = load_gram_text(ours).values
        assert np.array_equal(back, values)
        assert np.array_equal(np.signbit(back), np.signbit(values))  # -0.0 kept

    def test_numpy_loadtxt_reads_the_text_gram_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-320, 300, (6, 6))
        values.flat[:5] = [-0.0, 5e-324, -1e308, 1.0 / 3.0, 0.0]
        path = tmp_path / "gram.txt"
        save_gram_text(GramMatrix(values, tuple("abcdef"), {"note": "# not a row"}), path)
        # the header line is a comment to numpy
        loaded = np.loadtxt(path)
        assert np.array_equal(loaded, values)
        assert np.array_equal(np.signbit(loaded), np.signbit(values))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2 0 1 2\n1 0\n0 1\n",  # fingerprint line too short
            "two 0 1 2 1.0\n1 0\n0 1\n",
            "2.5 0 1 2 1.0\n1 0\n0 1\n",
            "-1 0 1 2 1.0\n",
            "2 0 1 2 1.0\n1 0\n",  # fewer rows than announced
            "2 0 1 2 1.0\n1 0\n0 1\n0 0\n",  # more rows than announced
            "2 0 1 2 1.0\n1 0\n0 1 0\n",  # a row of the wrong width
            "2 0 1 2 1.0\n1 0\n0 x\n",
            "3000000000 0 1 2 1.0\n1 0\n0 1\n",  # a count the file does not back
        ],
    )
    def test_malformed_text_is_parse_error(self, tmp_path, text):
        # the earlier format's fingerprint line, whole or damaged: every such
        # file is refused as one of that format, which swwl gram rebuilds
        path = tmp_path / "gram.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: the first line is not '# ' and a JSON header, as in a text Gram "
                "of an earlier format; rerun `swwl gram`")):
            load_gram_text(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('# {"fingerprint": {}, "row_ids": ["a", "b"]\n1 0\n0 1\n', "header is not JSON"),
            ('# {"fingerprint": ' + "[" * 100_000 + "]" * 100_000 + "}\n", "header is not JSON"),
            ('# {"fingerprint": [], "row_ids": ["a", "b"]}\n1 0\n0 1\n',
             "'fingerprint' must be a JSON object"),
            ('# {"fingerprint": {"gamma": NaN}, "row_ids": ["a", "b"]}\n1 0\n0 1\n',
             "'fingerprint' must be a JSON object"),
            ('# {"fingerprint": {}}\n1 0\n0 1\n', "'row_ids' must be a list of record ids"),
            ('# {"fingerprint": {}, "row_ids": ["a", "a"]}\n1 0\n0 1\n',
             "'row_ids' repeats a record id"),
            (HEADER + "1 0\n", "Gram matrix must be square, got (1, 2)"),
            (HEADER + "1 0\n0 1\n0 0\n", "Gram matrix must be square, got (3, 2)"),
            (HEADER + "1 0 0\n0 1 0\n0 0 1\n", "row id count does not match matrix size"),
            (HEADER, "row id count does not match matrix size"),
            (HEADER + "1 0\n0 1 0\n", "line 3 holds 3 values, line 2 holds 2"),
            (HEADER + "1 0\n0 x\n", "line 3: 'x' is not a number"),
            (HEADER + "1 0 # a comment\n0 1\n", "line 2: '#' is not a number"),
            (HEADER + "1 0\n\n0 1_0\n", "line 4: '1_0' is not a number"),
        ],
        ids=["header-not-json", "header-nested-too-deep", "fingerprint-not-object",
             "fingerprint-nan", "no-row-ids", "row-ids-repeated", "fewer-rows", "more-rows",
             "more-rows-and-columns", "no-rows", "row-width", "not-a-number",
             "comment-in-a-row", "digit-separator-after-a-blank-line"],
    )
    def test_malformed_text_refusal_names_the_file_and_the_fault(self, tmp_path, text, message):
        path = tmp_path / "gram.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            load_gram_text(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_text_value_is_parse_error_naming_the_row(self, tmp_path, value):
        path = tmp_path / "gram.txt"
        path.write_text(f"{HEADER}1 0\n0 {value}\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: array 'values' holds a NaN or infinite entry at index (1, 1)")):
            load_gram_text(path)

    @pytest.mark.parametrize("data", [b"\xb8SWWL-G1", HEADER.encode() + b"1 0\n0 \xff\n"],
                             ids=["header", "row"])
    def test_bytes_that_are_not_utf8_are_a_parse_error_naming_the_file(self, tmp_path, data):
        path = tmp_path / "gram.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8 text")):
            load_gram_text(path)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        embs = random_embeddings(rng, 4)
        gram = assemble_gram(embs, None, KernelConfig(gamma=0.3))
        path = tmp_path / "gram.bin"
        save_gram_binary(gram, path)
        back = load_gram_binary(path)
        assert np.array_equal(back.values, gram.values)
        assert back.row_ids == gram.row_ids
        assert back.fingerprint == gram.fingerprint

    @pytest.mark.parametrize(
        "header, arrays",
        [
            ({"fingerprint": {}}, {"values": np.eye(2)}),
            ({"fingerprint": {}, "row_ids": ["a", "b"]}, {}),
            ({"fingerprint": {}, "row_ids": 5}, {"values": np.eye(2)}),
            ({"fingerprint": {}, "row_ids": [0, 1]}, {"values": np.eye(2)}),
            ({"row_ids": ["a", "b"]}, {"values": np.eye(2)}),
            ({"fingerprint": {}, "row_ids": ["a", "b"]}, {"values": np.eye(3)}),
            ({"fingerprint": {}, "row_ids": ["a", "b"]}, {"values": np.ones(4)}),
            ({"fingerprint": {}, "row_ids": ["a", "a"]}, {"values": np.eye(2)}),
            ({"fingerprint": {}, "row_ids": ["a", "b"]}, {"values": np.full((2, 2), np.nan)}),
            ({"fingerprint": {}, "row_ids": ["a", "b"]}, {"values": np.diag([1.0, np.inf])}),
        ],
        ids=["no-row-ids", "no-values", "row-ids-int", "row-ids-not-str",
             "no-fingerprint", "values-vs-ids", "values-1d", "row-ids-repeated",
             "values-nan", "values-inf"],
    )
    def test_malformed_binary_is_parse_error(self, tmp_path, header, arrays):
        path = tmp_path / "gram.bin"
        write_container(path, GRAM_MAGIC, header, arrays)
        for reader in (load_gram_binary, load_gram):
            with pytest.raises(ParseError):
                reader(path)

    def test_load_gram_tells_the_format_from_the_first_bytes(self, tmp_path):
        gram = assemble_gram(random_embeddings(np.random.default_rng(9), 4), None,
                             KernelConfig(gamma=0.3))
        text, binary = tmp_path / "gram.txt", tmp_path / "gram.bin"
        save_gram_text(gram, text)
        save_gram_binary(gram, binary)
        for path, reader in ((text, load_gram_text), (binary, load_gram_binary)):
            got, want = load_gram(path), reader(path)
            assert np.array_equal(got.values, want.values)
            assert (got.row_ids, got.fingerprint) == (want.row_ids, want.fingerprint)
        # files that do not start with the whole magic are read as text
        for data in (b"", b"SWWL-G", b"\xb8SWWL-G1"):
            text.write_bytes(data)
            with pytest.raises(ParseError, match="rerun `swwl gram`|not UTF-8"):
                load_gram(text)

    def test_empty_gram_is_validation_error(self, tmp_path):
        path = tmp_path / "gram.bin"
        write_container(path, GRAM_MAGIC, {"fingerprint": {}, "row_ids": []},
                        {"values": np.zeros((0, 0))})
        gram = load_gram_binary(path)
        with pytest.raises(ValidationError):
            check_psd(gram)


@pytest.fixture(scope="module")
def acceptance_7_stores():
    """Train (with per-iteration blocks) and test stores of acceptance 7's
    first seed: 120 + 40 graphs of 200 nodes, iterations 0-3, P=50, Q=500."""
    records = generate_regression_dataset(seed=0, n_graphs=160, mean_nodes=200).records
    kwargs = dict(seed=0, n_projections=50, n_quantiles=500)
    config = WlConfig(iterations=(0, 1, 2, 3))
    train = embed_dataset(Dataset(records[:120]), config, per_iteration=True, **kwargs)
    return train, embed_dataset(Dataset(records[120:]), config, **kwargs)


def assert_within_1e12_of_scipy(x, y=None):
    """sq_distances(x, y) against scipy's pdist (without y) or cdist: each
    entry within 1e-12 relative of the reference off the diagonal, which is
    exactly 0 without y."""
    got = sq_distances(x, y)
    want = squareform(pdist(x, "sqeuclidean")) if y is None else cdist(x, y, "sqeuclidean")
    off = ~np.eye(*want.shape, dtype=bool) if y is None else np.ones(want.shape, dtype=bool)
    assert np.all(want[off] > 0)
    assert np.max(np.abs(got - want)[off] / want[off]) <= 1e-12
    if y is None:
        assert np.all(np.diag(got) == 0.0)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_sq_distances_within_1e12_of_scipy_on_acceptance_7_data(acceptance_7_stores, offset):
    # centring keeps the bound with a large offset common to every feature
    train, test = (store.blocks[0] + offset for store in acceptance_7_stores)
    assert train.shape == (120, 25_000)
    assert_within_1e12_of_scipy(train)
    assert_within_1e12_of_scipy(test, train)
    assert_within_1e12_of_scipy(test)


def test_gram_nugget_equals_adding_a_scaled_identity(acceptance_7_stores):
    # the GP's correlation matrix R + nugget * I, from the Gram's distances
    store = acceptance_7_stores[0]
    d2 = sq_distances(store.blocks[0])
    want = np.exp(-0.02 * d2) + 0.1 * np.eye(120)
    assert np.array_equal(correlation_from_distances(d2, (), 0.02, (), nugget=0.1), want)
    assert np.array_equal(assemble_gram(store, None, KernelConfig(gamma=0.02)).values,
                          np.exp(-0.02 * d2))


def test_one_builder_equals_the_two_step_kernel_matrix(acceptance_7_stores):
    # isotropic, tensorized with two scalar covariates, and anisotropic:
    # bit for bit the reference arithmetic
    store = acceptance_7_stores[0]
    d2 = sq_distances(store.blocks[0])
    no_scalars = np.zeros((0, 120, 120))
    assert np.array_equal(
        assemble_gram(store, None, KernelConfig(gamma=0.02)).values,
        two_step_kernel_matrix(d2, no_scalars, 0.02, (), 0.0),
    )
    scalars = np.random.default_rng(4).standard_normal((120, 2))
    cfg = KernelConfig(gamma=0.02, matern_lengthscales=(0.7, 1.3))
    scalar_abs = np.abs(scalars.T[:, :, None] - scalars.T[:, None, :])
    assert np.array_equal(
        assemble_gram(store, scalars, cfg).values,
        two_step_kernel_matrix(d2, scalar_abs, 0.02, (0.7, 1.3), 0.0),
    )
    gammas = np.array([0.5, 0.1, 0.05, 0.02])
    weighted = np.zeros((120, 120))
    for block, g in zip(store.blocks[1:], gammas):
        weighted += g * sq_distances(block)
    assert np.array_equal(
        assemble_gram_aniso(store, gammas).values,
        two_step_kernel_matrix(weighted, no_scalars, 1.0, (), 0.0),
    )


@st.composite
def row_matrices(draw):
    # widths of one block, one block and a column, and an odd block count:
    # the second half of the blocks is empty, holds one column, or is the
    # smaller one
    blocks = [1, 127, 128, 129, 2 * 128 + 1, 3 * 128 + 1]
    n = draw(st.integers(1, 70))
    width = draw(st.sampled_from(blocks) | st.integers(1, 40))
    elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(np.float64, (n, width), elements=elements))


@settings(max_examples=150, deadline=None)
@given(x=row_matrices())
def test_distances_symmetric_and_bounded_by_the_centred_norms(x):
    got = sq_distances(x)
    assert np.array_equal(got, got.T)
    assert np.all(np.diag(got) == 0.0)
    assert np.all(got >= 0.0)
    # rounding in the norms, the dot products and the reference's own sum
    # grows with the width and the squared row norms about the column mean
    # (tiny: where the squares are subnormal); the same bound holds for the
    # cross routine, handed a copy of x, which centres on the same mean
    norms = np.sum((x - x.mean(axis=0)) ** 2, axis=1)
    bound = 4 * (x.shape[1] + 2) * np.finfo(float).eps * (norms[:, None] + norms)
    want = squareform(pdist(x, "sqeuclidean"))
    for d2 in (got, sq_distances(x, x.copy())):
        assert np.all(np.abs(d2 - want) <= bound + np.finfo(float).tiny)


@pytest.mark.parametrize("shape", [(300, 5_000), (70, 3 * 128 + 1), (5, 1)])
def test_distance_bytes_follow_neither_the_cpus_nor_the_blas_threads(monkeypatch, shape):
    """The two halves of each call, run inline on one CPU or on two
    threads, under a caller's BLAS count of 1 or 2: the same bytes."""
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(shape) + 3, rng.standard_normal((shape[0] // 2 + 1, shape[1]))
    copies = swwl.kernels.openblas_copies()
    caller = [copy.get_threads() for copy in copies]
    results = []
    try:
        for cpus in (1, 2):
            monkeypatch.setattr(swwl.kernels, "usable_cpus", lambda: cpus)
            for threads in (1, 2):
                for copy in copies:
                    copy.set_threads(threads)
                results.append((sq_distances(x).tobytes(), sq_distances(y, x).tobytes()))
    finally:
        for copy, count in zip(copies, caller):
            copy.set_threads(count)
    assert results[1:] == results[:1] * 3


@pytest.mark.parametrize("cpus", [1, 2])
def test_cross_distances_need_no_second_output_sized_matrix(monkeypatch, cpus):
    # narrow rows: the output (1,500 x 1,000, 12 MB) dwarfs every block copy,
    # so a second matrix of its shape would show as twice its bytes
    monkeypatch.setattr(swwl.kernels, "usable_cpus", lambda: cpus)
    rng = np.random.default_rng(8)
    xa, xb = rng.standard_normal((1_500, 8)), rng.standard_normal((1_000, 8))
    tracemalloc.start()
    try:
        d2 = sq_distances(xa, xb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * d2.nbytes
    assert np.max(np.abs(d2 - cdist(xa, xb, "sqeuclidean"))) < 1e-12 * np.max(d2)


def test_distances_of_any_memory_layout_are_the_same_bytes():
    # a Fortran-ordered array, a strided view, float32 values and a list:
    # the bytes of their C-ordered float64 copies; one input given twice is
    # a set with itself (float32 values and a list once went to cdist, whose
    # result was neither symmetric nor zero on the diagonal)
    x = np.random.default_rng(5).standard_normal((40, 300))
    y = x[:15] + 1
    for other in (np.asfortranarray(x), np.repeat(x, 2, axis=0)[::2], x.astype(np.float32),
                  x.tolist()):
        want = np.ascontiguousarray(other, dtype=float)
        assert np.array_equal(sq_distances(other), sq_distances(want))
        assert np.array_equal(sq_distances(other, other), sq_distances(want))
        assert np.array_equal(sq_distances(y, other), sq_distances(y, want))
        assert np.array_equal(sq_distances(other, y), sq_distances(want, y))


def test_distances_refuse_inputs_that_are_not_matrices_of_one_width(monkeypatch):
    # a narrower second set once gave the distances over the first set's
    # first 128 columns, a wider one a bare numpy error from a worker
    # thread, and a 1-D input a bare IndexError, through sq_distances and
    # through pdist and cdist, which other modules may call by name
    def no_threads(calls):
        raise AssertionError("a distance half started")

    monkeypatch.setattr(swwl.kernels, "run_calls", no_threads)
    rng = np.random.default_rng(9)
    cases = [(rng.standard_normal((3, 256)), rng.standard_normal((4, 128))),
             (rng.standard_normal((3, 100)), rng.standard_normal((4, 300))),
             (rng.standard_normal(5), None)]
    for x, y in cases:
        calls = [lambda: sq_distances(x, y),
                 lambda: swwl.kernels.pdist(x) if y is None else swwl.kernels.cdist(x, y)]
        for call in calls:
            with pytest.raises(DimensionMismatchError,
                               match="two \\(N, W\\) matrices of one width"):
                call()


# the stripe edges of the 64-row passes: one row, one stripe less, equal
# and more by one, two stripes and one more
@example(n=1, seed=0)
@example(n=63, seed=1)
@example(n=64, seed=2)
@example(n=65, seed=3)
@example(n=128, seed=4)
@example(n=129, seed=5)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_the_one_pass_finish_is_the_three_pass_finish_bit_for_bit(n, seed):
    # -2 x.x' sums of either sign, some of which the norms do not make up,
    # so that the clamp at 0 acts
    rng = np.random.default_rng(seed)
    square, norms = rng.standard_normal((n, n)) * 10, rng.uniform(0, 8, n)
    want = square.copy()
    three_pass_finish(want, norms)
    swwl.kernels._finish_square(square, norms)
    assert square.tobytes() == want.tobytes()


def test_blas_refuses_an_array_it_cannot_hand_over_as_it_is():
    # BLAS writes through the data pointer: a Fortran-ordered or float32 c
    # would be written at the wrong places
    a = np.ones((3, 2))
    for c in (np.zeros((3, 3), order="F"), np.zeros((3, 3), dtype=np.float32)):
        with pytest.raises(ValueError, match="C-ordered float64"):
            swwl.kernels._gemm_update(c, a, a)


class FakeOpenBlas:
    """Thread counts of pretend OpenBLAS copies, for blas_threads to set."""

    def __init__(self, *counts):
        self.counts = list(counts)
        self.copies = tuple(
            swwl.kernels.OpenBlasCopy(
                f"libfake{i}.so",
                lambda i=i: self.counts[i],
                lambda n, i=i: self.counts.__setitem__(i, n),
            )
            for i in range(len(counts))
        )


@pytest.fixture
def fake_openblas(monkeypatch):
    fake = FakeOpenBlas(3, 2)
    monkeypatch.setattr(swwl.kernels, "openblas_copies", lambda: fake.copies)
    return fake


def test_blas_threads_restores_each_copy_after_a_normal_exit(fake_openblas):
    with swwl.kernels.blas_threads(1):
        assert fake_openblas.counts == [1, 1]
    assert fake_openblas.counts == [3, 2]


def test_blas_threads_restores_each_copy_after_an_exception(fake_openblas):
    with pytest.raises(ZeroDivisionError):
        with swwl.kernels.blas_threads(1):
            1 / 0
    assert fake_openblas.counts == [3, 2]


def test_blas_threads_restores_each_copy_after_nested_entries(fake_openblas):
    with swwl.kernels.blas_threads(1):
        with swwl.kernels.blas_threads(1):
            assert fake_openblas.counts == [1, 1]
        assert fake_openblas.counts == [1, 1]
    assert fake_openblas.counts == [3, 2]


def test_blas_threads_entries_that_overlap_out_of_order(fake_openblas):
    # entries on two threads need not close in the order they opened: the
    # counts come back when the last one exits
    first, second = swwl.kernels.blas_threads(1), swwl.kernels.blas_threads(1)
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert fake_openblas.counts == [1, 1]
    second.__exit__(None, None, None)
    assert fake_openblas.counts == [3, 2]


def test_blas_threads_does_nothing_without_openblas(monkeypatch):
    real = swwl.kernels.openblas_copies()
    caller = [copy.get_threads() for copy in real]
    monkeypatch.setattr(swwl.kernels, "openblas_copies", lambda: ())
    with swwl.kernels.blas_threads(1):
        assert [copy.get_threads() for copy in real] == caller
    x = np.random.default_rng(6).standard_normal((20, 300))
    assert np.max(np.abs(sq_distances(x) - squareform(pdist(x, "sqeuclidean")))) < 1e-12
    assert [copy.get_threads() for copy in real] == caller


def test_openblas_copies_are_numpys_and_scipys():
    libraries = [copy.library for copy in swwl.kernels.openblas_copies()]
    if not libraries:
        pytest.skip("numpy and scipy are not built with OpenBLAS")
    assert all("openblas" in library for library in libraries)
    assert len(set(libraries)) == len(libraries)


def test_the_library_hands_back_the_callers_blas_threads(monkeypatch):
    """assemble_gram, fit and predict run their distances on one BLAS
    thread, and each copy is back at the caller's count when they return."""
    copies = swwl.kernels.openblas_copies()
    if not copies:
        pytest.skip("numpy and scipy are not built with OpenBLAS")
    during = []
    for name in ("_syrk_update", "_gemm_update"):
        def recording(*args, _original=getattr(swwl.kernels, name)):
            during.append(tuple(copy.get_threads() for copy in copies))
            return _original(*args)

        monkeypatch.setattr(swwl.kernels, name, recording)
    rng = np.random.default_rng(7)
    store = random_embeddings(rng, 30)
    feats, targets = store.blocks[0], rng.standard_normal(30)
    before = [copy.get_threads() for copy in copies]
    try:
        for i, copy in enumerate(copies):
            copy.set_threads(2 + i % 2)
        caller = [copy.get_threads() for copy in copies]
        assemble_gram(store, None, KernelConfig())
        assert [copy.get_threads() for copy in copies] == caller
        model = fit(feats[:20], None, targets[:20], settings=GpSettings(multistarts=1))
        assert [copy.get_threads() for copy in copies] == caller
        predict(model, feats[20:])
        assert [copy.get_threads() for copy in copies] == caller
    finally:
        for copy, count in zip(copies, before):
            copy.set_threads(count)
    assert during and set(during) == {(1,) * len(copies)}


def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_run_calls_returns_results_in_order_inline_on_one_cpu(monkeypatch, cpus):
    monkeypatch.setattr(swwl.kernels, "usable_cpus", lambda: cpus)
    ran_on = []

    def call(i):
        ran_on.append(threading.current_thread())
        return i * i

    assert run_calls([lambda i=i: call(i) for i in range(7)]) == [i * i for i in range(7)]
    inline = all(t is threading.main_thread() for t in ran_on)
    assert inline == (cpus == 1)
    assert run_calls([]) == []
