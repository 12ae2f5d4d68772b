"""Self-test of the benchmark on tiny sizes: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
import numpy as np
import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import spans  # noqa: E402
import swwl  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        tiny=True,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, lines[-2]
    return json.loads(lines[-1])


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m[:3]) for m in spans.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_printed_metrics_match_benchmark_json(capsys, workload):
    result = _result(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = _result(capsys, workload, trace=1)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    # every layer said to show on this workload was actually reached
    for name, _, _, _, shows_on in spans.LAYER_METRICS:
        if workload in shows_on.split() and name != "gp.posterior_failed":
            assert traced["metrics"][name]["value"] > 0, name


def _untimed(name, fn):
    return fn()


def test_perturbed_outputs_trip_the_checks(tmp_path):
    workload = workloads.make("regress-wide", tiny=True)
    inputs = workload.setup(5, tmp_path)
    outputs = workload.repetition(inputs, 5, 0, _untimed)
    passed, _ = workloads.check(outputs, inputs, workload.sizes, outputs.digest)
    assert all(passed.values()), passed

    def failing(**changes):
        perturbed = workloads.Outputs(**{**vars(outputs), **changes})
        passed, _ = workloads.check(perturbed, inputs, workload.sizes, outputs.digest)
        return {name for name, ok in passed.items() if not ok}

    gram = outputs.gram.copy()
    gram[0, 1] = gram[1, 0] = gram[0, 1] * (1 + 1e-9)
    assert failing(gram=gram) == {"train_distances"}
    lopsided = outputs.gram.copy()
    lopsided[0, 1] += 1e-6
    assert "gram_symmetric" in failing(gram=lopsided)
    assert failing(is_psd=False) == {"gram_psd"}
    assert failing(digest="0" * 64) == {"predictions_identical"}
    truth = inputs.test.targets()
    assert "q2_floor" in failing(mean=np.full_like(truth, truth.mean()))
    assert failing(lo=outputs.hi, hi=outputs.hi) == {"interval_coverage"}


def test_traced_run_fails_loudly_when_a_probed_function_is_gone(monkeypatch):
    monkeypatch.delattr(swwl.gp, "_floor_psd")
    with pytest.raises(spans.MissingProbeTarget, match="swwl.gp._floor_psd"):
        run.main(
            ["--workload", "regress-wide", "--seed", "1", "--seconds", "0", "--trace", "1"],
            tiny=True,
        )
    # nothing stays wrapped after the failed install
    assert not hasattr(swwl.pipeline.embed_dataset, "__wrapped__")
