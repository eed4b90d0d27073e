"""Self-test of the benchmark harness at tiny shapes (seconds):

    python3 -m pytest perfbench
"""

import json
import re
from pathlib import Path

import pytest

import hostspeed
import run

workloads, tracing = run.import_workloads()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# every end-to-end metric the harness prints, with its unit
PRINTED = {
    "train_ae.images_per_s": "1/s",
    "train_base_toy.samples_per_s": "1/s",
    "train_base.samples_per_s": "1/s",
    "train_upsampler.samples_per_s": "1/s",
    "sample_base.cloud_s": "s",
    "sample_high.cloud_s": "s",
    "eval_1k.pairs_per_s": "1/s",
    "eval_4k.pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed": "ratio",
}


def _printed(text: str) -> dict[str, str]:
    return {m.group(1): m.group(2) for m in
            re.finditer(r"^(\S+) [-+0-9.e]+ (\S+)", text, re.MULTILINE)}


def test_spec_matches_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (n, workloads.WORKLOADS[n].why) for n in run.WORKLOAD_NAMES]
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.LAYER_METRICS[m["name"]]


def test_every_end_to_end_metric_is_printed_with_its_unit(capsys):
    printed = {}
    for name in run.WORKLOAD_NAMES:
        result = run.run_benchmark(name, seed=1, seconds=0.0, trace=False,
                                   shapes=workloads.TINY)
        assert result["correct"] and result["failed"] == 0, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        printed.update(_printed(capsys.readouterr().out))
    for name, unit in PRINTED.items():
        assert printed.get(name) == unit, name


def test_traced_run_reports_every_layer_metric(capsys):
    result = run.run_benchmark("sample", seed=1, seconds=0.0, trace=True,
                               shapes=workloads.TINY)
    assert result["correct"]
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    assert result["metrics"]["diffusion.model_calls_per_step"]["value"] == 2.0
    printed = _printed(capsys.readouterr().out)
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        assert printed.get(name) == unit, name


def test_tracer_restores_every_patched_name():
    from buildiff import cli, geometry, pipeline, tensor
    before = (pipeline.nearest_indices, geometry.nearest_indices,
              cli.CLOUD_LOADERS[".ply"], tensor.Tape.record)
    with tracing.Tracer() as tracer:
        assert pipeline.nearest_indices is not before[0]
        assert cli.CLOUD_LOADERS[".ply"] is not before[2]
    assert (pipeline.nearest_indices, geometry.nearest_indices,
            cli.CLOUD_LOADERS[".ply"], tensor.Tape.record) == before
    assert tracer.absent == []


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + [("pipeline", "gone", "x")])
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["pipeline.gone"]


@pytest.mark.parametrize("damage", ["garbage", "missing"])
def test_corrupted_eval_input_counts_as_failed(tmp_path: Path, damage):
    wl = workloads.Eval(tmp_path / "eval", seed=2, shapes=workloads.TINY)
    wl.setup()
    wl.prepare_checks()
    pred = sorted(wl.dirs[0][0][0].iterdir())[0]  # part 1, first pair
    if damage == "garbage":
        pred.write_text("ply\nelement vertex 5\nend_header\nnot a number\n")
    else:
        pred.unlink()
    # two rounds, each with a call of both part-1 pairs and one part-2
    # call; the first pair fails in both, and the first call is a warm-up
    stats = run.measure(wl, seconds=0.0, bracket=run.Bracket(hostspeed.Reference()))
    assert wl.calls == (2, 1)
    assert stats.failed == 2
    assert stats.attempted == 2 * (2 + 1)
    assert [len(s) for s in stats.samples] == [2, 2]
    assert [len(s) for s in stats.scaled] == [2, 2]
