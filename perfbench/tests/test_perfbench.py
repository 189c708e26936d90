"""The benchmark's own tests, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, metrics, run, workloads  # noqa: E402
from perfbench.workloads import TINY  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _cli(capsys, workload: str, trace: int, seed: int = 7,
         expected: dict | None = None) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)],
                    config=TINY, expected=expected)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_names_the_reported_metrics():
    assert WORKLOADS == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        entry[:3] for entry in metrics.PER_LAYER]
    for entry in metrics.PER_LAYER:
        assert set(entry[4]) <= set(WORKLOADS)
        assert set(entry[5]) <= set(WORKLOADS)
        assert metrics.tag(entry[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, out = _cli(capsys, workload, trace)
        names = [m["name"] for m in BENCHMARK[section]]
        assert list(result["metrics"]) == names
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        for name in names:
            value = result["metrics"][name]
            assert isinstance(value["value"], float)
            assert f"\n{name} " in out
        assert "host: cpu_count=" in out
        assert "failed_ratio 0 " in out


@pytest.mark.parametrize("workload, plant", [
    ("lint_cold", lambda e: e["lint_cold"]["digests"].reverse()),
    ("lint_incremental",
     lambda e: e["lint_incremental"]["digests"].reverse()),
    ("wllsms", lambda e: e["wllsms"]["tiny"].update(
        {"directive/TARGET_COMM_SHMEM": (1.0).hex()})),
])
def test_planted_wrong_answer_lands_in_failed(capsys, workload, plant):
    expected = copy.deepcopy(workloads.load_expected())
    plant(expected)
    result, out = _cli(capsys, workload, 0, expected=expected)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED request" in out


def test_wllsms_energy_mismatch_is_a_failure():
    wl = workloads.WlLsms(1, TINY, workloads.load_expected(), Path("."))
    wl.setup()
    records = [workloads.Record(i, 0.1, wl.request(i)) for i in range(4)]
    makespan, energies = records[2].output
    records[2].output = (makespan, [e + 1.0 for e in energies])
    wl.check(records)
    assert [r.error is not None for r in records] == [
        False, False, True, False]


def test_diffgen_disagreement_is_a_failure():
    class Verdict:
        ok = False
        disagreements = ["DISAGREE[planted]"]

    wl = workloads.Diffgen(1, TINY, {}, Path("."))
    records = [workloads.Record(0, 0.1, Verdict())]
    wl.check(records)
    assert records[0].error == "DISAGREE[planted]"


@pytest.mark.parametrize("workload",
                         ["lint_cold", "lint_incremental", "diffgen"])
def test_seed_changes_the_generated_inputs(tmp_path, workload):
    def sources(seed: int) -> list[str]:
        wl = workloads.WORKLOADS[workload](
            seed, TINY, workloads.load_expected(), tmp_path)
        wl.setup()
        wl.teardown()
        return [wl.corpus[i].source for i in range(3)]

    assert sources(1) == sources(1)
    assert sources(1) != sources(2)


def test_seed_changes_the_wllsms_inputs():
    def energies(seed: int) -> list[float]:
        wl = workloads.WlLsms(seed, TINY, {}, Path("."))
        wl.setup()
        return wl.request(0)[1]

    assert energies(1) != energies(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(tmp_path, workload):
    def counts() -> dict[str, float]:
        result = workloads.run(workload, 5, 0.01, True,
                               work_dir=tmp_path / "w", config=TINY)
        assert result.failed == 0
        return {name: result.metrics[name][0]
                for name in metrics.EXACT_COUNTS}

    first = counts()
    assert any(first.values())
    assert counts() == first


def test_host_speed_scales_each_span_by_its_own_samples():
    sampler = hostspeed.SpeedSampler()
    # The host runs at reference speed for 10 s, then at half speed.
    sampler.starts = [i * 0.02 for i in range(1000)]
    sampler.seconds = [hostspeed.REFERENCE_S * (1 if t < 10 else 2)
                       for t in sampler.starts]
    assert sampler.normalize(2.0, 3.0) == pytest.approx(1.0)
    assert sampler.normalize(15.0, 16.0) == pytest.approx(0.5)
    # A span before the first sample takes the nearest samples.
    assert sampler.normalize(-1.0, -0.5) == pytest.approx(0.5)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lint_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
