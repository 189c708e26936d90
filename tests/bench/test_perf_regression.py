"""The perf-regression comparator and its committed baselines."""

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))

import check_perf_regression as cpr  # noqa: E402


def _engine_report(makespan=1e-4, heap_ops=1000, nprocs=33):
    return {"points": [{"nprocs": nprocs, "makespan": makespan,
                        "heap_ops": heap_ops, "switches": 100}]}


class TestChecker:
    def test_identical_reports_pass(self):
        base = _engine_report()
        checker = cpr.Checker(0.25)
        cpr.check_engine(base, base, checker)
        assert not checker.failures
        assert checker.checked > 0

    def test_makespan_regression_fails(self):
        checker = cpr.Checker(0.25)
        cpr.check_engine(_engine_report(makespan=1e-4),
                         _engine_report(makespan=1.3e-4), checker)
        assert any("makespan" in f for f in checker.failures)

    def test_within_tolerance_passes(self):
        checker = cpr.Checker(0.25)
        cpr.check_engine(_engine_report(heap_ops=1000),
                         _engine_report(heap_ops=1200), checker)
        assert not checker.failures

    def test_quick_subset_is_accepted(self):
        base = {"points": [{"nprocs": p, "makespan": 1e-4,
                            "heap_ops": 10, "switches": 5}
                           for p in (33, 65, 128, 257, 337)]}
        new = {"points": base["points"][:3]}
        checker = cpr.Checker(0.25)
        cpr.check_engine(base, new, checker)
        assert not checker.failures

    def test_unknown_point_fails(self):
        checker = cpr.Checker(0.25)
        cpr.check_engine(_engine_report(nprocs=33),
                         _engine_report(nprocs=999), checker)
        assert checker.failures

    def test_advisor_saving_drop_fails(self):
        base = {"examples": [{"path": "a.c", "accepted": 1,
                              "predicted_saving_s": 1e-5,
                              "modeled_speedup": 1.5, "steps": []}],
                "catalog": [{"name": "ring", "changed": False}]}
        worse = json.loads(json.dumps(base))
        worse["examples"][0]["predicted_saving_s"] = 1e-6
        checker = cpr.Checker(0.25)
        cpr.check_advisor(base, worse, checker)
        assert any("predicted_saving_s" in f for f in checker.failures)

    def test_catalog_must_stay_negative_control(self):
        base = {"examples": [],
                "catalog": [{"name": "ring", "changed": False}]}
        worse = {"examples": [],
                 "catalog": [{"name": "ring", "changed": True}]}
        checker = cpr.Checker(0.25)
        cpr.check_advisor(base, worse, checker)
        assert any("catalog:ring" in f for f in checker.failures)

    def test_recovery_retry_count_is_exact_match(self):
        base = {"points": [{"drop_prob": 0.1, "makespan": 1e-4,
                            "overhead": 2.0, "retries": 3,
                            "restarts": 0}],
                "scenarios": []}
        worse = json.loads(json.dumps(base))
        worse["points"][0]["retries"] = 4
        checker = cpr.Checker(0.25)
        cpr.check_recovery(base, worse, checker)
        # counts are seed-deterministic: no tolerance band applies
        assert any("retries" in f for f in checker.failures)

    def test_recovery_scenario_regression_fails(self):
        base = {"points": [{"drop_prob": 0.0, "makespan": 1e-4,
                            "overhead": 1.0, "retries": 0,
                            "restarts": 0}],
                "scenarios": [{"name": "ring-iter/respawn",
                               "makespan": 1e-4, "recovery_wall_s": 1e-5,
                               "restarts": 1, "checkpoints": 12,
                               "failures_detected": 1, "restore_cut": 2,
                               "final_world": 5}]}
        checker = cpr.Checker(0.25)
        cpr.check_recovery(base, base, checker)
        assert not checker.failures
        worse = json.loads(json.dumps(base))
        worse["scenarios"][0]["makespan"] = 2e-4
        worse["scenarios"][0]["restore_cut"] = 0
        checker = cpr.Checker(0.25)
        cpr.check_recovery(base, worse, checker)
        assert any("makespan" in f for f in checker.failures)
        assert any("restore_cut" in f for f in checker.failures)

    def test_main_exit_codes(self, tmp_path):
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        base.write_text(json.dumps(_engine_report()))
        new.write_text(json.dumps(_engine_report()))
        assert cpr.main(["--engine-baseline", str(base),
                         "--engine-new", str(new)]) == 0
        new.write_text(json.dumps(_engine_report(makespan=1.0)))
        assert cpr.main(["--engine-baseline", str(base),
                         "--engine-new", str(new)]) == 1


def _directives_report(bystander=17, makespan="0x1.0p-3"):
    roles = {"sender": 60, "receiver": 40, "non_participant": bystander}
    return {"calls_per_instance": {"TARGET_COMM_MPI_2SIDE": roles},
            "wllsms": {"shape": [4, 32, 8],
                       "makespan_hex": {"original": "0x1.0p-2",
                                        "TARGET_COMM_SHMEM": makespan}}}


class TestDirectivesGate:
    def test_identical_reports_pass(self):
        checker = cpr.Checker(0.25)
        cpr.check_directives(_directives_report(), _directives_report(),
                             checker)
        assert not checker.failures

    def test_call_growth_fails(self):
        checker = cpr.Checker(0.25)
        cpr.check_directives(_directives_report(bystander=10),
                             _directives_report(bystander=13), checker)
        assert any("non_participant calls" in f for f in checker.failures)

    def test_bystander_ceiling_holds_whatever_the_baseline(self):
        checker = cpr.Checker(0.25)
        cpr.check_directives(_directives_report(bystander=34),
                             _directives_report(bystander=36), checker)
        assert any("ceiling" in f for f in checker.failures)

    def test_makespan_must_match_exactly(self):
        checker = cpr.Checker(0.25)
        nudged = _directives_report(makespan="0x1.0000000000001p-3")
        cpr.check_directives(_directives_report(), nudged, checker)
        assert any("makespan" in f for f in checker.failures)


class TestCommittedBaselineReproducibility:
    def test_p33_point_matches_committed_engine_baseline(self):
        """An unmodified checkout reproduces the committed modeled
        values exactly — the property the CI perf-regression job rests
        on (wall-clock columns excluded, of course)."""
        import bench_engine_scaling as bes

        with open(os.path.join(_ROOT, "BENCH_engine.json")) as fh:
            baseline = {p["nprocs"]: p
                        for p in json.load(fh)["points"]}
        report = bes.run_scaling(process_counts=(33,), repeats=1)
        point = report["points"][0]
        base = baseline[33]
        assert point["makespan"] == base["makespan"]
        assert point["heap_ops"] == base["heap_ops"]
        assert point["switches"] == base["switches"]

    def test_recovery_report_matches_committed_baseline(self):
        """Every column of BENCH_recovery.json is modeled (virtual
        time) — a fresh run reproduces the committed file exactly."""
        import bench_recovery as br

        with open(os.path.join(_ROOT, "BENCH_recovery.json")) as fh:
            baseline = json.load(fh)
        assert br.run_bench() == baseline

    def test_directive_calls_match_committed_baseline(self):
        """Calls per comm_p2p instance are deterministic: a fresh count
        reproduces BENCH_directives.json exactly."""
        import bench_directives as bd
        from repro.core import Target

        with open(os.path.join(_ROOT, "BENCH_directives.json")) as fh:
            baseline = json.load(fh)["calls_per_instance"]
        fresh = {t.value: bd.instance_calls(t) for t in Target}
        assert fresh == baseline
