"""Compare fresh bench JSON against the committed baselines (CI gate).

The perf-regression CI job reruns ``bench_engine_scaling.py --quick``,
``bench_advisor.py``, ``bench_recovery.py``, ``bench_lint.py`` and
``bench_directives.py`` on the checkout and feeds the new JSON here
next to the committed ``BENCH_engine.json`` / ``BENCH_advisor.json`` /
``BENCH_recovery.json`` / ``BENCH_lint.json`` /
``BENCH_directives.json``.
Only *deterministic* quantities are gated — virtual makespans,
scheduler heap operations, advisor savings/speedups, per-target
modeled times, the lint farm's modeled pool speedup and the Python
calls one directive instance makes — never raw host wall-clock, which
shared CI runners cannot reproduce. The two lint wall-clock *ratios*
that are gated (warm/cold fraction, a sequential-throughput floor)
compare same-host runs and carry generous absolute bounds, so runner
speed cannot trip them. On an unmodified checkout every gated value
matches the baseline exactly (the simulator is deterministic); the
tolerance exists so legitimate model recalibrations inside the band
don't block a PR.

Exit status 0 = within tolerance, 1 = regression (details on stdout).

Run:  python benchmarks/check_perf_regression.py \\
          --engine-baseline BENCH_engine.json --engine-new new_e.json \\
          --advisor-baseline BENCH_advisor.json --advisor-new new_a.json \\
          --directives-baseline BENCH_directives.json \\
          --directives-new new_d.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Allowed relative degradation before the gate trips.
DEFAULT_TOLERANCE = 0.25


class Checker:
    """Accumulates comparisons; remembers every failure."""

    def __init__(self, tolerance: float) -> None:
        self.tolerance = tolerance
        self.failures: list[str] = []
        self.checked = 0

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL  {message}")

    def no_increase(self, what: str, baseline: float, new: float) -> None:
        """``new`` may not exceed ``baseline`` by more than tolerance."""
        self.checked += 1
        if baseline <= 0:
            if new > baseline:
                self._fail(f"{what}: {new} > baseline {baseline}")
            return
        if new > baseline * (1.0 + self.tolerance):
            self._fail(f"{what}: {new} exceeds baseline {baseline} "
                       f"by more than {self.tolerance:.0%}")

    def no_decrease(self, what: str, baseline: float, new: float) -> None:
        """``new`` may not fall below ``baseline`` by more than
        tolerance."""
        self.checked += 1
        if new < baseline * (1.0 - self.tolerance):
            self._fail(f"{what}: {new} falls below baseline {baseline} "
                       f"by more than {self.tolerance:.0%}")

    def equal(self, what: str, baseline, new) -> None:
        self.checked += 1
        if new != baseline:
            self._fail(f"{what}: expected {baseline!r}, got {new!r}")


def check_engine(baseline: dict, new: dict, checker: Checker) -> None:
    """Gate the scheduler bench: modeled makespan and heap operations
    per swept P (the new run may sweep a subset: --quick)."""
    base_points = {p["nprocs"]: p for p in baseline["points"]}
    new_points = {p["nprocs"]: p for p in new["points"]}
    if not new_points:
        checker._fail("engine: new report has no points")
    for nprocs, point in sorted(new_points.items()):
        base = base_points.get(nprocs)
        if base is None:
            checker._fail(f"engine P={nprocs}: not in the baseline sweep")
            continue
        checker.no_increase(f"engine P={nprocs} makespan",
                            base["makespan"], point["makespan"])
        checker.no_increase(f"engine P={nprocs} heap_ops",
                            base["heap_ops"], point["heap_ops"])
        checker.no_increase(f"engine P={nprocs} switches",
                            base["switches"], point["switches"])


def check_advisor(baseline: dict, new: dict, checker: Checker) -> None:
    """Gate the advisor bench: per-example savings, speedups and
    per-target modeled times; the catalog stays a negative control."""
    base_examples = {e["path"]: e for e in baseline["examples"]}
    new_examples = {e["path"]: e for e in new["examples"]}
    for path, base in sorted(base_examples.items()):
        entry = new_examples.get(path)
        if entry is None:
            checker._fail(f"advisor {path}: example disappeared")
            continue
        checker.equal(f"advisor {path} accepted",
                      base["accepted"], entry["accepted"])
        checker.no_decrease(f"advisor {path} predicted_saving_s",
                            base["predicted_saving_s"],
                            entry["predicted_saving_s"])
        checker.no_decrease(f"advisor {path} modeled_speedup",
                            base["modeled_speedup"],
                            entry["modeled_speedup"])
        base_last = [s for s in base["steps"] if s.get("accepted")]
        new_last = [s for s in entry["steps"] if s.get("accepted")]
        if base_last and new_last:
            for target, seconds in sorted(
                    base_last[-1]["times_after_s"].items()):
                got = new_last[-1]["times_after_s"].get(target)
                if got is None:
                    checker._fail(f"advisor {path} times_after_s "
                                  f"lost target {target}")
                    continue
                checker.no_increase(
                    f"advisor {path} times_after_s[{target}]",
                    seconds, got)
    for base in baseline.get("catalog", []):
        name = base["name"]
        entry = next((c for c in new.get("catalog", [])
                      if c["name"] == name), None)
        if entry is None:
            checker._fail(f"advisor catalog:{name}: disappeared")
            continue
        checker.equal(f"advisor catalog:{name} changed",
                      base["changed"], entry["changed"])


def check_recovery(baseline: dict, new: dict, checker: Checker) -> None:
    """Gate the recovery bench: retry overhead per drop rate and the
    modeled cost of each crash-recovery scenario. Retry/restart counts
    are seed-deterministic and must match exactly; modeled times get
    the usual tolerance band."""
    base_points = {p["drop_prob"]: p for p in baseline["points"]}
    new_points = {p["drop_prob"]: p for p in new["points"]}
    if not new_points:
        checker._fail("recovery: new report has no sweep points")
    for drop, point in sorted(new_points.items()):
        base = base_points.get(drop)
        if base is None:
            checker._fail(f"recovery drop={drop}: not in the baseline "
                          "sweep")
            continue
        checker.no_increase(f"recovery drop={drop} makespan",
                            base["makespan"], point["makespan"])
        checker.no_increase(f"recovery drop={drop} overhead",
                            base["overhead"], point["overhead"])
        checker.equal(f"recovery drop={drop} retries",
                      base["retries"], point["retries"])
        checker.equal(f"recovery drop={drop} restarts",
                      base["restarts"], point["restarts"])
    base_scenarios = {s["name"]: s for s in baseline["scenarios"]}
    new_scenarios = {s["name"]: s for s in new["scenarios"]}
    for name, base in sorted(base_scenarios.items()):
        entry = new_scenarios.get(name)
        if entry is None:
            checker._fail(f"recovery scenario {name}: disappeared")
            continue
        checker.no_increase(f"recovery {name} makespan",
                            base["makespan"], entry["makespan"])
        checker.no_increase(f"recovery {name} recovery_wall_s",
                            base["recovery_wall_s"],
                            entry["recovery_wall_s"])
        for field in ("restarts", "checkpoints", "failures_detected",
                      "restore_cut", "final_world"):
            checker.equal(f"recovery {name} {field}",
                          base[field], entry[field])


#: Sequential lint throughput floor (files/s) used to cap the
#: baseline: the gate compares against ``min(baseline, floor)`` so a
#: slower CI runner never trips it, while a real order-of-magnitude
#: lint slowdown still does.
LINT_FILES_PER_S_FLOOR = 12.0

#: Warm-rerun ceiling as a fraction of the cold sharded run. The
#: acceptance bar is < 0.10; the gate compares against
#: ``max(baseline, 0.08)`` so with the default 25% tolerance the
#: effective bound is exactly 0.10 even when the baseline is tiny.
LINT_WARM_FRACTION_BASE = 0.08

#: Absolute floor for the modeled --jobs 8 pool speedup.
LINT_SPEEDUP_FLOOR = 4.0


def check_lint(baseline: dict, new: dict, checker: Checker) -> None:
    """Gate the lint-farm bench: byte-identity of the three paths and
    warm-cache completeness must hold exactly; the modeled pool
    speedup must stay ≥4x and within tolerance of the baseline; the
    wall-clock ratios get runner-proof absolute bounds (see the
    module constants)."""
    checker.equal("lint files", baseline["files"], new["files"])
    checker.equal("lint jobs", baseline["jobs"], new["jobs"])
    checker.equal("lint units_total", baseline["units_total"],
                  new["units_total"])
    for fmt in ("json", "sarif"):
        checker.equal(f"lint identical[{fmt}]", True,
                      new["identical"][fmt])
    checker.equal("lint warm hit_rate", 1.0, new["warm"]["hit_rate"])
    checker.equal("lint warm units_executed", 0,
                  new["warm"]["units_executed"])
    speedup = new["modeled"]["speedup_modeled"]
    checker.no_decrease("lint modeled speedup",
                        baseline["modeled"]["speedup_modeled"], speedup)
    checker.checked += 1
    if speedup < LINT_SPEEDUP_FLOOR:
        checker._fail(f"lint modeled speedup: {speedup} below the "
                      f"{LINT_SPEEDUP_FLOOR}x floor")
    checker.no_decrease(
        "lint sequential files_per_s",
        min(baseline["sequential"]["files_per_s"],
            LINT_FILES_PER_S_FLOOR),
        new["sequential"]["files_per_s"])
    checker.no_increase(
        "lint warm fraction_of_cold",
        max(baseline["warm"]["fraction_of_cold"],
            LINT_WARM_FRACTION_BASE),
        new["warm"]["fraction_of_cold"])


#: Ceiling on the Python calls into ``repro`` one ``comm_p2p`` instance
#: makes on a rank that neither sends nor receives (the bulk of
#: Listing 7's instances), whatever the baseline.
DIRECTIVE_BYSTANDER_CALLS_CEILING = 35


def check_directives(baseline: dict, new: dict, checker: Checker) -> None:
    """Gate the directive-runtime bench: Python calls per ``comm_p2p``
    instance may not grow (and a non-participant's stay under the
    absolute ceiling); the WL-LSMS makespans must match exactly. The
    host-wall overhead ratios are informational."""
    for target, base_roles in sorted(baseline["calls_per_instance"].items()):
        roles = new["calls_per_instance"].get(target)
        if roles is None:
            checker._fail(f"directives {target}: calls not measured")
            continue
        for role, calls in sorted(base_roles.items()):
            checker.no_increase(f"directives {target} {role} calls",
                                calls, roles[role])
        checker.checked += 1
        if roles["non_participant"] > DIRECTIVE_BYSTANDER_CALLS_CEILING:
            checker._fail(
                f"directives {target} non_participant calls: "
                f"{roles['non_participant']} above the "
                f"{DIRECTIVE_BYSTANDER_CALLS_CEILING} ceiling")
    checker.equal("directives wllsms shape", baseline["wllsms"]["shape"],
                  new["wllsms"]["shape"])
    for key, makespan in sorted(baseline["wllsms"]["makespan_hex"].items()):
        checker.equal(f"directives wllsms {key} makespan", makespan,
                      new["wllsms"]["makespan_hex"].get(key))


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    assert isinstance(data, dict), f"{path}: expected a JSON object"
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine-baseline")
    parser.add_argument("--engine-new")
    parser.add_argument("--advisor-baseline")
    parser.add_argument("--advisor-new")
    parser.add_argument("--recovery-baseline")
    parser.add_argument("--recovery-new")
    parser.add_argument("--lint-baseline")
    parser.add_argument("--lint-new")
    parser.add_argument("--directives-baseline")
    parser.add_argument("--directives-new")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed relative degradation "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    checker = Checker(args.tolerance)
    ran = False
    if args.engine_baseline and args.engine_new:
        check_engine(_load(args.engine_baseline),
                     _load(args.engine_new), checker)
        ran = True
    if args.advisor_baseline and args.advisor_new:
        check_advisor(_load(args.advisor_baseline),
                      _load(args.advisor_new), checker)
        ran = True
    if args.recovery_baseline and args.recovery_new:
        check_recovery(_load(args.recovery_baseline),
                       _load(args.recovery_new), checker)
        ran = True
    if args.lint_baseline and args.lint_new:
        check_lint(_load(args.lint_baseline),
                   _load(args.lint_new), checker)
        ran = True
    if args.directives_baseline and args.directives_new:
        check_directives(_load(args.directives_baseline),
                         _load(args.directives_new), checker)
        ran = True
    if not ran:
        parser.error("nothing to compare: pass --engine-*, --advisor-*, "
                     "--recovery-*, --lint-* and/or --directives-* "
                     "baseline/new pairs")

    if checker.failures:
        print(f"\n{len(checker.failures)} regression(s) in "
              f"{checker.checked} checks")
        return 1
    print(f"OK: {checker.checked} checks within "
          f"{checker.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
