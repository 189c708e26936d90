"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lint_cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of busy
time, every time scaled to a reference host speed (``hostspeed.py``);
``--trace 1`` runs a fixed number of requests twice, untraced and
traced, and reports the per-layer metrics plus the tracing overhead,
writing the spans as a Chrome trace under ``.perfbench/``. Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status is 0 when the run completed (even with failed requests,
which the result reports), 2 when the program under test is missing.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lint_cold", "lint_incremental", "diffgen", "wllsms")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` ("unknown" outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: Path, load_start: tuple[float, ...]) -> dict:
    """The host a result was measured on."""
    import numpy

    from repro.lintserve.cache import analysis_salt

    return {
        "cpu_count": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "source_sha256": analysis_salt()[:16],
    }


def main(argv: list[str] | None = None, *, config: object = None,
         expected: dict | None = None) -> int:
    """The CLI. ``config`` and ``expected`` default to the full scale and
    the recorded answers; the benchmark's own tests shrink and plant
    them."""
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing: no "
              f"src/repro under {ROOT}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import SpeedSampler

    # A measured run samples the host's speed from before its imports
    # on, because setup_s includes them.
    sampler = None if args.trace else SpeedSampler()
    out_dir = ROOT / ".perfbench"
    cpus = os.sched_getaffinity(0)
    try:
        if sampler is not None:
            sampler.start()
        from perfbench import metrics, workloads

        import_span = (_START, time.perf_counter())
        if workloads.WORKLOADS[args.workload].jobs == 1:
            # One process whose engine threads run one at a time: keep
            # them on one CPU, so every thread hand-off is a local switch
            # rather than a cross-CPU wake-up whose cost varies with the
            # host's scheduling of its virtual CPUs. The sampler times
            # that CPU.
            os.sched_setaffinity(0, {min(cpus)})
            if sampler is not None:
                sampler.pin({min(cpus)})
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            work_dir=out_dir / f"work-{os.getpid()}",
            config=config or workloads.FULL, expected=expected,
            import_span=import_span, sampler=sampler)
        host = host_record(ROOT, load_start)
    finally:
        if sampler is not None:
            sampler.stop()
        os.sched_setaffinity(0, cpus)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    named, unit = metrics.THROUGHPUT[args.workload]
    failed_ratio = result.failed / result.attempted
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {result.notes[0]}")
    for note in result.notes[1:]:
        print(note)
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for error in result.errors[:20]:
        print(f"FAILED {error}")
    print(f"failed_ratio {failed_ratio:.6g} fraction "
          f"({result.failed}/{result.attempted})")
    for name, (value, metric_unit) in result.metrics.items():
        line = f"{name} {value:.6g} {metric_unit}"
        if name == "items_per_s":
            line += f"  (= {named} {value:.6g} {unit})"
        elif args.trace:
            line += f"  [{metrics.tag(name)}]"
        print(line)
    if result.trace is not None:
        trace_path = out_dir / f"{stem}.chrome.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(result.trace, fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
        print(f"trace: {trace_path.relative_to(ROOT)}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host,
              "failed_ratio": failed_ratio, "errors": result.errors,
              "metrics": {k: v for k, (v, _) in result.metrics.items()}}
    with open(out_dir / f"{stem}.result.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": metric_unit}
                    for name, (value, metric_unit)
                    in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
