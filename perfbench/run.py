"""Benchmark entry point.

    python3 perfbench/run.py --workload audited-mixed --seed 1 --seconds 30 --trace 0

Runs one workload (or `all` of them) on the trackform sources in `src/` next
to this directory, prints a table of every metric by name and unit, writes
the full result record to `perfbench/out/`, and prints as its last line one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
"""
from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_trackform(repeats: int = 5) -> float:
    """Import trackform from this checkout's sources; return the median of
    `repeats` import times in seconds (the first one may compile)."""
    if not (SRC / "trackform" / "__init__.py").is_file():
        sys.exit(f"perfbench: no trackform sources under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules
                     if m == "trackform" or m.startswith("trackform.")]:
            del sys.modules[name]
        t = time.perf_counter()
        trackform = importlib.import_module("trackform")
        times.append(time.perf_counter() - t)
    if Path(trackform.__file__).resolve().parent != SRC / "trackform":
        sys.exit(f"perfbench: imported trackform from {trackform.__file__},"
                 f" not from {SRC}")
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="audited-mixed, oracle-small or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="minimal corpora (for the smoke test)")
    args = ap.parse_args(argv)

    import_s = load_trackform()
    import harness
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    results = []
    for name in names:
        res = harness.run(name, args.seed, args.seconds, bool(args.trace),
                          import_s, small=args.small)
        results.append(res)
        print_table(res, harness)
        out = HERE / "out" / (f"{name}-s{args.seed}-t{args.trace}"
                              f"{'-small' if args.small else ''}.json")
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")

    units = harness.units(bool(args.trace))

    def tagged(res):
        return {k: {"value": v, "unit": units[k]}
                for k, v in res["metrics"].items()}

    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": tagged(results[0]) if len(results) == 1
        else {r["workload"]: tagged(r) for r in results},
    }
    print(json.dumps(line, sort_keys=True))
    return 0


def print_table(res: dict, harness) -> None:
    env = res["environment"]
    print(f"== {res['workload']}  seed={env['seed']} trace={res['trace']} "
          f"python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit'][:12]}")
    units = harness.units(bool(res["trace"]))
    rows = [(k, v, units[k]) for k, v in res["metrics"].items()]
    if not res["trace"]:
        for k, (unit, wl) in harness.WORKLOAD_RATES.items():
            if wl == res["workload"]:
                rows.append((k, res["workload_rates"][k], unit))
        rows.append(("fail_frac", res["failed"] / res["attempted"],
                     "failed/attempted"))
    for k, v, unit in rows:
        print(f"  {k:40s} {v:16.6g} {unit}")
    print(f"  rounds={res['rounds']} attempted={res['attempted']} "
          f"failed={res['failed']} inconclusive={res['inconclusive']}")
    print(f"  digest seed round 0: {res['digest_seed_round0']}")
    print(f"  digest reference:    {res['digest_reference']} "
          f"(recorded {res['digest_reference_recorded']})")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


if __name__ == "__main__":
    sys.exit(main())
