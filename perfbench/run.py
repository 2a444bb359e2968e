#!/usr/bin/env python3
"""Benchmark of tsvar: four workloads, accuracy-carrying end-to-end metrics,
and a separate traced run for per-layer numbers.

Run from the root of a checkout (the program is imported from ``./src``):

    python3 perfbench/run.py --workload descent-expr --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one child process each

One workload runs in one process, with one client and no threads; only
``cli-mix`` starts subprocesses, one at a time.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``.  Exit code 0 when every
operation passed its checks, 1 when one failed, 2 when there is no
``src/tsvar`` to benchmark.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_one(name: str, seed: int, seconds: float, trace: bool, root: Path, sizes=None) -> tuple[dict, list[str]]:
    """Run one workload in this process; return the result object and report lines."""
    from harness import CALIBRATION_REF_S, Tally, fresh_import, median, no_check, peak_rss_mb, until
    from workloads import FULL, make_workload

    sizes = sizes or FULL
    spec = load_spec(root)
    out_root = root / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=out_root))
    try:
        wl = make_workload(name, sizes, seed, root, out)
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        lines = [f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)})", f"  why: {why}", f"  layers: {wl.layers}"]
        if trace:
            from traced import traced_run

            tally, values, extra = traced_run(wl, sizes, seed, seconds, root, out)
            wanted = spec["per_layer"]
        else:
            tally = Tally()
            for _ in range(sizes.setup_reps):
                wl.timed(tally, "setup", "setup", lambda: wl.build(fresh_import()), no_check, True)
            setup = wl.samples.pop("setup")
            setup_ref = median(wl.ratios.pop("setup")) * CALIBRATION_REF_S
            wl.warm_up(tally)
            rounds = until(seconds, 1, lambda: wl.run_round(tally))
            extra = [f"  {rounds} timed rounds after one warm-up round"] + wl.report()
            values = {}
            if not tally.failed:
                values = {"setup_s": setup_ref, **wl.end_to_end(), "peak_rss_mb": peak_rss_mb()}
            extra.append(
                f"  setup: median {median(setup):.6g}s over {len(setup)} set-ups, {setup_ref:.6g}s at reference speed"
            )
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    lines += extra
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            lines.append(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
        else:
            tally.fail(f"metric {m['name']} was not measured")
    lines.append(f"  failed_fraction = {tally.failed}/{tally.attempted} = {tally.failed / max(tally.attempted, 1):.6g}")
    lines += [f"  FAILED {message}" for message in tally.failures]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, lines


def run_all(args, names) -> int:
    """Each workload in its own child process, then one summary table."""
    results = {}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1):
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print("summary:")
    for name, r in results.items():
        cells = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"  {name}: failed {r['failed']}/{r['attempted']}; {cells}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    parser = argparse.ArgumentParser(description="tsvar benchmark")
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (root / "src" / "tsvar" / "__init__.py").is_file():
        print(f"error: no src/tsvar under {root}; run from the root of a tsvar checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(root / "src"))
    from workloads import NAMES

    if args.workload == "all":
        return run_all(args, NAMES)
    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of: {', '.join(NAMES)}, all")
    from harness import pin_to_current_cpu

    pin_to_current_cpu()
    result, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
