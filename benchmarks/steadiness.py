#!/usr/bin/env python3
"""Run every workload in two separate sets of seeded runs and compare the sets.

    python3 benchmarks/steadiness.py --runs 10

Set A uses seeds 1..N and set B seeds 1001..1000+N; each run is a
``benchmarks/run.py`` child, exactly as BENCHMARK.json's command runs it, for
BENCHMARK.json's ``run_seconds``.  All of set A runs before set B.  For every
end-to-end metric and workload the report gives each set's median and
quartiles; the sets agree when each set's spread (q3 - q1) / median and the
move of B's median from A's, in either direction, stay within the metric's
bound.  The failed share must be identical in every run.  Two traced runs per
workload with the same seed must install every hook and repeat every count
exactly.  Every metric is printed by name and unit, with each workload's
attempted and failed invocations.  The report is also written as JSON to
``benchmarks/results/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from tracing import DEAD_HOOKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = (1, 1001)
TRACE_SEED = 1
OUT = HERE / "results" / "steadiness.json"


def bench(workload, seed, seconds, trace):
    """One run.py child: (result, True when every trace hook was installed)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result, DEAD_HOOKS not in proc.stdout


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(spec, name, sets):
    """Per-metric summary of the two sets and whether it meets the bound."""
    metric = next(m for m in spec["end_to_end"] if m["name"] == name)
    bound = metric["bound"]
    a, b = (spread([r["metrics"][name]["value"] for r in runs]) for runs in sets)
    moved = (b["median"] - a["median"]) / a["median"]
    widest = max(a["spread"], b["spread"])
    return {"unit": metric["unit"], "bound": bound, "A": a, "B": b, "moved": moved,
            "ok": widest <= bound and abs(moved) <= bound, "steady": widest < bound / 3}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: ([], []) for w in names}
    for index, first_seed in enumerate(SET_SEEDS):
        for w in names:
            for seed in range(first_seed, first_seed + args.runs):
                result, _ = bench(w, seed, seconds, 0)
                runs[w][index].append(result)
                print(f"set {'AB'[index]} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    report, all_ok = {}, True
    for w in names:
        both = runs[w][0] + runs[w][1]
        shares = {Fraction(r["failed"], r["attempted"]) for r in both}
        entry = {
            "correct": all(r["correct"] for r in both),
            "attempted": [r["attempted"] for r in both],
            "failed": [r["failed"] for r in both],
            "failed_share_identical": len(shares) == 1,
            "end_to_end": {m["name"]: compare(spec, m["name"], runs[w])
                           for m in spec["end_to_end"]},
        }
        traced, hooks_live = zip(*(bench(w, TRACE_SEED, seconds, 1) for _ in range(2)))
        counts = [n for n, v in traced[0]["metrics"].items() if v["unit"] in ("count", "bytes")]
        entry["per_layer"] = {n: v for n, v in traced[0]["metrics"].items()}
        entry["counts_repeat"] = all(traced[0]["metrics"][n]["value"] == traced[1]["metrics"][n]
                                     ["value"] for n in counts)
        entry["traced_correct"] = all(t["correct"] for t in traced)
        entry["hooks_live"] = all(hooks_live)
        ok = (entry["correct"] and entry["traced_correct"] and entry["failed_share_identical"]
              and entry["counts_repeat"] and entry["hooks_live"]
              and all(c["ok"] for c in entry["end_to_end"].values()))
        entry["ok"] = ok
        all_ok &= ok
        report[w] = entry
        print(f"\n== {w}: correct={entry['correct']} attempted={sum(entry['attempted'])} "
              f"failed={sum(entry['failed'])} failed share identical="
              f"{entry['failed_share_identical']} counts repeat={entry['counts_repeat']} "
              f"hooks live={entry['hooks_live']}")
        for name, c in entry["end_to_end"].items():
            print(f"  {name:14s} [{c['unit']}] A {c['A']['median']:.4g} "
                  f"({c['A']['q1']:.4g}..{c['A']['q3']:.4g}, spread {c['A']['spread']:.3f})  "
                  f"B {c['B']['median']:.4g} (spread {c['B']['spread']:.3f})  "
                  f"moved {c['moved']:+.3f}  bound {c['bound']}  "
                  f"{'ok' if c['ok'] else 'FAIL'}{'' if c['steady'] else ' (spread > bound/3)'}")
        for name, v in entry["per_layer"].items():
            print(f"  {name:32s} {v['value']:.6g} {v['unit']}")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({"runs": args.runs, "seconds": seconds, "workloads": report},
                              indent=1) + "\n")
    print(f"\n{'all sets agree within the bounds' if all_ok else 'NOT STEADY'}; wrote {OUT}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
