"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py run --workloads demo,paper-side --seeds 0-9 \
        --out perfbench/.results/a.json
    python3 perfbench/steady.py compare perfbench/.results/a.json perfbench/.results/b.json

``run`` starts the benchmark command from BENCHMARK.json once per workload
and seed, one run at a time, and prints each end-to-end metric's median,
quartiles and spread (interquartile range over the median) next to the
metric's bound. A spread above a third of the bound fails. ``compare`` takes two
such files and fails when a median got worse by more than the bound, or when
the share of failed operations differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def seeds_arg(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summary(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def failed_share(runs: dict) -> set[Fraction]:
    return {Fraction(r["failed"], r["attempted"]) for r in runs.values()}


def cmd_run(args) -> int:
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    results: dict[str, dict[str, dict]] = {}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    for workload in names:
        results[workload] = {}
        for seed in seeds_arg(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  check=True)
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            results[workload][str(seed)] = result
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return report(bench, results)


def report(bench: dict, results: dict) -> int:
    ok = True
    print(f"{'workload':<16}{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>8}{'bound':>7}  verdict")
    for workload, runs in results.items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs.values()]
            median, q1, q3, spread = summary(values)
            if spread <= metric["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "TOO WIDE" if spread > metric["bound"] else "wider than bound/3"
                ok = False
            print(f"{workload:<16}{metric['name']:<28}{median:>12.5g}{q1:>12.5g}"
                  f"{q3:>12.5g}{spread:>8.3f}{metric['bound']:>7.2f}  {verdict}")
        shares = failed_share(runs)
        correct = all(r["correct"] for r in runs.values())
        print(f"{workload:<16}failed share {sorted(map(str, shares))}, all correct {correct}")
        ok = ok and correct and len(shares) == 1
    return 0 if ok else 1


def cmd_compare(args) -> int:
    bench = spec()
    with open(args.first, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(args.second, encoding="utf-8") as handle:
        second = json.load(handle)
    ok = True
    print(f"{'workload':<16}{'metric':<28}{'first':>12}{'second':>12}{'worse by':>10}"
          f"{'bound':>7}")
    for workload in first:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload].values())
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload].values())
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "" if worse <= metric["bound"] else "  WORSE"
            ok = ok and not flag
            print(f"{workload:<16}{name:<28}{a:>12.5g}{b:>12.5g}{worse:>10.3f}"
                  f"{metric['bound']:>7.2f}{flag}")
        same = failed_share(first[workload]) == failed_share(second[workload])
        print(f"{workload:<16}failed share equal: {same}")
        ok = ok and same
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads over several seeds")
    p.add_argument("--workloads", default=None,
                   help="comma-separated; BENCHMARK.json's workloads by default")
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--seconds", type=int, default=None,
                   help="run length; BENCHMARK.json's run_seconds by default")
    p.add_argument("--out", default=None, help="where to keep the results JSON")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two result files against the bounds")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
