"""bookrel benchmark: one workload per run, or all of them one after another.

    python3 perfbench/run.py --workload demo --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout; without it the run stops with exit code 2 and prints no
result. A run sets up the workload's inputs several times (``setup_s`` is
their median), then repeats whole rounds of the measured stages until
``--seconds`` of round time have passed. Each stage's figure is its fastest
sample in the run: on a shared host, other tenants only ever add time, and
they do so in phases of seconds to minutes (README, "How a run measures").
The first round's outputs are checked against computations made apart from
bookrel (see checks.py); later rounds must reproduce them bit for bit.

With ``--trace 1`` the run sets up once, with spans, and runs eight rounds
instead: an untraced warm-up, three rounds with spans around every public
bookrel call alternating with three untraced ones, and one with tracemalloc
on (memory peaks). Self times and counts come from the set-up and the first
round with spans. It prints the per-layer metrics and the span tracing's
overhead: the stages' fastest samples with spans against those without,
next to how far the untraced rounds differ among themselves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# the workloads BENCHMARK.json lists; featurize-bulk is a reference workload
# kept out of it because its figures were not steady on a shared host
WORKLOAD_NAMES = ("demo", "paper-side")
MB = 1e6
# pairs of rounds with and without spans in a traced run
TRACE_ROUND_PAIRS = 3


def cap_threads() -> None:
    """Run BLAS on one thread; must run before numpy is imported. On the
    2-core reference machine a second BLAS thread gave no more training
    throughput at side 32 or 150 and made the run-to-run spread of the nn
    figures three to five times wider (README, "How a run measures")."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def disk_mb(directory: Path) -> float:
    """Allocated size of every file under directory, in MB."""
    return sum(p.stat().st_blocks * 512 for p in directory.rglob("*") if p.is_file()) / MB


def add_stages(total: dict, stages: dict) -> None:
    """Add one round's stage samples and operation counts to total."""
    for stage_name, stage in stages.items():
        into = total.setdefault(stage_name, type(stage)())
        into.samples += stage.samples
        into.attempted += stage.attempted
        into.failed += stage.failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import tracing
    import workloads

    w = workloads.WORKLOADS[name]
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root))
    os.sync()
    rec = checks.Recorder()
    stages: dict = {}
    fits: list[float] = []
    digest = None
    disk = 0.0
    losses: list[float] = []

    def one_round(inputs, tracer=None):
        nonlocal digest, disk
        round_dir = workdir / f"round{len(fits)}"
        started = time.perf_counter()
        if tracer is None:
            r = workloads.run_round(w, seed, inputs, round_dir)
        else:
            with tracer:
                r = workloads.run_round(w, seed, inputs, round_dir)
        elapsed = time.perf_counter() - started
        add_stages(stages, r.stages)
        fits.append(r.fit_seconds)
        if digest is None:
            losses[:] = [h["loss"] for h in r.history]
            disk = disk_mb(r.features_dir)
            checks.check_round(rec, w, seed, inputs, r, workdir)
            digest = checks.round_digest(r)
        else:
            rec.check("rounds", "deterministic", checks.round_digest(r) == digest,
                      "a later round's outputs differ from the first round's")
        r.loaded = r.train_set = r.test_set = []
        os.sync()  # write back this round's files before the next round starts
        return r, elapsed

    try:
        if trace:
            timed = tracing.Tracer()
            with timed:
                inputs = workloads.setup(w, seed, workdir / "setup")
            # The first round warms caches. Then rounds with spans and without
            # alternate; the overhead compares their stages' fastest samples.
            # Self times and counts come from the set-up and the first round
            # with spans.
            one_round(inputs)
            with_spans: dict = {}
            plain: dict = {}
            plain_rounds = []
            for i in range(TRACE_ROUND_PAIRS):
                r, _ = one_round(inputs, timed if i == 0 else tracing.Tracer())
                add_stages(with_spans, r.stages)
                r, _ = one_round(inputs)
                add_stages(plain, r.stages)
                plain_rounds.append(workloads.pipeline_seconds(r.stages))
            memory = tracing.Tracer(memory=True)
            one_round(inputs, memory)
            layer = tracing.per_layer(timed, memory)
            overhead = 100.0 * (workloads.pipeline_seconds(with_spans)
                                / workloads.pipeline_seconds(plain) - 1.0)
            # how far apart the untraced rounds themselves are
            resolution = 100.0 * (max(plain_rounds) / min(plain_rounds) - 1.0)
            layer["trace.overhead_pct"] = (overhead, "%")
            layer["features.featurize_pairs_per_s"] = (
                r.featurized / min(plain["featurize"].samples), "pairs/s")
            timed.write(HERE / ".traces" / f"{name}-seed{seed}.json")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            verdict = "unresolved" if abs(overhead) <= resolution else "resolved"
            summary = (f"traced run: span overhead {overhead:+.1f}% over "
                       f"{TRACE_ROUND_PAIRS} rounds with and without spans; the "
                       f"untraced rounds alone differ by up to {resolution:.1f}%, "
                       f"so the overhead is {verdict}")
        else:
            setup_times = []
            for i in range(workloads.SETUP_REPEATS):
                setup_dir = workdir / f"setup{i}"
                started = time.perf_counter()
                inputs = workloads.setup(w, seed, setup_dir)
                setup_times.append(time.perf_counter() - started)
                os.sync()
            measured, rounds = 0.0, 0
            while not rounds or measured < seconds:
                r, elapsed = one_round(inputs)
                measured += elapsed
                rounds += 1
            best = {stage_name: min(stage.samples) for stage_name, stage in stages.items()}
            figures = {
                "setup_s": (statistics.median(setup_times), "s"),
                "pipeline_s": (workloads.pipeline_seconds(stages), "s"),
                "features_load_pairs_per_s": (r.featurized / best["load"], "pairs/s"),
                "features_disk_mb": (disk, "MB"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            if w.epochs:
                figures["train_examples_per_s"] = (r.train_examples / min(fits), "examples/s")
                figures["infer_pairs_per_s"] = (r.infer_pairs / best["score"], "pairs/s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
            summary = (f"{workloads.SETUP_REPEATS} set-ups "
                       f"({', '.join(f'{t:.2f}' for t in setup_times)} s), "
                       f"{rounds} rounds in {measured:.1f} s of round time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()  # let the deletes finish here, not in whatever runs next

    print(f"workload {name} seed {seed}: {summary}")
    print(f"{'stage':<12}{'best s':>9}{'median s':>10}{'samples':>9}{'attempted':>11}"
          f"{'failed':>8}{'checks':>8}{'failed':>8}")
    for stage_name in sorted(set(stages) | set(rec.ran)):
        stage = stages.get(stage_name, workloads.Stage([0.0]))
        label = f"{stage_name}*" if stage_name in workloads.UNSTEADY_STAGES else stage_name
        print(f"{label:<12}{min(stage.samples):>9.3f}{statistics.median(stage.samples):>10.3f}"
              f"{len(stage.samples) if stage_name in stages else 0:>9}{stage.attempted:>11}"
              f"{stage.failed:>8}{rec.ran.get(stage_name, 0):>8}"
              f"{rec.failed.get(stage_name, 0):>8}")
    print("* not part of pipeline_s (README)")
    if losses:
        print("training loss by epoch: " + ", ".join(f"{x:.4f}" for x in losses))
    for failure in rec.failures:
        print(f"CHECK FAILED {failure}")
    for key, metric in metrics.items():
        print(f"  {key:<34}{metric['value']:>16.6g} {metric['unit']}")
    return {
        "correct": rec.total_failed == 0,
        "attempted": sum(stage.attempted for stage in stages.values()),
        "failed": sum(stage.failed for stage in stages.values()),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own child process, one after another, so that
    each reports its own peak memory."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        child = json.loads(lines[-1])
        result["correct"] = result["correct"] and child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for key, metric in child["metrics"].items():
            result["metrics"][f"{name}/{key}"] = metric
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOAD_NAMES, "featurize-bulk", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads()
    if not (ROOT / "src" / "bookrel").is_dir():
        print(f"perfbench: no bookrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
