"""Paired comparison of featurize with one and with two threads.

    python3 perfbench/threads.py --seed 0

Sets the featurize-bulk workload up once, then times featurize_pairs (the
only call the thread count reaches) and write_features with ``threads=1``
and ``threads=2`` in alternating order, six times each, and checks that both
thread counts write identical records. Prints each pair's times, both
medians and how often two threads won.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, ROOT, cap_threads

WORKLOAD = "featurize-bulk"
PAIRS = 6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from bookrel import features
    import workloads

    w = workloads.WORKLOADS[WORKLOAD]
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="threads-", dir=HERE / ".work"))
    try:
        inputs = workloads.setup(w, args.seed, workdir / "setup")
        pairs = inputs.real_pairs + inputs.synth_rows
        times: dict[int, list[float]] = {1: [], 2: []}
        writes: dict[int, list[float]] = {1: [], 2: []}
        records: dict[int, bytes] = {}
        for i in range(PAIRS):
            order = (1, 2) if i % 2 == 0 else (2, 1)
            for threads in order:
                out = workdir / f"features-{threads}"
                start = time.perf_counter()
                examples, _ = features.featurize_pairs(
                    pairs, inputs.books, inputs.table, chunk_size=w.chunk_size,
                    matrix_size=w.matrix_size, max_words=workloads.MAX_WORDS, threads=threads,
                )
                times[threads].append(time.perf_counter() - start)
                start = time.perf_counter()
                features.write_features(examples, out, w.chunk_size, w.matrix_size)
                writes[threads].append(time.perf_counter() - start)
                records[threads] = b"".join(
                    p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
                )
                del examples
                shutil.rmtree(out)
            print(f"pair {i}: featurize 1 thread {times[1][-1]:.3f} s, 2 threads "
                  f"{times[2][-1]:.3f} s; write {writes[1][-1]:.3f} s, {writes[2][-1]:.3f} s",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    one, two = statistics.median(times[1]), statistics.median(times[2])
    wins = sum(b < a for a, b in zip(times[1], times[2]))
    print(f"{len(pairs)} pairs; featurize_pairs median 1 thread {one:.3f} s, 2 threads "
          f"{two:.3f} s ({100 * (two / one - 1):+.1f}%); 2 threads faster in {wins} of "
          f"{PAIRS} pairs; write median {statistics.median(writes[1]):.3f} s / "
          f"{statistics.median(writes[2]):.3f} s; identical records: {records[1] == records[2]}")
    return 0 if records[1] == records[2] else 1


if __name__ == "__main__":
    sys.exit(main())
