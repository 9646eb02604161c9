"""Spans and counters recorded around calls into bookrel's public functions.

The tracer replaces module attributes with wrappers while it is entered (a
set-up or a round) and puts the originals back afterwards. A wrapper opens a
span (name, start, end, parent) on entry and closes it on exit; optional
hooks add counts computed from the call's arguments and result. Spans stay in memory
until the run ends. A span's self time is its duration minus the time its
direct children cover; the benchmark runs single-threaded, so children never
overlap.

Memory peaks come from ``tracemalloc`` and are taken only when the tracer is
created with ``memory=True``, because tracing allocations slows pure-Python
code several-fold and would distort the self times.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from bookrel import corpus, embed, enumparse, evaluation, features, nn, synth

MB = 1e6


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- spans --------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, name, 0.0, 0.0, parent))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def peak(self, name: str, fn, *args, **kwargs):
        """Run fn and record the highest traced allocation above the level
        at entry, in MB, as the running maximum for `name`."""
        if not self.memory:
            return fn(*args, **kwargs)
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            _, top = tracemalloc.get_traced_memory()
            self.peaks[name] = max(self.peaks[name], (top - base) / MB)

    # --- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, before=None, after=None, memory=None):
        """Replace owner.attr with a spanned wrapper. `name` is the span's
        name or a function of the call's positional arguments that returns
        it. `before(args, kwargs)` and `after(args, kwargs, result)` may add
        counts; `memory` names a peak to record around the call."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            call = original
            if memory is not None:
                call = functools.partial(tracer.peak, memory, original)
            span_name = name(args) if callable(name) else name
            result = tracer.span(span_name, call, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        if self.memory:
            tracemalloc.start()
        install(self)
        return self

    def __exit__(self, *exc):
        self.restore()
        if self.memory:
            tracemalloc.stop()
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records, "counts": self.counts, "peaks_mb": self.peaks},
                      handle)


def _rows(matrix) -> int:
    return int(np.asarray(matrix).shape[0])


def _conv_shape_counts(tracer: Tracer, x, w, dout=None) -> None:
    """Multiply-accumulates and window bytes of one conv2d or conv2d_backward
    call, computed from shapes: the forward copies every k x k window of x;
    the backward copies them again for the weight gradient and copies the
    windows of the zero-padded output gradient for the input gradient."""
    b, h, width, cin = x.shape
    k, _, _, cout = w.shape
    ho, wo = h - k + 1, width - k + 1
    macs = b * ho * wo * k * k * cin * cout
    window_bytes = b * ho * wo * k * k * cin * x.itemsize
    if dout is not None:
        macs *= 2
        window_bytes += b * h * width * k * k * cout * dout.itemsize
    tracer.counts["nn.conv_macs"] += macs
    tracer.counts["nn.conv_window_bytes"] += window_bytes


def install(tracer: Tracer) -> None:
    """Wrap every public bookrel function the workloads reach. Functions a
    module imported by name are wrapped where the caller looks them up."""
    c = tracer.counts
    wrap = tracer.wrap

    # corpus / enumparse / evaluation set-up
    def corpus_after(args, kwargs, books):
        c["corpus.books"] += len(books)
        base = Path(args[0]).parent
        c["corpus.bytes"] += sum(
            os.path.getsize(base / rel) for _, rel, _ in corpus.read_manifest(args[0])
        )

    wrap(corpus, "load_corpus", "corpus.load", after=corpus_after)
    wrap(enumparse, "relations_from_raw_catalog", "enumparse.relations",
         after=lambda a, k, r: c.__setitem__("enumparse.relations",
                                             c["enumparse.relations"] + len(r[0])))
    wrap(evaluation, "generate_demo_corpus", "evaluation.demo_corpus")
    wrap(evaluation, "sample_diff_pairs", "evaluation.sample_diff")

    # synth
    def synth_after(args, kwargs, result):
        c["synth.books"] += len(result[0])
        c["synth.pairs"] += len(result[1])

    wrap(synth, "generate", "synth.generate", after=synth_after)
    wrap(synth, "save_synth_book", "synth.save")
    wrap(synth, "load_synth_dir", "synth.load")

    # embed, as features calls it
    def pooled(name):
        def after(args, kwargs, result):
            c["embed.tokens_pooled"] += corpus.book_word_count(args[0])
            if name == "chunks":
                c["embed.books_pooled"] += 1
                c["embed.chunks"] += _rows(result)
        return after

    wrap(embed, "load_embeddings", "embed.load_embeddings")
    wrap(features, "chunk_vectors", "embed.chunk_vectors", after=pooled("chunks"))
    wrap(features, "book_vector", "embed.book_vector", after=pooled("vector"))

    # simmat, as features calls it
    def saved(args, kwargs, result):
        c["simmat.matrices_written"] += 1
        c["simmat.bytes_written"] += os.path.getsize(args[1])

    wrap(features, "pairwise_similarity", "simmat.pairwise_similarity")
    wrap(features, "pad_truncate", "simmat.pad_truncate")
    wrap(features, "pair_features", "simmat.pair_features")
    wrap(features, "save_matrix", "simmat.save_matrix", after=saved)
    wrap(features, "load_matrix", "simmat.load_matrix")

    # features
    def featurized(args, kwargs, result):
        examples, skipped = result
        c["features.pairs_attempted"] += len(args[0])
        c["features.pairs_featurized"] += len(examples)
        for reason, count in skipped.items():
            c[f"features.skipped_{reason}"] += count

    def written(args, kwargs, result):
        out = Path(args[1])
        c["features.files"] += sum(1 for p in out.rglob("*") if p.is_file())

    wrap(features, "featurize_pairs", "features.featurize", after=featurized,
         memory="features.peak")
    wrap(features, "write_features", "features.write", after=written,
         memory="features.peak")
    wrap(features, "load_features", "features.load", memory="features.peak")

    # nn: conv1 has one input channel; pool1 pools conv1's output, whose
    # side is the matrix side minus k - 1
    first_pool_side: list[int] = []

    def conv_before(args, kwargs):
        x, w = args[0], args[1]
        _conv_shape_counts(tracer, x, w, args[2] if len(args) > 2 else None)
        if x.shape[-1] == 1:
            first_pool_side[:] = [x.shape[1] - w.shape[0] + 1]

    def pool(side: int, direction: str) -> str:
        first = first_pool_side and side == first_pool_side[0]
        return f"nn.pool{1 if first else 2}_{direction}"

    wrap(nn, "conv2d", lambda a: "nn.conv1_fwd" if a[0].shape[-1] == 1 else "nn.conv2_fwd",
         before=conv_before)
    wrap(nn, "conv2d_backward", "nn.conv2_bwd", before=conv_before)
    wrap(nn, "maxpool2", lambda a: pool(a[0].shape[1], "fwd"))
    wrap(nn, "maxpool2_backward", lambda a: pool(a[2][1], "bwd"))

    def loss_before(args, kwargs):
        c["nn.batches"] += 1
        c["nn.examples"] += len(args[2])

    wrap(nn, "cross_entropy", "nn.loss", before=loss_before)
    wrap(nn.AdamState, "step", "nn.adam")
    wrap(nn, "train", "nn.train")
    wrap(nn, "forward", "nn.forward",
         before=lambda a, k: c.__setitem__("nn.forward_pairs",
                                           c["nn.forward_pairs"] + _rows(a[1])),
         memory="nn.forward_peak")

    # evaluation scoring
    wrap(evaluation, "evaluate_model", "evaluation.evaluate_model",
         before=lambda a, k: c.__setitem__("evaluation.test_pairs",
                                           c["evaluation.test_pairs"] + len(a[1])))
    wrap(evaluation, "surface_overlaps", "evaluation.surface_overlaps")


# Per-layer metric name -> (span or count or peak, unit).
SELF_TIMES = {
    "corpus.load_s": "corpus.load",
    "enumparse.relations_s": "enumparse.relations",
    "synth.generate_s": "synth.generate",
    "synth.save_s": "synth.save",
    "synth.load_s": "synth.load",
    "embed.load_embeddings_s": "embed.load_embeddings",
    "embed.chunk_vectors_s": "embed.chunk_vectors",
    "embed.book_vector_s": "embed.book_vector",
    "simmat.pairwise_similarity_s": "simmat.pairwise_similarity",
    "simmat.pad_truncate_s": "simmat.pad_truncate",
    "simmat.pair_features_s": "simmat.pair_features",
    "simmat.save_matrix_s": "simmat.save_matrix",
    "simmat.load_matrix_s": "simmat.load_matrix",
    "features.featurize_self_s": "features.featurize",
    "features.write_self_s": "features.write",
    "features.load_self_s": "features.load",
    "nn.conv1_fwd_s": "nn.conv1_fwd",
    "nn.pool1_fwd_s": "nn.pool1_fwd",
    "nn.conv2_fwd_s": "nn.conv2_fwd",
    "nn.pool2_fwd_s": "nn.pool2_fwd",
    "nn.loss_s": "nn.loss",
    "nn.pool2_bwd_s": "nn.pool2_bwd",
    "nn.conv2_bwd_s": "nn.conv2_bwd",
    "nn.pool1_bwd_s": "nn.pool1_bwd",
    "nn.adam_s": "nn.adam",
    "nn.train_self_s": "nn.train",
    "nn.forward_s": "nn.forward",
    "evaluation.demo_corpus_s": "evaluation.demo_corpus",
    "evaluation.sample_diff_s": "evaluation.sample_diff",
    "evaluation.evaluate_model_s": "evaluation.evaluate_model",
    "evaluation.surface_overlaps_s": "evaluation.surface_overlaps",
}

COUNTS = {
    "corpus.books": "count", "corpus.bytes": "bytes",
    "enumparse.relations": "count",
    "synth.books": "count", "synth.pairs": "count",
    "embed.books_pooled": "count", "embed.chunks": "count", "embed.tokens_pooled": "count",
    "simmat.matrices_written": "count", "simmat.bytes_written": "bytes",
    "features.pairs_attempted": "count", "features.pairs_featurized": "count",
    "features.skipped_truncated": "count", "features.skipped_oversize": "count",
    "features.skipped_missing_book": "count", "features.files": "count",
    "nn.batches": "count", "nn.examples": "count",
    "nn.conv_macs": "count", "nn.conv_window_bytes": "bytes",
    "nn.forward_pairs": "count",
    "evaluation.test_pairs": "count",
}

PEAKS = {"features.peak_mb": "features.peak", "nn.forward_peak_mb": "nn.forward_peak"}


def per_layer(timed: Tracer, memory: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a spans-only tracer (self times and counts)
    and a tracemalloc tracer (peaks)."""
    self_times = timed.self_times()
    out: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = (self_times.get(span, 0.0), "s")
    for metric, unit in COUNTS.items():
        out[metric] = (timed.counts.get(metric, 0.0), unit)
    attempted = timed.counts.get("features.pairs_attempted", 0.0)
    featurized = timed.counts.get("features.pairs_featurized", 0.0)
    out["features.yield"] = (featurized / attempted if attempted else 0.0, "ratio")
    for metric, name in PEAKS.items():
        out[metric] = (memory.peaks.get(name, 0.0), "MB")
    return out
