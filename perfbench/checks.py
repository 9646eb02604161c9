"""Correctness checks made apart from bookrel.

Each check recomputes a result without bookrel's loaders or kernels, or
tests a property the method must have. Nothing here compares against a
stored copy of an earlier output. Book JSON and the embeddings text file are
parsed with the standard library; chunking, pooling, cosine and padding
follow the rules documented in the README and module docstrings.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from bookrel import nn
from workloads import MAX_WORDS, TOP_K

INVERSE = {"SW": "SW", "DV": "DV", "PARTOF": "CONTAINS", "CONTAINS": "PARTOF",
           "DIFF": "DIFF", "OVERLAPS": "OVERLAPS"}
TEST_PERCENT = 20


class Recorder:
    """Counts checks run and failed, per stage."""

    def __init__(self):
        self.ran: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.failures: list[str] = []

    def check(self, stage: str, name: str, ok: bool, detail: str = "") -> None:
        self.ran[stage] += 1
        if not ok:
            self.failed[stage] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{stage}.{name}: {detail}")

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


# --- independent parsing ------------------------------------------------------

def parse_book(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    pages = []
    for entry in doc["pages"]:
        merged: dict[str, int] = {}
        for token, count in entry["tokens"].items():
            merged[token.lower()] = merged.get(token.lower(), 0) + count
        pages.append(merged)
    return {"id": str(doc["id"]), "metadata": doc.get("metadata") or {},
            "pages": pages, "synthetic": doc.get("synthetic")}


def parse_embeddings(path: Path) -> tuple[dict[str, int], np.ndarray]:
    index: dict[str, int] = {}
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if not fields:
                continue
            word = fields[0].lower()
            if word in index:
                rows[index[word]] = [float(x) for x in fields[1:]]
            else:
                index[word] = len(rows)
                rows.append([float(x) for x in fields[1:]])
    return index, np.asarray(rows, dtype=np.float64)


def parse_dir(directory: Path) -> dict[str, dict]:
    books = {}
    for path in sorted(directory.glob("*.json")):
        book = parse_book(path)
        books[book["id"]] = book
    return books


# --- featurize reference ---------------------------------------------------------

def reference_book(pages: list[dict], index: dict[str, int], vectors: np.ndarray,
                   chunk_size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(chunk vectors, book vector, word count). Pages are pooled one by one
    with count weights; a chunk takes whole pages until it holds at least
    chunk_size words; a trailing chunk without words is dropped."""
    dim = vectors.shape[1]
    page_vectors = np.zeros((len(pages), dim))
    page_words = np.zeros(len(pages), dtype=np.int64)
    for i, page in enumerate(pages):
        page_words[i] = sum(page.values())
        known = [(index[t], c) for t, c in page.items() if t in index]
        if known:
            ids, counts = zip(*known)
            page_vectors[i] = np.asarray(counts, dtype=np.float64) @ vectors[list(ids)]
    chunks, start, words = [], 0, 0
    for i in range(len(pages)):
        words += int(page_words[i])
        if words >= chunk_size:
            chunks.append(page_vectors[start : i + 1].sum(axis=0))
            start, words = i + 1, 0
    if words >= 1:
        chunks.append(page_vectors[start:].sum(axis=0))
    chunk_array = np.asarray(chunks).reshape(len(chunks), dim)
    return chunk_array, page_vectors.sum(axis=0), int(page_words.sum())


def unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


def check_featurize(rec: Recorder, w, r, parsed: dict[str, dict],
                    embeddings_path: Path) -> None:
    """Re-derive every featurized pair from the book JSON and the embeddings
    text; recompute each skip reason; compare mirrors."""
    index, vectors = parse_embeddings(embeddings_path)
    ref = {}
    for book_id, book in parsed.items():
        ref[book_id] = reference_book(book["pages"], index, vectors, w.chunk_size)

    expected, skipped = [], {"missing_book": 0, "oversize": 0, "truncated": 0}
    for pair in r.pairs:
        left, right = ref.get(pair.left_id), ref.get(pair.right_id)
        if left is None or right is None:
            skipped["missing_book"] += 1
        elif max(left[2], right[2]) > MAX_WORDS:
            skipped["oversize"] += 1
        elif max(len(left[0]), len(right[0])) > w.matrix_size:
            skipped["truncated"] += 1
        else:
            expected.append(pair)
    stage = "featurize"
    rec.check(stage, "accounting",
              len(r.loaded) + sum(r.skipped.values()) == len(r.pairs),
              f"{len(r.loaded)} + {r.skipped} != {len(r.pairs)}")
    for reason, count in skipped.items():
        rec.check(stage, f"skip_{reason}", r.skipped.get(reason) == count,
                  f"program {r.skipped.get(reason)} vs reference {count}")
    got = [(ex.left_id, ex.right_id, ex.label.value, ex.provenance) for ex in r.loaded]
    want = [(p.left_id, p.right_id, p.label.value, p.provenance) for p in expected]
    rec.check(stage, "featurized_pairs", got == want, "pair list differs from reference")

    side = w.matrix_size
    bad_matrix = bad_vector = 0
    by_pair = {}
    for ex in r.loaded:
        left_chunks, left_vec, _ = ref[ex.left_id]
        right_chunks, right_vec, _ = ref[ex.right_id]
        matrix = np.zeros((side, side))
        block = unit_rows(left_chunks) @ unit_rows(right_chunks).T
        matrix[: block.shape[0], : block.shape[1]] = block
        values = ex.matrix.values
        if (ex.matrix.left_chunks != len(left_chunks)
                or ex.matrix.right_chunks != len(right_chunks)
                or values.shape != (side, side)
                or not np.allclose(values, matrix, rtol=0, atol=1e-6)):
            bad_matrix += 1
        pair_ref = np.concatenate([(left_vec + right_vec) / 2, left_vec - right_vec])
        scale = max(np.abs(left_vec).max(), np.abs(right_vec).max(), 1.0)
        if not np.all(np.abs(ex.pair_vector - pair_ref)
                      <= 1e-6 * np.abs(pair_ref) + 1e-9 * scale):
            bad_vector += 1
        by_pair[(ex.left_id, ex.right_id)] = ex.matrix
    rec.check(stage, "matrices", bad_matrix == 0,
              f"{bad_matrix} of {len(r.loaded)} matrices differ from reference")
    rec.check(stage, "pair_vectors", bad_vector == 0,
              f"{bad_vector} of {len(r.loaded)} pair vectors differ from reference")

    mirrors = bad_mirror = 0
    for (left, right), m in by_pair.items():
        other = by_pair.get((right, left))
        if other is None or left >= right:
            continue
        mirrors += 1
        if not np.allclose(m.values, other.values.T, rtol=0, atol=1e-6):
            bad_mirror += 1
    rec.check(stage, "mirrors", mirrors > 0 and bad_mirror == 0,
              f"{bad_mirror} of {mirrors} mirrored pairs are not transposes")


# --- synthetic books and labels --------------------------------------------------

def _page_keys(pages: list[dict]) -> list[tuple]:
    return [tuple(sorted(p.items())) for p in pages]


def find_run(haystack: list[tuple], needle: list[tuple]) -> int | None:
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start : start + len(needle)] == needle:
            return start
    return None


def middle(book: dict, trim: list[int]) -> list[dict]:
    front, back = trim
    return book["pages"][front : len(book["pages"]) - back]


def check_synth(rec: Recorder, synth_books: dict[str, dict], real: dict[str, dict],
                synth_rows: list) -> None:
    stage = "synthesize"
    bad_runs = twins = bad_twins = 0
    for book in synth_books.values():
        info = book["synthetic"]
        keys = _page_keys(book["pages"])
        components = [real[c] for c in info["component_ids"]]
        if info["kind"] == "split":
            source_middle = _page_keys(middle(components[0], info["trims"][0]))
            if find_run(source_middle, keys) is None:
                bad_runs += 1
            continue
        for component, trim in zip(components, info["trims"]):
            if find_run(keys, _page_keys(middle(component, trim))) is None:
                bad_runs += 1
        if info["kind"] == "overlap_pair":
            (twin_id, label), = info["relations"]
            twin = synth_books[twin_id]["synthetic"]
            mine, theirs = set(info["component_ids"]), set(twin["component_ids"])
            twins += 1
            if label != "OVERLAPS" or not (mine & theirs) or not (mine - theirs) \
                    or not (theirs - mine):
                bad_twins += 1
    rec.check(stage, "component_runs", bad_runs == 0,
              f"{bad_runs} component middles are not contiguous page runs")
    rec.check(stage, "overlap_twins", twins > 0 and bad_twins == 0,
              f"{bad_twins} of {twins} overlap books break the share/private rule")

    rows = {(p.left_id, p.right_id): p.label.value for p in synth_rows}
    missing = sum(1 for (a, b), lab in rows.items() if rows.get((b, a)) != INVERSE[lab])
    rec.check(stage, "inverse_rows", missing == 0, f"{missing} rows lack their inverse")


def check_labels(rec: Recorder, real_pairs: list, real: dict[str, dict]) -> None:
    wrong = 0
    for pair in real_pairs:
        same = (real[pair.left_id]["metadata"].get("work_key")
                == real[pair.right_id]["metadata"].get("work_key"))
        if same == (pair.label.value == "DIFF"):
            wrong += 1
    rec.check("labels", "work_keys", wrong == 0,
              f"{wrong} labels disagree with the books' work keys")


# --- nn kernels, training and scoring ----------------------------------------------

def ref_conv(x, w):
    k = w.shape[0]
    ho, wo = x.shape[1] - k + 1, x.shape[2] - k + 1
    out = np.zeros((x.shape[0], ho, wo, w.shape[3]))
    for di in range(k):
        for dj in range(k):
            out += x[:, di : di + ho, dj : dj + wo, :] @ w[di, dj]
    return out


def ref_conv_backward(x, w, dout):
    k = w.shape[0]
    ho, wo = dout.shape[1], dout.shape[2]
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for di in range(k):
        for dj in range(k):
            window = x[:, di : di + ho, dj : dj + wo, :]
            dw[di, dj] = np.einsum("bhwc,bhwo->co", window, dout)
            dx[:, di : di + ho, dj : dj + wo, :] += dout @ w[di, dj].T
    return dw, dout.sum(axis=(0, 1, 2)), dx


def ref_pool(x):
    """Max over each 2x2 window, first maximum in (0,0),(0,1),(1,0),(1,1)
    order on ties, and the gradient routed to that position."""
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    corners = [x[:, di : 2 * h2 : 2, dj : 2 * w2 : 2, :] for di in (0, 1) for dj in (0, 1)]
    out = corners[0].copy()
    idx = np.zeros(out.shape, dtype=np.int64)
    for position in (1, 2, 3):
        better = corners[position] > out
        out = np.where(better, corners[position], out)
        idx = np.where(better, position, idx)
    return out, idx


def ref_pool_backward(dout, idx, shape):
    dx = np.zeros(shape)
    h2, w2 = dout.shape[1], dout.shape[2]
    for position in range(4):
        di, dj = divmod(position, 2)
        dx[:, di : 2 * h2 : 2, dj : 2 * w2 : 2, :] = np.where(idx == position, dout, 0.0)
    return dx


def _close(a, b) -> bool:
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-9, atol=1e-9)


def check_kernels(rec: Recorder, side: int, seed: int) -> None:
    """conv2d, maxpool2 and their backward passes against shifted-slice
    references in float64, at the workload's matrix side, for both conv
    stages' shapes (and ReLU-style ties for the pool)."""
    config = nn.ModelConfig(matrix_size=side)
    rng = np.random.default_rng(seed)
    k, f1, f2 = config.kernel_size, config.conv1_filters, config.conv2_filters
    c1, p1, c2, _, _ = config.conv_stack_sizes()
    stage = "kernels"
    for cin, cout, size in ((1, f1, side), (f1, f2, p1)):
        x = rng.standard_normal((2, size, size, cin))
        w = rng.standard_normal((k, k, cin, cout))
        dout = rng.standard_normal((2, size - k + 1, size - k + 1, cout))
        rec.check(stage, f"conv_{cin}", _close(nn.conv2d(x, w), ref_conv(x, w)))
        for name, got, want in zip(("dw", "db", "dx"), nn.conv2d_backward(x, w, dout),
                                   ref_conv_backward(x, w, dout)):
            rec.check(stage, f"conv_{cin}_{name}", _close(got, want))
    for size, channels in ((c1, f1), (c2, f2)):
        for relu in (False, True):
            x = rng.standard_normal((2, size, size, channels))
            if relu:
                x = np.maximum(x, 0)
            got, got_idx = nn.maxpool2(x)
            want, want_idx = ref_pool(x)
            rec.check(stage, f"pool_{size}", _close(got, want)
                      and np.array_equal(got_idx, want_idx))
            dout = rng.standard_normal(want.shape)
            rec.check(stage, f"pool_{size}_backward",
                      _close(nn.maxpool2_backward(dout, got_idx, x.shape),
                             ref_pool_backward(dout, want_idx, x.shape)))


def check_training(rec: Recorder, r, model_path: Path) -> None:
    stage = "train"
    losses = [h["loss"] for h in r.history]
    rec.check(stage, "finite_loss", all(np.isfinite(losses)), f"losses {losses}")
    rec.check(stage, "loss_falls", losses[-1] < losses[0], f"losses {losses}")
    nn.save_model(r.model, model_path)
    loaded = nn.load_model(model_path)
    same = (loaded.class_list == r.model.class_list and loaded.config == r.model.config
            and all(loaded.params[n].dtype == r.model.params[n].dtype
                    and loaded.params[n].tobytes() == r.model.params[n].tobytes()
                    for n in r.model.params))
    rec.check(stage, "model_round_trip", same, "model differs after save/load")


def bucket(left_id: str, right_id: str) -> int:
    low, high = sorted((left_id, right_id))
    return int.from_bytes(hashlib.sha1(f"{low}\t{high}".encode()).digest()[:4], "big") % 100


def check_scoring(rec: Recorder, w, r) -> None:
    stage = "score"
    mats = np.stack([ex.matrix.values for ex in r.test_set])
    vecs = np.stack([ex.pair_vector for ex in r.test_set])
    probs = nn.forward(r.model, mats, vecs)
    rec.check(stage, "probabilities_sum_to_one",
              np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9))
    rec.check(stage, "all_test_pairs_scored", r.confusion.total == len(r.test_set),
              f"{r.confusion.total} of {len(r.test_set)}")
    ranks = [row.rank for row in r.ranked]
    confidence = [row.confidence for row in r.ranked]
    rec.check(stage, "overlap_ranks",
              ranks == list(range(1, min(TOP_K, len(r.loaded)) + 1))
              and all(a >= b for a, b in zip(confidence, confidence[1:])),
              "ranks not 1..k in non-increasing confidence")
    want = [(ex.left_id, ex.right_id) for ex in r.loaded
            if ex.provenance == "real" and bucket(ex.left_id, ex.right_id) < TEST_PERCENT]
    got = [(ex.left_id, ex.right_id) for ex in r.test_set]
    rec.check(stage, "held_out_split",
              got == want and all(ex.provenance == "real" for ex in r.test_set),
              "held-out pairs differ from the SHA-1 bucket rule or include synthetic pairs")


def check_round(rec: Recorder, w, seed: int, inputs, r, workdir: Path) -> None:
    """Every check, on one round's outputs."""
    real = parse_dir(inputs.corpus_dir / "books")
    synthetic = parse_dir(r.synth_dir)
    check_featurize(rec, w, r, {**real, **synthetic}, inputs.embeddings_path)
    check_synth(rec, synthetic, real, r.synth_rows)
    check_labels(rec, inputs.real_pairs, real)
    check_kernels(rec, w.matrix_size, seed)
    if w.epochs:
        check_training(rec, r, workdir / "model.bin")
        check_scoring(rec, w, r)


def round_digest(r) -> str:
    """Digest of a round's deterministic outputs: featurized records,
    training history and trained weights."""
    h = hashlib.sha256()
    for ex in r.loaded:
        h.update(f"{ex.left_id}\t{ex.right_id}\t{ex.label.value}".encode())
        h.update(ex.matrix.values.tobytes())
        h.update(np.asarray(ex.pair_vector).tobytes())
    h.update(json.dumps(r.history, sort_keys=True).encode())
    if r.model is not None:
        for name in nn.PARAM_ORDER:
            h.update(r.model.params[name].tobytes())
    return h.hexdigest()
