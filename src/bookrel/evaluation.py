"""Metrics, experiment conditions, the synthetic-ratio sweep, overlap
surfacing, and a deterministic demo corpus for desk-scale experiments.

Three training conditions are compared on one fixed held-out split of the
real labeled pairs: ``nofake`` (real data only), ``mixed`` (real plus a
fraction of the synthetic examples), and ``allfake`` (real whole-part labels
removed from training, synthetic ones standing in). Synthetic examples never
appear in any test set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Book, BookMetadata, Page
from .embed import EmbeddingTable
from .features import LabeledPair, PairExample
from .labels import (
    CLASS_ORDER,
    RelationshipLabel,
    WHOLE_PART,
    canonical_class_list,
)
from . import nn
from .nn import ClassifierModel, ModelConfig, TrainConfig

TEST_BUCKET_PERCENT = 20  # fixed 80/20 split on a hash of the pair ids
SCORE_BATCH = 32  # pairs per forward pass when scoring; about 3 MB each at side 150


# --- metrics ------------------------------------------------------------------

@dataclass(frozen=True)
class ClassMetrics:
    label: RelationshipLabel
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ConfusionMatrix:
    class_list: list[RelationshipLabel]
    counts: np.ndarray  # counts[true][predicted]

    @classmethod
    def empty(cls, class_list: Sequence[RelationshipLabel]) -> "ConfusionMatrix":
        n = len(class_list)
        return cls(list(class_list), np.zeros((n, n), dtype=np.int64))

    def add(self, true: RelationshipLabel, predicted: RelationshipLabel) -> None:
        self.counts[self.class_list.index(true), self.class_list.index(predicted)] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    per_class: list[ClassMetrics]
    macro_f1: float
    accuracy: float  # also the pooled (micro) F1, which equals it for single-label data
    macro_classes: list[RelationshipLabel]

    def metrics_for(self, label: RelationshipLabel) -> ClassMetrics:
        for metrics in self.per_class:
            if metrics.label == label:
                return metrics
        raise KeyError(label)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def macro_average(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def compute_metrics(
    confusion: ConfusionMatrix,
    macro_classes: Sequence[RelationshipLabel] | None = None,
) -> MetricsReport:
    """Per-class precision/recall/F1 plus a macro-F1 over a designated class
    subset (the whole-part classes by default) and the accuracy. For
    single-label data the micro-F1 pooled over all classes equals accuracy,
    so it is reported as the accuracy."""
    if confusion.total <= 0:
        raise ValueError("confusion matrix is empty")
    counts = confusion.counts
    per_class: list[ClassMetrics] = []
    for i, label in enumerate(confusion.class_list):
        tp = int(counts[i, i])
        fp = int(counts[:, i].sum()) - tp
        fn = int(counts[i, :].sum()) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class.append(
            ClassMetrics(label, precision, recall, f1_score(precision, recall),
                         int(counts[i, :].sum()))
        )

    if macro_classes is None:
        macro_classes = [c for c in WHOLE_PART if c in confusion.class_list]
        if not macro_classes:
            macro_classes = list(confusion.class_list)
    macro = macro_average(
        next(m.f1 for m in per_class if m.label == c) for c in macro_classes
    )

    accuracy = int(np.trace(counts)) / confusion.total
    return MetricsReport(per_class, macro, accuracy, list(macro_classes))


def score_pairs(model: ClassifierModel, examples: Sequence[PairExample]) -> np.ndarray:
    """Class probabilities, one row per example, computed SCORE_BATCH examples
    at a time so that memory stays bounded however many pairs are scored."""
    probs = np.zeros((len(examples), len(model.class_list)))
    for start in range(0, len(examples), SCORE_BATCH):
        batch = examples[start : start + SCORE_BATCH]
        mats = np.stack([ex.matrix.values for ex in batch])
        pairs = np.stack([np.asarray(ex.pair_vector) for ex in batch])
        probs[start : start + len(batch)] = nn.forward(model, mats, pairs)
    return probs


def evaluate_model(
    model: ClassifierModel,
    examples: Sequence[PairExample],
    class_list: Sequence[RelationshipLabel] | None = None,
) -> ConfusionMatrix:
    if class_list is None:
        labels = set(model.class_list) | {ex.label for ex in examples}
        class_list = [c for c in CLASS_ORDER if c in labels]
    confusion = ConfusionMatrix.empty(class_list)
    # argmax resolves exact ties to the lowest class index
    for example, pred in zip(examples, score_pairs(model, examples).argmax(axis=1)):
        confusion.add(example.label, model.class_list[int(pred)])
    return confusion


# --- split and conditions -------------------------------------------------------

def pair_split_bucket(left_id: str, right_id: str) -> int:
    # hash the unordered pair: a pair and its mirror (whose matrix is the
    # transpose) always land on the same side of the split
    low, high = sorted((left_id, right_id))
    digest = hashlib.sha1(f"{low}\t{high}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % 100


def is_test_pair(left_id: str, right_id: str) -> bool:
    return pair_split_bucket(left_id, right_id) < TEST_BUCKET_PERCENT


def split_examples(
    examples: Sequence[PairExample],
) -> tuple[list[PairExample], list[PairExample]]:
    """Deterministic 80/20 train/test split on a hash of the pair ids; it
    depends only on the ids, so every condition sees the same test set."""
    train, test = [], []
    for example in examples:
        (test if is_test_pair(example.left_id, example.right_id) else train).append(example)
    return train, test


def subsample(
    examples: Sequence[PairExample], fraction: float, seed: int
) -> list[PairExample]:
    """Seed-deterministic subset of floor(fraction * n) examples."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n_take = int(fraction * len(examples))
    order = np.random.default_rng(seed).permutation(len(examples))[:n_take]
    return [examples[i] for i in np.sort(order)]


CONDITIONS = ("nofake", "mixed", "allfake")


@dataclass
class ExperimentConfig:
    condition: str = "mixed"
    synth_fraction: float = 1.0
    seed: int = 0
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.condition == "nofake" and self.synth_fraction != 0.0:
            raise ValueError("nofake condition requires synth_fraction == 0")


@dataclass
class ConditionReport:
    condition: str
    synth_fraction: float
    seed: int
    n_train_real: int
    n_train_synth: int
    n_test: int
    metrics: MetricsReport
    confusion: ConfusionMatrix
    history: list[dict]


def build_condition_dataset(
    real: Sequence[PairExample],
    synth: Sequence[PairExample],
    config: ExperimentConfig,
) -> tuple[list[PairExample], list[PairExample], int]:
    """Training and test sets for a condition. Returns (train, test,
    n_train_real). The test set is always the held-out real pairs."""
    real_train, test = split_examples(real)
    if config.condition == "allfake":
        real_train = [ex for ex in real_train if ex.label not in WHOLE_PART]
    if config.condition == "nofake":
        synth_used: list[PairExample] = []
    else:
        synth_used = subsample(synth, config.synth_fraction, config.seed)
    return real_train + synth_used, test, len(real_train)


def run_condition(
    real: Sequence[PairExample],
    synth: Sequence[PairExample],
    config: ExperimentConfig,
    model_config: ModelConfig | None = None,
) -> ConditionReport:
    """Train one condition and evaluate it on the held-out real pairs."""
    train_set, test_set, n_real = build_condition_dataset(real, synth, config)
    if not train_set:
        raise ValueError("condition produced an empty training set")
    train_config = TrainConfig(**{**config.train_config.__dict__, "seed": config.seed})
    class_list = canonical_class_list(ex.label for ex in train_set)
    model, history = nn.train(train_set, train_config, model_config, class_list)
    confusion = evaluate_model(model, test_set)
    return ConditionReport(
        condition=config.condition,
        synth_fraction=config.synth_fraction,
        seed=config.seed,
        n_train_real=n_real,
        n_train_synth=len(train_set) - n_real,
        n_test=len(test_set),
        metrics=compute_metrics(confusion),
        confusion=confusion,
        history=history,
    )


@dataclass
class SweepRow:
    fraction: float
    ratio: float  # synthetic examples used : real whole-part training pairs
    n_synth_used: int
    report: ConditionReport


def whole_part_train_count(real: Sequence[PairExample]) -> int:
    train, _ = split_examples(real)
    return sum(1 for ex in train if ex.label in WHOLE_PART)


def ratio_sweep(
    real: Sequence[PairExample],
    synth: Sequence[PairExample],
    fractions: Sequence[float],
    seed: int,
    train_config: TrainConfig,
    model_config: ModelConfig | None = None,
) -> list[SweepRow]:
    """One mixed-condition run per fraction with a shared seed and test split.
    Fraction 0 coincides with the nofake baseline by construction."""
    wp_real = whole_part_train_count(real)
    rows = []
    for fraction in fractions:
        config = ExperimentConfig("mixed", fraction, seed, train_config)
        report = run_condition(real, synth, config, model_config)
        rows.append(
            SweepRow(
                fraction=fraction,
                ratio=report.n_train_synth / max(1, wp_real),
                n_synth_used=report.n_train_synth,
                report=report,
            )
        )
    return rows


# --- overlap surfacing ----------------------------------------------------------

@dataclass(frozen=True)
class SurfacedPair:
    rank: int
    ground_truth: RelationshipLabel
    left_id: str
    right_id: str
    confidence: float


def surface_overlaps(
    model: ClassifierModel,
    examples: Sequence[PairExample],
    top_k: int,
) -> list[SurfacedPair]:
    """Rank already-labeled pairs by their OVERLAPS probability, descending.
    Candidates beyond the pair count are simply all returned."""
    if RelationshipLabel.OVERLAPS not in model.class_list:
        raise ValueError("model was not trained with an OVERLAPS class")
    overlap_idx = model.class_index(RelationshipLabel.OVERLAPS)
    confidence = score_pairs(model, examples)[:, overlap_idx]
    order = sorted(
        range(len(examples)),
        key=lambda i: (-confidence[i], examples[i].left_id, examples[i].right_id),
    )
    top = order[: min(top_k, len(order))]
    return [
        SurfacedPair(rank, examples[i].label, examples[i].left_id,
                     examples[i].right_id, float(confidence[i]))
        for rank, i in enumerate(top, start=1)
    ]


# --- corpus filters and pair sampling --------------------------------------------

def sample_diff_pairs(
    catalog: Sequence[tuple[str, str]],
    count: int,
    seed: int,
) -> list[LabeledPair]:
    """Sample `count` distinct ordered cross-work pairs, labeled DIFF."""
    if count <= 0:
        return []
    rng = np.random.default_rng(seed)
    seen: set[tuple[str, str]] = set()
    out: list[LabeledPair] = []
    attempts = 0
    max_attempts = max(1000, count * 100)
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        i, j = rng.integers(0, len(catalog), size=2)
        left_id, left_work = catalog[int(i)]
        right_id, right_work = catalog[int(j)]
        if left_work == right_work or left_id == right_id:
            continue
        key = (left_id, right_id)
        if key in seen:
            continue
        seen.add(key)
        out.append(LabeledPair(left_id, right_id, RelationshipLabel.DIFF, "real"))
    if len(out) < count:
        raise ValueError(f"could only sample {len(out)} of {count} DIFF pairs")
    return out


# --- demo corpus ------------------------------------------------------------------

@dataclass
class VocabModel:
    """Shared vocabulary shape for the demo corpus: per-work topic words plus
    a common background pool, with topic-clustered embedding vectors.

    `volume_sigma` controls how much each volume reweights its work's topic
    words; `section_sigma` adds topical drift every `section_pages` pages so
    that chunks within one volume are distinguishable and aligned content
    shows up as a diagonal in the similarity matrix."""

    topic_words: int = 40
    background_words: int = 250
    dimension: int = 16
    topic_spread: float = 0.8
    background_scale: float = 0.3
    volume_sigma: float = 2.2
    section_pages: int = 6
    section_sigma: float = 1.2


@dataclass
class DemoCorpus:
    books: list[Book]
    catalog: list[tuple[str, str, str]]  # (book_id, work_key, enumeration_raw)
    embeddings: EmbeddingTable

    def books_by_id(self) -> dict[str, Book]:
        return {book.id: book for book in self.books}


_VOLUME_SPELLINGS = ("v.{n}", "v{n}", "v. {n}", "volume {n}", "Vol. {n}", "V.{n}", "vol {n}")
_RANGE_SPELLINGS = ("v.{a}-{b}", "v. {a}-{b}", "v.{a} - {b}", "V. {a}-{b}")

_TOPIC_SHARE = 0.8  # tokens drawn from the work topic; the rest is background


def _perturb_pages(
    pages: Sequence[Page],
    rng: np.random.Generator,
    background: Sequence[str],
    keep_prob: float = 0.97,
) -> list[dict[str, int]]:
    """Rescan-style noise: drop a few token occurrences, add a few stray
    background tokens."""
    out = []
    for page in pages:
        tokens: dict[str, int] = {}
        for token, count in sorted(page.tokens.items()):
            kept = int(rng.binomial(count, keep_prob))
            if kept > 0:
                tokens[token] = kept
        for _ in range(int(rng.poisson(1.0))):
            stray = background[int(rng.integers(0, len(background)))]
            tokens[stray] = tokens.get(stray, 0) + 1
        out.append(tokens)
    return out


def _repaginate(
    page_maps: Sequence[dict[str, int]],
    rng: np.random.Generator,
    page_words: int,
) -> list[dict[str, int]]:
    """Reflow the token stream onto fresh page boundaries, as a different
    printing of the same text would; token order inside a page is not
    modeled, so pages are drained front to back."""
    out: list[dict[str, int]] = []
    current: dict[str, int] = {}
    quota = int(page_words * rng.uniform(0.8, 1.2))
    filled = 0
    for page in page_maps:
        for token, count in sorted(page.items()):
            remaining = count
            while remaining > 0:
                room = quota - filled
                take = min(remaining, room)
                current[token] = current.get(token, 0) + take
                filled += take
                remaining -= take
                if filled >= quota:
                    out.append(current)
                    current = {}
                    filled = 0
                    quota = int(page_words * rng.uniform(0.8, 1.2))
    if filled > 0:
        out.append(current)
    return out


def _sample_pages(
    rng: np.random.Generator,
    n_pages: int,
    page_words: int,
    topic_vocab: Sequence[str],
    volume_weights: np.ndarray,
    background: Sequence[str],
    background_probs: np.ndarray,
    section_pages: int,
    section_sigma: float,
) -> list[dict[str, int]]:
    """Sample pages from the volume's topic distribution, redrawing a
    section-level emphasis every `section_pages` pages."""
    pages = []
    topic_probs = volume_weights / volume_weights.sum()
    for page_no in range(n_pages):
        if section_pages > 0 and page_no % section_pages == 0:
            drift = rng.lognormal(0.0, section_sigma, size=len(volume_weights))
            weights = volume_weights * drift
            topic_probs = weights / weights.sum()
        n_words = max(10, page_words + int(rng.integers(-15, 16)))
        n_topic = int(rng.binomial(n_words, _TOPIC_SHARE))
        tokens: dict[str, int] = {}
        for words, probs, total in (
            (topic_vocab, topic_probs, n_topic),
            (background, background_probs, n_words - n_topic),
        ):
            if total <= 0:
                continue
            counts = rng.multinomial(total, probs)
            for word, count in zip(words, counts):
                if count > 0:
                    tokens[word] = tokens.get(word, 0) + int(count)
        pages.append(tokens)
    return pages


def generate_demo_corpus(
    n_works: int = 48,
    vols_per_work: int = 4,
    pages: int = 22,
    vocab_model: VocabModel | None = None,
    seed: int = 0,
    page_words: int = 100,
    duplicate_fraction: float = 0.5,
    combined_works: int = 6,
) -> DemoCorpus:
    """Deterministic toy corpus of multi-volume works.

    Each work owns a topic over a shared vocabulary; every volume reweights
    the work's topic words, so chunks within a volume are most similar,
    volumes of the same work moderately similar, and cross-work chunks
    dissimilar. Some works get a duplicate manifestation of one volume (SW
    ground truth) and some get a combined volume that concatenates a span of
    its volumes (CONTAINS/PARTOF ground truth), enumerated like "v.1-2".
    """
    if min(n_works, vols_per_work, pages) < 1:
        raise ValueError("n_works, vols_per_work, and pages must be positive")
    vocab = vocab_model or VocabModel()
    rng = np.random.default_rng(seed)

    background = [f"bg{j:04d}" for j in range(vocab.background_words)]
    background_weights = rng.gamma(2.0, size=vocab.background_words)
    background_probs = background_weights / background_weights.sum()

    vectors: dict[str, np.ndarray] = {}
    for word in background:
        vectors[word] = vocab.background_scale * rng.standard_normal(vocab.dimension)

    books: list[Book] = []
    catalog: list[tuple[str, str, str]] = []

    n_dup = int(round(duplicate_fraction * n_works))
    dup_works = set(int(i) for i in rng.choice(n_works, size=n_dup, replace=False))
    combined_set = set(
        int(i) for i in rng.choice(n_works, size=min(combined_works, n_works), replace=False)
    )

    for work in range(n_works):
        work_key = f"work{work:03d}"
        title = f"Studies in subject {work:03d}"
        author = f"Author {work % 23:02d}"
        topic_vocab = [f"w{work:03d}t{j:02d}" for j in range(vocab.topic_words)]

        center = rng.standard_normal(vocab.dimension)
        center /= np.linalg.norm(center)
        for word in topic_vocab:
            vectors[word] = center + vocab.topic_spread * rng.standard_normal(
                vocab.dimension
            )

        base_weights = rng.gamma(2.0, size=vocab.topic_words)
        volume_pages: dict[int, list[dict[str, int]]] = {}
        for volume in range(1, vols_per_work + 1):
            weights = base_weights * rng.lognormal(
                0.0, vocab.volume_sigma, size=vocab.topic_words
            )
            n_pages = max(6, pages + int(rng.integers(-6, 7)))
            page_maps = _sample_pages(
                rng, n_pages, page_words, topic_vocab, weights,
                background, background_probs,
                vocab.section_pages, vocab.section_sigma,
            )
            volume_pages[volume] = page_maps
            book_id = f"w{work:03d}.v{volume}"
            spelling = _VOLUME_SPELLINGS[int(rng.integers(0, len(_VOLUME_SPELLINGS)))]
            metadata = BookMetadata(
                title=title, author=author,
                enumeration_raw=spelling.format(n=volume), work_key=work_key,
            )
            books.append(
                Book(book_id,
                     tuple(Page(i, t) for i, t in enumerate(page_maps)), metadata)
            )
            catalog.append((book_id, work_key, metadata.enumeration_raw))

        if work in dup_works:
            volume = int(rng.integers(1, vols_per_work + 1))
            source = [Page(i, t) for i, t in enumerate(volume_pages[volume])]
            perturbed = _perturb_pages(source, rng, background)
            book_id = f"w{work:03d}.v{volume}.c2"
            spelling = _VOLUME_SPELLINGS[int(rng.integers(0, len(_VOLUME_SPELLINGS)))]
            metadata = BookMetadata(
                title=title, author=author,
                enumeration_raw=spelling.format(n=volume), work_key=work_key,
            )
            books.append(
                Book(book_id,
                     tuple(Page(i, t) for i, t in enumerate(perturbed)), metadata)
            )
            catalog.append((book_id, work_key, metadata.enumeration_raw))

        if work in combined_set and vols_per_work >= 2:
            start = int(rng.integers(1, vols_per_work))
            max_len = vols_per_work - start + 1
            length = int(rng.integers(2, min(3, max_len) + 1))
            span = range(start, start + length)
            merged: list[dict[str, int]] = []
            keep_prob = float(rng.uniform(0.90, 0.97))
            for volume in span:
                source = [Page(i, t) for i, t in enumerate(volume_pages[volume])]
                merged.extend(_perturb_pages(source, rng, background, keep_prob))
            # a bound-together printing reflows onto its own page boundaries,
            # so real whole-part pairs are noisier than synthetic ones
            merged = _repaginate(merged, rng, page_words)
            book_id = f"w{work:03d}.v{start}-{start + length - 1}"
            spelling = _RANGE_SPELLINGS[int(rng.integers(0, len(_RANGE_SPELLINGS)))]
            raw = spelling.format(a=start, b=start + length - 1)
            metadata = BookMetadata(
                title=title, author=author, enumeration_raw=raw, work_key=work_key
            )
            books.append(
                Book(book_id, tuple(Page(i, t) for i, t in enumerate(merged)), metadata)
            )
            catalog.append((book_id, work_key, raw))

    table = EmbeddingTable(vocab.dimension, vectors)
    return DemoCorpus(books, catalog, table)
