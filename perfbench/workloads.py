"""Workload definitions, input set-up and the measured pipeline stages.

Every input comes from bookrel's own demo generator with every parameter
written out below; the run seed feeds the corpus generator, the DIFF-pair
sampler, the synthetic-book generator and the training seed. The benchmark
calls only public functions of bookrel's modules and always looks them up
on the module at call time, so a traced round can wrap them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from bookrel import corpus, embed, enumparse, evaluation, features, nn, synth
from bookrel.evaluation import VocabModel
from bookrel.features import LabeledPair
from bookrel.labels import canonical_class_list


@dataclass(frozen=True)
class Workload:
    """The settings that differ between workloads; the rest are the module
    constants below, passed explicitly all the same."""

    name: str
    # demo-corpus generator
    n_works: int
    pages: int
    combined_works: int
    # labels and synthetic books
    sample_diff: int
    synth_counts: dict
    # featurize
    chunk_size: int
    matrix_size: int
    # training and scoring; epochs 0 runs neither
    epochs: int
    # shape of a round
    synthesize_measured: bool
    featurize_repeats: int
    load_repeats: int


VOLS_PER_WORK = 4
PAGE_WORDS = 100
DUPLICATE_FRACTION = 0.5
VOCAB = VocabModel(topic_words=40, background_words=250, dimension=16,
                   topic_spread=0.8, background_scale=0.3, volume_sigma=2.2,
                   section_pages=6, section_sigma=1.2)
MAX_WORDS = 750_000
TOP_K = 50
TRAIN = dict(batch_size=32, learning_rate=1e-3, dropout_flat=0.5, dropout_pair=0.25)

README_SYNTH = {"anthology": 18, "combined": 12, "split": 16, "overlap": 10}

SETUP_REPEATS = 5  # setup_s is their median

WORKLOADS = {
    w.name: w for w in (
        # The README desk-scale pipeline, trained for fewer epochs than the
        # README's 30 so that a run fits the benchmark's time budget.
        Workload("demo", n_works=48, pages=22, combined_works=6,
                 sample_diff=2200, synth_counts=README_SYNTH,
                 chunk_size=400, matrix_size=32, epochs=2,
                 synthesize_measured=True, featurize_repeats=1, load_repeats=16),
        # Featurize and the store at scale, without nn. A reference workload
        # outside BENCHMARK.json: its figures are dominated by creating
        # thousands of small files, whose speed drifts several-fold on a
        # shared host.
        Workload("featurize-bulk", n_works=96, pages=44, combined_works=48,
                 sample_diff=4000, synth_counts=README_SYNTH,
                 chunk_size=200, matrix_size=64, epochs=0,
                 synthesize_measured=False, featurize_repeats=1, load_repeats=3),
        # The paper's matrix side with page-sized chunks on a small corpus.
        Workload("paper-side", n_works=6, pages=50, combined_works=3,
                 sample_diff=40,
                 synth_counts={"anthology": 3, "combined": 2, "split": 3, "overlap": 2},
                 chunk_size=100, matrix_size=150, epochs=2,
                 synthesize_measured=False, featurize_repeats=4, load_repeats=16),
    )
}


def synth_seed(seed: int) -> int:
    return 1000 + seed


def safe_filename(book_id: str) -> str:
    return book_id.replace(":", "_").replace("/", "_") + ".json"


@dataclass
class Inputs:
    """What set-up leaves on disk and in memory for the rounds."""

    corpus_dir: Path
    books: dict  # id -> Book, real books (plus synthetic ones when set up)
    real_pairs: list
    table: object
    embeddings_path: Path
    synth_dir: Path | None = None
    synth_rows: list = field(default_factory=list)


def read_catalog(path: Path) -> list[tuple[str, str, str]]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        for line in handle:
            if line.strip():
                rows.append(tuple(line.rstrip("\n").split("\t")))
    return rows


def synthesize(w: Workload, seed: int, real_books: list, out: Path):
    """Generate, save and reload the synthetic books. Returns the generated
    and the reloaded synthetic books, and the labeled synthetic pairs."""
    synth_books, rows = synth.generate(real_books, dict(w.synth_counts), synth_seed(seed))
    out.mkdir(parents=True)
    for item in synth_books:
        synth.save_synth_book(item, out / safe_filename(item.book.id))
    loaded = synth.load_synth_dir(out)
    pairs = [LabeledPair(left, right, label, "synthetic") for left, right, label in rows]
    return synth_books, loaded, pairs


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the demo corpus, write it as the CLI's gen-demo-corpus does,
    then load it back with labels and embeddings."""
    demo = evaluation.generate_demo_corpus(
        n_works=w.n_works, vols_per_work=VOLS_PER_WORK, pages=w.pages,
        vocab_model=VOCAB, seed=seed, page_words=PAGE_WORDS,
        duplicate_fraction=DUPLICATE_FRACTION, combined_works=w.combined_works,
    )
    out = workdir / "corpus"
    (out / "books").mkdir(parents=True)
    entries = []
    for book in demo.books:
        rel = f"books/{safe_filename(book.id)}"
        corpus.save_book(book, out / rel)
        entries.append((book.id, rel, corpus.book_word_count(book)))
    corpus.write_manifest(entries, out / "manifest.tsv")
    with open(out / "catalog.tsv", "w", encoding="utf-8") as handle:
        handle.write("book_id\twork_key\tenumeration_raw\n")
        for row in demo.catalog:
            handle.write("\t".join(row) + "\n")
    embed.save_embeddings(demo.embeddings, out / "embeddings.txt")
    del demo

    books = {book.id: book for book in corpus.load_corpus(out / "manifest.tsv")}
    catalog = read_catalog(out / "catalog.tsv")
    relations, _ = enumparse.relations_from_raw_catalog(catalog)
    real_pairs = [LabeledPair(r.left_id, r.right_id, r.label, "real") for r in relations]
    real_pairs += evaluation.sample_diff_pairs(
        [(book_id, work_key) for book_id, work_key, _ in catalog], w.sample_diff, seed
    )
    table = embed.load_embeddings(out / "embeddings.txt")
    inputs = Inputs(out, books, real_pairs, table, out / "embeddings.txt")
    if not w.synthesize_measured:
        inputs.synth_dir = workdir / "synth"
        _, loaded, inputs.synth_rows = synthesize(
            w, seed, list(books.values()), inputs.synth_dir
        )
        for item in loaded:
            books[item.book.id] = item.book
    return inputs


@dataclass
class Stage:
    samples: list = field(default_factory=list)  # seconds, one per repeat
    attempted: int = 0
    failed: int = 0


# Creating thousands of small files runs several times slower for minutes
# at a time on a shared host, so the store write is timed as its own stage
# but kept out of pipeline_s (README).
UNSTEADY_STAGES = ("write",)


def pipeline_seconds(stages: dict) -> float:
    """Sum of each pipeline stage's fastest sample."""
    return sum(min(stage.samples) for name, stage in stages.items()
               if name not in UNSTEADY_STAGES)


@dataclass
class Round:
    """Timings, operation counts and the artifacts the checks read."""

    stages: dict = field(default_factory=dict)
    fit_seconds: float = 0.0  # time inside nn.train
    train_examples: int = 0  # examples x epochs
    infer_pairs: int = 0
    featurized: int = 0
    pairs: list = field(default_factory=list)
    synth_dir: Path | None = None
    synth_rows: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)
    features_dir: Path | None = None
    loaded: list = field(default_factory=list)
    model: object = None
    history: list = field(default_factory=list)
    train_set: list = field(default_factory=list)
    test_set: list = field(default_factory=list)
    confusion: object = None
    ranked: list = field(default_factory=list)


def run_round(w: Workload, seed: int, inputs: Inputs, workdir: Path) -> Round:
    """One round of the measured stages, writing under workdir, which must
    not exist yet. Nothing is deleted while a run measures: on this kind of
    file system, deleting thousands of files makes the writes that follow
    stall for up to seconds."""
    r = Round()
    clock = time.perf_counter
    books = dict(inputs.books)

    if w.synthesize_measured:
        r.synth_dir = workdir / "synth"
        start = clock()
        made, loaded, r.synth_rows = synthesize(
            w, seed, list(inputs.books.values()), r.synth_dir
        )
        for item in loaded:
            books[item.book.id] = item.book
        r.stages["synthesize"] = Stage([clock() - start], len(made), len(made) - len(loaded))
    else:
        r.synth_dir, r.synth_rows = inputs.synth_dir, inputs.synth_rows
    r.pairs = inputs.real_pairs + r.synth_rows

    # featurize (on paper-side) and load are short: repeat them. Only
    # the last featurize is written, so that no featurize sample follows a
    # burst of file creation.
    featurize = r.stages["featurize"] = Stage()
    for _ in range(w.featurize_repeats):
        examples = []
        start = clock()
        examples, r.skipped = features.featurize_pairs(
            r.pairs, books, inputs.table, chunk_size=w.chunk_size,
            matrix_size=w.matrix_size, max_words=MAX_WORDS, threads=1,
        )
        featurize.samples.append(clock() - start)
        featurize.attempted += len(r.pairs)
        featurize.failed += len(r.pairs) - len(examples) - sum(r.skipped.values())
    r.featurized = len(examples)
    r.features_dir = workdir / "features"
    start = clock()
    features.write_features(examples, r.features_dir, w.chunk_size, w.matrix_size)
    # a record not written fails to load
    r.stages["write"] = Stage([clock() - start], len(examples), 0)
    del examples

    stage = r.stages["load"] = Stage()
    for _ in range(w.load_repeats):
        r.loaded = []
        start = clock()
        r.loaded = features.load_features(r.features_dir)
        stage.samples.append(clock() - start)
        stage.attempted += r.featurized
        stage.failed += r.featurized - len(r.loaded)

    if not w.epochs:
        return r
    start = clock()
    real = [ex for ex in r.loaded if ex.provenance == "real"]
    synthetic = [ex for ex in r.loaded if ex.provenance != "real"]
    train_config = nn.TrainConfig(epochs=w.epochs, seed=seed, **TRAIN)
    experiment = evaluation.ExperimentConfig("mixed", 1.0, seed, train_config)
    r.train_set, r.test_set, _ = evaluation.build_condition_dataset(real, synthetic, experiment)
    class_list = canonical_class_list(ex.label for ex in r.train_set)
    fit_start = clock()
    r.model, r.history = nn.train(r.train_set, train_config, None, class_list)
    end = clock()
    r.fit_seconds = end - fit_start
    r.train_examples = len(r.train_set) * w.epochs
    r.stages["train"] = Stage([end - start], r.train_examples, 0)

    start = clock()
    r.confusion = evaluation.evaluate_model(r.model, r.test_set)
    r.ranked = evaluation.surface_overlaps(r.model, r.loaded, TOP_K)
    r.infer_pairs = len(r.test_set) + len(r.loaded)
    expected_ranked = min(TOP_K, len(r.loaded))
    r.stages["score"] = Stage(
        [clock() - start], r.infer_pairs,
        (len(r.test_set) - r.confusion.total) + (expected_ranked - len(r.ranked)),
    )
    return r
