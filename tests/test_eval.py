import numpy as np
import pytest

from bookrel.embed import chunk_vectors
from bookrel.enumparse import relations_from_raw_catalog
from bookrel.features import PairExample
from bookrel.labels import RelationshipLabel
from bookrel import nn
from bookrel.evaluation import (
    SCORE_BATCH,
    ClassMetrics,
    ConfusionMatrix,
    ExperimentConfig,
    MetricsReport,
    compute_metrics,
    evaluate_model,
    f1_score,
    generate_demo_corpus,
    is_test_pair,
    macro_average,
    pair_split_bucket,
    ratio_sweep,
    run_condition,
    sample_diff_pairs,
    score_pairs,
    split_examples,
    subsample,
    surface_overlaps,
    whole_part_train_count,
)
from bookrel.nn import ModelConfig, TrainConfig, init_model
from bookrel.simmat import pad_truncate, pairwise_similarity

SW = RelationshipLabel.SW
DV = RelationshipLabel.DV
PARTOF = RelationshipLabel.PARTOF
CONTAINS = RelationshipLabel.CONTAINS
DIFF = RelationshipLabel.DIFF
OVERLAPS = RelationshipLabel.OVERLAPS


# --- metrics against a brute-force oracle ------------------------------------

def metrics_oracle(class_list, truths, predictions):
    """Independent per-class TP/FP/FN tally."""
    out = {}
    for label in class_list:
        tp = sum(1 for t, p in zip(truths, predictions) if t == label and p == label)
        fp = sum(1 for t, p in zip(truths, predictions) if t != label and p == label)
        fn = sum(1 for t, p in zip(truths, predictions) if t == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        out[label] = (precision, recall, f1_score(precision, recall))
    return out


def random_confusion_case(seed):
    rng = np.random.default_rng(seed)
    class_list = [SW, DV, PARTOF, CONTAINS, DIFF]
    n = int(rng.integers(5, 60))
    truths = [class_list[i] for i in rng.integers(0, 5, size=n)]
    predictions = [class_list[i] for i in rng.integers(0, 5, size=n)]
    confusion = ConfusionMatrix.empty(class_list)
    for t, p in zip(truths, predictions):
        confusion.add(t, p)
    return class_list, truths, predictions, confusion


@pytest.mark.parametrize("seed", range(10))
def test_compute_metrics_matches_oracle(seed):
    class_list, truths, predictions, confusion = random_confusion_case(seed)
    report = compute_metrics(confusion)
    expected = metrics_oracle(class_list, truths, predictions)
    for metrics in report.per_class:
        precision, recall, f1 = expected[metrics.label]
        assert metrics.precision == pytest.approx(precision)
        assert metrics.recall == pytest.approx(recall)
        assert metrics.f1 == pytest.approx(f1)


@pytest.mark.parametrize("seed", range(5))
def test_micro_f1_equals_accuracy_exactly(seed):
    """The MICRO[all] row reports the accuracy as the pooled F1: pooled over
    all classes, every false positive is another class's false negative."""
    _, truths, predictions, confusion = random_confusion_case(seed)
    report = compute_metrics(confusion)
    tp = sum(t == p for t, p in zip(truths, predictions))
    fp = fn = len(truths) - tp
    accuracy = tp / len(truths)
    assert f1_score(tp / (tp + fp), tp / (tp + fn)) == accuracy
    assert report.accuracy == accuracy


def test_f1_reproduces_published_arithmetic():
    assert f1_score(0.82, 0.76) == pytest.approx(0.789, abs=0.005)
    assert macro_average([0.44, 0.38]) == pytest.approx(0.41, abs=0.005)


def test_perfect_predictor_metrics():
    confusion = ConfusionMatrix.empty([SW, DV])
    for _ in range(4):
        confusion.add(SW, SW)
        confusion.add(DV, DV)
    report = compute_metrics(confusion, macro_classes=[SW, DV])
    assert report.macro_f1 == 1.0
    assert report.accuracy == 1.0
    for metrics in report.per_class:
        assert metrics.precision == metrics.recall == metrics.f1 == 1.0


def test_macro_defaults_to_whole_part():
    confusion = ConfusionMatrix.empty([SW, PARTOF, CONTAINS])
    confusion.add(SW, SW)
    confusion.add(PARTOF, PARTOF)
    confusion.add(CONTAINS, SW)
    report = compute_metrics(confusion)
    assert report.macro_classes == [PARTOF, CONTAINS]
    assert report.macro_f1 == pytest.approx((1.0 + 0.0) / 2)


def test_compute_metrics_rejects_empty():
    with pytest.raises(ValueError):
        compute_metrics(ConfusionMatrix.empty([SW]))


# --- split / subsample --------------------------------------------------------

def make_example(left, right, label, provenance="real", size=6, pair_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return PairExample(
        left, right, pad_truncate(rng.uniform(-1, 1, (3, 3)), size),
        rng.standard_normal(pair_dim), label, provenance,
    )


def test_split_is_deterministic_and_disjoint():
    examples = [make_example(f"l{i}", f"r{i}", SW, seed=i) for i in range(200)]
    train1, test1 = split_examples(examples)
    train2, test2 = split_examples(examples)
    assert [e.left_id for e in train1] == [e.left_id for e in train2]
    train_ids = {(e.left_id, e.right_id) for e in train1}
    test_ids = {(e.left_id, e.right_id) for e in test1}
    assert not train_ids & test_ids
    assert len(train_ids) + len(test_ids) == 200
    # roughly 80/20
    assert 0.10 <= len(test_ids) / 200 <= 0.30


def test_split_depends_only_on_ids():
    assert is_test_pair("a", "b") == (pair_split_bucket("a", "b") < 20)


def test_subsample_exact_count_and_seed_stability():
    examples = [make_example(f"l{i}", f"r{i}", DV, seed=i) for i in range(40)]
    picked1 = subsample(examples, 0.25, seed=5)
    picked2 = subsample(examples, 0.25, seed=5)
    assert len(picked1) == 10  # floor(0.25 * 40)
    assert [e.left_id for e in picked1] == [e.left_id for e in picked2]
    assert subsample(examples, 0.0, seed=5) == []
    assert len(subsample(examples, 1.0, seed=5)) == 40


def test_subsample_rejects_bad_fraction():
    with pytest.raises(ValueError):
        subsample([], 1.5, seed=0)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(condition="nofake", synth_fraction=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(condition="bogus")


# --- pair sampling ----------------------------------------------------------------

def test_sample_diff_pairs_cross_work_only():
    catalog = [(f"b{i}", f"w{i % 4}") for i in range(16)]
    pairs = sample_diff_pairs(catalog, 30, seed=3)
    assert len(pairs) == 30
    assert len({(p.left_id, p.right_id) for p in pairs}) == 30
    works = dict(catalog)
    for pair in pairs:
        assert works[pair.left_id] != works[pair.right_id]
        assert pair.label is DIFF
    again = sample_diff_pairs(catalog, 30, seed=3)
    assert again == pairs


# --- demo corpus ------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo():
    return generate_demo_corpus(
        n_works=10, vols_per_work=3, pages=18, seed=11, combined_works=3
    )


def test_demo_corpus_deterministic(demo):
    again = generate_demo_corpus(
        n_works=10, vols_per_work=3, pages=18, seed=11, combined_works=3
    )
    assert [b.id for b in again.books] == [b.id for b in demo.books]
    assert again.catalog == demo.catalog
    for a, b in zip(again.books, demo.books):
        assert [p.tokens for p in a.pages] == [p.tokens for p in b.pages]
    for word, vec in demo.embeddings.vectors.items():
        assert np.array_equal(again.embeddings.vectors[word], vec)


def test_demo_corpus_within_work_beats_cross_work(demo):
    books = demo.books_by_id()
    work_of = {book_id: work for book_id, work, _ in demo.catalog}
    vectors = {bid: chunk_vectors(b, demo.embeddings, 600) for bid, b in books.items()}
    ids = sorted(books)
    within, cross = [], []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            mean = float(pairwise_similarity(vectors[a], vectors[b]).mean())
            (within if work_of[a] == work_of[b] else cross).append(mean)
    assert np.mean(within) > np.mean(cross) + 0.3


def test_demo_corpus_yields_all_enum_label_kinds(demo):
    relations, _ = relations_from_raw_catalog(demo.catalog)
    labels = {r.label for r in relations}
    assert {SW, DV, PARTOF, CONTAINS} <= labels


def test_demo_corpus_book_ids_unique(demo):
    ids = [b.id for b in demo.books]
    assert len(ids) == len(set(ids))


# --- conditions end to end (tiny) ---------------------------------------------

def synthetic_structured_example(label, seed, n_left=4, n_right=4, size=10):
    """Small structured matrices that make the label learnable: SW has a full
    diagonal, CONTAINS/PARTOF a partial band, DIFF nothing."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 0.15, size=(n_left, n_right))
    if label is SW:
        for i in range(min(n_left, n_right)):
            base[i, i] = 1.0
    elif label is CONTAINS:
        for j in range(n_right):
            base[min(j, n_left - 1), j] = 1.0
    elif label is PARTOF:
        for i in range(n_left):
            base[i, min(i, n_right - 1)] = 1.0
    pair = rng.standard_normal(4) * 0.1
    return PairExample(
        f"{label.value}-{seed}-L", f"{label.value}-{seed}-R",
        pad_truncate(base, size), pair, label, "real",
    )


@pytest.fixture(scope="module")
def tiny_condition_world():
    real = []
    for i in range(60):
        real.append(synthetic_structured_example(SW, seed=1000 + i))
        real.append(synthetic_structured_example(DIFF, seed=2000 + i))
    for i in range(4):
        real.append(synthetic_structured_example(CONTAINS, seed=3000 + i))
        real.append(synthetic_structured_example(PARTOF, seed=4000 + i))
    synth = []
    for i in range(40):
        ex = synthetic_structured_example(CONTAINS, seed=5000 + i)
        ex.provenance = "synthetic"
        synth.append(ex)
        ex = synthetic_structured_example(PARTOF, seed=6000 + i)
        ex.provenance = "synthetic"
        synth.append(ex)
    return real, synth


def quick_train_config(seed=0):
    return TrainConfig(epochs=8, batch_size=8, learning_rate=2e-3,
                       dropout_flat=0.1, dropout_pair=0.1, seed=seed)


def test_run_condition_deterministic(tiny_condition_world):
    real, synth = tiny_condition_world
    config = ExperimentConfig("mixed", 1.0, seed=3, train_config=quick_train_config(3))
    one = run_condition(real, synth, config)
    two = run_condition(real, synth, config)
    assert one.metrics == two.metrics
    assert np.array_equal(one.confusion.counts, two.confusion.counts)


def test_run_condition_test_set_is_fixed_and_real_only(tiny_condition_world):
    real, synth = tiny_condition_world
    reports = []
    for condition, fraction in (("nofake", 0.0), ("mixed", 1.0), ("allfake", 1.0)):
        config = ExperimentConfig(condition, fraction, seed=1,
                                  train_config=quick_train_config(1))
        reports.append(run_condition(real, synth, config))
    assert len({r.n_test for r in reports}) == 1
    _, test = split_examples(real)
    assert all(r.n_test == len(test) for r in reports)
    assert all(ex.provenance == "real" for ex in test)


def test_allfake_removes_real_whole_part_from_training(tiny_condition_world):
    real, synth = tiny_condition_world
    from bookrel.evaluation import build_condition_dataset

    config = ExperimentConfig("allfake", 1.0, seed=0,
                              train_config=quick_train_config())
    train_set, test_set, n_real = build_condition_dataset(real, synth, config)
    real_part = [ex for ex in train_set if ex.provenance == "real"]
    assert all(ex.label not in (PARTOF, CONTAINS) for ex in real_part)
    # held-out real whole-part pairs are still evaluated
    assert any(ex.label in (PARTOF, CONTAINS) for ex in test_set)


def test_ratio_sweep_endpoints_and_counts(tiny_condition_world):
    real, synth = tiny_condition_world
    rows = ratio_sweep(real, synth, [0.0, 0.5, 1.0], seed=2,
                       train_config=quick_train_config(2))
    assert rows[0].n_synth_used == 0
    assert rows[1].n_synth_used == len(synth) // 2
    assert rows[2].n_synth_used == len(synth)
    nofake = run_condition(
        real, synth,
        ExperimentConfig("nofake", 0.0, seed=2, train_config=quick_train_config(2)),
    )
    assert rows[0].report.metrics == nofake.metrics
    mixed = run_condition(
        real, synth,
        ExperimentConfig("mixed", 1.0, seed=2, train_config=quick_train_config(2)),
    )
    assert rows[2].report.metrics == mixed.metrics
    wp = whole_part_train_count(real)
    assert rows[2].ratio == pytest.approx(len(synth) / wp)


def test_run_condition_rejects_empty_training():
    with pytest.raises(ValueError):
        run_condition([], [], ExperimentConfig("nofake", 0.0, seed=0,
                                               train_config=quick_train_config()))


# --- scoring ----------------------------------------------------------------------

def test_score_pairs_slices_match_one_batch():
    model = init_model(
        ModelConfig(matrix_size=10, pair_dim=4, conv1_filters=2, conv2_filters=2,
                    pair_hidden=3, merge_hidden=4),
        [SW, DV, DIFF], seed=3,
    )
    examples = [make_example(f"l{i}", f"r{i}", SW, size=10, seed=i)
                for i in range(SCORE_BATCH + 5)]
    probs = score_pairs(model, examples)
    whole = nn.forward(model, np.stack([ex.matrix.values for ex in examples]),
                       np.stack([ex.pair_vector for ex in examples]))
    assert probs.shape == (len(examples), 3)
    assert np.allclose(probs, whole, rtol=0, atol=1e-6)


# --- overlap surfacing ------------------------------------------------------------

def test_surface_overlaps_requires_overlap_class():
    model = init_model(
        ModelConfig(matrix_size=10, pair_dim=4, conv1_filters=2, conv2_filters=2,
                    pair_hidden=3, merge_hidden=4),
        [SW, DV], seed=0,
    )
    with pytest.raises(ValueError):
        surface_overlaps(model, [], top_k=5)


def test_surface_overlaps_report_shape_and_order(tiny_condition_world):
    real, _ = tiny_condition_world
    model = init_model(
        ModelConfig(matrix_size=10, pair_dim=4, conv1_filters=2, conv2_filters=2,
                    pair_hidden=3, merge_hidden=4),
        [SW, DIFF, OVERLAPS], seed=1,
    )
    candidates = real[:30]
    rows = surface_overlaps(model, candidates, top_k=10)
    assert len(rows) == 10
    assert [r.rank for r in rows] == list(range(1, 11))
    confidences = [r.confidence for r in rows]
    assert confidences == sorted(confidences, reverse=True)
    for row in rows:
        assert row.ground_truth in {SW, DIFF, PARTOF, CONTAINS}


def test_surface_overlaps_top_k_larger_than_pool(tiny_condition_world):
    real, _ = tiny_condition_world
    model = init_model(
        ModelConfig(matrix_size=10, pair_dim=4, conv1_filters=2, conv2_filters=2,
                    pair_hidden=3, merge_hidden=4),
        [SW, OVERLAPS], seed=2,
    )
    rows = surface_overlaps(model, real[:7], top_k=99)
    assert len(rows) == 7
