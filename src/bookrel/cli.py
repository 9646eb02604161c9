"""Command-line entry point for the relationship-classification pipeline.

Subcommands cover the whole workflow: demo-corpus generation, ingestion,
enumeration-based labeling, synthetic book generation, featurization,
training, condition evaluation, the synthetic-ratio sweep, and overlap
surfacing. Progress goes to stderr; machine-readable results go to files
under ``--out`` only. Every artifact-producing command drops a
``run-manifest.json`` (command, config snapshot, seeds, paths, version,
wall time) alongside its outputs; all data files are byte-reproducible for
identical seeds and inputs, the run manifest being provenance rather than
data.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__, evaluation, synth
from .corpus import (
    book_word_count,
    load_book,
    load_corpus,
    save_book,
    write_manifest,
)
from .embed import load_embeddings, save_embeddings, DEFAULT_CHUNK_SIZE
from .enumparse import relations_from_raw_catalog
from .evaluation import (
    ExperimentConfig,
    VocabModel,
    generate_demo_corpus,
    ratio_sweep,
    run_condition,
    sample_diff_pairs,
    surface_overlaps,
)
from .features import (
    DEFAULT_MAX_WORDS,
    MANIFEST_NAME,
    MATRICES_NAME,
    META_NAME,
    PAIR_FEATURES_NAME,
    LabeledPair,
    featurize_pairs,
    load_features,
    read_labels,
    write_features,
    write_labels,
)
from .labels import RelationshipLabel
from .nn import TrainConfig, load_model, save_model, train
from .simmat import DEFAULT_MATRIX_SIZE
from .tsv import read_tsv, write_tsv

CATALOG_COLUMNS = ("book_id", "work_key", "enumeration_raw")


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _write_run_manifest(
    target: Path, command: str, config: dict, seeds: dict,
    inputs: list[str], outputs: list[str], started: float, **extra,
) -> None:
    if target.suffix:  # file output: manifest becomes a sibling
        path = target.parent / f"{target.name}.run-manifest.json"
    else:
        path = target / "run-manifest.json"
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "tool_version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        **extra,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _safe_filename(book_id: str) -> str:
    return book_id.replace(":", "_").replace("/", "_") + ".json"


# --- commands -----------------------------------------------------------------


def cmd_gen_demo_corpus(args) -> int:
    started = time.time()
    out = Path(args.out)
    books_dir = out / "books"
    books_dir.mkdir(parents=True, exist_ok=True)
    demo = generate_demo_corpus(
        n_works=args.works,
        vols_per_work=args.vols,
        pages=args.pages,
        vocab_model=VocabModel(dimension=args.dim),
        seed=args.seed,
        duplicate_fraction=args.dup_fraction,
        combined_works=args.combined_works,
    )
    entries = []
    for book in demo.books:
        rel = f"books/{_safe_filename(book.id)}"
        save_book(book, out / rel)
        entries.append((book.id, rel, book_word_count(book)))
    write_manifest(entries, out / "manifest.tsv")
    write_tsv(out / "catalog.tsv", CATALOG_COLUMNS, demo.catalog)
    save_embeddings(demo.embeddings, out / "embeddings.txt")
    _eprint(f"gen-demo-corpus: {len(demo.books)} books -> {out}")
    _write_run_manifest(
        out, "gen-demo-corpus",
        {k: getattr(args, k) for k in
         ("works", "vols", "pages", "dim", "dup_fraction", "combined_works")},
        {"seed": args.seed}, [],
        ["manifest.tsv", "catalog.tsv", "embeddings.txt", "books/"], started,
    )
    return 0


def cmd_ingest(args) -> int:
    started = time.time()
    in_dir = Path(getattr(args, "in"))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for path in sorted(in_dir.glob("*.json")):
        book = load_book(path)
        try:
            rel = str(path.relative_to(out.parent))
        except ValueError:
            rel = str(path.resolve())
        entries.append((book.id, rel, book_word_count(book)))
    write_manifest(entries, out)
    _eprint(f"ingest: {len(entries)} books -> {out}")
    _write_run_manifest(out, "ingest", {"in": str(in_dir)}, {},
                        [str(in_dir)], [str(out)], started)
    return 0


def cmd_infer_labels(args) -> int:
    started = time.time()
    catalog = [tuple(fields) for _, fields in read_tsv(args.catalog, CATALOG_COLUMNS)]
    relations, skipped = relations_from_raw_catalog(catalog)
    pairs = [
        LabeledPair(rel.left_id, rel.right_id, rel.label, "real") for rel in relations
    ]
    if args.sample_diff > 0:
        id_work = [(book_id, work_key) for book_id, work_key, _ in catalog]
        pairs.extend(sample_diff_pairs(id_work, args.sample_diff, args.seed))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_labels(pairs, out)
    _eprint(
        f"infer-labels: {len(relations)} enumeration relations "
        f"(+{args.sample_diff} DIFF, {skipped} rows skipped) -> {out}"
    )
    _write_run_manifest(out, "infer-labels",
                        {"catalog": args.catalog, "sample_diff": args.sample_diff},
                        {"seed": args.seed}, [args.catalog], [str(out)], started)
    return 0


def _parse_counts(args) -> dict[str, int]:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    counts = {kind: args.count for kind in kinds}
    if args.counts:
        for item in args.counts.split(","):
            kind, _, value = item.partition("=")
            counts[kind.strip()] = int(value)
    return counts


def cmd_synthesize(args) -> int:
    started = time.time()
    corpus = load_corpus(args.corpus)
    counts = _parse_counts(args)
    synth_books, label_rows = synth.generate(corpus, counts, args.seed, dedup=not args.no_dedup)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for item in synth_books:
        synth.save_synth_book(item, out / _safe_filename(item.book.id))
    pairs = [
        LabeledPair(left, right, label, "synthetic") for left, right, label in label_rows
    ]
    write_labels(pairs, out / "synth-labels.tsv")
    _eprint(
        f"synthesize: {len(synth_books)} books, {len(pairs)} labeled pairs -> {out}"
    )
    _write_run_manifest(out, "synthesize",
                        {"corpus": args.corpus, "counts": counts,
                         "dedup": not args.no_dedup},
                        {"seed": args.seed}, [args.corpus],
                        ["synth-labels.tsv", "*.json"], started)
    return 0


def cmd_featurize(args) -> int:
    started = time.time()
    books = {book.id: book for book in load_corpus(args.corpus)}
    if args.synth:
        for item in synth.load_synth_dir(args.synth):
            books[item.book.id] = item.book
    pairs: list[LabeledPair] = []
    for labels_path in args.pairs:
        pairs.extend(read_labels(labels_path))
    table = load_embeddings(args.embeddings)
    examples, skipped = featurize_pairs(
        pairs, books, table,
        chunk_size=args.chunk_size,
        matrix_size=args.matrix_size,
        max_words=args.max_words,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_features(examples, out, args.chunk_size, args.matrix_size)
    _eprint(
        f"featurize: {len(examples)} pairs featurized, skipped {skipped} -> {out}"
    )
    _write_run_manifest(out, "featurize",
                        {"corpus": args.corpus, "synth": args.synth,
                         "pairs": list(args.pairs), "embeddings": args.embeddings,
                         "chunk_size": args.chunk_size, "matrix_size": args.matrix_size,
                         "max_words": args.max_words},
                        {}, [args.corpus, *args.pairs, args.embeddings],
                        [META_NAME, MANIFEST_NAME, MATRICES_NAME, PAIR_FEATURES_NAME],
                        started, skipped=skipped)
    return 0


def _train_config_from(args) -> TrainConfig:
    """Flags beat the JSON config file, which beats TrainConfig's defaults.
    A config file that is not a JSON object of TrainConfig fields, or that
    weights an unknown label, raises a ValueError naming the file."""
    values = _read_train_config(Path(args.config)) if args.config else {}
    for field in dataclasses.fields(TrainConfig):
        if getattr(args, field.name, None) is not None:
            values[field.name] = getattr(args, field.name)
    return TrainConfig(**values)


def _read_train_config(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            values = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(values).__name__}")
    unknown = sorted(set(values) - {field.name for field in dataclasses.fields(TrainConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown}")
    weights = values.get("class_weights") or {}
    unknown = sorted(set(weights) - {label.value for label in RelationshipLabel})
    if unknown:
        raise ValueError(f"{path}: class_weights: unknown labels {unknown}")
    if weights:
        values["class_weights"] = {RelationshipLabel(k): float(v) for k, v in weights.items()}
    return values


def cmd_train(args) -> int:
    started = time.time()
    config = _train_config_from(args)
    examples = load_features(args.features)
    model, history = train(examples, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    final = history[-1]
    _eprint(
        f"train: {len(examples)} examples, {config.epochs} epochs, "
        f"final loss {final['loss']:.4f} acc {final['accuracy']:.3f} -> {out}"
    )
    _write_run_manifest(out, "train",
                        {"features": args.features,
                         "train_config": config.__dict__},
                        {"seed": config.seed}, [args.features], [str(out)], started)
    return 0


def _split_by_provenance(examples):
    real = [ex for ex in examples if ex.provenance == "real"]
    synthetic = [ex for ex in examples if ex.provenance != "real"]
    return real, synthetic


METRICS_COLUMNS = ("label", "precision", "recall", "f1", "support")


def _class_rows(metrics) -> list[tuple]:
    """The per-class rows of metrics.tsv and sweep.tsv, in METRICS_COLUMNS."""
    return [(m.label.value, f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f1:.6f}",
             m.support) for m in metrics.per_class]


def _write_metrics_tsv(report, path: Path) -> None:
    metrics = report.metrics
    macro = f"MACRO[{'+'.join(c.value for c in metrics.macro_classes)}]"
    write_tsv(path, METRICS_COLUMNS, [
        *_class_rows(metrics),
        (macro, "", "", f"{metrics.macro_f1:.6f}", ""),
        # the pooled (micro) F1 of single-label data is the accuracy
        ("MICRO[all]", "", "", f"{metrics.accuracy:.6f}", ""),
    ])


def _write_confusion_tsv(confusion, path: Path) -> None:
    labels = [c.value for c in confusion.class_list]
    write_tsv(path, ("true\\predicted", *labels),
              [(label, *(int(v) for v in confusion.counts[i]))
               for i, label in enumerate(labels)])


def cmd_evaluate(args) -> int:
    started = time.time()
    train_config = _train_config_from(args)
    real, synthetic = _split_by_provenance(load_features(args.features))
    config = ExperimentConfig(
        condition=args.condition,
        synth_fraction=args.synth_fraction if args.condition != "nofake" else 0.0,
        seed=args.seed if args.seed is not None else train_config.seed,
        train_config=train_config,
    )
    report = run_condition(real, synthetic, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics_tsv(report, out / "metrics.tsv")
    _write_confusion_tsv(report.confusion, out / "confusion.tsv")
    with open(out / "summary.txt", "w", encoding="utf-8") as handle:
        handle.write(
            f"condition={report.condition} synth_fraction={report.synth_fraction}"
            f" seed={report.seed}\n"
            f"train: {report.n_train_real} real + {report.n_train_synth} synthetic;"
            f" test: {report.n_test} real\n"
            f"whole-part macro F1 {report.metrics.macro_f1:.4f},"
            f" accuracy {report.metrics.accuracy:.4f}\n"
        )
    _eprint(
        f"evaluate[{report.condition}]: macro-F1 {report.metrics.macro_f1:.4f} "
        f"accuracy {report.metrics.accuracy:.4f} -> {out}"
    )
    _write_run_manifest(out, "evaluate",
                        {"features": args.features, "condition": args.condition,
                         "synth_fraction": config.synth_fraction,
                         "train_config": train_config.__dict__},
                        {"seed": config.seed}, [args.features],
                        ["metrics.tsv", "confusion.tsv", "summary.txt"], started)
    return 0


def cmd_sweep(args) -> int:
    started = time.time()
    train_config = _train_config_from(args)
    real, synthetic = _split_by_provenance(load_features(args.features))
    fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    seed = args.seed if args.seed is not None else train_config.seed
    rows = ratio_sweep(real, synthetic, fractions, seed, train_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = []
    for row in rows:
        prefix = (f"{row.fraction:g}", f"{row.ratio:.4f}")
        table += [(*prefix, *fields) for fields in _class_rows(row.report.metrics)]
        table.append((*prefix, "MACRO_WHOLE_PART", "", "",
                      f"{row.report.metrics.macro_f1:.6f}", ""))
    write_tsv(out / "sweep.tsv", ("fraction", "ratio", *METRICS_COLUMNS), table)
    _eprint(f"sweep: fractions {fractions} -> {out}")
    _write_run_manifest(out, "sweep",
                        {"features": args.features, "fractions": fractions,
                         "train_config": train_config.__dict__},
                        {"seed": seed}, [args.features],
                        ["sweep.tsv"], started)
    return 0


def cmd_surface_overlaps(args) -> int:
    started = time.time()
    model = load_model(args.model)
    examples = load_features(args.features)
    ranked = surface_overlaps(model, examples, args.top_k)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tsv(out, ("rank", "ground_truth", "left_id", "right_id", "confidence"),
              [(row.rank, row.ground_truth.value, row.left_id, row.right_id,
                f"{row.confidence:.6f}") for row in ranked])
    _eprint(f"surface-overlaps: top {len(ranked)} of {len(examples)} pairs -> {out}")
    _write_run_manifest(out, "surface-overlaps",
                        {"model": args.model, "features": args.features,
                         "top_k": args.top_k},
                        {}, [args.model, args.features], [str(out)], started)
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookrel",
        description="Classify whole-part and same-work relationships between "
                    "scanned books, with synthetic training data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demo-corpus", help="generate the deterministic demo corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--works", type=int, default=48)
    p.add_argument("--vols", type=int, default=4)
    p.add_argument("--pages", type=int, default=22)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--dup-fraction", type=float, default=0.5)
    p.add_argument("--combined-works", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_demo_corpus)

    p = sub.add_parser("ingest", help="scan a directory of book JSON files into a manifest")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("infer-labels", help="infer relationship labels from enumerations")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sample-diff", type=int, default=0,
                   help="additionally sample N cross-work DIFF pairs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_infer_labels)

    p = sub.add_parser("synthesize", help="generate synthetic books and labeled pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kinds", default="anthology,combined,split,overlap")
    p.add_argument("--count", type=int, default=10, help="items per kind")
    p.add_argument("--counts", default="",
                   help="per-kind overrides, e.g. anthology=20,split=5")
    p.add_argument("--no-dedup", action="store_true",
                   help="skip author/title de-duplication of the shorts pool")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("featurize", help="compute similarity matrices and pair features")
    p.add_argument("--corpus", required=True)
    p.add_argument("--synth", default=None)
    p.add_argument("--pairs", action="append", required=True,
                   help="labels TSV; repeat for several files")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--matrix-size", type=int, default=DEFAULT_MATRIX_SIZE)
    p.add_argument("--max-words", type=int, default=DEFAULT_MAX_WORDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    def add_train_flags(p):
        p.add_argument("--config", default=None, help="train config JSON")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--learning-rate", type=float, default=None)
        p.add_argument("--dropout-flat", type=float, default=None)
        p.add_argument("--dropout-pair", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train the classifier on a feature directory")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="train and evaluate one condition")
    p.add_argument("--features", required=True)
    p.add_argument("--condition", choices=evaluation.CONDITIONS, default="mixed")
    p.add_argument("--synth-fraction", type=float, default=1.0)
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="sweep the synthetic-data fraction")
    p.add_argument("--features", required=True)
    p.add_argument("--fractions", default="0,0.05,0.1,0.25,0.5,0.75,1.0")
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("surface-overlaps", help="rank pairs by OVERLAPS confidence")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_surface_overlaps)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        _eprint(f"bookrel: error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
