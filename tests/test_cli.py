import json
from pathlib import Path

import pytest

from bookrel import features
from bookrel.cli import main


def run(argv):
    return main(argv)


def read_data_files(directory: Path) -> dict[str, bytes]:
    """Every file under `directory` except run manifests (which carry wall
    time and are provenance, not data)."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and not path.name.endswith("run-manifest.json"):
            out[str(path.relative_to(directory))] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    assert run([
        "gen-demo-corpus", "--out", str(corpus), "--works", "8", "--vols", "3",
        "--pages", "14", "--combined-works", "3", "--seed", "5",
    ]) == 0
    assert run([
        "infer-labels", "--catalog", str(corpus / "catalog.tsv"),
        "--out", str(root / "labels.tsv"), "--sample-diff", "60", "--seed", "5",
    ]) == 0
    assert run([
        "synthesize", "--corpus", str(corpus / "manifest.tsv"),
        "--kinds", "anthology,combined,split,overlap", "--count", "2",
        "--seed", "5", "--out", str(root / "synth"),
    ]) == 0
    assert run([
        "featurize", "--corpus", str(corpus / "manifest.tsv"),
        "--synth", str(root / "synth"),
        "--pairs", str(root / "labels.tsv"),
        "--pairs", str(root / "synth" / "synth-labels.tsv"),
        "--embeddings", str(corpus / "embeddings.txt"),
        "--chunk-size", "400", "--matrix-size", "24",
        "--out", str(root / "features"),
    ]) == 0
    return root


def test_pipeline_artifacts_exist(pipeline):
    assert (pipeline / "corpus" / "manifest.tsv").exists()
    assert (pipeline / "corpus" / "run-manifest.json").exists()
    assert (pipeline / "labels.tsv").exists()
    assert (pipeline / "synth" / "synth-labels.tsv").exists()
    assert (pipeline / "features" / "features-manifest.tsv").exists()
    meta = json.loads((pipeline / "features" / "features-meta.json").read_text())
    assert meta["matrix_size"] == 24
    assert meta["count"] > 0


def test_featurize_run_manifest_lists_data_files_and_skips(pipeline):
    out = pipeline / "features"
    manifest = json.loads((out / "run-manifest.json").read_text())
    names = [features.META_NAME, features.MANIFEST_NAME, features.MATRICES_NAME,
             features.PAIR_FEATURES_NAME]
    assert manifest["outputs"] == sorted(names)
    assert sorted(read_data_files(out)) == sorted(names)
    assert set(manifest["skipped"]) == {"missing_book", "oversize", "truncated"}
    meta = json.loads((out / features.META_NAME).read_text())
    labels = sum(len(features.read_labels(path)) for path in
                 (pipeline / "labels.tsv", pipeline / "synth" / "synth-labels.tsv"))
    assert meta["count"] + sum(manifest["skipped"].values()) == labels
    assert manifest["config"]["max_words"] == features.DEFAULT_MAX_WORDS
    assert "threads" not in manifest["config"]


def test_featurize_has_no_threads_flag(pipeline, tmp_path):
    corpus = pipeline / "corpus"
    with pytest.raises(SystemExit) as excinfo:
        main(["featurize", "--corpus", str(corpus / "manifest.tsv"),
              "--pairs", str(pipeline / "labels.tsv"),
              "--embeddings", str(corpus / "embeddings.txt"),
              "--threads", "2", "--out", str(tmp_path / "features")])
    assert excinfo.value.code == 2


def test_train_evaluate_and_surface(pipeline, tmp_path):
    model_path = tmp_path / "model.bin"
    assert run([
        "train", "--features", str(pipeline / "features"),
        "--out", str(model_path), "--epochs", "2", "--seed", "3",
    ]) == 0
    assert model_path.exists()

    out = tmp_path / "eval"
    assert run([
        "evaluate", "--features", str(pipeline / "features"),
        "--condition", "mixed", "--synth-fraction", "1.0",
        "--epochs", "2", "--seed", "3", "--out", str(out),
    ]) == 0
    metrics = (out / "metrics.tsv").read_text().splitlines()
    assert metrics[0].startswith("label\tprecision")
    assert (out / "confusion.tsv").exists()
    assert (out / "summary.txt").exists()

    report = tmp_path / "overlaps.tsv"
    assert run([
        "surface-overlaps", "--model", str(model_path),
        "--features", str(pipeline / "features"),
        "--top-k", "5", "--out", str(report),
    ]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "rank\tground_truth\tleft_id\tright_id\tconfidence"
    assert len(lines) == 6


def test_sweep_outputs(pipeline, tmp_path):
    out = tmp_path / "sweep"
    assert run([
        "sweep", "--features", str(pipeline / "features"),
        "--fractions", "0,1.0", "--epochs", "2", "--seed", "3",
        "--out", str(out),
    ]) == 0
    tsv = (out / "sweep.tsv").read_text().splitlines()
    assert tsv[0].split("\t") == [
        "fraction", "ratio", "label", "precision", "recall", "f1", "support"
    ]
    assert all(len(line.split("\t")) == 7 for line in tsv[1:])
    fractions = {line.split("\t")[0] for line in tsv[1:]}
    assert fractions == {"0", "1"}
    assert sorted(read_data_files(out)) == ["sweep.tsv"]
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["outputs"] == ["sweep.tsv"]


def test_cli_determinism_byte_identical(tmp_path):
    """Byte-identical data outputs for identical seeds and inputs."""
    outputs = []
    for run_dir in ("one", "two"):
        root = tmp_path / run_dir
        corpus = root / "corpus"
        assert run([
            "gen-demo-corpus", "--out", str(corpus), "--works", "5", "--vols", "2",
            "--pages", "10", "--combined-works", "2", "--seed", "9",
        ]) == 0
        assert run([
            "infer-labels", "--catalog", str(corpus / "catalog.tsv"),
            "--out", str(root / "labels.tsv"), "--sample-diff", "20", "--seed", "9",
        ]) == 0
        assert run([
            "synthesize", "--corpus", str(corpus / "manifest.tsv"),
            "--kinds", "anthology,split", "--count", "2", "--seed", "9",
            "--out", str(root / "synth"),
        ]) == 0
        outputs.append({
            **{f"corpus/{k}": v for k, v in read_data_files(corpus).items()},
            "labels.tsv": (root / "labels.tsv").read_bytes(),
            **{f"synth/{k}": v for k, v in read_data_files(root / "synth").items()},
        })
    assert outputs[0] == outputs[1]


def test_ingest_round_trip(pipeline, tmp_path):
    manifest = tmp_path / "manifest.tsv"
    assert run([
        "ingest", "--in", str(pipeline / "corpus" / "books"), "--out", str(manifest)
    ]) == 0
    lines = manifest.read_text().splitlines()
    assert lines[0] == "id\tpath\tword_count"
    assert len(lines) > 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["featurize", "--corpus", "x"])  # missing --pairs/--embeddings/--out
    assert excinfo.value.code == 2


def test_io_failure_exits_1(tmp_path):
    assert main(["train", "--features", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "m.bin")]) == 1


def test_short_catalog_row_names_file_and_line(tmp_path, capsys):
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text("book_id\twork_key\tenumeration_raw\nb1\tw1\n", encoding="utf-8")
    assert main(["infer-labels", "--catalog", str(catalog),
                 "--out", str(tmp_path / "labels.tsv")]) == 1
    assert f"{catalog}:2: expected 3 fields, got 2" in capsys.readouterr().err


def test_config_file_precedence(pipeline, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1, "batch_size": 16, "seed": 4,
                                  "class_weights": {"PARTOF": 3.0, "CONTAINS": 3.0}}))
    model_path = tmp_path / "model.bin"
    # --epochs flag overrides the file; batch_size comes from the file
    assert run([
        "train", "--features", str(pipeline / "features"),
        "--config", str(config), "--epochs", "2", "--out", str(model_path),
    ]) == 0
    manifest = json.loads(
        (tmp_path / "model.bin.run-manifest.json").read_text()
    )
    assert manifest["config"]["train_config"]["epochs"] == 2
    assert manifest["config"]["train_config"]["batch_size"] == 16
    assert manifest["config"]["train_config"]["class_weights"] == {
        "CONTAINS": 3.0, "PARTOF": 3.0
    }
    assert manifest["seeds"]["seed"] == 4


@pytest.mark.parametrize("argv,message", [
    (["--dropout-flat", "1"], "dropout_flat must be in [0, 1), got 1.0"),
    (["--dropout-pair", "-0.5"], "dropout_pair must be in [0, 1), got -0.5"),
    (["--learning-rate", "nan"], "learning_rate: expected a finite number, got nan"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["dropout-flat-one", "dropout-pair-negative", "learning-rate-nan", "seed-negative"])
def test_impossible_dropout_flag_is_one_line_error(pipeline, tmp_path, capsys, argv, message):
    model_path = tmp_path / "model.bin"
    assert main(["train", "--features", str(pipeline / "features"),
                 "--out", str(model_path), *argv]) == 1
    assert capsys.readouterr().err == f"bookrel: error: {message}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("argv,message", [
    (["--counts", "anthology=-2"], "--counts: 'anthology=-2': expected kind=N"),
    (["--counts", "anthology=x"], "--counts: 'anthology=x': expected kind=N"),
    (["--counts", "anthology"], "--counts: 'anthology': expected kind=N"),
    (["--count", "-1"], "--count: expected a non-negative integer, got -1"),
], ids=["counts-negative", "counts-not-a-number", "counts-no-value", "count-negative"])
def test_bad_synthesize_count_is_one_line_error(pipeline, tmp_path, capsys, argv, message):
    out = tmp_path / "synth"
    assert main(["synthesize", "--corpus", str(pipeline / "corpus" / "manifest.tsv"),
                 "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bookrel: error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"epochs": 1,', "invalid JSON"),
    ('{"epoch": 1}', "unknown keys ['epoch']"),
    ('{"class_weights": {"PARTOF": 2.0, "XX": 1.0}}', "class_weights: unknown labels ['XX']"),
    ('{"epochs": "2"}', "epochs: expected an integer, got str"),
    ('{"batch_size": true}', "batch_size: expected an integer, got bool"),
    ('{"seed": 1.5}', "seed: expected an integer, got float"),
    ('{"learning_rate": "0.1"}', "learning_rate: expected a number, got str"),
    ('{"learning_rate": NaN}', "learning_rate: expected a finite number, got nan"),
    ('{"dropout_flat": null}', "dropout_flat: expected a number, got NoneType"),
    ('{"dropout_pair": [0.5]}', "dropout_pair: expected a number, got list"),
    ('{"class_weights": [3.0]}', "class_weights: expected an object, got list"),
    ('{"class_weights": {"PARTOF": "3"}}', "class_weights: PARTOF: expected a number, got str"),
    ('{"epochs": 0}', "epochs must be >= 1"),
    ('{"dropout_flat": 1.0}', "dropout_flat must be in [0, 1), got 1.0"),
    ('{"class_weights": {"PARTOF": -2}}',
     "class_weights[PARTOF] must be a finite number >= 0, got -2.0"),
], ids=["not-an-object", "invalid-json", "unknown-key", "unknown-label",
        "epochs-str", "batch-size-bool", "seed-float", "learning-rate-str",
        "learning-rate-nan", "dropout-flat-null", "dropout-pair-list",
        "class-weights-list", "class-weight-str", "epochs-zero", "dropout-flat-one",
        "class-weight-negative"])
def test_bad_config_file_is_refused_naming_it(pipeline, tmp_path, capsys, text, message):
    config = tmp_path / "train.json"
    config.write_text(text, encoding="utf-8")
    model_path = tmp_path / "model.bin"
    assert main(["train", "--features", str(pipeline / "features"),
                 "--config", str(config), "--out", str(model_path)]) == 1
    assert f"{config}: {message}" in capsys.readouterr().err
    assert not model_path.exists()
