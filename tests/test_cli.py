import json
import tracemalloc

import numpy as np
import pytest

from lexivis import cli, encoder as enc, evaluation, grounding, knowledge, trainer
from lexivis.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from tests.conftest import FIXTURES

WN = str(FIXTURES / "wordnet.jsonl")
WK = str(FIXTURES / "wiktionary.jsonl")
LEX = str(FIXTURES / "lexicon.tsv")
QUERIES = str(FIXTURES / "queries.txt")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    out = captured.out.strip()
    summary = json.loads(out) if code == EXIT_OK and out else None
    return code, summary, captured.err


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "ds.jsonl"
    rows = []
    protos = np.eye(4)
    for i, name in enumerate(["boxer", "tench", "crowd", "fireplug"]):
        for _ in range(4):
            rows.append(
                {"image": (protos[i] + 0.05 * rng.normal(size=4)).tolist(), "text": name,
                 "kind": "category"}
            )
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestCoverage:
    def test_full_coverage_on_fixture(self, capsys):
        code, summary, err = run(
            capsys, "coverage", "--source", "wiki_def", "--wiktionary", WK, "--queries", QUERIES
        )
        assert code == EXIT_OK
        assert summary["coverage"] == 1.0

    def test_missing_snapshot_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "coverage", "--source", "wiki_def", "--wiktionary", "/no/such.jsonl",
            "--queries", QUERIES,
        )
        assert code == EXIT_DATA
        assert "/no/such.jsonl" in err

    def test_source_without_snapshot_is_usage_error(self, capsys):
        code, _, err = run(capsys, "coverage", "--source", "wn_def", "--queries", QUERIES)
        assert code == EXIT_USAGE


class TestHypernymCycle:
    @pytest.mark.parametrize("source", ["wn_def", "wn_hier"])
    def test_cycle_is_a_data_error_naming_the_snapshot(self, capsys, tmp_path, source):
        wordnet = tmp_path / "wn.jsonl"
        rows = [{"id": "n0", "lemmas": ["boxer"], "definition": "a fighter", "hypernym_ids": ["n1"]},
                {"id": "n1", "lemmas": ["crowd"], "definition": "many", "hypernym_ids": ["n0"]}]
        wordnet.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(capsys, "coverage", "--source", source, "--wordnet", str(wordnet),
                           "--queries", QUERIES)
        assert code == EXIT_DATA
        assert err.strip().splitlines() == [
            f"data error: {wordnet}: hypernym chain from 'n0' exceeds 32 hops (cycle?)"
        ]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["coverage", "--nope", "x", "--queries", QUERIES]) == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_train_scheme_flag_removed(self, capsys, dataset, tmp_path):
        code = main(["train", "--dataset", str(dataset), "--out-checkpoint",
                     str(tmp_path / "m.json"), "--scheme", "combine"])
        assert code == EXIT_USAGE


    @pytest.mark.parametrize("flag, field", [("--embed-dim", "embed_dim"), ("--heads", "num_heads")])
    def test_zero_encoder_dimension_is_usage_error(self, capsys, dataset, tmp_path, flag, field):
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(tmp_path / "m.json"), flag, "0")
        assert code == EXIT_USAGE
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{field} must be >= 1" in lines[0]
        assert not (tmp_path / "m.json").exists()


class TestAugment:
    def test_deterministic_output(self, capsys, tmp_path, dataset):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code, _, err = run(
                capsys, "augment", "--dataset", str(dataset), "--out", str(out),
                "--wiktionary", WK, "--source", "wiki_def", "--lexicon", LEX,
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_audit_counts(self, capsys, tmp_path, dataset):
        out = tmp_path / "aug.jsonl"
        code, summary, err = run(
            capsys, "augment", "--dataset", str(dataset), "--out", str(out),
            "--wiktionary", WK, "--source", "wiki_def",
        )
        assert code == EXIT_OK
        assert summary["hits"] == 16 and summary["misses"] == 0


# Categories and captions over the fixture vocabulary: hits and misses in
# every source, a case variant sharing a label, and a repeated caption.
MIXED_ROWS = [
    ("boxer", "category"), ("zzgib", "category"), ("Boxer", "category"),
    ("a professional boxer is walking", "caption"),
    ("the big crowd on the red fireplug", "caption"),
    ("a small tench swimming in the water", "caption"),
    ("a zzgib walking", "caption"),
    ("tench", "category"), ("a professional boxer is walking", "caption"),
]


def _write_dataset(path, n_rows, dim=3):
    rng = np.random.default_rng(n_rows)
    with open(path, "w") as handle:
        for i in range(n_rows):
            text, kind = MIXED_ROWS[i % len(MIXED_ROWS)]
            row = {"image": rng.normal(size=dim).tolist(), "text": text, "kind": kind}
            handle.write(json.dumps(row) + "\n")
    return path


def _augment_argv(dataset, out, source="wiki_def", scheme="concat"):
    return ["augment", "--dataset", str(dataset), "--out", str(out), "--wordnet", WN,
            "--wiktionary", WK, "--source", source, "--scheme", scheme, "--lexicon", LEX]


class TestStreamingAugment:
    @pytest.mark.parametrize("scheme", ["concat", "combine"])
    @pytest.mark.parametrize("source", ["wn_hier", "wn_def", "wiki_def"])
    def test_cli_matches_in_memory_augment(self, capsys, tmp_path, store, lexicon, source, scheme):
        dataset = _write_dataset(tmp_path / "ds.jsonl", 2 * len(MIXED_ROWS))
        out = tmp_path / "aug.jsonl"
        code, summary, err = run(capsys, *_augment_argv(dataset, out, source, scheme))
        assert code == EXIT_OK, err
        expected, audit = trainer.augment_dataset(
            trainer.load_dataset_jsonl(dataset), store, source=source, scheme=scheme,
            lexicon=lexicon,
        )
        reference = tmp_path / "reference.jsonl"
        trainer.save_dataset_jsonl(expected, reference)
        assert out.read_bytes() == reference.read_bytes()
        assert {k: summary[k] for k in ("hits", "misses", "emitted")} == audit.to_dict()
        assert audit.hits and audit.misses

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("defect", ["bad_json_last_row", "blank_caption_mid_file"])
    def test_failure_leaves_no_output(self, capsys, tmp_path, defect, existing):
        dataset = _write_dataset(tmp_path / "ds.jsonl", 4 * len(MIXED_ROWS))
        lines = dataset.read_text().splitlines()
        if defect == "bad_json_last_row":
            lines.append('{"image": [0.0, 0.0, 0.0], "text": ')
        else:
            # Pass 1 (the dataset reader) rejects it before any row is written.
            blank = {"image": [0.0, 0.0, 0.0], "text": "   ", "kind": "caption"}
            lines.insert(len(lines) // 2, json.dumps(blank))
        dataset.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "aug.jsonl"
        if existing:
            out.write_text("previous run\n")
        code, _, err = run(capsys, *_augment_argv(dataset, out))
        assert code == EXIT_DATA
        assert len(err.strip().splitlines()) == 1
        assert [p.name for p in out_dir.iterdir()] == (["aug.jsonl"] if existing else [])
        if existing:
            assert out.read_text() == "previous run\n"

    def test_out_may_be_the_dataset(self, capsys, tmp_path):
        dataset = _write_dataset(tmp_path / "ds.jsonl", 2 * len(MIXED_ROWS))
        in_place = tmp_path / "in_place.jsonl"
        in_place.write_bytes(dataset.read_bytes())
        reference = tmp_path / "reference.jsonl"
        assert run(capsys, *_augment_argv(dataset, reference))[0] == EXIT_OK
        assert run(capsys, *_augment_argv(in_place, in_place))[0] == EXIT_OK
        assert in_place.read_bytes() == reference.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ds.jsonl", "in_place.jsonl", "reference.jsonl",
        ]

    def test_memory_is_bounded_by_distinct_texts(self, capsys, tmp_path):
        def peak(n_rows):
            dataset = _write_dataset(tmp_path / f"ds{n_rows}.jsonl", n_rows, dim=16)
            argv = _augment_argv(dataset, tmp_path / f"aug{n_rows}.jsonl", scheme="combine")
            tracemalloc.start()
            try:
                code = main(argv)
                traced_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == EXIT_OK
            return traced_peak

        n = 45 * len(MIXED_ROWS)
        peak(len(MIXED_ROWS))  # warm-up: lazily built module state is not per row
        assert peak(4 * n) < 1.5 * peak(n)


class TestStats:
    def test_stats_output(self, capsys, dataset):
        code, summary, err = run(capsys, "stats", "--dataset", str(dataset), "--lexicon", LEX)
        assert code == EXIT_OK
        assert summary["instances"] == 16
        assert summary["concepts_full"] == 4

    def test_cli_matches_in_memory_stats(self, capsys, tmp_path, lexicon):
        dataset = _write_dataset(tmp_path / "ds.jsonl", 3 * len(MIXED_ROWS))
        code, summary, err = run(capsys, "stats", "--dataset", str(dataset), "--lexicon", LEX,
                                 "--min-freq", "2")
        assert code == EXIT_OK, err
        expected = evaluation.dataset_stats(
            trainer.load_dataset_jsonl(dataset), lexicon=lexicon, min_freq=2
        )
        assert summary == {"command": "stats", **expected}

    def test_memory_is_bounded_by_distinct_texts(self, capsys, tmp_path):
        def peak(n_rows):
            dataset = _write_dataset(tmp_path / f"ds{n_rows}.jsonl", n_rows, dim=16)
            tracemalloc.start()
            try:
                code = main(["stats", "--dataset", str(dataset), "--lexicon", LEX])
                traced_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == EXIT_OK
            return traced_peak

        n = 45 * len(MIXED_ROWS)
        peak(len(MIXED_ROWS))  # warm-up: lazily built module state is not per row
        assert peak(4 * n) < 1.5 * peak(n)


class TestConfigAndEnv:
    def test_config_file_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(f"wiktionary = {WK}\nsource = wiki_def\n")
        code, summary, err = run(
            capsys, "--config", str(cfg), "coverage", "--queries", QUERIES
        )
        assert code == EXIT_OK and summary["coverage"] == 1.0

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code, _, err = run(capsys, "--config", str(cfg), "coverage", "--queries", QUERIES)
        assert code == EXIT_USAGE

    def test_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("source = wn_def\n")
        monkeypatch.setenv("LEXIVIS_SOURCE", "wiki_def")
        monkeypatch.setenv("LEXIVIS_WIKTIONARY", WK)
        code, summary, err = run(capsys, "--config", str(cfg), "coverage", "--queries", QUERIES)
        assert code == EXIT_OK and summary["source"] == "wiki_def"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXIVIS_QUERIES", "/no/such/file")
        code, summary, err = run(
            capsys, "coverage", "--source", "wiki_def", "--wiktionary", WK,
            "--queries", QUERIES,
        )
        assert code == EXIT_OK


class TestTrainEval:
    def test_train_then_eval(self, capsys, tmp_path, dataset):
        ckpt = tmp_path / "model.json"
        trace = tmp_path / "trace.csv"
        code, summary, err = run(
            capsys, "train", "--dataset", str(dataset), "--out-checkpoint", str(ckpt),
            "--trace", str(trace), "--epochs", "4", "--batch-size", "8",
            "--embed-dim", "8", "--hidden-dim", "16", "--vocab-size", "64",
            "--max-tokens", "16", "--adapter-bottleneck", "2", "--seed", "1",
        )
        assert code == EXIT_OK
        assert ckpt.exists() and trace.exists()
        assert summary["steps"] == 8

        images = tmp_path / "eval.jsonl"
        rows = [
            {"image": np.eye(4)[i % 4].tolist(), "label": i % 4} for i in range(8)
        ]
        images.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
        code, summary, err = run(
            capsys, "eval-zeroshot", "--checkpoint", str(ckpt), "--images", str(images),
            "--classes", str(classes), "--with-knowledge", "--wiktionary", WK,
        )
        assert code == EXIT_OK
        assert summary["knowledge_hits"] == 4
        assert 0.0 <= summary["accuracy"] <= 1.0

    def test_eval_report_breakdown(self, capsys, tmp_path, dataset, monkeypatch):
        ckpt = tmp_path / "model.json"
        code, _, err = run(
            capsys, "train", "--dataset", str(dataset), "--out-checkpoint", str(ckpt),
            "--epochs", "2", "--batch-size", "8", "--embed-dim", "8",
            "--hidden-dim", "16", "--vocab-size", "64", "--max-tokens", "16",
            "--adapter-bottleneck", "2",
        )
        assert code == EXIT_OK
        images = tmp_path / "eval.jsonl"
        rows = [{"image": np.eye(4)[i % 4].tolist(), "label": i % 4} for i in range(8)]
        images.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
        concepts = tmp_path / "pretrain.txt"
        concepts.write_text("boxer\ntench\n")
        breakdown = tmp_path / "breakdown.csv"
        out = tmp_path / "report.json"
        encode_calls = []
        encode_images = enc.encode_images

        def counting_encode_images(*args, **kwargs):
            encode_calls.append(1)
            return encode_images(*args, **kwargs)

        monkeypatch.setattr(enc, "encode_images", counting_encode_images)
        code, summary, err = run(
            capsys, "eval-zeroshot", "--checkpoint", str(ckpt), "--images", str(images),
            "--classes", str(classes), "--with-knowledge", "--wiktionary", WK,
            "--pretrain-concepts", str(concepts), "--breakdown-csv", str(breakdown),
            "--dataset-name", "toy4", "--out", str(out),
        )
        assert code == EXIT_OK
        assert len(encode_calls) == 1  # the report reuses the zero-shot predictions
        assert summary["concept_overlap_pct"] == 50.0
        assert summary["knowledge_coverage_pct"] == 100.0
        lines = breakdown.read_text().splitlines()
        assert lines[0] == "dataset,score,concept_overlap,knowledge_coverage"
        assert lines[1].startswith("toy4,")
        payload = json.loads(out.read_text())
        assert set(payload["report"]["per_class_accuracy"]) == {
            "boxer", "tench", "crowd", "fireplug",
        }

    def test_zeroshot_with_knowledge_retrieves_once_per_class(
        self, capsys, tmp_path, checkpoint, monkeypatch
    ):
        queries = []
        retrieve = knowledge.KnowledgeStore.retrieve

        def counting_retrieve(self, query, source):
            queries.append(query)
            return retrieve(self, query, source)

        monkeypatch.setattr(knowledge.KnowledgeStore, "retrieve", counting_retrieve)
        names = ["boxer", "tench", "zzgib"]
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(names))
        images = _write_images(tmp_path / "images.jsonl",
                               [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(3)])
        code, summary, err = run(
            capsys, "eval-zeroshot", "--checkpoint", str(checkpoint), "--images", str(images),
            "--classes", str(classes), "--with-knowledge", "--wiktionary", WK,
        )
        assert code == EXIT_OK, err
        assert sorted(queries) == sorted(names)
        assert summary["knowledge_hits"] == 2
        assert summary["knowledge_coverage_pct"] == 100.0 * (2 / 3)

    def test_out_checkpoint_may_be_the_base_checkpoint(self, capsys, tmp_path, dataset):
        small = ["--dataset", str(dataset), "--epochs", "1", "--batch-size", "8",
                 "--embed-dim", "8", "--hidden-dim", "16", "--vocab-size", "64",
                 "--max-tokens", "16", "--adapter-bottleneck", "2"]
        base, separate = tmp_path / "base.json", tmp_path / "adapters.json"
        assert run(capsys, "train", *small, "--out-checkpoint", str(base))[0] == EXIT_OK
        continual = ["train", *small, "--mode", "continual_adapters",
                     "--base-checkpoint", str(base)]
        assert run(capsys, *continual, "--out-checkpoint", str(separate))[0] == EXIT_OK
        assert run(capsys, *continual, "--out-checkpoint", str(base))[0] == EXIT_OK
        assert base.read_bytes() == separate.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "adapters.json", "base.json", "ds.jsonl",
        ]

    def test_continual_peak_matches_scratch_two_branch(self, capsys, tmp_path):
        # Every row is a knowledge hit, so both modes run every text through
        # the adapter branch; the base checkpoint is all that could differ.
        rng = np.random.default_rng(0)
        rows = [{"image": rng.normal(size=8).tolist(), "text": f"{text} x{i % 50}",
                 "kind": kind, "augmented": True}
                for i, (text, kind) in enumerate(MIXED_ROWS * 8)]
        dataset = _write_images(tmp_path / "ds.jsonl", rows)
        base = str(tmp_path / "base.json")
        common = ["train", "--dataset", str(dataset), "--epochs", "1", "--batch-size", "16"]
        scratch = [*common, "--mode", "scratch_2branch", "--out-checkpoint", base]
        continual = [*common, "--mode", "continual_adapters", "--base-checkpoint", base,
                     "--out-checkpoint", str(tmp_path / "adapters.json")]

        def peak(argv):
            tracemalloc.start()
            try:
                code = main(argv)
                traced_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == EXIT_OK
            return traced_peak

        peak(scratch), peak(continual)  # warm-up: lazily built module state
        assert peak(continual) < 1.01 * peak(scratch)

    @pytest.mark.parametrize("defect", ["bad_json", "short_image"])
    def test_bad_last_row_writes_no_checkpoint(self, capsys, tmp_path, defect):
        dataset = _write_dataset(tmp_path / "ds.jsonl", 2 * len(MIXED_ROWS))
        last = {"bad_json": '{"image": [0.0, 0.0, 0.0], "text": ',
                "short_image": '{"image": [0.0, 0.0], "text": "boxer"}'}[defect]
        with open(dataset, "a") as handle:
            handle.write(last + "\n")
        ckpt, trace = tmp_path / "model.json", tmp_path / "trace.csv"
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(ckpt), "--trace", str(trace), "--epochs", "1")
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{dataset}:{2 * len(MIXED_ROWS) + 1}: " in lines[0]
        assert not ckpt.exists() and not trace.exists()

    def test_memory_is_bounded_by_distinct_texts(self, capsys, tmp_path):
        def peak(n_rows):
            dataset = _write_dataset(tmp_path / f"ds{n_rows}.jsonl", n_rows)
            tracemalloc.start()
            try:
                code = main(["train", "--dataset", str(dataset), "--out-checkpoint",
                             str(tmp_path / "model.json"), "--epochs", "1", "--batch-size", "64"])
                traced_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == EXIT_OK
            return traced_peak

        n = 150 * len(MIXED_ROWS)
        peak(len(MIXED_ROWS))  # warm-up: lazily built module state is not per row
        assert peak(4 * n) < 1.5 * peak(n)

    def test_train_determinism_fieldwise(self, capsys, tmp_path, dataset):
        checkpoints = []
        for name in ("m1.json", "m2.json"):
            ckpt = tmp_path / name
            code, _, err = run(
                capsys, "train", "--dataset", str(dataset), "--out-checkpoint", str(ckpt),
                "--epochs", "2", "--batch-size", "8", "--embed-dim", "8",
                "--hidden-dim", "16", "--vocab-size", "64", "--max-tokens", "16",
                "--adapter-bottleneck", "2", "--seed", "7",
            )
            assert code == EXIT_OK
            checkpoints.append(json.loads(ckpt.read_text()))
        assert checkpoints[0] == checkpoints[1]


class TestGrounding:
    def test_knowledge_texts_fit_max_tokens_in_train_and_eval(self, capsys, tmp_path):
        # Fixture definitions are longer than the 7-word budget of --max-tokens 8:
        # train and eval must trim them the same way.
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd", "fireplug"]))
        regions = tmp_path / "regions.jsonl"
        row = {"image_id": "a", "features": np.eye(3, 8).tolist(), "targets": np.eye(3).tolist()}
        regions.write_text(json.dumps(row) + "\n")
        ckpt = tmp_path / "ground.json"
        knowledge = ["--max-tokens", "8", "--with-knowledge", "--wiktionary", WK]
        code, _, err = run(
            capsys, "ground-train", "--regions", str(regions), "--classes", str(classes),
            "--out-checkpoint", str(ckpt), "--epochs", "2", "--embed-dim", "8",
            "--hidden-dim", "16", "--vocab-size", "64", "--adapter-bottleneck", "2", *knowledge,
        )
        assert code == EXIT_OK, err
        code, summary, err = run(
            capsys, "ground-eval", "--checkpoint", str(ckpt), "--regions", str(regions),
            "--classes", str(classes), *knowledge[2:],
        )
        assert code == EXIT_OK, err
        assert summary["n_images"] == 1

    def _ground_files(self, tmp_path, names):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(names))
        regions = tmp_path / "regions.jsonl"
        rows = [
            {"image_id": f"im{i}", "features": np.eye(len(names), 8).tolist(),
             "targets": np.eye(len(names)).tolist()}
            for i in range(3)
        ]
        regions.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return classes, regions

    def test_over_budget_class_rejected_by_train_and_eval(self, capsys, tmp_path):
        long_name = " ".join(f"w{i}" for i in range(12))
        classes, regions = self._ground_files(tmp_path, ["boxer", long_name])
        cfg = enc.EncoderConfig(embed_dim=8, text_layers=1, hidden_dim=16, vocab_size=64,
                                max_tokens=8, adapter_bottleneck=2, image_input_dim=8)
        ckpt = tmp_path / "ground.json"
        enc.save_checkpoint(enc.init_params(cfg, seed=0), ckpt)
        out = tmp_path / "trained.json"
        train = ["ground-train", "--regions", str(regions), "--classes", str(classes),
                 "--out-checkpoint", str(out), "--epochs", "1", "--embed-dim", "8",
                 "--hidden-dim", "16", "--vocab-size", "64", "--adapter-bottleneck", "2",
                 "--max-tokens", "8"]
        evaluate = ["ground-eval", "--checkpoint", str(ckpt), "--regions", str(regions),
                    "--classes", str(classes)]
        errors = []
        for argv in (train, evaluate):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_DATA
            errors.append(err.strip().splitlines())
        assert errors[0] == errors[1]
        (line,) = errors[0]
        assert repr(long_name) in line and "12 tokens; max is 7" in line
        assert not out.exists()

    def test_eval_encodes_the_phrase_bank_once(self, capsys, tmp_path, monkeypatch):
        classes, regions = self._ground_files(tmp_path, ["boxer", "crowd", "fireplug"])
        cfg = enc.EncoderConfig(embed_dim=8, text_layers=1, hidden_dim=16, vocab_size=64,
                                max_tokens=8, adapter_bottleneck=2, image_input_dim=8)
        ckpt = tmp_path / "ground.json"
        enc.save_checkpoint(enc.init_params(cfg, seed=0), ckpt)
        calls = []
        encode = grounding.encode_phrases_parallel

        def counting(*args, **kwargs):
            calls.append(args)
            return encode(*args, **kwargs)

        monkeypatch.setattr(grounding, "encode_phrases_parallel", counting)
        code, summary, err = run(capsys, "ground-eval", "--checkpoint", str(ckpt),
                                 "--regions", str(regions), "--classes", str(classes))
        assert code == EXIT_OK, err
        assert summary["n_images"] == 3
        assert len(calls) == 1


@pytest.fixture
def checkpoint(tmp_path):
    cfg = enc.EncoderConfig(embed_dim=4, text_layers=1, hidden_dim=8, vocab_size=16,
                            max_tokens=8, adapter_bottleneck=2, image_input_dim=4)
    path = tmp_path / "model.json"
    enc.save_checkpoint(enc.init_params(cfg, seed=0), path)
    return path


class TestMalformedJsonl:
    @pytest.mark.parametrize("row", ["5", "[1, 2]", "not json"])
    @pytest.mark.parametrize("command", ["stats", "ground-eval", "eval-probe"])
    def test_bad_row_is_data_error_with_location(self, capsys, tmp_path, checkpoint, command, row):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(row + "\n")
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer"]))
        argv = {
            "stats": ["stats", "--dataset", str(bad)],
            "ground-eval": ["ground-eval", "--checkpoint", str(checkpoint), "--regions", str(bad),
                            "--classes", str(classes)],
            "eval-probe": ["eval-probe", "--checkpoint", str(checkpoint), "--images", str(bad)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{bad}:1" in lines[0]


class TestClassList:
    @pytest.mark.parametrize("content", ["5", "{}", "[]", "not json", "[1, null]", '["boxer", 2]'])
    @pytest.mark.parametrize("command", ["eval-zeroshot", "ground-train", "ground-eval"])
    def test_bad_class_list_is_data_error(self, capsys, tmp_path, checkpoint, command, content):
        classes = tmp_path / "classes.json"
        classes.write_text(content)
        images = tmp_path / "images.jsonl"
        images.write_text(json.dumps({"image": [1.0, 0.0, 0.0, 0.0], "label": 0}) + "\n")
        regions = tmp_path / "regions.jsonl"
        row = {"image_id": "a", "features": np.eye(1, 4).tolist(), "targets": [[1]]}
        regions.write_text(json.dumps(row) + "\n")
        argv = {
            "eval-zeroshot": ["eval-zeroshot", "--checkpoint", str(checkpoint),
                              "--images", str(images)],
            "ground-train": ["ground-train", "--regions", str(regions), "--embed-dim", "4",
                             "--out-checkpoint", str(tmp_path / "g.json")],
            "ground-eval": ["ground-eval", "--checkpoint", str(checkpoint),
                            "--regions", str(regions)],
        }[command]
        code, _, err = run(capsys, *argv, "--classes", str(classes))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and str(classes) in lines[0]


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("command", ["eval-probe", "ground-eval"])
    def test_missing_tensor_is_data_error(self, capsys, tmp_path, checkpoint, command):
        payload = json.loads(checkpoint.read_text())
        del payload["tensors"]["lnf.g"]
        checkpoint.write_text(json.dumps(payload))
        images = tmp_path / "images.jsonl"
        images.write_text(json.dumps({"image": [1.0, 0.0, 0.0, 0.0], "label": 0}) + "\n")
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer"]))
        argv = {
            "eval-probe": ["eval-probe", "--checkpoint", str(checkpoint), "--images", str(images)],
            "ground-eval": ["ground-eval", "--checkpoint", str(checkpoint),
                            "--regions", str(images), "--classes", str(classes)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "lnf.g" in lines[0]


def _write_images(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestEvalDefects:
    @pytest.mark.parametrize("bad_label", [4, -1])
    def test_zeroshot_label_outside_class_list(self, capsys, tmp_path, checkpoint, bad_label):
        rows = [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(4)]
        rows[2]["label"] = bad_label
        images = _write_images(tmp_path / "images.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
        code, _, err = run(capsys, "eval-zeroshot", "--checkpoint", str(checkpoint),
                           "--images", str(images), "--classes", str(classes))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and str(images) in lines[0] and "4 classes" in lines[0]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["eval-zeroshot", "eval-probe"])
    def test_non_finite_feature_has_location(self, capsys, tmp_path, checkpoint, command, value):
        images = tmp_path / "images.jsonl"
        images.write_text(
            '{"image": [1.0, 0.0, 0.0, 0.0], "label": 0}\n'
            f'{{"image": [0.0, {value}, 0.0, 0.0], "label": 0}}\n'
        )
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer"]))
        argv = [command, "--checkpoint", str(checkpoint), "--images", str(images)]
        if command == "eval-zeroshot":
            argv += ["--classes", str(classes)]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{images}:2" in lines[0]

    def test_probe_class_too_small_names_the_file_and_label(self, capsys, tmp_path, checkpoint):
        rows = [{"image": np.eye(4)[i % 2].tolist(), "label": i % 2} for i in range(6)]
        rows.append({"image": np.eye(4)[3].tolist(), "label": 7})
        images = _write_images(tmp_path / "images.jsonl", rows)
        code, _, err = run(capsys, "eval-probe", "--checkpoint", str(checkpoint),
                           "--images", str(images), "--shots", "1")
        assert code == EXIT_DATA
        assert err.strip().splitlines() == [
            f"data error: {images}: class 7 has 1 examples; needs > 1 "
            "to leave a held-out remainder"
        ]

    @pytest.mark.parametrize("command", ["eval-zeroshot", "eval-probe"])
    def test_zero_norm_feature_is_numerics_error(self, capsys, tmp_path, checkpoint, command):
        payload = json.loads(checkpoint.read_text())
        for name in ("img.W2", "img.b2"):
            tensor = payload["tensors"][name]
            tensor["data"] = [0.0] * len(tensor["data"])
        checkpoint.write_text(json.dumps(payload))
        rows = [{"image": np.eye(4)[i % 2].tolist(), "label": i % 2} for i in range(8)]
        images = _write_images(tmp_path / "images.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench"]))
        argv = [command, "--checkpoint", str(checkpoint), "--images", str(images)]
        if command == "eval-zeroshot":
            argv += ["--classes", str(classes)]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "zero-norm" in lines[0]


    def test_zero_norm_class_text_is_numerics_error(self, capsys, tmp_path, checkpoint):
        # Zero final layer norm: every text encodes to the zero vector. The
        # unchecked division scored every image as class 0 (accuracy 0.25).
        payload = json.loads(checkpoint.read_text())
        for name in ("lnf.g", "lnf.b"):
            tensor = payload["tensors"][name]
            tensor["data"] = [0.0] * len(tensor["data"])
        checkpoint.write_text(json.dumps(payload))
        rows = [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(4)]
        images = _write_images(tmp_path / "images.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
        code, _, err = run(capsys, "eval-zeroshot", "--checkpoint", str(checkpoint),
                           "--images", str(images), "--classes", str(classes))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "'boxer'" in lines[0] and "zero-norm" in lines[0]


def _region_rows(n_classes, n_rows=3, width=4):
    return [
        {"image_id": f"im{i}", "features": np.eye(2, width).tolist(),
         "targets": np.eye(2, n_classes).tolist()}
        for i in range(n_rows)
    ]


def _ground_argv(command, regions, classes, checkpoint, out):
    if command == "ground-train":
        return ["ground-train", "--regions", str(regions), "--classes", str(classes),
                "--out-checkpoint", str(out), "--embed-dim", "4", "--hidden-dim", "8",
                "--vocab-size", "16", "--adapter-bottleneck", "2", "--epochs", "1"]
    return ["ground-eval", "--checkpoint", str(checkpoint), "--regions", str(regions),
            "--classes", str(classes), "--out", str(out)]


class TestRowWidths:
    """Rows of one file agree on their widths; a row that does not is located."""

    @pytest.mark.parametrize("defect", ["wide", "narrow", "ragged"])
    @pytest.mark.parametrize("command", ["ground-train", "ground-eval"])
    def test_targets_need_one_column_per_class(
        self, capsys, tmp_path, checkpoint, command, defect
    ):
        # With 3-column targets and 2 classes, ground-eval reported accuracy 0.5.
        rows = _region_rows(2)
        rows[1]["targets"] = {
            "wide": np.eye(2, 3).tolist(), "narrow": [[1], [0]], "ragged": [[1, 0], [0]],
        }[defect]
        regions = _write_images(tmp_path / "regions.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, *_ground_argv(command, regions, classes, checkpoint, out))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{regions}:2: targets" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ground-train", "ground-eval"])
    def test_region_feature_widths_agree(self, capsys, tmp_path, checkpoint, command):
        rows = _region_rows(2)
        rows[2]["features"] = np.eye(2, 3).tolist()
        regions = _write_images(tmp_path / "regions.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, *_ground_argv(command, regions, classes, checkpoint, out))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{regions}:3: features width is 3, expected 4" in lines[0]

    @pytest.mark.parametrize("command", ["augment", "stats", "train", "eval-probe"])
    def test_image_lengths_agree(self, capsys, tmp_path, dataset, checkpoint, command):
        rows = [json.loads(line) for line in dataset.read_text().splitlines()]
        rows[5]["image"] = rows[5]["image"][:3]
        for i, row in enumerate(rows):
            row["label"] = i % 4
        _write_images(dataset, rows)
        out = tmp_path / "out.json"
        argv = {
            "augment": ["augment", "--dataset", str(dataset), "--out", str(out),
                        "--wiktionary", WK],
            "stats": ["stats", "--dataset", str(dataset), "--out", str(out)],
            "train": ["train", "--dataset", str(dataset), "--out-checkpoint", str(out),
                      "--embed-dim", "4", "--hidden-dim", "8", "--vocab-size", "16",
                      "--adapter-bottleneck", "2", "--epochs", "1"],
            "eval-probe": ["eval-probe", "--checkpoint", str(checkpoint),
                           "--images", str(dataset)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{dataset}:6: image width is 3, expected 4" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["train", "eval-zeroshot", "eval-probe", "ground-train", "ground-eval"]
    )
    def test_first_row_width_must_match_the_model(self, capsys, tmp_path, checkpoint, command):
        # The checkpoint (and ground-train's --embed-dim) expects width 4.
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        out = tmp_path / "out.json"
        if command.startswith("ground"):
            path = _write_images(tmp_path / "regions.jsonl", _region_rows(2, width=5))
            argv, what = _ground_argv(command, path, classes, checkpoint, out), "features"
        else:
            rows = [{"image": [0.5, 0.25, 1.0], "text": "boxer", "label": i % 2}
                    for i in range(4)]
            path = _write_images(tmp_path / "images.jsonl", rows)
            argv, what = {
                "train": ["train", "--mode", "continual_adapters", "--base-checkpoint",
                          str(checkpoint), "--dataset", str(path), "--out-checkpoint", str(out),
                          "--epochs", "1"],
                "eval-zeroshot": ["eval-zeroshot", "--checkpoint", str(checkpoint),
                                  "--images", str(path), "--classes", str(classes),
                                  "--out", str(out)],
                "eval-probe": ["eval-probe", "--checkpoint", str(checkpoint),
                               "--images", str(path)],
            }[command], "image"
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        width = 5 if what == "features" else 3
        assert len(lines) == 1 and f"{path}:1: {what} width is {width}, expected 4" in lines[0]
        assert not out.exists()


class TestInputContract:
    """Every input file is read under one contract: located errors, no empty files."""

    @pytest.mark.parametrize("field, value", [
        ("origin_text", 5), ("label", [1, 2]), ("augmented", "false"),
    ])
    def test_dataset_field_types_are_located(self, capsys, tmp_path, field, value):
        dataset = _write_images(tmp_path / "ds.jsonl", [
            {"image": [1.0, 0.0], "text": "boxer", field: value},
            {"image": [0.0, 1.0], "text": "tench", field: value},
        ])
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(tmp_path / "m.json"), "--mode", "scratch_2branch",
                           "--batch-size", "2", "--epochs", "1")
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{dataset}:1: {field}" in lines[0]

    def test_ground_train_names_the_row_without_targets(self, capsys, tmp_path):
        rows = _region_rows(2)
        rows[1]["targets"] = None
        regions = _write_images(tmp_path / "regions.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, *_ground_argv("ground-train", regions, classes, None, out))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{regions}: image_id 'im1' has no targets" in lines[0]

    # Each was accepted: coverage 0.0, every token a NOUN, a null overlap.
    @pytest.mark.parametrize("empty_input", ["snapshot", "lexicon", "pretrain_concepts"])
    def test_empty_input_is_a_data_error(self, capsys, tmp_path, dataset, checkpoint, empty_input):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n \n")
        images = _write_images(tmp_path / "images.jsonl",
                               [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(4)])
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
        argv = {
            "snapshot": ["coverage", "--source", "wn_def", "--wordnet", str(empty),
                         "--queries", QUERIES],
            "lexicon": ["stats", "--dataset", str(dataset), "--lexicon", str(empty)],
            "pretrain_concepts": ["eval-zeroshot", "--checkpoint", str(checkpoint),
                                  "--images", str(images), "--classes", str(classes),
                                  "--pretrain-concepts", str(empty)],
        }[empty_input]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{empty}: no " in lines[0]

    def test_missing_list_file_names_the_path(self, capsys, tmp_path):
        absent = tmp_path / "absent.txt"
        code, _, err = run(capsys, "coverage", "--wiktionary", WK, "--queries", str(absent))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and str(absent) in lines[0]

    def test_continual_adapters_without_base_is_a_config_error(self, capsys, tmp_path, dataset):
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(tmp_path / "m.json"), "--mode", "continual_adapters")
        assert code == EXIT_USAGE
        assert "base checkpoint" in err

    def test_non_utf8_class_list_names_the_file(self, capsys, tmp_path, checkpoint):
        classes = tmp_path / "classes.json"
        classes.write_bytes(b'["caf\xe9"]')
        regions = _write_images(tmp_path / "regions.jsonl", _region_rows(1))
        code, _, err = run(capsys, "ground-eval", "--checkpoint", str(checkpoint),
                           "--regions", str(regions), "--classes", str(classes))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{classes}: not UTF-8 text" in lines[0]


class TestFlagRanges:
    """A flag out of range is one config error line (exit 1), raised before any input is read.

    Every input path is absent: reading one first would be a data error (exit 2).
    """

    @pytest.mark.parametrize("flags", [
        ["eval-probe", "--shots", "0"],
        ["eval-probe", "--probe-seeds", "0"],
        ["eval-probe", "--probe-seeds", "-1"],
        ["bench-synth", "--n-seeds", "0"],
        ["bench-synth", "--n-seeds", "-2"],
        ["bench-synth", "--common-classes", "99"],
        ["bench-synth", "--rare-classes", "0"],
        ["ground-train", "--focal-alpha", "2"],
        ["ground-train", "--focal-alpha", "2", "--epochs", "0"],
        ["ground-train", "--focal-gamma", "-1"],
        ["train", "--base-checkpoint", "ABSENT"],
        ["train", "--mode", "scratch_2branch", "--base-checkpoint", "ABSENT"],
        ["train", "--mode", "continual_adapters"],
    ], ids=" ".join)
    def test_config_error_before_any_input_is_read(self, capsys, tmp_path, flags):
        absent, out = str(tmp_path / "absent"), str(tmp_path / "out.json")
        inputs = {
            "eval-probe": ["--checkpoint", absent, "--images", absent],
            "bench-synth": ["--out", out],
            "ground-train": ["--regions", absent, "--classes", absent, "--out-checkpoint", out],
            "train": ["--dataset", absent, "--out-checkpoint", out],
        }[flags[0]]
        argv = [absent if flag == "ABSENT" else flag for flag in flags]
        code, _, err = run(capsys, *argv, *inputs)
        assert code == EXIT_USAGE
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), err
        assert list(tmp_path.iterdir()) == []


class TestAtomicOutputs:
    def test_every_output_file_is_written_atomically(self, capsys, tmp_path, dataset, monkeypatch):
        opened = []
        real_atomic_open = knowledge.atomic_open

        def recording_atomic_open(path):
            opened.append(str(path))
            return real_atomic_open(path)

        for module in (cli, enc, evaluation, trainer):
            monkeypatch.setattr(module, "atomic_open", recording_atomic_open)
        out = tmp_path / "out"
        out.mkdir()
        ckpt = str(out / "model.json")
        small = ["--embed-dim", "4", "--hidden-dim", "8", "--vocab-size", "32",
                 "--max-tokens", "8", "--adapter-bottleneck", "2"]
        images = _write_images(
            tmp_path / "images.jsonl",
            [{"image": np.eye(4)[i % 4].tolist(), "label": i % 4} for i in range(8)],
        )
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
        regions = tmp_path / "regions.jsonl"
        row = {"image_id": "a", "features": np.eye(4).tolist(), "targets": np.eye(4).tolist()}
        regions.write_text(json.dumps(row) + "\n")
        commands = [
            ["augment", "--dataset", str(dataset), "--wiktionary", WK,
             "--out", str(out / "aug.jsonl")],
            ["stats", "--dataset", str(dataset), "--out", str(out / "stats.json")],
            ["train", "--dataset", str(dataset), "--out-checkpoint", ckpt, "--epochs", "1",
             "--trace", str(out / "train.csv"), *small],
            ["eval-zeroshot", "--checkpoint", ckpt, "--images", str(images),
             "--classes", str(classes), "--out", str(out / "zs.json"),
             "--breakdown-csv", str(out / "breakdown.csv")],
            ["ground-train", "--regions", str(regions), "--classes", str(classes),
             "--out-checkpoint", str(out / "ground.json"), "--epochs", "1",
             "--trace", str(out / "ground.csv"), *small],
            ["ground-eval", "--checkpoint", str(out / "ground.json"), "--regions", str(regions),
             "--classes", str(classes), "--out", str(out / "ground_eval.json")],
            ["bench-synth", "--n-seeds", "1", "--epochs", "1", "--common-classes", "2",
             "--rare-classes", "2", "--train-per-class", "2", "--eval-per-class", "1",
             "--out", str(out / "bench.json")],
        ]
        summaries = {}
        for argv in commands:
            code, summary, err = run(capsys, *argv)
            assert code == EXIT_OK, err
            summaries[argv[0]] = summary
        written = sorted(p.name for p in out.iterdir())
        assert sorted(opened) == sorted(str(out / name) for name in written)
        assert written == [
            "aug.jsonl", "bench.json", "breakdown.csv", "ground.csv", "ground.json",
            "ground_eval.json", "model.json", "stats.json", "train.csv", "zs.json",
        ]
        stats = {k: v for k, v in summaries["stats"].items() if k != "command"}
        assert (out / "stats.json").read_text() == json.dumps(stats, indent=2, sort_keys=True) + "\n"
        ground_trace = (out / "ground.csv").read_text().splitlines()
        assert ground_trace[0] == "step,focal_loss" and len(ground_trace) == 2


class TestBench:
    def test_tiny_bench_runs(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        code, summary, err = run(
            capsys, "bench-synth", "--n-seeds", "1", "--epochs", "2",
            "--common-classes", "4", "--rare-classes", "4",
            "--train-per-class", "4", "--eval-per-class", "2", "--out", str(out),
        )
        assert code == EXIT_OK
        assert out.exists()
        assert set(summary["mean_cells"]) == {
            "train_nok_eval_nok", "train_nok_eval_k", "train_k_eval_nok", "train_k_eval_k",
        }
