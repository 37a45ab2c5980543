import argparse
import ast
import csv
import inspect
import json
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lexivis import cli, compose, encoder as enc, evaluation, grounding, knowledge, synth, trainer
from lexivis.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from lexivis.errors import ConfigError, DataError, NumericsError
from tests.conftest import FIXTURES, ROOT

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

    def test_byte_order_mark_is_not_part_of_a_query(self, capsys, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_bytes(b"\xef\xbb\xbfboxer\ntench\n")
        code, summary, err = run(capsys, "coverage", "--source", "wiki_def", "--wiktionary", WK,
                                 "--queries", str(queries))
        assert code == EXIT_OK, err
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

    def test_source_loads_only_its_snapshot(self, capsys, tmp_path, opened_paths):
        # The unused --wordnet file is not UTF-8: loading it would fail the run.
        wordnet = tmp_path / "wn.jsonl"
        wordnet.write_bytes(b"\xff\n")
        opened_paths.clear()
        code, summary, _ = run(capsys, "coverage", "--source", "wiki_def", "--wiktionary", WK,
                               "--wordnet", str(wordnet), "--queries", QUERIES)
        assert code == EXIT_OK and summary["coverage"] == 1.0
        assert str(wordnet) not in opened_paths


def _synset(sid, lemma, *hypernym_ids):
    return {"id": sid, "lemmas": [lemma], "definition": "a " + lemma,
            "hypernym_ids": list(hypernym_ids)}


class TestHypernymCycle:
    """A defect between snapshot rows (a cycle, a repeated key or a dangling hypernym) is a
    data error naming the snapshot file, not a row."""

    @pytest.mark.parametrize("source, rows, message", [
        ("wn_def", [_synset("n0", "boxer", "n1"), _synset("n1", "crowd", "n0")],
         "hypernym chain from 'n0' exceeds 32 hops (cycle?)"),
        ("wn_hier", [_synset("n0", "boxer", "n1"), _synset("n1", "crowd", "n0")],
         "hypernym chain from 'n0' exceeds 32 hops (cycle?)"),
        ("wn_def", [_synset("n0", "boxer"), _synset("n0", "crowd")], "duplicate synset id 'n0'"),
        ("wn_hier", [_synset("n0", "boxer", "n9")],
         "synset 'n0' references unknown hypernym id 'n9'"),
        ("wiki_def", [{"term": "boxer", "senses": ["a fighter"]},
                      {"term": "boxer", "senses": ["a dog"]}], "duplicate dictionary term 'boxer'"),
    ], ids=["wn_def", "wn_hier", "duplicate_id", "unknown_hypernym", "duplicate_term"])
    def test_cycle_is_a_data_error_naming_the_snapshot(self, capsys, tmp_path, source, rows,
                                                       message):
        snapshot = tmp_path / "snapshot.jsonl"
        snapshot.write_text("".join(json.dumps(r) + "\n" for r in rows))
        flag = "--wiktionary" if source == "wiki_def" else "--wordnet"
        code, _, err = run(capsys, "coverage", "--source", source, flag, str(snapshot),
                           "--queries", QUERIES)
        assert code == EXIT_DATA
        assert err.strip().splitlines() == [f"data error: {snapshot}: {message}"]


class TestBlankKnowledge:
    """A blank sense, definition or lemma would compose an empty hit, and a blank term
    would be a key no query reaches; its snapshot is refused."""

    @pytest.mark.parametrize("source, row, message", [
        ("wiki_def", {"term": " ", "senses": ["a fighter"]}, "term is blank"),
        ("wiki_def", {"term": "boxer", "senses": ["a fighter", "  "]},
         "senses must not hold a blank string"),
        ("wn_def", {"id": "n1", "lemmas": ["boxer"], "definition": " ", "hypernym_ids": []},
         "definition is blank"),
        ("wn_hier", {"id": "n1", "lemmas": ["boxer", ""], "definition": "a fighter",
                     "hypernym_ids": []}, "lemmas must not hold a blank string"),
    ], ids=["term", "sense", "definition", "lemma"])
    def test_blank_knowledge_is_a_snapshot_error(self, capsys, tmp_path, source, row, message):
        snapshot = tmp_path / "snapshot.jsonl"
        valid = ({"term": "crowd", "senses": ["many people"]} if source == "wiki_def" else
                 {"id": "n0", "lemmas": ["crowd"], "definition": "many", "hypernym_ids": []})
        snapshot.write_text(json.dumps(valid) + "\n" + json.dumps(row) + "\n")
        flag = "--wiktionary" if source == "wiki_def" else "--wordnet"
        code, _, err = run(capsys, "coverage", "--source", source, flag, str(snapshot),
                           "--queries", QUERIES)
        assert code == EXIT_DATA
        assert err.strip().splitlines() == [f"data error: {snapshot}:2: {message}"]


class TestSnapshotKeys:
    """Snapshot keys are made with the rule their lookup reads queries with."""

    @pytest.mark.parametrize("source, rows, queries", [
        ("wiki_def", [{"term": " boxer", "senses": ["a fighter"]},
                      {"term": "crowd", "senses": ["many people"]}], "boxer\ncrowd\n"),
        ("wn_def", [{"id": "n0", "lemmas": ["boxer "], "definition": "a fighter",
                     "hypernym_ids": []},
                    {"id": "n1", "lemmas": ["causal agent"], "definition": "a cause",
                     "hypernym_ids": []}], "boxer\ncausal agent\n"),
    ], ids=["wiktionary", "wordnet"])
    def test_keys_with_stray_or_inner_whitespace_are_reached(
        self, capsys, tmp_path, source, rows, queries
    ):
        snapshot = tmp_path / "snapshot.jsonl"
        snapshot.write_text("".join(json.dumps(r) + "\n" for r in rows))
        query_file = tmp_path / "queries.txt"
        query_file.write_text(queries)
        flag = "--wiktionary" if source == "wiki_def" else "--wordnet"
        code, summary, _ = run(capsys, "coverage", "--source", source, flag, str(snapshot),
                               "--queries", str(query_file))
        assert code == EXIT_OK and summary["coverage"] == 1.0

    @pytest.mark.parametrize("second, shown", [("boxer", "'boxer'"), ("Boxer  ", "'Boxer  '")],
                             ids=["same", "same-when-normalized"])
    def test_duplicate_term_is_a_snapshot_error(self, capsys, tmp_path, second, shown):
        snapshot = tmp_path / "wk.jsonl"
        rows = [{"term": "boxer", "senses": ["a fighter"]}, {"term": second, "senses": ["a dog"]}]
        snapshot.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(capsys, "coverage", "--source", "wiki_def", "--wiktionary",
                           str(snapshot), "--queries", QUERIES)
        assert code == EXIT_DATA
        assert _one_line(err) == f"data error: {snapshot}: duplicate dictionary term {shown}"


class TestLexicon:
    @pytest.mark.parametrize("line, message", [
        ("boxer NOUN", "expected 'token<TAB>TAG'"),
        ("boxer\tNOUN\tADJ", "expected 'token<TAB>TAG'"),
        ("boxer\tVERB", "unknown tag 'VERB'"),
        ("ice cream\tNOUN", "'ice cream' is not one token"),
        (".\tOTHER", "'.' is not one token"),
    ], ids=["no-tab", "two-tabs", "unknown-tag", "two-tokens", "no-token"])
    def test_bad_lexicon_row_is_located(self, capsys, tmp_path, dataset, line, message):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(f"the\tDET\n{line}\n")
        code, _, err = run(capsys, "stats", "--dataset", str(dataset), "--lexicon", str(lexicon))
        assert code == EXIT_DATA
        assert _one_line(err) == f"data error: {lexicon}:2: {message}"

    def test_duplicate_token_is_located(self, capsys, tmp_path, dataset):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("dr.\tOTHER\nthe\tDET\nDr\tNOUN\n")
        code, _, err = run(capsys, "stats", "--dataset", str(dataset), "--lexicon", str(lexicon))
        assert code == EXIT_DATA
        assert _one_line(err) == (
            f"data error: {lexicon}:3: token 'dr' is already listed at {lexicon}:1")


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

    def test_train_source_flag_removed(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "m.json"
        train = ["train", "--dataset", str(dataset), "--out-checkpoint", str(ckpt)]
        code, _, err = run(capsys, *train, "--source", "wiki_def")
        assert code == EXIT_USAGE
        assert _one_line(err) == "usage error: unrecognized arguments: --source wiki_def"
        cfg = tmp_path / "train.cfg"
        cfg.write_text("source = wiki_def\n")
        code, _, err = run(capsys, "--config", str(cfg), *train)
        assert code == EXIT_USAGE
        assert _one_line(err) == f"config error: {cfg}:1: unknown config key 'source'"
        code, _, err = run(capsys, *train, "--epochs", "1", "--seed", "3")
        assert code == EXIT_OK, err
        assert json.loads(ckpt.read_text())["meta"] == {"mode": "scratch_1branch", "seed": 3}

    def test_every_readme_command_parses(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
        commands = [shlex.split(line, comments=True)
                    for line in "".join(blocks).replace("\\\n", " ").splitlines()
                    if line.startswith("lexivis ")]
        parser = cli.build_parser()
        for argv in commands:
            assert parser.parse_args(argv[1:]).fn, argv
        assert {argv[1] for argv in commands} == set(parser.subcommands)

    @pytest.mark.parametrize("flag, field", [("--embed-dim", "embed_dim"), ("--heads", "num_heads")])
    def test_zero_encoder_dimension_is_usage_error(self, capsys, dataset, tmp_path, flag, field):
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(tmp_path / "m.json"), flag, "0")
        assert code == EXIT_USAGE
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{field} must be >= 1" in lines[0]
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("error, line, exit_code", [
    (cli._UsageError("bad"), "usage error: bad", EXIT_USAGE),
    (ConfigError("bad"), "config error: bad", EXIT_USAGE),
    (DataError("bad"), "data error: bad", EXIT_DATA),
    (OSError("bad"), "data error: bad", EXIT_DATA),
    (ValueError("bad"), "data error: bad", EXIT_DATA),
    (NumericsError("bad", {"step": 3}), "error: bad (training step 3)", EXIT_DATA),
    (NumericsError("bad"), "error: bad", EXIT_DATA),
    (FloatingPointError("overflow encountered in power"),
     "error: overflow encountered in power", EXIT_DATA),
], ids=["usage", "config", "data", "os", "value", "numerics-step", "numerics", "floating-point"])
def test_exit_table(capsys, monkeypatch, error, line, exit_code):
    def raising(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_coverage", raising)  # before main builds the parser
    code, _, err = run(capsys, "coverage", "--wiktionary", WK, "--queries", QUERIES)
    assert code == exit_code
    assert _one_line(err) == line


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

    def test_class_row_whose_budget_keeps_no_knowledge_is_a_miss(self, capsys, tmp_path):
        # "a photo of a boxer, boxer" fills the 6 words a 7-token budget leaves.
        dataset = tmp_path / "ds.jsonl"
        dataset.write_text(json.dumps({"image": [1.0, 0.0], "text": "boxer"}) + "\n")
        rows = {}
        for max_tokens in ("7", "8"):
            out = tmp_path / f"aug{max_tokens}.jsonl"
            code, summary, err = run(capsys, "augment", "--dataset", str(dataset), "--out",
                                     str(out), "--wiktionary", WK, "--source", "wiki_def",
                                     "--max-tokens", max_tokens)
            assert code == EXIT_OK, err
            rows[max_tokens] = (json.loads(out.read_text()), summary)
        row, summary = rows["7"]
        assert (row["text"], row["augmented"]) == ("a photo of a boxer", False)
        assert {k: summary[k] for k in ("hits", "misses", "emitted")} == {
            "hits": 0, "misses": 1, "emitted": 1}
        row, summary = rows["8"]
        assert row["augmented"] and row["text"].startswith("a photo of a boxer, boxer, ")
        assert (summary["hits"], summary["misses"]) == (1, 0)

    def test_class_whose_prompt_overflows_the_budget_is_evals_data_error(self, capsys, tmp_path):
        # "a photo of a boxer" is 5 tokens; --max-tokens 3 leaves room for 2.
        dataset, out = tmp_path / "ds.jsonl", tmp_path / "aug.jsonl"
        dataset.write_text(json.dumps({"image": [1.0, 0.0], "text": "boxer"}) + "\n")
        code, _, err = run(capsys, "augment", "--dataset", str(dataset), "--out", str(out),
                           "--wiktionary", WK, "--source", "wiki_def", "--max-tokens", "3")
        cfg = enc.EncoderConfig(embed_dim=4, text_layers=1, hidden_dim=8, vocab_size=64,
                                max_tokens=3, adapter_bottleneck=2, image_input_dim=2)
        store = knowledge.KnowledgeStore(wiktionary=knowledge.load_wiktionary_snapshot(WK))
        with pytest.raises(DataError) as eval_error:
            evaluation.build_class_embeddings(enc.init_params(cfg, seed=0), ["boxer"],
                                              store=store, source="wiki_def")
        assert code == EXIT_DATA
        assert err.strip().splitlines() == [f"data error: {eval_error.value}"]
        assert str(eval_error.value) == "class 'boxer' has 5 tokens; max is 2"
        assert not out.exists()


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


def _traced_peak(capsys, argv) -> int:
    """The tracemalloc peak of one successful ``main(argv)`` run."""
    tracemalloc.start()
    try:
        code = main(argv)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    return traced_peak


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
        assert {k: summary[k] for k in ("hits", "misses", "emitted")} == audit
        assert audit["hits"] and audit["misses"]

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

    def test_config_line_without_equals_names_the_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("source = wiki_def\nmin_freq 3\n")
        code, _, err = run(capsys, "--config", str(cfg), "coverage", "--queries", QUERIES)
        assert code == EXIT_USAGE
        assert _one_line(err) == f"config error: {cfg}:2: expected key=value"

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


COVERAGE = ("coverage", "--wiktionary", WK, "--queries", QUERIES)


def _one_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


class TestConfigValues:
    """``--config`` and ``LEXIVIS_*`` values become subcommand defaults, checked like flags."""

    def test_bad_config_value_names_the_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("min_freq = abc\n")
        code, _, err = run(capsys, "--config", str(cfg), "stats", "--dataset", "absent.jsonl")
        assert code == EXIT_USAGE
        assert _one_line(err).startswith(f"config error: {cfg}:1: min_freq: ")

    def test_bad_env_value_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXIVIS_MIN_FREQ", "zz")
        code, _, err = run(capsys, "stats", "--dataset", "absent.jsonl")
        assert code == EXIT_USAGE
        assert _one_line(err).startswith("config error: LEXIVIS_MIN_FREQ: ")

    def test_config_value_outside_choices_names_the_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("source = nope\n")
        code, _, err = run(capsys, "--config", str(cfg), *COVERAGE)
        assert code == EXIT_USAGE
        assert _one_line(err) == (
            f"config error: {cfg}:1: source must be one of {', '.join(knowledge.SOURCES)}"
        )

    def test_config_after_the_subcommand_is_never_opened(self, capsys, tmp_path, opened_paths):
        cfg = tmp_path / "stats.cfg"
        cfg.write_text("min_freq = 2\n")
        opened_paths.clear()
        code, _, err = run(capsys, "stats", "--config", str(cfg), "--dataset", "absent.jsonl")
        assert code == EXIT_USAGE
        assert _one_line(err) == f"usage error: unrecognized arguments: --config {cfg}"
        assert str(cfg) not in opened_paths

    def test_abbreviated_config_flag_is_applied(self, capsys, tmp_path):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(f"source = wn_def\nwordnet = {WN}\n")
        code, summary, err = run(capsys, "--conf", str(cfg), *COVERAGE)
        assert code == EXIT_OK, err
        assert summary["source"] == "wn_def"

    def test_flag_without_its_value_before_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "coverage", "--queries", "--config", str(tmp_path / "x"),
                           "--wiktionary", WK)
        assert code == EXIT_USAGE
        assert _one_line(err) == "usage error: argument --queries: expected one argument"

    def test_help_is_not_a_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "help.cfg"
        cfg.write_text("help = 1\n")
        code, _, err = run(capsys, "--config", str(cfg), *COVERAGE)
        assert code == EXIT_USAGE
        assert _one_line(err) == f"config error: {cfg}:1: unknown config key 'help'"

    def test_help_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXIVIS_HELP", "1")
        code, summary, err = run(capsys, *COVERAGE)
        assert code == EXIT_OK and err == ""
        assert summary["coverage"] == 1.0

    def test_env_values_starting_with_a_dash(self, capsys, tmp_path, monkeypatch, checkpoint):
        images = _write_images(tmp_path / "images.jsonl",
                               [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(2)])
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench"]))
        breakdown = tmp_path / "breakdown.csv"
        monkeypatch.setenv("LEXIVIS_TEMPLATE", "-{}")
        monkeypatch.setenv("LEXIVIS_DATASET_NAME", "-x")
        code, _, err = run(capsys, "eval-zeroshot", "--checkpoint", str(checkpoint),
                           "--images", str(images), "--classes", str(classes),
                           "--breakdown-csv", str(breakdown))
        assert code == EXIT_OK, err
        with open(breakdown, newline="") as handle:
            assert [row[0] for row in csv.reader(handle)][1:] == ["-x"]

    def test_config_supplies_a_required_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(f"# the query list\nqueries = {QUERIES}\n")
        code, summary, err = run(capsys, "--config", str(cfg), "coverage", "--wiktionary", WK)
        assert code == EXIT_OK, err
        assert summary["queries"] == 4

    @pytest.mark.parametrize("value, expected", [("yes", True), ("TRUE", True), ("0", False)])
    def test_store_true_from_env(self, capsys, tmp_path, monkeypatch, ground_checkpoint, value,
                                 expected):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer"]))
        regions = tmp_path / "regions.jsonl"
        regions.write_text(json.dumps(
            {"image_id": "a", "features": np.eye(1, 4).tolist(), "targets": [[1]]}) + "\n")
        monkeypatch.setenv("LEXIVIS_WITH_KNOWLEDGE", value)
        code, summary, err = run(capsys, "ground-eval", "--checkpoint", str(ground_checkpoint),
                                 "--regions", str(regions), "--classes", str(classes),
                                 "--wiktionary", WK)
        assert code == EXIT_OK, err
        assert summary["with_knowledge"] is expected

    def test_env_default_does_not_leak_into_the_next_call(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXIVIS_SOURCE", "wn_def")
        code, summary, err = run(capsys, *COVERAGE, "--wordnet", WN)
        assert code == EXIT_OK and summary["source"] == "wn_def", err
        monkeypatch.delenv("LEXIVIS_SOURCE")
        code, summary, err = run(capsys, *COVERAGE, "--wordnet", WN)
        assert code == EXIT_OK and summary["source"] == "wiki_def", err

    def test_no_private_argparse_names_in_the_package(self):
        src = Path(cli.__file__).parent
        private = re.compile(r"argparse\._|\._actions|\._subparsers|\._group_actions")
        offenders = [
            f"{path.name}:{lineno}"
            for path in sorted(src.glob("**/*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if private.search(line)
        ]
        assert offenders == []


_FIELD_FLAGS = [  # (command, flag dest, config class or library function, the name it fills)
    *((command, dest, trainer.TrainConfig, dest) for command in ("train", "ground-train")
      for dest in ("epochs", "learning_rate", "optimizer", "seed")),
    ("train", "batch_size", trainer.TrainConfig, "batch_size"),
    ("train", "mode", trainer.TrainConfig, "mode"),
    ("ground-train", "focal_alpha", grounding.FocalParams, "alpha"),
    ("ground-train", "focal_gamma", grounding.FocalParams, "gamma"),
    ("bench-synth", "n_seeds", synth.SynthConfig, "n_seeds"),
    ("bench-synth", "common_classes", synth.SynthConfig, "n_common"),
    ("bench-synth", "rare_classes", synth.SynthConfig, "n_rare"),
    *(("bench-synth", dest, synth.SynthConfig, dest)
      for dest in ("train_per_class", "eval_per_class", "noise", "epochs", "batch_size",
                   "learning_rate", "empty_knowledge")),
    *(("augment", dest, trainer.iter_augmented, dest)
      for dest in ("scheme", "template", "max_tokens")),
    ("stats", "min_freq", evaluation.dataset_stats, "min_freq"),
    ("eval-zeroshot", "branch_mode", evaluation.build_class_embeddings, "branch_mode"),
    ("eval-probe", "shots", evaluation.linear_probe, "shots_per_class"),
    ("eval-probe", "probe_seeds", evaluation.linear_probe, "n_seeds"),
    *((command, "source", evaluation.build_class_embeddings, "source")
      for command in ("augment", "coverage", "eval-zeroshot", "ground-train", "ground-eval")),
]
_CHOICE_FLAGS = [  # (command, flag dest, the library's names of its values)
    ("augment", "scheme", compose.CAPTION_SCHEMES),
    ("eval-zeroshot", "branch_mode", evaluation.BRANCH_MODES),
    ("train", "mode", trainer.TRAIN_MODES),
    *((command, "optimizer", trainer.OPTIMIZERS) for command in ("train", "ground-train")),
    *((command, "source", knowledge.SOURCES)
      for command in ("augment", "coverage", "eval-zeroshot", "ground-train", "ground-eval")),
]
_ENCODER_DESTS = ("embed_dim", "layers", "heads", "hidden_dim", "vocab_size", "max_tokens",
                  "adapter_bottleneck")


def _owner_default(owner, name):
    """What ``owner`` fills ``name`` with when it is not given."""
    if isinstance(owner, type):
        return getattr(owner(), name)
    return inspect.signature(owner).parameters[name].default


class TestFlagDefaults:
    """A flag that fills a config field or a library parameter takes its default and type,
    and its choices from the library's names.

    Encoder flags read None until set; a scratch model built from none of them has the
    ``EncoderConfig`` defaults at its input width.
    """

    @pytest.mark.parametrize("command, dest, owner, name", _FIELD_FLAGS,
                             ids=[f"{c}-{d}" for c, d, _, _ in _FIELD_FLAGS])
    def test_flag_default_is_its_fields(self, command, dest, owner, name):
        expected = _owner_default(owner, name)
        default = cli.build_parser().subcommands[command].get_default(dest)
        assert default == expected and type(default) is type(expected)

    @pytest.mark.parametrize("command, dest, owner, name", _FIELD_FLAGS,
                             ids=[f"{c}-{d}" for c, d, _, _ in _FIELD_FLAGS])
    def test_flag_follows_a_changed_owner_default(self, monkeypatch, command, dest, owner,
                                                  name):
        # Edited where an edit of the owner's source would land: in the defaults its calls
        # and constructions use.
        fn = owner.__init__ if isinstance(owner, type) else owner
        names = list(inspect.signature(fn).parameters)[-len(fn.__defaults__):]
        defaults = dict(zip(names, fn.__defaults__))
        old, choices = defaults[name], cli.build_parser().subcommands[command].flags[dest].choices
        if choices:
            new = next(c for c in choices if c != old)
        elif isinstance(old, compose.PromptTemplate):
            new = compose.PromptTemplate("a sketch of a {}")
        else:
            new = not old if isinstance(old, bool) else old + 1
        assert new != old
        monkeypatch.setattr(fn, "__defaults__", tuple({**defaults, name: new}.values()))
        assert cli.build_parser().subcommands[command].get_default(dest) == new

    @pytest.mark.parametrize("command, dest, names", _CHOICE_FLAGS,
                             ids=[f"{c}-{d}" for c, d, _ in _CHOICE_FLAGS])
    def test_flag_choices_are_the_librarys_names(self, command, dest, names):
        assert cli.build_parser().subcommands[command].flags[dest].choices == names

    @pytest.mark.parametrize("command", ["train", "ground-train"])
    def test_encoder_flags_read_none_until_set(self, command):
        sub = cli.build_parser().subcommands[command]
        assert {dest: sub.get_default(dest) for dest in _ENCODER_DESTS} == dict.fromkeys(
            _ENCODER_DESTS)

    def test_scratch_models_take_the_encoder_defaults(self, capsys, tmp_path, dataset):
        ckpt = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--dataset", str(dataset),
                           "--out-checkpoint", str(ckpt), "--epochs", "0")
        assert code == EXIT_OK, err
        assert enc.load_checkpoint(ckpt)[0].config == enc.EncoderConfig(image_input_dim=4)
        width = enc.EncoderConfig().embed_dim  # region features are as wide as the embedding
        regions, classes = tmp_path / "regions.jsonl", tmp_path / "classes.json"
        regions.write_text("".join(json.dumps(r) + "\n" for r in _region_rows(2, width=width)))
        classes.write_text(json.dumps(["boxer", "tench"]))
        code, _, err = run(capsys, "ground-train", "--regions", str(regions), "--classes",
                           str(classes), "--out-checkpoint", str(ckpt), "--epochs", "0")
        assert code == EXIT_OK, err
        assert enc.load_checkpoint(ckpt)[0].config == enc.EncoderConfig(image_input_dim=width)


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

    def test_zero_image_names_its_batch_row_and_step(self, capsys, tmp_path, dataset):
        rows = dataset.read_text().splitlines()
        rows[3] = json.dumps({"image": [0.0] * 4, "text": "boxer", "kind": "category"})
        dataset.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
            str(tmp_path / "model.json"), "--epochs", "1", "--batch-size", "16",
        )
        assert code == EXIT_DATA
        (line,) = err.splitlines()
        assert re.fullmatch(
            r"error: cannot normalize a near-zero row: batch rows \[\d+\] \(training step 0\)", line
        ), line
        assert not (tmp_path / "model.json").exists()

    def test_collapsed_temperature_names_its_step(self, capsys, tmp_path, dataset):
        # A huge step underflows tau = exp(log_tau) to 0: a numerics error, not a data error.
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(tmp_path / "model.json"), "--learning-rate", "1e3")
        assert code == EXIT_DATA
        (line,) = err.splitlines()
        assert re.fullmatch(r"error: temperature must be positive \(training step \d+\)", line), line
        assert not (tmp_path / "model.json").exists()

    def test_floating_point_overflow_is_one_line_naming_its_step(self, capsys, tmp_path, dataset):
        # The first update leaves huge but finite weights; the next forward pass overflows.
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(tmp_path / "model.json"), "--learning-rate", "1e300")
        assert code == EXIT_DATA
        assert _one_line(err) == "error: overflow encountered in power (training step 1)"
        assert not (tmp_path / "model.json").exists()

    def test_train_opens_the_dataset_once(self, capsys, tmp_path, dataset, opened_paths):
        code, _, err = run(
            capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
            str(tmp_path / "model.json"), "--epochs", "1", "--embed-dim", "8",
            "--hidden-dim", "16", "--vocab-size", "64", "--max-tokens", "16",
            "--adapter-bottleneck", "2",
        )
        assert code == EXIT_OK, err
        assert opened_paths.count(str(dataset)) == 1

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

    def test_class_whose_budget_keeps_no_knowledge_is_a_miss_in_train_and_eval(
        self, capsys, tmp_path
    ):
        # At --max-tokens 7, "a photo of a boxer, boxer" leaves no room for knowledge.
        names = ["boxer", "crowd"]
        dataset, augmented = tmp_path / "ds.jsonl", tmp_path / "aug.jsonl"
        rows = [{"image": np.eye(4)[i].tolist(), "text": n} for i, n in enumerate(names * 2)]
        dataset.write_text("".join(json.dumps(r) + "\n" for r in rows))
        ckpt, out = tmp_path / "model.json", tmp_path / "eval.json"
        images = _write_images(tmp_path / "images.jsonl",
                               [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(2)])
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(names))
        knowledge = ["--wiktionary", WK, "--source", "wiki_def"]
        code, _, err = run(capsys, "augment", "--dataset", str(dataset), "--out", str(augmented),
                           *knowledge, "--max-tokens", "7")
        assert code == EXIT_OK, err
        code, summary, err = run(
            capsys, "train", "--dataset", str(augmented), "--out-checkpoint", str(ckpt),
            "--mode", "scratch_2branch", "--epochs", "1", "--batch-size", "4", "--embed-dim", "8",
            "--hidden-dim", "16", "--vocab-size", "64", "--adapter-bottleneck", "2",
            "--max-tokens", "7",
        )
        assert code == EXIT_OK, err
        assert summary["branch_counts"] == {"adapter": 0, "base": 4}
        aug_rows = [json.loads(line) for line in augmented.read_text().splitlines()]
        base_texts = {row["text"] for row in aug_rows if not row["augmented"]}
        assert base_texts == {f"a photo of a {name}" for name in names}
        code, summary, err = run(
            capsys, "eval-zeroshot", "--checkpoint", str(ckpt), "--images", str(images),
            "--classes", str(classes), "--with-knowledge", *knowledge,
            "--branch-mode", "two_branch_selective", "--out", str(out),
        )
        assert code == EXIT_OK, err
        provenance = {p["class"]: p for p in json.loads(out.read_text())["provenance"]}
        for name in names:
            assert (provenance[name]["branch"], provenance[name]["hit"]) == ("base", False)
        assert (summary["knowledge_hits"], summary["knowledge_coverage_pct"]) == (0, 0.0)

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
            return _traced_peak(capsys, argv)

        peak(scratch), peak(continual)  # warm-up: lazily built module state
        assert peak(continual) < 1.01 * peak(scratch)

    def test_continual_peak_does_not_depend_on_base_branches(self, capsys, tmp_path):
        # Adapters are attached to a one-branch base in place, so no second copy of
        # the base stays alive beside the one trained.
        rng = np.random.default_rng(0)
        rows = [{"image": rng.normal(size=8).tolist(), "text": f"{text} x{i % 50}",
                 "kind": kind, "augmented": True}
                for i, (text, kind) in enumerate(MIXED_ROWS * 8)]
        dataset = _write_images(tmp_path / "ds.jsonl", rows)
        common = ["train", "--dataset", str(dataset), "--epochs", "1", "--batch-size", "16"]
        continual = {}
        for mode in ("scratch_1branch", "scratch_2branch"):
            base = str(tmp_path / f"{mode}.json")
            assert run(capsys, *common, "--mode", mode, "--vocab-size", "4096",
                       "--out-checkpoint", base)[0] == EXIT_OK
            continual[mode] = [*common, "--mode", "continual_adapters", "--base-checkpoint",
                               base, "--out-checkpoint", str(tmp_path / "adapters.json")]

        assert run(capsys, *continual["scratch_1branch"])[0] == EXIT_OK  # warm-up, untraced
        one_branch = _traced_peak(capsys, continual["scratch_1branch"])
        assert one_branch < 1.01 * _traced_peak(capsys, continual["scratch_2branch"])

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

    def test_no_step_reports_a_null_loss(self, capsys, tmp_path):
        dataset = _write_images(tmp_path / "ds.jsonl", [{"image": [1.0, 0.0], "text": "boxer"}])
        code, summary, err = run(capsys, "train", "--dataset", str(dataset), "--epochs", "5",
                                 "--out-checkpoint", str(tmp_path / "m.json"))
        assert code == EXIT_OK, err
        assert (summary["steps"], summary["final_l_ic"]) == (0, None)

    @pytest.mark.parametrize("where", ["flag", "config", "env"])
    def test_continual_encoder_flags_must_match_the_base(self, capsys, tmp_path, dataset,
                                                         monkeypatch, where):
        base = tmp_path / "base.json"
        common = ["--dataset", str(dataset), "--epochs", "1", "--batch-size", "8",
                  "--embed-dim", "8", "--hidden-dim", "16", "--adapter-bottleneck", "2"]
        assert run(capsys, "train", *common, "--out-checkpoint", str(base))[0] == EXIT_OK
        continual = ["train", *common, "--mode", "continual_adapters", "--base-checkpoint",
                     str(base), "--out-checkpoint", str(tmp_path / "adapters.json")]
        # Set flags that agree with the base, and unset ones, train.
        assert run(capsys, *continual, "--max-tokens", "64")[0] == EXIT_OK
        prefix = []
        if where == "flag":
            continual += ["--max-tokens", "8"]
        elif where == "config":
            config = tmp_path / "lexivis.cfg"
            config.write_text("max_tokens = 8\n")
            prefix = ["--config", str(config)]
        else:
            monkeypatch.setenv("LEXIVIS_MAX_TOKENS", "8")
        code, _, err = run(capsys, *prefix, *continual)
        assert code == EXIT_USAGE
        assert _one_line(err) == "config error: --max-tokens 8 differs from the base checkpoint's 64"

    def test_continual_flag_is_checked_before_the_dataset_opens(self, capsys, tmp_path, dataset,
                                                                opened_paths):
        base = tmp_path / "base.json"
        small = ["--epochs", "1", "--batch-size", "8", "--embed-dim", "8", "--hidden-dim", "16",
                 "--adapter-bottleneck", "2"]
        assert run(capsys, "train", "--dataset", str(dataset), *small,
                   "--out-checkpoint", str(base))[0] == EXIT_OK
        opened_paths.clear()
        code, _, err = run(capsys, "train", "--dataset", str(dataset), *small, "--layers", "3",
                           "--mode", "continual_adapters", "--base-checkpoint", str(base),
                           "--out-checkpoint", str(tmp_path / "adapters.json"))
        assert code == EXIT_USAGE
        assert _one_line(err) == "config error: --layers 3 differs from the base checkpoint's 2"
        assert str(base) in opened_paths and str(dataset) not in opened_paths

    def test_continual_config_comes_from_the_base(self, capsys, tmp_path, dataset):
        # --embed-dim 9 agrees with the base; built with the default 2 heads it would not divide.
        base = tmp_path / "base.json"
        common = ["--dataset", str(dataset), "--epochs", "1", "--batch-size", "8",
                  "--embed-dim", "9", "--hidden-dim", "16", "--adapter-bottleneck", "2"]
        assert run(capsys, "train", *common, "--heads", "3",
                   "--out-checkpoint", str(base))[0] == EXIT_OK
        code, summary, err = run(capsys, "train", *common, "--mode", "continual_adapters",
                                 "--base-checkpoint", str(base),
                                 "--out-checkpoint", str(tmp_path / "adapters.json"))
        assert code == EXIT_OK, err
        assert summary["steps"] == 2

    def test_cut_texts_are_reported_on_stderr_only(self, capsys, tmp_path):
        images = np.random.default_rng(0).normal(size=(8, 4)).tolist()
        long_texts = [f"{name} " + " ".join(f"w{i}" for i in range(20))  # 21 words each
                      for name in ("boxer", "tench")]

        def train_on(texts):
            dataset = tmp_path / "ds.jsonl"
            dataset.write_text("".join(
                json.dumps({"image": image, "text": texts[row // 2], "label": row // 2}) + "\n"
                for row, image in enumerate(images)))
            ckpt = tmp_path / "m.json"  # one path, so the summaries can be compared whole
            code, out, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                                 str(ckpt), "--epochs", "2", "--batch-size", "4",
                                 "--embed-dim", "8", "--hidden-dim", "16", "--vocab-size", "64",
                                 "--max-tokens", "8", "--adapter-bottleneck", "2")
            assert code == EXIT_OK
            return out, ckpt.read_bytes(), err

        cut = train_on(long_texts + ["crowd", "fireplug"])
        assert _one_line(cut[2]) == (
            "train: 2 of 4 distinct texts cut to max_tokens 8 (longest 21 words)")
        # The same rows with the texts cut beforehand: no line, the same summary and checkpoint.
        kept = train_on([" ".join(text.split()[:7]) for text in long_texts] + ["crowd", "fireplug"])
        assert kept[2] == ""
        assert cut[:2] == kept[:2]


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
        enc.save_checkpoint(enc.init_params(cfg, seed=0), ckpt, meta={"task": "grounding"})
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
        enc.save_checkpoint(enc.init_params(cfg, seed=0), ckpt, meta={"task": "grounding"})
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


def _tiny_checkpoint(path, meta=None):
    cfg = enc.EncoderConfig(embed_dim=4, text_layers=1, hidden_dim=8, vocab_size=16,
                            max_tokens=8, adapter_bottleneck=2, image_input_dim=4)
    enc.save_checkpoint(enc.init_params(cfg, seed=0), path, meta)
    return path


@pytest.fixture
def checkpoint(tmp_path):
    return _tiny_checkpoint(tmp_path / "model.json")


@pytest.fixture
def ground_checkpoint(tmp_path):
    """The tensors of ``checkpoint`` under the meta.task that ground-train writes."""
    return _tiny_checkpoint(tmp_path / "ground_model.json", {"task": "grounding"})


class TestKnowledgeGate:
    @pytest.mark.parametrize("command", ["eval-zeroshot", "ground-train", "ground-eval"])
    def test_snapshot_flags_read_nothing_without_with_knowledge(
        self, capsys, tmp_path, opened_paths, checkpoint, ground_checkpoint, command
    ):
        missing = str(tmp_path / "missing.jsonl")  # reading it would exit 2
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench"]))
        regions = tmp_path / "regions.jsonl"
        regions.write_text(json.dumps(
            {"image_id": "a", "features": np.eye(2, 4).tolist(), "targets": np.eye(2).tolist()}
        ) + "\n")
        images = tmp_path / "images.jsonl"
        images.write_text(json.dumps({"image": [1.0, 0.0, 0.0, 0.0], "label": 0}) + "\n")
        argv = {
            "eval-zeroshot": ["--checkpoint", str(checkpoint), "--images", str(images)],
            "ground-train": ["--regions", str(regions), "--out-checkpoint",
                             str(tmp_path / "g.json"), "--embed-dim", "4", "--epochs", "0"],
            "ground-eval": ["--checkpoint", str(ground_checkpoint), "--regions", str(regions)],
        }[command]
        code, summary, err = run(capsys, command, *argv, "--classes", str(classes),
                                 "--wiktionary", missing)
        assert code == EXIT_OK, err
        assert summary.get("with_knowledge", False) is False
        assert missing not in opened_paths


class TestMalformedJsonl:
    @pytest.mark.parametrize("row", ["5", "[1, 2]", "not json"])
    @pytest.mark.parametrize("command", ["stats", "ground-eval", "eval-probe"])
    def test_bad_row_is_data_error_with_location(self, capsys, tmp_path, checkpoint,
                                                 ground_checkpoint, command, row):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(row + "\n")
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer"]))
        argv = {
            "stats": ["stats", "--dataset", str(bad)],
            "ground-eval": ["ground-eval", "--checkpoint", str(ground_checkpoint),
                            "--regions", str(bad), "--classes", str(classes)],
            "eval-probe": ["eval-probe", "--checkpoint", str(checkpoint), "--images", str(bad)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{bad}:1" in lines[0]


class TestClassList:
    @pytest.mark.parametrize("names, message", [
        (["boxer", "Boxer", "tench"], "class 1 'Boxer' repeats class 0"),
        (["boxer", "tench", "boxer"], "class 2 'boxer' repeats class 0"),
        (["tench", "boxer", " big  Boxer"], None),  # distinct: no error
        (["tench", "big boxer", "Big   BOXER "], "class 2 'Big   BOXER ' repeats class 1"),
    ])
    @pytest.mark.parametrize("command", ["eval-zeroshot", "ground-train", "ground-eval"])
    def test_repeated_class_name_is_data_error(self, capsys, tmp_path, checkpoint,
                                               ground_checkpoint, command, names, message):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(names))
        images = tmp_path / "images.jsonl"
        images.write_text(json.dumps({"image": [1.0, 0.0, 0.0, 0.0], "label": 0}) + "\n")
        regions = tmp_path / "regions.jsonl"
        row = {"image_id": "a", "features": np.eye(1, 4).tolist(), "targets": [[1, 0, 0]]}
        regions.write_text(json.dumps(row) + "\n")
        argv = {
            "eval-zeroshot": ["eval-zeroshot", "--checkpoint", str(checkpoint),
                              "--images", str(images)],
            "ground-train": ["ground-train", "--regions", str(regions), "--embed-dim", "4",
                             "--epochs", "1", "--out-checkpoint", str(tmp_path / "g.json")],
            "ground-eval": ["ground-eval", "--checkpoint", str(ground_checkpoint),
                            "--regions", str(regions)],
        }[command]
        code, _, err = run(capsys, *argv, "--classes", str(classes))
        if message is None:
            assert code == EXIT_OK, err
        else:
            assert code == EXIT_DATA
            assert _one_line(err) == f"data error: {classes}: {message}"

    @pytest.mark.parametrize("content", ["5", "{}", "[]", "not json", "[1, null]", '["boxer", 2]'])
    @pytest.mark.parametrize("command", ["eval-zeroshot", "ground-train", "ground-eval"])
    def test_bad_class_list_is_data_error(self, capsys, tmp_path, checkpoint, ground_checkpoint,
                                          command, content):
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
            "ground-eval": ["ground-eval", "--checkpoint", str(ground_checkpoint),
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

    @pytest.mark.parametrize("key, value", [("encoder_config", []), ("tensors", 5)])
    def test_non_object_config_or_tensors_is_data_error(self, capsys, tmp_path, checkpoint,
                                                        key, value):
        payload = json.loads(checkpoint.read_text())
        payload[key] = value
        checkpoint.write_text(json.dumps(payload))
        images = _write_images(tmp_path / "images.jsonl", [{"image": [1.0, 0.0, 0.0, 0.0],
                                                            "label": 0}])
        code, _, err = run(capsys, "eval-probe", "--checkpoint", str(checkpoint),
                           "--images", str(images))
        assert code == EXIT_DATA
        assert _one_line(err) == (
            f"data error: {checkpoint}: checkpoint needs encoder_config and tensors objects"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["eval-zeroshot", "eval-probe", "train"])
    def test_non_finite_tensor_is_data_error_naming_it(self, capsys, tmp_path, checkpoint,
                                                       command, value):
        payload = json.loads(checkpoint.read_text())
        payload["tensors"]["img.W1"]["data"][5] = value
        checkpoint.write_text(json.dumps(payload))  # json writes NaN, Infinity, -Infinity
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        rows = [{"image": np.eye(4)[i % 2].tolist(), "text": "boxer", "label": i % 2}
                for i in range(6)]
        images = _write_images(tmp_path / "images.jsonl", rows)
        out = tmp_path / "out.json"
        argv = {
            "eval-zeroshot": ["eval-zeroshot", "--checkpoint", str(checkpoint), "--images",
                              str(images), "--classes", str(classes)],
            "eval-probe": ["eval-probe", "--checkpoint", str(checkpoint), "--images", str(images),
                           "--shots", "1"],
            "train": ["train", "--mode", "continual_adapters", "--base-checkpoint",
                      str(checkpoint), "--dataset", str(images), "--out-checkpoint", str(out)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert _one_line(err) == (
            f"data error: {checkpoint}: tensor 'img.W1' holds a NaN or infinite value"
        )
        assert not out.exists()


def _write_images(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestCheckpointTask:
    """ground-eval reads only a checkpoint whose meta.task is "grounding", as ground-train
    writes; eval-zeroshot, eval-probe and a continual base refuse one."""

    @pytest.mark.parametrize("command", ["eval-zeroshot", "eval-probe", "train", "ground-eval"])
    def test_checkpoint_of_the_other_task_is_a_located_data_error(
        self, capsys, tmp_path, checkpoint, ground_checkpoint, command
    ):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        rows = [{"image": np.eye(4)[i % 2].tolist(), "text": "boxer", "label": i % 2}
                for i in range(6)]
        images = _write_images(tmp_path / "images.jsonl", rows)
        regions = _write_images(tmp_path / "regions.jsonl", _region_rows(2))
        out = tmp_path / "out.json"

        def argv(model):
            return {
                "eval-zeroshot": ["eval-zeroshot", "--checkpoint", str(model), "--images",
                                  str(images), "--classes", str(classes), "--out", str(out)],
                "eval-probe": ["eval-probe", "--checkpoint", str(model), "--images", str(images),
                               "--shots", "1"],
                "train": ["train", "--mode", "continual_adapters", "--base-checkpoint",
                          str(model), "--dataset", str(images), "--out-checkpoint", str(out),
                          "--epochs", "1"],
                "ground-eval": _ground_argv(command, regions, classes, model, out),
            }[command]

        right, wrong = checkpoint, ground_checkpoint
        if command == "ground-eval":
            right, wrong = wrong, right
        code, _, err = run(capsys, *argv(right))
        assert code == EXIT_OK, err
        out.unlink(missing_ok=True)
        code, _, err = run(capsys, *argv(wrong))
        assert code == EXIT_DATA
        task, kind = ("None", "grounding") if command == "ground-eval" else ("'grounding'",
                                                                              "contrastive")
        assert _one_line(err) == (
            f"data error: {wrong}: meta.task is {task}; {command} needs a {kind} checkpoint"
        )
        assert not out.exists()


class TestEvalDefects:
    @pytest.mark.parametrize("first_label", [0, None])
    @pytest.mark.parametrize("command", ["eval-zeroshot", "eval-probe"])
    def test_partly_labeled_images_name_the_first_odd_row(
        self, capsys, tmp_path, checkpoint, command, first_label
    ):
        rows = [{"image": np.eye(4)[i].tolist(), "label": first_label} for i in range(4)]
        rows[2]["label"] = 1 if first_label is None else None
        images = _write_images(tmp_path / "images.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench"]))
        argv = [command, "--checkpoint", str(checkpoint), "--images", str(images)]
        if command == "eval-zeroshot":
            argv += ["--classes", str(classes)]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert _one_line(err) == f"data error: {images}:3: either every row has a label or none does"

    def test_probe_on_unlabeled_images_is_data_error(self, capsys, tmp_path, checkpoint):
        images = _write_images(tmp_path / "images.jsonl",
                               [{"image": np.eye(4)[i].tolist()} for i in range(4)])
        code, _, err = run(capsys, "eval-probe", "--checkpoint", str(checkpoint),
                           "--images", str(images))
        assert code == EXIT_DATA
        assert _one_line(err) == f"data error: {images}: eval-probe needs labeled images"

    @pytest.mark.parametrize("bad_label", [4, -1, 7, 2**63 - 1, -(2**63)])
    def test_zeroshot_label_outside_class_list(self, capsys, tmp_path, checkpoint, bad_label):
        rows = [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(4)]
        rows[2]["label"] = bad_label
        rows[3]["image"] = [0.0]  # a later defect: the bad label is reported first
        images = _write_images(tmp_path / "images.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
        code, _, err = run(capsys, "eval-zeroshot", "--checkpoint", str(checkpoint),
                           "--images", str(images), "--classes", str(classes))
        assert code == EXIT_DATA
        assert _one_line(err) == (
            f"data error: {images}:3: label {bad_label} must index the 4 classes"
        )

    @pytest.mark.parametrize("bad_label", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("command", ["eval-zeroshot", "eval-probe"])
    def test_label_beyond_64_bits_is_located(self, capsys, tmp_path, checkpoint, command,
                                             bad_label):
        rows = [{"image": np.eye(4)[i].tolist(), "label": i % 2} for i in range(4)]
        rows[2]["label"] = bad_label
        images = _write_images(tmp_path / "images.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench"]))
        argv = [command, "--checkpoint", str(checkpoint), "--images", str(images)]
        if command == "eval-zeroshot":
            argv += ["--classes", str(classes)]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert _one_line(err) == f"data error: {images}:3: label must be a 64-bit integer or null"

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

    @pytest.mark.parametrize("template, n_tokens", [("{}", 20), ("a photo of a {}", 24)])
    def test_zeroshot_over_budget_class_is_data_error(
        self, capsys, tmp_path, checkpoint, template, n_tokens
    ):
        # The composed prompt was once cut to the checkpoint's 7 tokens and the run exited 0.
        long_name = " ".join(f"w{i}" for i in range(20))
        rows = [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(2)]
        images = _write_images(tmp_path / "images.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", long_name]))
        code, _, err = run(capsys, "eval-zeroshot", "--checkpoint", str(checkpoint), "--images",
                           str(images), "--classes", str(classes), "--template", template)
        assert code == EXIT_DATA
        assert err.strip().splitlines() == [
            f"data error: class {long_name!r} has {n_tokens} tokens; max is 7"
        ]

    @pytest.mark.parametrize("flag", ["--breakdown-csv", "--pretrain-concepts"])
    def test_zeroshot_label_flag_on_unlabeled_images(
        self, capsys, tmp_path, checkpoint, monkeypatch, flag
    ):
        # Both flags were once ignored without labels: exit 0 and no CSV written.
        images = _write_images(tmp_path / "images.jsonl",
                               [{"image": np.eye(4)[i].tolist()} for i in range(2)])
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench"]))
        concepts = tmp_path / "pretrain.txt"
        concepts.write_text("boxer\n")
        breakdown = tmp_path / "breakdown.csv"
        value = {"--breakdown-csv": breakdown, "--pretrain-concepts": concepts}[flag]
        encoded = []
        encode_text = enc.encode_text
        monkeypatch.setattr(enc, "encode_text",
                            lambda *a, **k: encoded.append(1) or encode_text(*a, **k))
        code, _, err = run(capsys, "eval-zeroshot", "--checkpoint", str(checkpoint), "--images",
                           str(images), "--classes", str(classes), flag, str(value))
        assert code == EXIT_DATA
        assert err.strip().splitlines() == [f"data error: {images}: {flag} needs labeled images"]
        assert not encoded and not breakdown.exists()

    # 'a,b "x"' was once written bare and read back as five fields.
    @pytest.mark.parametrize("name", ['a,b "x"', "two\nlines", '"', "cr\rlf\r\n", "plain"])
    def test_breakdown_csv_round_trips_the_dataset_name(self, capsys, tmp_path, checkpoint, name):
        images = _write_images(tmp_path / "images.jsonl",
                               [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(2)])
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "tench"]))
        breakdown = tmp_path / "breakdown.csv"
        code, summary, err = run(capsys, "eval-zeroshot", "--checkpoint", str(checkpoint),
                                 "--images", str(images), "--classes", str(classes),
                                 "--breakdown-csv", str(breakdown), "--dataset-name", name)
        assert code == EXIT_OK, err
        with open(breakdown, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["dataset", "score", "concept_overlap", "knowledge_coverage"],
                        [name, repr(summary["accuracy"]), "", ""]]

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


def test_ground_train_floating_point_overflow_is_one_line_naming_its_step(capsys, tmp_path):
    regions = _write_images(tmp_path / "regions.jsonl", _region_rows(2))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["boxer", "crowd"]))
    out = tmp_path / "model.json"
    code, _, err = run(capsys, *_ground_argv("ground-train", regions, classes, None, out),
                       "--learning-rate", "1e300")
    assert code == EXIT_DATA
    assert _one_line(err) == "error: overflow encountered in multiply (training step 1)"
    assert not out.exists()


# The stage each overflowing tensor faults in, as the error line names it.
_OVERFLOW_STAGE = {
    ("eval-zeroshot", "img.W1"): "encoding eval images",
    ("eval-zeroshot", "tok_emb"): "encoding class texts",
    ("eval-probe", "img.W1"): "encoding eval images",
    ("ground-eval", "tok_emb"): "encoding the phrase bank",
}


@pytest.mark.parametrize("command, tensor, operation", [
    ("eval-zeroshot", "img.W1", "power"), ("eval-probe", "img.W1", "power"),
    ("ground-eval", "tok_emb", "reduce"), ("eval-zeroshot", "tok_emb", "reduce"),
])
def test_overflowing_checkpoint_is_one_line_and_writes_nothing(capsys, tmp_path, command, tensor,
                                                                operation):
    # Every entry is finite, so the checkpoint loads, but encoding with it overflows; the
    # line names the stage, which a bare numpy operation left to guess.
    meta = {"task": "grounding"} if command == "ground-eval" else None
    ckpt = _tiny_checkpoint(tmp_path / "model.json", meta)
    params, _ = enc.load_checkpoint(ckpt)
    params.tensors[tensor][...] = 1e308
    enc.save_checkpoint(params, ckpt, meta)
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["boxer", "crowd"]))
    out = tmp_path / "out.json"
    if command == "ground-eval":
        regions = _write_images(tmp_path / "regions.jsonl", _region_rows(2))
        argv = _ground_argv(command, regions, classes, ckpt, out)
    else:
        rows = [{"image": np.eye(4)[i].tolist(), "label": i % 2} for i in range(4)]
        argv = [command, "--checkpoint", str(ckpt), "--images",
                str(_write_images(tmp_path / "images.jsonl", rows))]
        argv += (["--classes", str(classes), "--out", str(out)] if command == "eval-zeroshot"
                 else ["--shots", "1"])
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    stage = _OVERFLOW_STAGE[command, tensor]
    assert _one_line(err) == f"error: overflow encountered in {operation} ({stage})"
    assert not out.exists()


class TestRowWidths:
    """Rows of one file agree on their widths; a row that does not is located."""

    @pytest.mark.parametrize("defect", ["wide", "narrow", "ragged"])
    @pytest.mark.parametrize("command", ["ground-train", "ground-eval"])
    def test_targets_need_one_column_per_class(
        self, capsys, tmp_path, ground_checkpoint, command, defect
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
        code, _, err = run(capsys, *_ground_argv(command, regions, classes, ground_checkpoint,
                                                 out))
        assert code == EXIT_DATA
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"{regions}:2: targets" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ground-train", "ground-eval"])
    def test_targets_need_one_row_per_region(self, capsys, tmp_path, ground_checkpoint, command):
        rows = _region_rows(2)
        rows[1]["targets"] = np.eye(3, 2).tolist()
        regions = _write_images(tmp_path / "regions.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, *_ground_argv(command, regions, classes, ground_checkpoint,
                                                 out))
        assert code == EXIT_DATA
        assert _one_line(err) == (
            f"data error: {regions}:2: targets row count != features row count"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ground-train", "ground-eval"])
    def test_region_feature_widths_agree(self, capsys, tmp_path, ground_checkpoint, command):
        rows = _region_rows(2)
        rows[2]["features"] = np.eye(2, 3).tolist()
        regions = _write_images(tmp_path / "regions.jsonl", rows)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, *_ground_argv(command, regions, classes, ground_checkpoint,
                                                 out))
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
    def test_first_row_width_must_match_the_model(self, capsys, tmp_path, checkpoint,
                                                  ground_checkpoint, command):
        # The checkpoint (and ground-train's --embed-dim) expects width 4.
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(["boxer", "crowd"]))
        out = tmp_path / "out.json"
        if command.startswith("ground"):
            path = _write_images(tmp_path / "regions.jsonl", _region_rows(2, width=5))
            argv = _ground_argv(command, path, classes, ground_checkpoint, out)
            what = "features"
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

    def test_continual_adapters_without_base_is_a_config_error(self, capsys, tmp_path, dataset):
        code, _, err = run(capsys, "train", "--dataset", str(dataset), "--out-checkpoint",
                           str(tmp_path / "m.json"), "--mode", "continual_adapters")
        assert code == EXIT_USAGE
        assert "base checkpoint" in err

    # Each input kind: its file's valid text, and a command that reads it from {kind}.
    _INPUTS = {
        "dataset": ('{"image": [1.0, 0.0], "text": "boxer is crowd", "kind": "caption"}\n',
                    "stats --dataset {dataset}"),
        "images": ('{"image": [1, 0, 0, 0], "label": 0}\n{"image": [0, 1, 0, 0], "label": 1}\n',
                   "eval-zeroshot --checkpoint {checkpoint} --images {images} --classes {classes}"),
        "regions": ("".join(json.dumps(r) + "\n" for r in _region_rows(2)),
                    "ground-eval --checkpoint {ground} --regions {regions} --classes {classes}"),
        "wordnet": (Path(WN).read_text(encoding="utf-8"),
                    "coverage --source wn_hier --wordnet {wordnet} --queries {queries}"),
        "wiktionary": (Path(WK).read_text(encoding="utf-8"),
                       "coverage --wiktionary {wiktionary} --queries {queries}"),
        "lexicon": ("is\tOTHER\nthe\tDET\n", "stats --dataset {dataset} --lexicon {lexicon}"),
        "templates": ("a photo of a {}.\na {} in the wild\n",
                      "eval-zeroshot --checkpoint {checkpoint} --images {images} "
                      "--classes {classes} --templates {templates}"),
        "queries": ("boxer\ntench\n", "coverage --wiktionary {wiktionary} --queries {queries}"),
        "pretrain_concepts": ("boxer\n",
                              "eval-zeroshot --checkpoint {checkpoint} --images {images} "
                              "--classes {classes} --pretrain-concepts {pretrain_concepts}"),
        "classes": ('[\n  "boxer",\n  "tench"\n]\n',
                    "eval-zeroshot --checkpoint {checkpoint} --images {images} --classes {classes}"),
        "ground_classes": ('[\n  "boxer",\n  "tench"\n]\n', "ground-eval --checkpoint {ground} "
                           "--regions {regions} --classes {ground_classes}"),
        "config": ("# stats\nmin_freq = 1\n", "--config {config} stats --dataset {dataset}"),
    }

    @pytest.mark.parametrize("case", ["not_utf8", "empty", "blank_lines", "byte_order_mark",
                                      "missing"])
    @pytest.mark.parametrize("kind", list(_INPUTS))
    def test_every_input_is_read_by_one_reader(self, capsys, tmp_path, checkpoint,
                                               ground_checkpoint, kind, case):
        paths = {"checkpoint": checkpoint, "ground": ground_checkpoint}
        for name, (text, _) in self._INPUTS.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text, encoding="utf-8")
        text, command = self._INPUTS[kind]
        argv = [arg.format(**paths) for arg in command.split()]
        path = paths[kind]
        if case == "byte_order_mark":  # loads as the same text without the mark
            plain_code, plain, err = run(capsys, *argv)
            assert plain_code == EXIT_OK, err
            path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            code, summary, err = run(capsys, *argv)
            assert code == EXIT_OK and summary == plain, err
            return
        if case == "missing":
            path.unlink()
        else:
            content = {"not_utf8": b"\xff\n", "empty": b"", "blank_lines": b" \n\n\t\n"}[case]
            path.write_bytes(content)
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        line = _one_line(err)
        if case == "missing":
            assert line.startswith("data error: ") and str(path) in line
        else:
            message = "not UTF-8 text" if case == "not_utf8" else "no lines found"
            assert line == f"data error: {path}: {message}"


class TestFlagRanges:
    """A flag out of range is one config error line (exit 1), raised before any input is read.

    Every input path is absent: reading one first would be a data error (exit 2).
    No path is opened at all, the output included.
    """

    @pytest.mark.parametrize("flags", [
        ["augment", "--max-tokens", "0"],
        ["augment", "--max-tokens", "-3"],
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
        ["train", "--batch-size", "1"],
        ["train", "--embed-dim", "0"],
        ["train", "--mode", "continual_adapters", "--base-checkpoint", "ABSENT", "--batch-size", "1"],
        ["train", "--epochs", "-3"],
        ["train", "--learning-rate", "nan"],
        ["train", "--learning-rate", "0"],
        ["train", "--learning-rate", "inf"],
        ["train", "--seed", "-1"],
        ["bench-synth", "--epochs", "-1"],
        ["ground-train", "--epochs", "-1"],
        ["ground-train", "--seed", "-3"],
        ["ground-train", "--learning-rate", "-0.1"],
        ["ground-train", "--with-knowledge", "--source", "wn_def"],
        ["ground-eval", "--with-knowledge", "--source", "wn_def"],
        ["eval-zeroshot", "--with-knowledge", "--source", "wn_def"],
        ["eval-zeroshot", "--with-knowledge", "--source", "wiki_def"],
        ["eval-zeroshot", "--templates", "ABSENT", "--template", "{} x"],
    ], ids=" ".join)
    def test_config_error_before_any_input_is_read(self, capsys, tmp_path, opened_paths, flags):
        self._check_error_before_any_input(capsys, tmp_path, opened_paths, flags, "config error: ")

    @pytest.mark.parametrize("flags", [
        ["augment", "--template", "nope"],
        ["augment", "--template", ""],
        ["eval-zeroshot", "--template", "{} and {}"],
    ], ids=" ".join)
    def test_usage_error_before_any_input_is_read(self, capsys, tmp_path, opened_paths, flags):
        self._check_error_before_any_input(capsys, tmp_path, opened_paths, flags, "usage error: ")

    @pytest.mark.parametrize("flags", [
        ["--epochs", "-1"], ["--batch-size", "1"], ["--learning-rate", "0"],
        ["--train-per-class", "0"], ["--eval-per-class", "0"],
        ["--noise", "nan"], ["--noise", "inf"], ["--noise", "-1"],
    ], ids=" ".join)
    def test_bench_synth_builds_no_world_before_a_training_flag_error(
        self, capsys, monkeypatch, flags
    ):
        built = []
        monkeypatch.setattr(synth, "build_world", lambda *args: built.append(args))
        code, _, err = run(capsys, "bench-synth", "--n-seeds", "1", *flags)
        assert code == EXIT_USAGE and err.startswith("config error: "), err
        assert built == []

    @pytest.mark.parametrize("given", ["config", "environment"])
    def test_template_from_config_or_environment_with_templates_opens_no_input(
        self, capsys, tmp_path, monkeypatch, given
    ):
        absent = str(tmp_path / "absent")  # opening it first would exit 2
        argv = ["eval-zeroshot", "--checkpoint", absent, "--images", absent,
                "--classes", absent, "--templates", absent]
        if given == "config":
            config = tmp_path / "eval.cfg"
            config.write_text("template = {} x\n")
            argv = ["--config", str(config), *argv]
        else:
            monkeypatch.setenv("LEXIVIS_TEMPLATE", "{} x")
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.strip() == "config error: give --templates or --template, not both"

    @staticmethod
    def _check_error_before_any_input(capsys, tmp_path, opened_paths, flags, prefix):
        absent, out = str(tmp_path / "absent"), str(tmp_path / "out.json")
        inputs = {
            "augment": ["--dataset", absent, "--wiktionary", absent, "--out", out],
            "eval-probe": ["--checkpoint", absent, "--images", absent],
            "eval-zeroshot": ["--checkpoint", absent, "--images", absent, "--classes", absent,
                              "--out", out],
            "bench-synth": ["--out", out],
            "ground-eval": ["--checkpoint", absent, "--regions", absent, "--classes", absent,
                            "--out", out],
            "ground-train": ["--regions", absent, "--classes", absent, "--out-checkpoint", out],
            "train": ["--dataset", absent, "--out-checkpoint", out],
        }[flags[0]]
        argv = [absent if flag == "ABSENT" else flag for flag in flags]
        opened_paths.clear()
        code, _, err = run(capsys, *argv, *inputs)
        assert code == EXIT_USAGE
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), err
        assert list(tmp_path.iterdir()) == []
        assert opened_paths == []


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

    def test_json_output_streams_the_bytes_of_one_dumps(self, tmp_path):
        obj = {"z": [1, 2.5, None, float("nan")], "a": {"é": "boxer", "rows": [[0.1], []]},
               "n": -0.0, "t": True}
        path = tmp_path / "out.json"
        cli._write_json(path, obj)
        assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
        with pytest.raises(TypeError):  # fails mid-stream: the earlier file stays
            cli._write_json(path, {"a": 1, "b": object()})
        assert json.loads(path.read_text())["t"] is True
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("command", ["train", "eval-zeroshot"])
    def test_missing_output_directory_names_the_users_path(
        self, capsys, tmp_path, monkeypatch, dataset, checkpoint, command
    ):
        monkeypatch.chdir(tmp_path)
        images, classes = tmp_path / "images.jsonl", tmp_path / "classes.json"
        images.write_text(json.dumps({"image": [1.0, 0.0, 0.0, 0.0], "label": 0}) + "\n")
        classes.write_text(json.dumps(["boxer", "tench"]))
        argv = {
            "train": ["--dataset", str(dataset), "--out-checkpoint", "m.json", "--epochs", "1",
                      "--trace", "nodir/t.csv"],
            "eval-zeroshot": ["--checkpoint", str(checkpoint), "--images", str(images),
                              "--classes", str(classes), "--breakdown-csv", "nodir/b.csv"],
        }[command]
        errs = []
        for pid in (101, 202):  # the temporary file beside the output is named by the pid
            monkeypatch.setattr(os, "getpid", lambda pid=pid: pid)
            code, _, err = run(capsys, command, *argv)
            assert code == EXIT_DATA
            errs.append(err)
        expected = f"data error: [Errno 2] No such file or directory: '{argv[-1]}'\n"
        assert errs == [expected, expected]


class TestOutputPrecheck:
    """A command checks its outputs before it reads any input: a refusal opens no input and
    writes nothing, with the line writing would print after the work, or a config error."""

    @pytest.fixture
    def inputs(self, tmp_path, dataset, checkpoint):
        images, classes = tmp_path / "images.jsonl", tmp_path / "classes.json"
        images.write_text(json.dumps({"image": [1.0, 0.0, 0.0, 0.0], "label": 0}) + "\n")
        classes.write_text(json.dumps(["boxer", "tench"]))
        regions = _write_images(tmp_path / "regions.jsonl", _region_rows(2))
        small = ["--embed-dim", "4", "--hidden-dim", "8", "--vocab-size", "16",
                 "--adapter-bottleneck", "2", "--epochs", "1"]
        return {
            "train": ["--dataset", str(dataset), *small],
            "ground-train": ["--regions", str(regions), "--classes", str(classes), *small],
            "eval-zeroshot": ["--checkpoint", str(checkpoint), "--images", str(images),
                              "--classes", str(classes)],
        }

    @pytest.mark.parametrize("command, outputs, line", [
        ("train", ["--out-checkpoint", "m.json", "--trace", "nodir/t.csv"],
         "data error: [Errno 2] No such file or directory: 'nodir/t.csv'"),
        ("train", ["--out-checkpoint", "adir", "--trace", "t.csv"],
         "data error: [Errno 21] Is a directory: 'adir'"),
        ("train", ["--out-checkpoint", "x", "--trace", "./x"],
         "config error: --out-checkpoint and --trace name one file: x"),
        ("ground-train", ["--out-checkpoint", "nodir/g.json"],
         "data error: [Errno 2] No such file or directory: 'nodir/g.json'"),
        ("ground-train", ["--out-checkpoint", "g.json", "--trace", "adir"],
         "data error: [Errno 21] Is a directory: 'adir'"),
        ("ground-train", ["--out-checkpoint", "g", "--trace", "adir/../g"],
         "config error: --out-checkpoint and --trace name one file: adir/../g"),
        ("eval-zeroshot", ["--out", "z.json", "--breakdown-csv", "nodir/b.csv"],
         "data error: [Errno 2] No such file or directory: 'nodir/b.csv'"),
        ("eval-zeroshot", ["--out", "adir"], "data error: [Errno 21] Is a directory: 'adir'"),
        ("eval-zeroshot", ["--out", "z", "--breakdown-csv", "z"],
         "config error: --out and --breakdown-csv name one file: z"),
    ])
    def test_a_refused_output_opens_no_input_and_writes_nothing(
        self, capsys, tmp_path, monkeypatch, opened_paths, inputs, command, outputs, line
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        argv = [command, *inputs[command], *outputs]
        files = sorted(tmp_path.rglob("*"))
        opened_paths.clear()
        code, _, err = run(capsys, *argv)
        assert code == (EXIT_DATA if line.startswith("data") else EXIT_USAGE)
        assert err == line + "\n"
        assert sorted(tmp_path.rglob("*")) == files
        assert not {arg for arg in argv if os.path.isfile(arg)} & set(opened_paths)

    def test_bench_synth_checks_its_output_before_it_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(synth, "run_bench", lambda cfg: pytest.fail("the benchmark ran"))
        code, _, err = run(capsys, "bench-synth", "--n-seeds", "1", "--out", "nodir/b.json")
        assert code == EXIT_DATA
        assert err == "data error: [Errno 2] No such file or directory: 'nodir/b.json'\n"
        assert list(tmp_path.iterdir()) == []

    def test_the_check_covers_every_output_of_every_subcommand(self, tmp_path):
        # An output is an ``args.<dest>`` that cli hands to a function writing with atomic_open.
        writers = {name for module in (cli, enc, evaluation, trainer)
                   for name, fn in vars(module).items()
                   if inspect.isfunction(fn) and "atomic_open(" in inspect.getsource(fn)}
        written = {
            arg.attr for call in ast.walk(ast.parse(inspect.getsource(cli)))
            if isinstance(call, ast.Call)
            and getattr(call.func, "attr", getattr(call.func, "id", None)) in writers
            for arg in call.args
            if isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "args"
        }
        assert {"out", "out_checkpoint", "trace", "breakdown_csv"} <= written
        for name, sub in cli.build_parser().subcommands.items():
            for dest in written & set(sub.flags):
                args = argparse.Namespace(**{dest: str(tmp_path / "nodir" / "x")})
                with pytest.raises(FileNotFoundError):
                    cli._check_outputs(args)


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
