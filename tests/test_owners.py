"""Each value that augment, train and eval must agree on has one owner, which every user follows."""

import functools
import json

import numpy as np

from lexivis import compose, encoder as enc, evaluation, grounding, synth, trainer
from lexivis.cli import EXIT_OK, main
from lexivis.compose import PromptTemplate
from lexivis.encoder import EncoderConfig
from lexivis.knowledge import Dictionary, DictionaryEntry, KnowledgeStore
from lexivis.trainer import TrainConfig, Triplet


def _store():
    return KnowledgeStore(wiktionary=Dictionary([
        DictionaryEntry("boxer", ("a participant (fighter) in a boxing match",)),
    ]))


def test_augment_dataset_follows_the_defaults_of_iter_augmented(monkeypatch):
    rows = [Triplet(np.zeros(2), "boxer"), Triplet(np.zeros(2), "a boxer", kind="caption")]
    recipe = ("combine", PromptTemplate("the {}"), 6, None)  # scheme, template, max_tokens, lexicon
    expected = [t.text for t in trainer.iter_augmented(rows, {}, _store(), "wiki_def", *recipe)]
    assert [t.text for t in trainer.augment_dataset(rows, _store(), "wiki_def")[0]] != expected
    monkeypatch.setattr(trainer.iter_augmented, "__defaults__", recipe)
    assert [t.text for t in trainer.augment_dataset(rows, _store(), "wiki_def")[0]] == expected


def test_the_word_budget_is_the_one_rule_of_compose_encoder_and_train(monkeypatch):
    monkeypatch.setattr(compose, "word_budget", lambda max_tokens: max_tokens - 2)
    assert compose.compose_od_text("fox", "a b c d e", max_tokens=5).text == "fox, a b"
    cfg = EncoderConfig(embed_dim=4, text_layers=1, hidden_dim=8, vocab_size=16, max_tokens=5,
                        adapter_bottleneck=2, image_input_dim=2)
    assert len(enc.text_to_ids("a b c d e", cfg)) == 3 + 1  # the kept words and EOS
    rows = [Triplet(np.eye(2)[0], "a b c d"), Triplet(np.eye(2)[1], "e f")]
    result = trainer.train(TrainConfig(batch_size=2, epochs=0, encoder=cfg), rows)
    assert result.cut == (1, 2, 4)  # 4 words pass max_tokens - 1 but are cut past max_tokens - 2


def test_ground_train_and_ground_eval_pool_at_the_grounding_token(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(grounding, "POOLING", "eos")
    real_text_to_ids, poolings = enc.text_to_ids, []

    def recording_text_to_ids(text, config, pooling=None):
        poolings.append(pooling)
        return real_text_to_ids(text, config, pooling or "eos")

    monkeypatch.setattr(enc, "text_to_ids", recording_text_to_ids)
    classes, regions = tmp_path / "classes.json", tmp_path / "regions.jsonl"
    classes.write_text(json.dumps(["boxer", "tench"]))
    row = {"image_id": "a", "features": np.eye(2, 4).tolist(), "targets": np.eye(2).tolist()}
    regions.write_text(json.dumps(row) + "\n")
    ckpt = str(tmp_path / "ground.json")
    for argv in (
        ["ground-train", "--regions", str(regions), "--classes", str(classes),
         "--out-checkpoint", ckpt, "--embed-dim", "4", "--hidden-dim", "8", "--vocab-size", "16",
         "--adapter-bottleneck", "2", "--epochs", "1"],
        ["ground-eval", "--checkpoint", ckpt, "--regions", str(regions), "--classes", str(classes)],
    ):
        poolings.clear()
        assert main(argv) == EXIT_OK, capsys.readouterr().err
        assert poolings == ["eos", "eos"], argv[0]  # one text per class


def test_synth_trains_and_evaluates_with_its_one_template(monkeypatch):
    template = PromptTemplate("the {}")
    monkeypatch.setattr(synth.SynthConfig, "template", template)
    real_augment, real_bank, seen = trainer.augment_dataset, evaluation.build_class_embeddings, []

    def recording_augment(*args, **kwargs):
        seen.append(kwargs["template"])
        return real_augment(*args, **kwargs)

    def recording_bank(*args, **kwargs):
        seen.append(kwargs["templates"])
        return real_bank(*args, **kwargs)

    monkeypatch.setattr(trainer, "augment_dataset", recording_augment)
    monkeypatch.setattr(evaluation, "build_class_embeddings", recording_bank)
    cfg = synth.SynthConfig(n_common=2, n_rare=2, train_per_class=2, eval_per_class=1, epochs=1,
                            batch_size=4, n_seeds=1)
    synth.run_seed(0, cfg)
    # Each model is evaluated without and with knowledge; the second one trains on augment's texts.
    assert seen == [[template], [template], template, [template], [template]]


def test_eval_zeroshot_leaves_the_default_prompt_to_build_class_embeddings(
    monkeypatch, tmp_path, capsys
):
    cfg = EncoderConfig(embed_dim=4, text_layers=1, hidden_dim=8, vocab_size=16, max_tokens=8,
                        adapter_bottleneck=2, image_input_dim=4)
    ckpt = tmp_path / "model.json"
    enc.save_checkpoint(enc.init_params(cfg, seed=0), ckpt)
    images, classes = tmp_path / "images.jsonl", tmp_path / "classes.json"
    images.write_text(json.dumps({"image": [1.0, 0.0, 0.0, 0.0]}) + "\n")
    classes.write_text(json.dumps(["boxer", "tench"]))
    real_bank, seen = evaluation.build_class_embeddings, []

    @functools.wraps(real_bank)  # the parser reads the --source and --branch-mode defaults
    def recording_bank(*args, **kwargs):
        seen.append(args[5])
        return real_bank(*args, **kwargs)

    monkeypatch.setattr(evaluation, "build_class_embeddings", recording_bank)
    argv = ["eval-zeroshot", "--checkpoint", str(ckpt), "--images", str(images),
            "--classes", str(classes)]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    assert seen == [None]
