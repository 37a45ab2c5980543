import numpy as np
import pytest

from lexivis import synth
from lexivis.encoder import EncoderConfig
from lexivis.errors import ConfigError
from lexivis.knowledge import knowledge_coverage


def _tiny_config(**overrides):
    base = dict(
        n_common=4,
        n_rare=4,
        train_per_class=6,
        eval_per_class=4,
        epochs=4,
        batch_size=8,
        seeds=(0,),
    )
    base.update(overrides)
    return synth.SynthConfig(**base)


class TestWorld:
    def test_deterministic(self):
        cfg = _tiny_config()
        a = synth.build_world(0, cfg)
        b = synth.build_world(0, cfg)
        assert np.array_equal(a.eval_images, b.eval_images)
        assert [t.text for t in a.train_triplets] == [t.text for t in b.train_triplets]

    def test_rare_coverage_is_total_by_construction(self):
        world = synth.build_world(0, _tiny_config())
        assert knowledge_coverage(world.rare_names, world.store, "wiki_def") == 1.0

    def test_rare_definitions_use_common_tokens(self):
        world = synth.build_world(0, _tiny_config())
        for name in world.rare_names:
            sense = world.store.wiktionary.entries[name].senses[0]
            assert any(c in sense.split() for c in world.common_names)
            assert name not in sense.split()

    def test_common_definitions_mention_a_rival(self):
        world = synth.build_world(0, _tiny_config())
        for i, name in enumerate(world.common_names):
            sense = world.store.wiktionary.entries[name].senses[0]
            others = set(world.common_names) - {name}
            assert others & set(sense.split())

    def test_labels_grouped_per_class(self):
        world = synth.build_world(0, _tiny_config())
        labels = {t.text: t.label for t in world.train_triplets}
        assert len(set(labels.values())) == 4

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            synth.SynthConfig(n_common=99)
        with pytest.raises(ConfigError):
            synth.SynthConfig(encoder=EncoderConfig(image_input_dim=4), n_common=8)
        with pytest.raises(ConfigError):
            synth.SynthConfig(seeds=())

    def test_world_reads_the_encoder_image_width(self):
        cfg = _tiny_config(encoder=EncoderConfig(vocab_size=64, max_tokens=32, image_input_dim=6))
        world = synth.build_world(0, cfg)
        assert world.eval_images.shape[1] == 6
        assert {t.image.shape for t in world.train_triplets} == {(6,)}


class TestBench:
    def test_empty_knowledge_gap_is_exactly_zero(self):
        cfg = _tiny_config(empty_knowledge=True)
        result = synth.run_seed(0, cfg)
        assert result["rare_gain"] == 0.0
        cells = result["cells"]
        assert cells["train_nok_eval_nok"] == cells["train_k_eval_k"]
        assert cells["train_nok_eval_k"] == cells["train_k_eval_nok"]

    def test_report_schema_stable_across_seed_counts(self):
        one = synth.run_bench(_tiny_config(seeds=(0,)))
        two = synth.run_bench(_tiny_config(seeds=(0, 1)))
        assert set(one) == set(two)
        assert set(one["per_seed"][0]) == set(two["per_seed"][0])
        assert one["n_seeds"] == 1 and two["n_seeds"] == 2

    def test_seed_run_is_deterministic(self):
        cfg = _tiny_config()
        assert synth.run_seed(0, cfg) == synth.run_seed(0, cfg)
