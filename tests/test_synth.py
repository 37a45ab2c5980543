import tracemalloc

import numpy as np
import pytest

from lexivis import encoder as enc, synth
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

    def test_source_is_fixed_to_the_wiktionary_world(self):
        # build_world's store holds Wiktionary senses only; another source would miss every query.
        assert synth.SynthConfig().source == "wiki_def"
        with pytest.raises(TypeError):
            synth.SynthConfig(source="wn_def")

    @pytest.mark.parametrize("values, message", [
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"batch_size": 1}, "batch_size >= 2"),
        ({"learning_rate": 0.0}, "learning_rate must be finite and > 0"),
        ({"train_per_class": 0}, "train_per_class and eval_per_class must be >= 1"),
        ({"eval_per_class": 0}, "train_per_class and eval_per_class must be >= 1"),
        ({"noise": float("nan")}, "noise must be finite and >= 0"),
        ({"noise": float("inf")}, "noise must be finite and >= 0"),
        ({"noise": -1.0}, "noise must be finite and >= 0"),
    ])
    def test_bad_training_values_rejected_when_built(self, values, message):
        with pytest.raises(ConfigError, match=message):
            synth.SynthConfig(**values)

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

    def test_one_trained_model_is_alive_at_a_time(self):
        # The first condition's model once stayed alive while the second trained.
        cfg = _tiny_config()
        world = synth.build_world(0, cfg)

        def peak(run):
            run()  # warm-up: lazily built module state
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        train_peak = peak(lambda: synth._train_condition(world, cfg, 0, True))
        seed_peak = peak(lambda: synth.run_seed(0, cfg))
        vector = 8 * sum(t.size for t in enc.init_params(cfg.encoder, seed=0).tensors.values())
        assert seed_peak - train_peak < vector / 2
