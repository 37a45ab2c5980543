import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexivis import encoder as enc
from lexivis.compose import PromptTemplate, compose_class_text
from lexivis.errors import DataError, NumericsError
from lexivis.evaluation import (
    ClassEmbeddings,
    build_class_embeddings,
    concept_overlap,
    dataset_stats,
    linear_probe,
    zero_shot_classify,
)
from lexivis.knowledge import Dictionary, DictionaryEntry, KnowledgeStore
from lexivis.trainer import Triplet


@pytest.fixture
def params(toy_config):
    return enc.init_params(toy_config, seed=31)


@pytest.fixture
def toy_store():
    return KnowledgeStore(
        wiktionary=Dictionary(
            [DictionaryEntry("boxer", ("a participant (fighter) in a boxing match",))]
        )
    )


class TestClassEmbeddings:
    def test_without_knowledge_equals_vanilla_prompt_embedding(self, params, toy_store, toy_config):
        bank = build_class_embeddings(params, ["boxer"], store=toy_store, with_knowledge=False)
        ids = enc.text_to_ids("a photo of a boxer", toy_config)
        raw = enc.encode_text(params, ids)
        assert np.allclose(bank.matrix[:, 0], raw / np.linalg.norm(raw))
        assert bank.provenance[0]["hit"] is False

    def test_with_knowledge_uses_composed_text(self, params, toy_store, toy_config):
        bank = build_class_embeddings(params, ["boxer"], store=toy_store, with_knowledge=True)
        composed = compose_class_text(
            PromptTemplate(), "boxer", "a participant (fighter) in a boxing match",
            toy_config.max_tokens,
        )
        ids = enc.text_to_ids(composed.text, toy_config)
        raw = enc.encode_text(params, ids)
        assert np.allclose(bank.matrix[:, 0], raw / np.linalg.norm(raw))
        assert bank.provenance[0]["hit"] is True

    def test_two_branch_selective_with_zero_adapters_matches_one_branch(self, toy_config, toy_store):
        params = enc.init_params(toy_config, seed=32, with_adapters=True)
        selective = build_class_embeddings(
            params, ["boxer", "zzmiss"], store=toy_store, with_knowledge=True,
            branch_mode="two_branch_selective",
        )
        one = build_class_embeddings(
            params, ["boxer", "zzmiss"], store=toy_store, with_knowledge=True,
            branch_mode="one_branch",
        )
        assert np.array_equal(selective.matrix, one.matrix)
        assert [p["branch"] for p in selective.provenance] == ["adapter", "base"]
        assert [p["branch"] for p in one.provenance] == ["adapter", "adapter"]

    def test_columns_unit_norm(self, params, toy_store):
        bank = build_class_embeddings(params, ["boxer", "other"], store=toy_store, with_knowledge=True)
        assert np.allclose(np.linalg.norm(bank.matrix, axis=0), 1.0)

    def test_template_ensemble_averages(self, params, toy_config):
        t1, t2 = PromptTemplate("a photo of a {}"), PromptTemplate("an image of a {}")
        bank = build_class_embeddings(params, ["boxer"], templates=[t1, t2])
        embeds = []
        for t in (t1, t2):
            ids = enc.text_to_ids(t.format("boxer"), toy_config)
            raw = enc.encode_text(params, ids)
            embeds.append(raw / np.linalg.norm(raw))
        mean = np.mean(embeds, axis=0)
        assert np.allclose(bank.matrix[:, 0], mean / np.linalg.norm(mean))

    def test_empty_class_list_errors(self, params):
        with pytest.raises(ValueError):
            build_class_embeddings(params, [])


    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_degenerate_text_embedding_is_numerics_error(self, params, value):
        params.tensors["lnf.g"][:] = value
        params.tensors["lnf.b"][:] = value
        with pytest.raises(NumericsError, match="class 'boxer'"):
            build_class_embeddings(params, ["boxer"])


class TestZeroShot:
    def test_single_class_predicts_zero(self, params, toy_config):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(10, toy_config.image_input_dim))
        bank = build_class_embeddings(params, ["only"])
        labels = np.array([0] * 6 + [1] * 4)  # class-0 frequency 0.6
        preds, acc = zero_shot_classify(params, images, bank, labels)
        assert np.all(preds == 0)
        assert acc == pytest.approx(0.6)

    def test_diagonal_fixture_perfect(self, toy_config):
        # bypass encoders: craft a bank aligned with encoded image features
        params = enc.init_params(toy_config, seed=33)
        rng = np.random.default_rng(1)
        images = rng.normal(size=(6, toy_config.image_input_dim))
        feats = enc.encode_images(params, images)
        feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        bank = ClassEmbeddings(feats[:3].T.copy(), ["a", "b", "c"])
        preds, acc = zero_shot_classify(params, images[:3], bank, np.arange(3))
        assert acc == 1.0

    def test_random_embeddings_near_chance(self, toy_config):
        params = enc.init_params(toy_config, seed=34)
        rng = np.random.default_rng(2)
        n_classes, n = 10, 400
        accs = []
        for seed in range(5):
            r = np.random.default_rng(seed)
            mat = r.normal(size=(toy_config.embed_dim, n_classes))
            mat /= np.linalg.norm(mat, axis=0, keepdims=True)
            bank = ClassEmbeddings(mat, [str(i) for i in range(n_classes)])
            images = rng.normal(size=(n, toy_config.image_input_dim))
            labels = rng.integers(0, n_classes, size=n)
            _, acc = zero_shot_classify(params, images, bank, labels)
            accs.append(acc)
        assert abs(np.mean(accs) - 0.1) < 0.05

    def test_tie_breaks_to_lowest_index(self, toy_config):
        params = enc.init_params(toy_config, seed=35)
        rng = np.random.default_rng(3)
        images = rng.normal(size=(4, toy_config.image_input_dim))
        col = rng.normal(size=toy_config.embed_dim)
        col /= np.linalg.norm(col)
        bank = ClassEmbeddings(np.stack([col, col], axis=1), ["a", "b"])
        preds, _ = zero_shot_classify(params, images, bank)
        assert np.all(preds == 0)


class TestLinearProbe:
    def test_separable_features_reach_perfect_accuracy(self):
        rng = np.random.default_rng(0)
        protos = np.eye(2) * 4.0
        feats, labels = [], []
        for c in range(2):
            for _ in range(20):
                feats.append(protos[c] + 0.1 * rng.normal(size=2))
                labels.append(c)
        result = linear_probe(np.array(feats), np.array(labels), shots_per_class=5)
        assert result.accuracy == 1.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(120, 6))
        labels = rng.integers(0, 3, size=120)
        result = linear_probe(feats, labels, shots_per_class=5)
        assert abs(result.accuracy - 1 / 3) < 0.2

    def test_insufficient_examples_error(self):
        feats = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataError):
            linear_probe(feats, labels, shots_per_class=2)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(60, 4))
        labels = rng.integers(0, 2, size=60)
        a = linear_probe(feats, labels, 5)
        b = linear_probe(feats, labels, 5)
        assert a.accuracy == b.accuracy and a.per_seed == b.per_seed


class TestConceptOverlap:
    def test_identical_sets(self):
        assert concept_overlap({"a", "b"}, {"a", "b"}) == 100.0

    def test_partial(self):
        assert concept_overlap({"a", "b", "c"}, {"b", "c", "d", "e"}) == 50.0

    def test_disjoint(self):
        assert concept_overlap({"a"}, {"b"}) == 0.0

    def test_normalization(self):
        assert concept_overlap({"Great  Dane"}, {"great dane"}) == 100.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            concept_overlap({"a"}, set())

    @settings(max_examples=30, deadline=None)
    @given(
        pre=st.sets(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=6),
        extra=st.sets(st.text(alphabet="abc", min_size=1, max_size=3), min_size=0, max_size=4),
        down=st.sets(st.text(alphabet="abcde", min_size=1, max_size=3), min_size=1, max_size=8),
    )
    def test_bounds_and_monotonicity(self, pre, extra, down):
        small = concept_overlap(pre, down)
        big = concept_overlap(pre | extra, down)
        assert 0.0 <= small <= big <= 100.0


class TestEvalReport:
    def test_report_fields(self, params, toy_store, toy_config):
        from lexivis.evaluation import make_eval_report

        rng = np.random.default_rng(4)
        images = rng.normal(size=(10, toy_config.image_input_dim))
        labels = np.array([0, 1] * 5)
        bank = build_class_embeddings(
            params, ["boxer", "zzmiss"], store=toy_store, with_knowledge=True
        )
        preds, _ = zero_shot_classify(params, images, bank, labels)
        report = make_eval_report(
            params, preds, labels, bank,
            pretrain_concepts=["boxer", "tench"],
            store=toy_store,
        )
        assert 0.0 <= report.top1_accuracy <= 1.0
        assert set(report.per_class_accuracy) == {"boxer", "zzmiss"}
        assert report.concept_overlap_pct == 50.0
        assert report.knowledge_coverage_pct == 50.0
        assert len(report.config_digest) == 16

    def test_digest_tracks_options(self, params, toy_store, toy_config):
        from lexivis.evaluation import make_eval_report

        rng = np.random.default_rng(5)
        images = rng.normal(size=(4, toy_config.image_input_dim))
        labels = np.zeros(4, dtype=int)
        bank = build_class_embeddings(params, ["boxer"], store=toy_store)
        preds, _ = zero_shot_classify(params, images, bank, labels)
        a = make_eval_report(params, preds, labels, bank, eval_options={"k": 1})
        b = make_eval_report(params, preds, labels, bank, eval_options={"k": 2})
        assert a.config_digest != b.config_digest

    def test_breakdown_csv(self, tmp_path):
        from lexivis.evaluation import write_breakdown_csv

        path = tmp_path / "breakdown.csv"
        write_breakdown_csv(
            [
                {"dataset": "toy", "score": 0.5, "concept_overlap": 25.0, "knowledge_coverage": 100.0},
                {"dataset": "other", "score": 0.25, "concept_overlap": None, "knowledge_coverage": None},
            ],
            path,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,score,concept_overlap,knowledge_coverage"
        assert lines[1] == "toy,0.5,25.0,100.0"
        assert lines[2] == "other,0.25,,"


def stats_oracle(concepts, min_freq):
    counts = collections.Counter(concepts)
    frequent = {c: n for c, n in counts.items() if n > min_freq}
    vocab = lambda pool: len({tok for c in pool for tok in c.split()})
    values = list(counts.values())
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return {
        "instances": len(concepts),
        "concepts_full": len(counts),
        "concepts_minfreq": len(frequent),
        "vocab_full": vocab(counts),
        "vocab_minfreq": vocab(frequent),
        "mean_ins_per_concept": mean,
        "std_ins_per_concept": var**0.5,
    }


class TestDatasetStats:
    def _triplets(self, concepts):
        return [Triplet(image=np.zeros(2), text=c, kind="category") for c in concepts]

    def test_single_concept(self):
        stats = dataset_stats(self._triplets(["a"] * 10))
        assert stats["concepts_full"] == 1
        assert stats["mean_ins_per_concept"] == 10.0
        assert stats["std_ins_per_concept"] == 0.0

    def test_fixture_6_2(self):
        stats = dataset_stats(self._triplets(["a"] * 6 + ["b"] * 2))
        assert stats["concepts_full"] == 2
        assert stats["concepts_minfreq"] == 1
        assert stats["mean_ins_per_concept"] == 4.0
        assert stats["std_ins_per_concept"] == 2.0

    def test_empty_after_filter(self):
        stats = dataset_stats(self._triplets(["a", "b", "c"]))
        assert stats["concepts_minfreq"] == 0

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError):
            dataset_stats([])

    def test_matches_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(9)
        pool = ["ant", "bee fly", "cat", "dog", "emu bird", "fox"]
        for _ in range(50):
            n = int(rng.integers(1, 40))
            concepts = [pool[i] for i in rng.integers(0, len(pool), size=n)]
            min_freq = int(rng.integers(0, 6))
            got = dataset_stats(self._triplets(concepts), min_freq=min_freq)
            expected = stats_oracle(concepts, min_freq)
            for key, val in expected.items():
                assert got[key] == pytest.approx(val), key
