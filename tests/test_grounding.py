import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lexivis import encoder as enc, trainer
from lexivis.errors import DataError, NumericsError
from lexivis.grounding import (
    FocalParams,
    RegionSet,
    encode_phrases_parallel,
    focal_loss,
    focal_loss_with_grad,
    ground_scores,
    load_regions_jsonl,
    region_accuracy,
    zero_shot_region_classify,
)


def bce_oracle(scores, targets):
    """Plain binary cross-entropy summed over cells, scalar loops."""
    total = 0.0
    for s, t in zip(np.ravel(scores), np.ravel(targets)):
        p = 1.0 / (1.0 + math.exp(-s))
        total += -(t * math.log(p) + (1 - t) * math.log(1 - p))
    return total


@pytest.fixture
def params(toy_config):
    return enc.init_params(toy_config, seed=21)


class TestParallelEncoding:
    def test_single_text_equals_encode_text(self, params, toy_config):
        bank = encode_phrases_parallel(params, ["red fox"])
        ids = enc.text_to_ids("red fox", toy_config, pooling="cls")
        direct = enc.encode_text(params, ids, pooling="cls")
        assert np.array_equal(bank.matrix[:, 0], direct)

    def test_permutation_permutes_columns(self, params):
        texts = ["red fox", "blue bird", "green frog"]
        bank = encode_phrases_parallel(params, texts)
        perm = encode_phrases_parallel(params, [texts[2], texts[0], texts[1]])
        assert np.array_equal(perm.matrix[:, 1], bank.matrix[:, 0])
        assert np.array_equal(perm.matrix[:, 0], bank.matrix[:, 2])

    def test_columns_match_one_at_a_time_oracle(self, params):
        texts = ["red fox", "blue bird", "green frog"]
        bank = encode_phrases_parallel(params, texts)
        for k, text in enumerate(texts):
            solo = encode_phrases_parallel(params, [text]).matrix[:, 0]
            assert np.array_equal(bank.matrix[:, k], solo)

    def test_changing_one_text_changes_only_that_column(self, params):
        texts = ["red fox", "blue bird", "green frog"]
        bank = encode_phrases_parallel(params, texts)
        changed = encode_phrases_parallel(params, ["red fox", "purple lizard", "green frog"])
        assert np.array_equal(changed.matrix[:, 0], bank.matrix[:, 0])
        assert np.array_equal(changed.matrix[:, 2], bank.matrix[:, 2])
        assert not np.allclose(changed.matrix[:, 1], bank.matrix[:, 1])

    def test_empty_list_errors(self, params):
        with pytest.raises(ValueError):
            encode_phrases_parallel(params, [])

    def test_overlength_text_errors(self, params, toy_config):
        ids = [3] * (toy_config.max_tokens + 1)
        with pytest.raises(ValueError):
            enc.encode_text(params, [enc.CLS_ID] + ids, pooling="cls")

    def test_overlength_category_text_rejected(self, params, toy_config):
        long_text = " ".join(f"w{i}" for i in range(toy_config.max_tokens + 4))
        with pytest.raises(ValueError, match="max"):
            encode_phrases_parallel(params, ["short", long_text])


class TestGroundScores:
    def test_coordinate_picks(self):
        v = np.eye(3)
        u = np.eye(3) * 2.0
        assert np.allclose(ground_scores(v, u), np.eye(3) * 2.0)

    def test_scalar_case(self):
        assert ground_scores(np.array([[2.0]]), np.array([[3.0]])) == pytest.approx(
            np.array([[6.0]])
        )

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(4, 6))
        u = rng.normal(size=(6, 3))
        s = ground_scores(v, u)
        for m in range(4):
            for k in range(3):
                assert s[m, k] == pytest.approx(float(np.dot(v[m], u[:, k])), abs=1e-12)

    def test_dimension_mismatch_errors(self):
        with pytest.raises(ValueError):
            ground_scores(np.zeros((2, 3)), np.zeros((4, 2)))


class TestFocalLoss:
    def test_saturated_correct_predictions_vanish(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.where(t == 1.0, 20.0, -20.0)
        assert focal_loss(s, t) < 1e-6

    def test_hand_value(self):
        loss = focal_loss(np.array([[0.0]]), np.array([[1.0]]), FocalParams(0.25, 2.0))
        assert loss == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-9)
        assert loss == pytest.approx(0.043322, abs=1e-6)

    def test_gamma_zero_is_half_bce(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(5, 4)) * 3.0
        t = (rng.random((5, 4)) < 0.5).astype(float)
        loss = focal_loss(s, t, FocalParams(alpha=0.5, gamma=0.0))
        assert abs(loss - 0.5 * bce_oracle(s, t)) <= 1e-9 * max(1.0, abs(loss))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.normal(size=(3, 3)) * 5
            t = (rng.random((3, 3)) < 0.5).astype(float)
            assert focal_loss(s, t) >= 0.0

    def test_monotone_in_positive_scores(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 3))
        t = np.zeros((3, 3))
        t[1, 2] = 1.0
        base = focal_loss(s, t)
        s2 = s.copy()
        s2[1, 2] += 0.5
        assert focal_loss(s2, t) <= base

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=(4, 3)) * 2
        t = (rng.random((4, 3)) < 0.4).astype(float)
        for fp in (FocalParams(), FocalParams(0.5, 0.0), FocalParams(0.3, 1.0)):
            _, grad = focal_loss_with_grad(s, t, fp)
            h = 1e-6
            for m in range(4):
                for k in range(3):
                    bumped = s.copy()
                    bumped[m, k] += h
                    up = focal_loss(bumped, t, fp)
                    bumped[m, k] -= 2 * h
                    down = focal_loss(bumped, t, fp)
                    assert grad[m, k] == pytest.approx((up - down) / (2 * h), abs=1e-7)

    def test_shape_mismatch_errors(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FocalParams(alpha=0.0)
        with pytest.raises(ValueError):
            FocalParams(gamma=-1.0)


def _all_caches_grads(params, batch, spec):
    """Reference ground_focal gradient: every text's cache alive until the loss is known."""
    g = params.zeros_like()
    encoded = [
        enc._text_forward(params, list(ids), spec.pooling, spec.use_adapters)
        for ids in batch.token_ids
    ]
    bank = np.stack([vec for vec, _ in encoded], axis=1)
    feats = np.asarray(batch.region_features, dtype=np.float64)
    fp = FocalParams(alpha=spec.focal_alpha, gamma=spec.focal_gamma)
    loss, d_scores = focal_loss_with_grad(feats @ bank, batch.targets, fp)
    d_bank = feats.T @ d_scores
    for k, (_, cache) in enumerate(encoded):
        enc._text_backward(params, cache, d_bank[:, k], g)
    return loss, g


def _focal_case(num_texts, num_regions, use_adapters, seed=0):
    """Default-sized encoder, random texts of 3..20 words, random regions and targets."""
    cfg = enc.EncoderConfig(vocab_size=512)
    rng = np.random.default_rng(seed)
    params = enc.init_params(cfg, seed=seed, with_adapters=use_adapters)
    for key, tensor in params.tensors.items():
        if enc.is_adapter_key(key):
            # Zero-initialized adapters are the identity; give them weight.
            tensor += 0.1 * rng.normal(size=tensor.shape)
    texts = [
        " ".join(f"w{i}" for i in rng.integers(0, 400, size=rng.integers(3, 21)))
        for _ in range(num_texts)
    ]
    batch = enc.TrainBatch(
        token_ids=[enc.text_to_ids(t, cfg, pooling="cls") for t in texts],
        region_features=rng.normal(size=(num_regions, cfg.embed_dim)),
        targets=(rng.random((num_regions, num_texts)) < 0.3).astype(float),
    )
    spec = enc.LossSpec(loss="ground_focal", pooling="cls", use_adapters=use_adapters)
    return params, batch, spec


class TestStreamedFocalGrads:
    @pytest.mark.parametrize("use_adapters", [False, True])
    @pytest.mark.parametrize("num_regions", [1, 6])
    @pytest.mark.parametrize("num_texts", [1, 3, 40])
    def test_bitwise_equal_to_all_caches_reference(self, num_texts, num_regions, use_adapters):
        params, batch, spec = _focal_case(num_texts, num_regions, use_adapters)
        losses, g = enc.grads(params, batch, spec)
        ref_loss, ref_g = _all_caches_grads(params, batch, spec)
        assert losses["loss"] == ref_loss
        assert list(g) == list(ref_g)
        for key in g:
            assert np.array_equal(g[key], ref_g[key]), key

    def test_peak_memory_does_not_grow_with_categories(self):
        def peak(num_texts):
            params, batch, spec = _focal_case(num_texts, 6, use_adapters=False)
            tracemalloc.start()
            try:
                enc.grads(params, batch, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) < 1.5 * peak(4)

    def test_bad_targets_shape_fails_before_encoding(self, monkeypatch):
        params, batch, spec = _focal_case(3, 6, use_adapters=False)
        batch.targets = batch.targets[:, :2]

        def forbidden(*args, **kwargs):
            raise AssertionError("a text was encoded before the targets were checked")

        monkeypatch.setattr(enc, "_text_forward", forbidden)
        with pytest.raises(ValueError, match=r"scores shape \(6, 3\) != targets shape \(6, 2\)"):
            enc.grads(params, batch, spec)

    def test_no_category_text_is_an_error(self):
        params, batch, spec = _focal_case(3, 6, use_adapters=False)
        batch.token_ids, batch.targets = [], batch.targets[:, :0]
        with pytest.raises(ValueError, match="category texts"):
            enc.grads(params, batch, spec)

    def test_non_finite_region_features_are_numerics_error(self):
        params, batch, spec = _focal_case(3, 6, use_adapters=False)
        batch.region_features[4, 7] = np.nan
        with pytest.raises(NumericsError, match="grounding scores contain non-finite entries"):
            enc.grads(params, batch, spec)


class TestRegionClassify:
    def test_single_category_always_wins(self, params, toy_config):
        regions = RegionSet("im0", np.random.default_rng(0).normal(size=(5, toy_config.embed_dim)))
        preds = zero_shot_region_classify(params, regions, ["only category"])
        assert [k for k, _ in preds] == [0] * 5

    def test_separable_fixture_perfect_accuracy(self, params, toy_config):
        texts = ["red fox", "blue bird", "green frog"]
        bank = encode_phrases_parallel(params, texts).matrix  # (P, 3)
        features = bank.T * 5.0  # region m points exactly at category m
        regions = RegionSet("im0", features, targets=np.eye(3))
        preds = zero_shot_region_classify(params, regions, texts)
        assert region_accuracy(preds, regions.targets) == pytest.approx(1.0)

    def test_scores_are_sigmoids(self, params, toy_config):
        regions = RegionSet("im0", np.random.default_rng(1).normal(size=(4, toy_config.embed_dim)))
        preds = zero_shot_region_classify(params, regions, ["a", "b"])
        assert all(0.0 < s < 1.0 for _, s in preds)

    def test_background_rows_excluded_from_accuracy(self):
        preds = [(0, 0.9), (1, 0.8)]
        targets = np.array([[1, 0], [0, 0]])  # second row is background
        assert region_accuracy(preds, targets) == pytest.approx(1.0)
        assert region_accuracy([(0, 0.5)], np.array([[0, 0]])) is None


class TestKnowledgeGain:
    def _train_text_encoder(self, cfg, texts, features, targets, seed, steps=150):
        params = enc.init_params(cfg, seed=seed)
        token_ids = [enc.text_to_ids(t, cfg, pooling="cls") for t in texts]
        spec = enc.LossSpec(loss="ground_focal", pooling="cls")

        def make_batch(batch):
            (region,) = batch
            return enc.TrainBatch(
                token_ids=token_ids, region_features=region.features, targets=region.targets
            )

        # One region set, so each epoch is exactly one full-batch step.
        trace, _ = trainer.fit(
            params, spec, [RegionSet("common", features, targets)], make_batch,
            epochs=steps, batch_size=1, optimizer="adam", learning_rate=1e-2, seed=seed,
        )
        assert len(trace) == steps
        return params

    def test_rare_regions_score_higher_with_knowledge(self):
        # Common categories anchor prototype directions via their jargon
        # tokens; held-out categories are gibberish names whose definitions
        # reuse that jargon, and their region features mix two prototypes.
        cfg = enc.EncoderConfig(
            embed_dim=16, text_layers=1, num_heads=2, hidden_dim=24,
            vocab_size=128, max_tokens=16, adapter_bottleneck=4, image_input_dim=16,
        )
        common = ["amber", "basil", "cedar", "delta"]
        jargon = ["vorthic", "snurle", "craddix", "plome"]
        defs = {n: f"a kind akin to {j} and {j} forms" for n, j in zip(common, jargon)}
        rare = ["zyphit", "quorv"]
        rare_defs = {
            "zyphit": f"a kind akin to {jargon[0]} and {jargon[1]} forms",
            "quorv": f"a kind akin to {jargon[2]} and {jargon[3]} forms",
        }
        wins = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            protos = np.linalg.qr(rng.normal(size=(16, 4)))[0].T * 3.0
            features = np.stack([protos[k] + 0.05 * rng.normal(size=16) for k in range(4)])
            texts = [f"{n}, {defs[n]}" for n in common]
            params = self._train_text_encoder(cfg, texts, features, np.eye(4), seed)

            mixtures = np.stack(
                [(protos[0] + protos[1]) / np.sqrt(2), (protos[2] + protos[3]) / np.sqrt(2)]
            )
            regions = RegionSet("rare", mixtures, targets=np.eye(2))
            with_k = zero_shot_region_classify(
                params, regions, [f"{n}, {rare_defs[n]}" for n in rare]
            )
            without = zero_shot_region_classify(params, regions, list(rare))

            def mean_correct_score(preds):
                total = 0.0
                for m, (k, score) in enumerate(preds):
                    total += score if k == m else 0.0
                return total / len(preds)

            if mean_correct_score(with_k) > mean_correct_score(without):
                wins += 1
        assert wins >= 2


class TestRegionIo:
    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "regions.jsonl"
        row = {
            "image_id": "a",
            "features": [[0.1, 0.2], [0.3, 0.4]],
            "targets": [[1, 0, 0], [0, 0, 1]],
        }
        path.write_text(json.dumps(row) + "\n")
        regions = load_regions_jsonl(path)
        assert regions[0].features.shape == (2, 2)
        assert regions[0].targets.shape == (2, 3)

    def test_nonbinary_targets_rejected(self, tmp_path):
        path = tmp_path / "regions.jsonl"
        path.write_text(json.dumps({"image_id": "a", "features": [[1.0]], "targets": [[0.5]]}) + "\n")
        with pytest.raises(DataError, match="binary"):
            load_regions_jsonl(path)

    def test_empty_errors(self, tmp_path):
        path = tmp_path / "regions.jsonl"
        path.write_text("\n")
        with pytest.raises(DataError):
            load_regions_jsonl(path)


class TestSigmoidOverflow:
    def test_extreme_scores_raise_no_warning(self, params, toy_config):
        scores = np.array([[800.0, -800.0], [-800.0, 800.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = focal_loss_with_grad(scores, np.eye(2))
            bank = encode_phrases_parallel(params, ["a", "b"]).matrix
            # Two regions whose scores are +800 and -800 against both texts.
            wanted = np.array([[800.0, 800.0], [-800.0, -800.0]])
            features = np.linalg.lstsq(bank.T, wanted.T, rcond=None)[0].T
            preds = zero_shot_region_classify(params, RegionSet("im0", features), ["a", "b"])
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx(0.0, abs=1e-300)
        assert [s for _, s in preds] == [1.0, 0.0]
