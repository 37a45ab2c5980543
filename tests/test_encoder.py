import json
import math
import re
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from lexivis import checkpoint_json, encoder as enc
from lexivis.errors import ConfigError, DataError


def scalar_reference_forward(params, token_ids):
    """Independent re-derivation of the text forward pass with plain loops.

    Deliberately written position-by-position with python floats wherever
    possible; shares nothing with the vectorized implementation beyond the
    parameter tensors. It pools at a leading CLS, else at the last id.
    """
    t = {k: v.tolist() for k, v in params.tensors.items()}
    cfg = params.config
    p = cfg.embed_dim
    ids = list(token_ids)
    length = len(ids)
    pool = 0 if ids[0] == enc.CLS_ID else length - 1

    def gelu(x):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))

    def layer_norm(row, g, b):
        mean = sum(row) / len(row)
        var = sum((x - mean) ** 2 for x in row) / len(row)
        inv = 1.0 / math.sqrt(var + 1e-5)
        return [g[i] * (row[i] - mean) * inv + b[i] for i in range(len(row))]

    def linear(row, w, bias):
        return [sum(row[i] * w[i][o] for i in range(len(row))) + bias[o] for o in range(len(bias))]

    x = [
        [t["tok_emb"][ids[l]][i] + t["pos_emb"][l][i] for i in range(p)]
        for l in range(length)
    ]
    hd = p // cfg.num_heads
    for layer in range(cfg.text_layers):
        pre = f"layers.{layer}."
        a = [layer_norm(row, t[pre + "ln1.g"], t[pre + "ln1.b"]) for row in x]
        q = [linear(row, t[pre + "attn.Wq"], t[pre + "attn.bq"]) for row in a]
        k = [linear(row, t[pre + "attn.Wk"], t[pre + "attn.bk"]) for row in a]
        v = [linear(row, t[pre + "attn.Wv"], t[pre + "attn.bv"]) for row in a]
        ctx = [[0.0] * p for _ in range(length)]
        for head in range(cfg.num_heads):
            lo = head * hd
            for i in range(length):
                scores = []
                for j in range(length):
                    s = sum(q[i][lo + d] * k[j][lo + d] for d in range(hd)) / math.sqrt(hd)
                    scores.append(s)
                m = max(scores)
                exps = [math.exp(s - m) for s in scores]
                z = sum(exps)
                weights = [e / z for e in exps]
                for d in range(hd):
                    ctx[i][lo + d] = sum(weights[j] * v[j][lo + d] for j in range(length))
        attn_out = [linear(row, t[pre + "attn.Wo"], t[pre + "attn.bo"]) for row in ctx]
        x = [[x[l][i] + attn_out[l][i] for i in range(p)] for l in range(length)]
        m_in = [layer_norm(row, t[pre + "ln2.g"], t[pre + "ln2.b"]) for row in x]
        hidden = [[gelu(h) for h in linear(row, t[pre + "mlp.W1"], t[pre + "mlp.b1"])] for row in m_in]
        mlp_out = [linear(row, t[pre + "mlp.W2"], t[pre + "mlp.b2"]) for row in hidden]
        x = [[x[l][i] + mlp_out[l][i] for i in range(p)] for l in range(length)]
    final = [layer_norm(row, t["lnf.g"], t["lnf.b"]) for row in x]
    return np.array(final[pool])


class TestTokenization:
    def test_reserved_ids(self, toy_config):
        ids = enc.text_to_ids("hello world", toy_config)
        assert ids[-1] == enc.EOS_ID
        assert all(i >= enc.NUM_RESERVED for i in ids[:-1])
        cls_ids = enc.text_to_ids("hello world", toy_config, pooling="cls")
        assert cls_ids[0] == enc.CLS_ID

    def test_hashing_is_stable(self, toy_config):
        a = enc.text_to_ids("professional boxer", toy_config)
        b = enc.text_to_ids("professional boxer", toy_config)
        assert a == b

    def test_punctuation_normalized_like_queries(self, toy_config):
        assert enc.text_to_ids("boxer,", toy_config) == enc.text_to_ids("boxer", toy_config)

    def test_truncates_to_budget(self, toy_config):
        text = " ".join(f"w{i}" for i in range(100))
        assert len(enc.text_to_ids(text, toy_config)) == toy_config.max_tokens


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            enc.EncoderConfig(embed_dim=10, num_heads=3)

    def test_bottleneck_bound(self):
        with pytest.raises(ConfigError):
            enc.EncoderConfig(adapter_bottleneck=64, hidden_dim=64)

    @pytest.mark.parametrize("value", [32.0, True, "32", None])
    def test_dimensions_must_be_plain_ints(self, value):
        with pytest.raises(ConfigError, match="embed_dim must be an integer"):
            enc.EncoderConfig(embed_dim=value)

    @pytest.mark.parametrize(
        "field", ["embed_dim", "num_heads", "hidden_dim", "vocab_size", "max_tokens",
                  "adapter_bottleneck", "image_input_dim"],
    )
    def test_dimensions_must_be_positive(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            enc.EncoderConfig(**{field: 0})

    def test_text_layers_may_be_zero(self):
        assert enc.EncoderConfig(text_layers=0).text_layers == 0
        with pytest.raises(ConfigError, match="text_layers must be >= 0"):
            enc.EncoderConfig(text_layers=-1)


class TestEncodeText:
    def test_matches_scalar_reference(self, toy_config):
        params = enc.init_params(toy_config, seed=11)
        ids = enc.text_to_ids("red fox jumps over dog", toy_config)
        got = enc.encode_text(params, ids)
        expected = scalar_reference_forward(params, ids)
        assert np.allclose(got, expected, atol=1e-12)

    def test_minimal_width2_config_matches_reference(self):
        cfg = enc.EncoderConfig(
            embed_dim=2, text_layers=1, num_heads=1, hidden_dim=4,
            vocab_size=8, max_tokens=4, adapter_bottleneck=1, image_input_dim=2,
        )
        params = enc.init_params(cfg, seed=1)
        ids = [3, enc.EOS_ID]  # 2-token input
        got = enc.encode_text(params, ids)
        expected = scalar_reference_forward(params, ids)
        assert np.allclose(got, expected, atol=1e-12)
        assert got.shape == (2,)

    def test_matches_scalar_reference_cls(self, toy_config):
        params = enc.init_params(toy_config, seed=12)
        ids = enc.text_to_ids("blue bird", toy_config, pooling="cls")
        got = enc.encode_text(params, ids)
        expected = scalar_reference_forward(params, ids)
        assert np.allclose(got, expected, atol=1e-12)

    def test_deterministic(self, toy_config):
        params = enc.init_params(toy_config, seed=1)
        ids = enc.text_to_ids("some words", toy_config)
        assert np.array_equal(enc.encode_text(params, ids), enc.encode_text(params, ids))

    def test_returns_embed_dim_values(self, toy_config):
        params = enc.init_params(toy_config, seed=1)
        out = enc.encode_text(params, enc.text_to_ids("a", toy_config))
        assert out.shape == (toy_config.embed_dim,)

    def test_ids_after_eos_error(self, toy_config):
        params = enc.init_params(toy_config, seed=2)
        ids = enc.text_to_ids("two words", toy_config)
        enc.encode_text(params, ids)
        for padding in ([5, 9, 13], [5, enc.EOS_ID]):  # padding, then padding up to a second EOS
            with pytest.raises(ValueError, match="^EOS must end a sequence"):
                enc.encode_text(params, ids + padding)

    @pytest.mark.parametrize("ids", [[], [3, 4, 5], [enc.EOS_ID, 3], [3, enc.CLS_ID]])
    def test_neither_leading_cls_nor_final_eos_errors(self, toy_config, ids):
        params = enc.init_params(toy_config, seed=1)
        with pytest.raises(ValueError, match="^EOS must end a sequence that does not begin"):
            enc.encode_text(params, ids)

    def test_leading_cls_pools_there_before_a_final_eos(self, toy_config):
        params = enc.init_params(toy_config, seed=3)
        ids = [enc.CLS_ID, *enc.text_to_ids("red fox", toy_config)]
        got = enc.encode_text(params, ids)
        assert np.allclose(got, scalar_reference_forward(params, ids), atol=1e-12)

    def test_out_of_vocab_id_errors(self, toy_config):
        params = enc.init_params(toy_config, seed=1)
        with pytest.raises(ValueError, match="vocabulary"):
            enc.encode_text(params, [toy_config.vocab_size, enc.EOS_ID])

    def test_overlength_errors(self, toy_config):
        params = enc.init_params(toy_config, seed=1)
        ids = [3] * toy_config.max_tokens + [enc.EOS_ID]
        with pytest.raises(ValueError, match="max_tokens"):
            enc.encode_text(params, ids)

    def test_missing_pooling_token_errors(self, toy_config):
        params = enc.init_params(toy_config, seed=1)
        with pytest.raises(ValueError, match="EOS"):
            enc.encode_text(params, [3, 4, 5])


class TestAdapters:
    def test_zero_init_adapters_are_identity(self, toy_config):
        params = enc.init_params(toy_config, seed=4, with_adapters=True)
        for text in ("one", "a few more words", "yet another sample"):
            ids = enc.text_to_ids(text, toy_config)
            base = enc.encode_text(params, ids, use_adapters=False)
            branch = enc.encode_text(params, ids, use_adapters=True)
            assert np.array_equal(base, branch)

    def test_trained_adapters_change_output(self, toy_config):
        params = enc.init_params(toy_config, seed=4, with_adapters=True)
        bump = np.random.default_rng(0).normal(size=params.tensors["layers.0.ad1.up"].shape)
        params.tensors["layers.0.ad1.up"] += 0.05 * bump
        ids = enc.text_to_ids("some words", toy_config)
        base = enc.encode_text(params, ids, use_adapters=False)
        branch = enc.encode_text(params, ids, use_adapters=True)
        assert not np.allclose(base, branch)

    def test_adapter_branch_without_tensors_errors(self, toy_config):
        params = enc.init_params(toy_config, seed=4)
        with pytest.raises(ConfigError):
            enc.encode_text(params, enc.text_to_ids("x", toy_config), use_adapters=True)

    def test_add_adapters_preserves_base(self, toy_config):
        params = enc.init_params(toy_config, seed=4)
        before = {key: val.copy() for key, val in params.tensors.items()}
        extended = enc.add_adapters(params, seed=9)
        for key, val in before.items():
            assert np.array_equal(extended.tensors[key], val)
        assert extended.has_adapters

    def test_add_adapters_attaches_in_place(self, toy_config):
        params = enc.init_params(toy_config, seed=4)
        base = dict(params.tensors)
        assert enc.add_adapters(params, seed=9) is params
        assert all(params.tensors[key] is tensor for key, tensor in base.items())
        assert sum(map(enc.is_adapter_key, params.tensors)) == 8 * toy_config.text_layers


class TestEncodeImage:
    def test_zero_input_zero_bias_gives_zero(self, toy_config):
        params = enc.init_params(toy_config, seed=5)
        out = enc.encode_images(params, np.zeros((2, toy_config.image_input_dim)))
        assert out.shape == (2, toy_config.embed_dim)
        assert np.allclose(out, 0.0)

    def test_identity_like_weights_pass_through(self, toy_config):
        params = enc.init_params(toy_config, seed=5)
        d, h, p = toy_config.image_input_dim, toy_config.hidden_dim, toy_config.embed_dim
        w1 = np.zeros((d, h))
        w1[:d, :d] = np.eye(d) * 4.0  # large gain so gelu(x) ~ x in the linear regime
        w2 = np.zeros((h, p))
        w2[:d, :d] = np.eye(d) / 4.0
        params.tensors["img.W1"] = w1
        params.tensors["img.W2"] = w2
        x = np.abs(np.random.default_rng(0).normal(size=(3, d))) + 1.0
        out = enc.encode_images(params, x)
        assert np.allclose(out[:, :d], x, rtol=1e-3)
        assert np.allclose(out[:, d:], 0.0, atol=1e-6)

    def test_dimension_mismatch_errors(self, toy_config):
        params = enc.init_params(toy_config, seed=5)
        with pytest.raises(ValueError, match="dim"):
            enc.encode_images(params, np.zeros((2, toy_config.image_input_dim + 1)))
        with pytest.raises(ValueError, match="dim"):
            enc.encode_images(params, np.zeros(toy_config.image_input_dim))
        with pytest.raises(ValueError, match=r"^image input shape \(300, 6\) != "):
            enc.encode_images(params, np.zeros((300, toy_config.image_input_dim + 1)))


def _image_case(n, seed=0):
    params = enc.init_params(enc.EncoderConfig(image_input_dim=16), seed=seed)
    return params, np.random.default_rng(seed).normal(size=(n, 16))


class TestImageBlocks:
    """``encode_images`` runs the image MLP over blocks of 64-127 rows, never one row alone."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 600])
    def test_bitwise_equal_to_one_pass(self, n):
        from tests.test_golden import SKYLAKEX, _stack

        stack = _stack()
        if stack != SKYLAKEX:  # on the Haswell kernel, row blocks differ from one pass at N >= 129
            pytest.skip(f"row-block bits hold on {SKYLAKEX} only, not on: {stack}")
        params, images = _image_case(n)
        out = enc.encode_images(params, images)
        assert out.tobytes() == enc._images_forward(params, images)[0].tobytes()

    def test_zero_shot_predictions_match_one_pass(self):
        from lexivis import evaluation

        params, images = _image_case(600, seed=1)
        bank = evaluation.ClassEmbeddings(
            enc.init_params(params.config, seed=2).tensors["img.W2"][:10].T.copy(),
            [f"c{i}" for i in range(10)],
        )
        preds, _ = evaluation.zero_shot_classify(params, images, bank)
        feats = enc._images_forward(params, images)[0]
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        assert np.array_equal(preds, np.argmax(feats @ bank.matrix, axis=1))

    def test_blocks_hold_64_to_127_rows_and_never_one(self, monkeypatch):
        forward = enc._images_forward
        blocks = []

        def recording_forward(params, images):
            blocks.append(len(images))
            return forward(params, images)

        monkeypatch.setattr(enc, "_images_forward", recording_forward)
        params, images = _image_case(700)
        for n in [*range(1, 300), 600, 700]:
            blocks.clear()
            assert enc.encode_images(params, images[:n]).shape == (n, params.config.embed_dim)
            assert sum(blocks) == n
            if n < 64:
                assert blocks == [n]
            else:
                assert all(64 <= rows <= 127 for rows in blocks), (n, blocks)

    def test_bad_row_is_named_by_its_row_in_the_whole_batch(self):
        from lexivis import evaluation
        from lexivis.errors import NumericsError

        params, images = _image_case(300)
        images[130] = 0.0  # zero biases: a zero input encodes to a zero feature
        images[200, 3] = np.nan
        with pytest.raises(NumericsError, match="^image 130 encodes") as raised:
            evaluation.unit_image_features(params, images)
        assert raised.value.diagnostics == {"rows": [130, 200]}

    def test_peak_memory_does_not_grow_with_images(self):
        def peak(n):
            params, images = _image_case(n)
            tracemalloc.start()
            try:
                out = enc.encode_images(params, images)
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        assert peak(4096) < 1.5 * peak(256)


def _contrastive_batch(cfg, rng, b=4):
    texts = ["red fox", "blue bird", "red fox", "green tree frog"][:b]
    return enc.TrainBatch(
        images=rng.normal(size=(b, cfg.image_input_dim)),
        token_ids=[enc.text_to_ids(t, cfg) for t in texts],
        labels=np.array([0, 1, 0, 2][:b]),
    )


def _zero_grads(params):
    """Zero gradients for every tensor of ``params``: nothing frozen."""
    return enc.FlatTensors(params.tensors, copy=False)


def fd_check(params, loss_fn, grads_dict, rng, coords_per_tensor=3, h=1e-4):
    worst = 0.0
    for key in params.tensors:
        flat = params.tensors[key].ravel()
        n = min(coords_per_tensor, flat.size)
        for idx in rng.choice(flat.size, size=n, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            an = grads_dict[key].ravel()[idx]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    return worst


class TestGrads:
    @pytest.mark.parametrize("trainable", ["none", "base"])
    def test_unknown_trainable_selection_rejected(self, toy_config, trainable):
        params = enc.init_params(toy_config, seed=6)
        batch = _contrastive_batch(toy_config, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="unknown trainable selection"):
            enc.grads(params, batch, enc.LossSpec(trainable=trainable))

    @pytest.mark.parametrize("loss", ["contrastive", "ground_focal"])
    def test_unknown_trainable_rejected_before_any_text_is_encoded(
        self, toy_config, monkeypatch, loss
    ):
        params = enc.init_params(toy_config, seed=6)
        batch = _contrastive_batch(toy_config, np.random.default_rng(0))
        if loss == "ground_focal":
            batch = enc.TrainBatch(token_ids=batch.token_ids[:2], region_features=np.ones((3, 8)),
                                   targets=np.zeros((3, 2)))
        forwards = []
        monkeypatch.setattr(enc, "_text_forward", lambda *args: forwards.append(args))
        with pytest.raises(ConfigError, match="unknown trainable selection"):
            enc.grads(params, batch, enc.LossSpec(loss=loss, trainable="base"))
        assert forwards == []

    def test_adapter_only_masks_base(self, toy_config):
        # The gradient holds exactly the adapters, with the bits of a full gradient.
        params = enc.init_params(toy_config, seed=6, with_adapters=True)
        params.tensors["layers.0.ad1.up"] += 0.05  # break identity so adapters get signal
        rng = np.random.default_rng(0)
        contrastive = _contrastive_batch(toy_config, rng)
        focal = enc.TrainBatch(token_ids=contrastive.token_ids[:3],
                               region_features=rng.normal(size=(5, toy_config.embed_dim)),
                               targets=(rng.random((5, 3)) < 0.4).astype(float))
        adapters = [k for k in params.tensors if enc.is_adapter_key(k)]
        for loss, batch in (("contrastive", contrastive), ("ground_focal", focal)):
            spec = enc.LossSpec(loss=loss, trainable="adapters", use_adapters=True)
            losses, g = enc.grads(params, batch, spec)
            full_losses, full = enc.grads(params, batch, enc.LossSpec(loss=loss, use_adapters=True))
            assert list(full) == list(params.tensors)
            assert list(g) == adapters and g.flat.size == sum(g[k].size for k in adapters)
            assert losses == full_losses
            for key in adapters:
                assert g[key].tobytes() == full[key].tobytes(), (loss, key)
            assert any(np.any(g[k] != 0.0) for k in adapters)

    def test_contrastive_gradients_match_finite_differences(self, toy_config):
        params = enc.init_params(toy_config, seed=7, with_adapters=True)
        batch = _contrastive_batch(toy_config, np.random.default_rng(3))
        spec = enc.LossSpec(use_adapters=True)
        _, g = enc.grads(params, batch, spec)
        worst = fd_check(
            params,
            lambda: enc.grads(params, batch, spec)[0]["loss"],
            g,
            np.random.default_rng(5),
        )
        assert worst < 1e-4

    def test_duplicate_texts_share_encoding(self, toy_config):
        params = enc.init_params(toy_config, seed=8)
        rng = np.random.default_rng(1)
        batch = _contrastive_batch(toy_config, rng)  # texts 0 and 2 identical
        losses, _ = enc.grads(params, batch, enc.LossSpec())
        assert np.isfinite(losses["loss"])


class TestCheckpoint:
    def test_roundtrip_restores_forward_bitwise(self, tmp_path, toy_config):
        params = enc.init_params(toy_config, seed=9, with_adapters=True)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(params, path, meta={"seed": 9})
        loaded, meta = enc.load_checkpoint(path)
        assert meta == {"seed": 9}
        ids = enc.text_to_ids("round trip text", toy_config)
        assert np.array_equal(
            enc.encode_text(params, ids, use_adapters=True),
            enc.encode_text(loaded, ids, use_adapters=True),
        )
        img = np.linspace(-1, 1, 2 * toy_config.image_input_dim).reshape(2, -1)
        assert np.array_equal(enc.encode_images(params, img), enc.encode_images(loaded, img))

    def test_save_is_byte_deterministic(self, tmp_path, toy_config):
        params = enc.init_params(toy_config, seed=10)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        enc.save_checkpoint(params, a)
        enc.save_checkpoint(params, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "mutation", ["missing", "extra", "shape", "data_length", "not_a_tensor"]
    )
    @pytest.mark.parametrize("with_adapters", [False, True])
    def test_schema_mismatch_is_data_error(self, tmp_path, toy_config, with_adapters, mutation):
        params = enc.init_params(toy_config, seed=11, with_adapters=with_adapters)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        t = payload["tensors"]
        if mutation == "missing":
            del t["layers.0.ad1.up" if with_adapters else "lnf.g"]
        elif mutation == "extra":
            t["bonus"] = {"shape": [1], "data": [0.0]}
        elif mutation == "shape":  # same number of values, wrong shape
            t["img.W1"]["shape"] = [1, toy_config.image_input_dim * toy_config.hidden_dim]
        elif mutation == "data_length":
            t["lnf.b"]["data"].pop()
        else:
            t["lnf.b"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            enc.load_checkpoint(path)

    def test_bad_encoder_config_is_data_error(self, tmp_path, toy_config):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=12), path)
        payload = json.loads(path.read_text())
        payload["encoder_config"]["depth"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            enc.load_checkpoint(path)


    @pytest.mark.parametrize(
        "key, value",
        [("num_heads", 5), ("embed_dim", 8.0), ("vocab_size", True), ("max_tokens", 0),
         ("hidden_dim", None), ("text_layers", -1), ("embed_dim", 10**18)],
    )
    def test_invalid_config_values_are_data_error(self, tmp_path, toy_config, key, value):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=12), path)
        payload = json.loads(path.read_text())
        payload["encoder_config"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=str(path)):
            enc.load_checkpoint(path)

    def test_huge_layer_count_allocates_nothing(self, tmp_path, toy_config):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=12), path)
        payload = json.loads(path.read_text())
        # Large enough to show in the peak if the schema were built in full,
        # small enough to finish if it were.
        payload["encoder_config"]["text_layers"] = 10**4
        path.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="'layers.2.ln1.g' is missing"):
                enc.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("version", [2, True, 1.0, "1", None])
    def test_unsupported_version_is_data_error(self, tmp_path, toy_config, version):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=12), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="unsupported checkpoint version"):
            enc.load_checkpoint(path)


def _reference_checkpoint_bytes(params, meta):
    """The checkpoint bytes as one json.dumps call over the whole payload."""
    payload = {
        "format_version": enc.CHECKPOINT_VERSION,
        "encoder_config": params.config.to_dict(),
        "meta": meta or {},
        "tensors": {
            k: {"shape": list(v.shape), "data": v.ravel().tolist()}
            for k, v in params.tensors.items()
        },
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


AWKWARD_META = {
    "quote": 'say "cheese" \\ now',
    "naïve": ["café", "\u4e2d\u6587", "\U0001f600"],
    "nested": {"b": [1, [2.5, None]], "a": {"z": True, "y": "tab\there"}},
    "seed": 3,
}


class TestCheckpointWriter:
    @pytest.mark.parametrize("meta", [None, AWKWARD_META])
    @pytest.mark.parametrize("with_adapters", [False, True])
    def test_bytes_match_one_shot_json(self, tmp_path, toy_config, with_adapters, meta):
        params = enc.init_params(toy_config, seed=14, with_adapters=with_adapters)
        params.tensors["lnf.b"][:3] = [np.nan, np.inf, -np.inf]
        params.tensors["log_tau"][...] = -0.0
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(params, path, meta=meta)
        assert path.read_bytes() == _reference_checkpoint_bytes(params, meta)

    def test_zero_size_tensors_write_empty_data(self, tmp_path, toy_config):
        tensors = {
            "empty_rows": np.zeros((3, 0)),
            "no_rows": np.zeros((0, 4)),
            "empty": np.zeros(0),
            "scalar": np.array(2.5),
            "matrix": np.arange(6.0).reshape(2, 3),
            "cube": np.arange(8.0).reshape(2, 2, 2),
        }
        params = enc.ModelParams(toy_config, tensors)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(params, path)
        assert path.read_bytes() == _reference_checkpoint_bytes(params, None)
        assert '"empty_rows":{"data":[],"shape":[3,0]}' in path.read_text()

    def test_memory_is_bounded_by_one_row(self, tmp_path):
        def peak(vocab_size):
            params = enc.init_params(enc.EncoderConfig(vocab_size=vocab_size), seed=0)
            path = tmp_path / f"ckpt{vocab_size}.json"
            enc.save_checkpoint(params, path)  # warm-up: lazily built module state
            tracemalloc.start()
            try:
                enc.save_checkpoint(params, path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4096) < 1.5 * peak(512)

    def test_failed_save_leaves_existing_file_untouched(self, tmp_path, toy_config):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=15), path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            enc.save_checkpoint(
                enc.init_params(toy_config, seed=16), path, meta={"bad": object()}
            )
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def _layouts(payload):
    """The same payload as the canonical bytes, json.dumps spacing and indent=1."""
    return {
        "canonical": json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        "spaced": json.dumps(payload),
        "indent1": json.dumps(payload, indent=1),
    }


class TestCheckpointReader:
    @pytest.mark.parametrize("chunk", [1, 7, checkpoint_json._CHUNK])
    @pytest.mark.parametrize("layout", ["canonical", "spaced", "indent1"])
    def test_roundtrip_is_bitwise(self, tmp_path, toy_config, monkeypatch, layout, chunk):
        params = enc.init_params(toy_config, seed=14, with_adapters=True)
        params.tensors["lnf.b"][:4] = [np.nan, np.inf, -np.inf, -0.0]
        params.tensors["img.b1"][:2] = [5e-324, 1.7976931348623157e308]
        monkeypatch.setattr(checkpoint_json, "_CHUNK", chunk)

        def saved():
            path = tmp_path / "ckpt.json"
            enc.save_checkpoint(params, path, meta=AWKWARD_META)
            payload = json.loads(path.read_text())
            # Unknown top-level keys are ignored; a bare number must not be cut at
            # a buffer boundary ("1." of "1.25e-10").
            payload["zz_note"] = 1.25e-10
            payload = dict(reversed(payload.items()))  # any key order
            path.write_text(_layouts(payload)[layout])
            return path

        # json's NaN and Infinity decode bit for bit; load_checkpoint then refuses them.
        stored = checkpoint_json.load(saved())["tensors"]
        for name, tensor in params.tensors.items():
            assert stored[name]["data"].tobytes() == tensor.tobytes(), name
        params.tensors["lnf.b"][:3] = [0.5, -1.5, 2.5]
        loaded, meta = enc.load_checkpoint(saved())
        assert meta == AWKWARD_META
        assert loaded.config == params.config
        assert loaded.tensors.keys() == params.tensors.keys()
        for name, tensor in params.tensors.items():
            assert loaded.tensors[name].dtype == np.float64
            assert loaded.tensors[name].shape == tensor.shape  # () for log_tau
            assert loaded.tensors[name].tobytes() == tensor.tobytes(), name

    @pytest.mark.parametrize("chunk", [1, checkpoint_json._CHUNK])
    def test_zero_size_tensors_read_back(self, tmp_path, toy_config, monkeypatch, chunk):
        tensors = {
            "empty_rows": np.zeros((3, 0)), "no_rows": np.zeros((0, 4)), "empty": np.zeros(0),
            "scalar": np.array(2.5), "ints": np.arange(3.0),
        }
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.ModelParams(toy_config, tensors), path)
        monkeypatch.setattr(checkpoint_json, "_CHUNK", chunk)
        for text in _layouts(json.loads(path.read_text())).values():
            path.write_text(text.replace("0.0,1.0,2.0", "0, 1 ,2"))
            stored = checkpoint_json.load(path)["tensors"]
            for name, tensor in tensors.items():
                data = stored[name]["data"]
                assert data.dtype == np.float64 and data.tobytes() == tensor.tobytes(), name

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[: len(text) // 2],  # truncated
            lambda text: text[:-2],  # last brace gone
            lambda text: text + "}",  # trailing garbage
            lambda text: text.replace('"shape"', '"shape" "x"', 1),
            lambda text: text.replace("],", "],,", 1),  # empty member
            lambda text: text.replace("[", "[,", 2),  # empty first element
            lambda text: text.replace("],", ",],", 1),  # trailing comma in a list
            lambda text: "",
            lambda text: text.replace('"meta":{}', '"meta":' + "[" * 10**5 + "]" * 10**5),
        ],
        ids=["truncated", "unclosed", "trailing", "missing_colon", "empty_member",
             "empty_first_element", "trailing_comma", "empty_file", "deep_nesting"],
    )
    def test_malformed_json_is_data_error_naming_the_file(self, tmp_path, toy_config, edit):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=15), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(DataError, match=str(path)):
            enc.load_checkpoint(path)

    def test_trailing_comma_at_the_end_of_a_read_is_data_error(self):
        # One read ends on the list's last comma and the next starts with its "]".
        first = '{"tensors":{"b":{"data":[0.5,'
        reads = iter([first, "]}}}", ""])
        handle = types.SimpleNamespace(read=lambda size: next(reads))
        message = f"ckpt.json: malformed checkpoint JSON at char {len(first)}: expecting value"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            checkpoint_json._Reader(handle, "ckpt.json").read()

    def test_empty_objects_read_as_empty_dicts(self, tmp_path, toy_config):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=15), path)
        payload = json.loads(path.read_text())
        payload["tensors"] = {}
        path.write_text(json.dumps(payload))
        assert checkpoint_json.load(path)["tensors"] == {}
        with pytest.raises(DataError, match=f"^{path}: checkpoint tensor '.+' is missing$"):
            enc.load_checkpoint(path)

    def test_data_that_is_no_list_is_kept_as_read_and_refused(self, tmp_path, toy_config):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=15), path)
        payload = json.loads(path.read_text())
        payload["tensors"]["lnf.b"]["data"] = "0.5"
        path.write_text(json.dumps(payload))
        assert checkpoint_json.load(path)["tensors"]["lnf.b"]["data"] == "0.5"
        message = f"{path}: tensor 'lnf.b' must hold {toy_config.embed_dim} values of shape "
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            enc.load_checkpoint(path)

    def test_integer_too_long_to_convert_is_data_error(self, tmp_path, toy_config):
        # json.dumps refuses such an integer too, so it is written as text.
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=15), path)
        text = path.read_text()
        start = text.index('"data":[') + len('"data":[')
        path.write_text(text[:start] + "1" * 4301 + "," + text[start:])
        with pytest.raises(DataError, match=f"^{path}: malformed checkpoint JSON at char {start}: "
                                            ".*4300 digits"):
            enc.load_checkpoint(path)

    def test_invalid_utf8_is_data_error(self, tmp_path, toy_config):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=15), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"{path}: checkpoint is not UTF-8"):
            enc.load_checkpoint(path)

    # The one-shot json.loads reader turned true, "1.5" and null into numbers.
    @pytest.mark.parametrize(
        "element", [True, "1.5", None, [1.0], {}, 10**400],
        ids=["true", "string", "null", "list", "object", "huge_int"],
    )
    def test_data_elements_must_be_json_numbers(self, tmp_path, toy_config, element):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(enc.init_params(toy_config, seed=15), path)
        payload = json.loads(path.read_text())
        payload["tensors"]["lnf.b"]["data"][1] = element
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=str(path)):
            enc.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_tensor_is_data_error_naming_it(self, tmp_path, toy_config, value):
        params = enc.init_params(toy_config, seed=15)
        params.tensors["img.W1"][1, 2] = value
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(params, path)
        message = f"{path}: tensor 'img.W1' holds a NaN or infinite value"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            enc.load_checkpoint(path)

    def test_memory_is_bounded_by_the_tensors(self, tmp_path):
        params = enc.init_params(enc.EncoderConfig(vocab_size=4096), seed=0, with_adapters=True)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(params, path)
        enc.load_checkpoint(path)  # warm-up: lazily built module state
        tracemalloc.start()
        try:
            loaded, _ = enc.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The one-shot json.loads reader peaked at 6.6x the tensor bytes.
        assert peak < 2 * sum(t.nbytes for t in loaded.tensors.values())


class TestImageBackward:
    def test_skipping_input_gradient_keeps_weight_gradients(self, toy_config):
        params = enc.init_params(toy_config, seed=13)
        rng = np.random.default_rng(2)
        images = rng.normal(size=(3, toy_config.image_input_dim))
        out, cache = enc._images_forward(params, images)
        dout = rng.normal(size=out.shape)
        full, skipped = _zero_grads(params), _zero_grads(params)
        dx = enc._ffn_backward(dout, cache, params.tensors, "img.", enc._MLP_KEYS, full)
        assert dx.shape == images.shape
        none = enc._ffn_backward(
            dout, cache, params.tensors, "img.", enc._MLP_KEYS, skipped, input_grad=False
        )
        assert none is None
        assert all(np.array_equal(full[k], skipped[k]) for k in full)


def _one_text_per_pass_grads(params, batch, spec):
    """Reference contrastive gradient: each distinct (sequence, branch) pair encoded and
    backpropagated alone, in first-seen order, with every tensor's gradient computed."""
    from lexivis import objective

    g = _zero_grads(params)
    flags = batch.adapter_flags
    if flags is None:
        flags = [spec.use_adapters] * len(batch.token_ids)
    index = {}
    rows = [index.setdefault((tuple(ids), bool(flag)), len(index))
            for ids, flag in zip(batch.token_ids, flags)]
    img_raw, img_cache = enc._images_forward(params, batch.images)
    encoded = [
        enc._text_forward(params, [enc._checked_ids(params, ids, flag)], flag)
        for ids, flag in index
    ]
    txt_raw = np.concatenate([vec for vec, _ in encoded])[rows]
    u, v = objective.normalize_rows(img_raw), objective.normalize_rows(txt_raw)
    loss, d_sim, d_tau = objective.grouped_contrastive_loss_with_grads(
        u @ v.T, batch.labels, params.tau
    )
    d_img_raw = objective.normalize_rows_backward(img_raw, d_sim @ v)
    enc._ffn_backward(d_img_raw, img_cache, params.tensors, "img.", enc._MLP_KEYS, g,
                      input_grad=False)
    d_unique = np.zeros((len(index), params.config.embed_dim))
    np.add.at(d_unique, rows, objective.normalize_rows_backward(txt_raw, d_sim.T @ u))
    for (_, cache), drow in zip(encoded, d_unique):
        enc._text_backward(params, cache, drow[None], g)
    g["log_tau"] += d_tau * params.tau
    if spec.trainable == "adapters":  # the full gradient, on the trainable tensors only
        g = {key: value for key, value in g.items() if enc.is_adapter_key(key)}
    return {"loss": loss.l_ic, "l_i2t": loss.l_i2t, "l_t2i": loss.l_t2i, "l_ic": loss.l_ic}, g


# Raw id sequences (CLS = 0, EOS = 1); CLS_A and CLS_B have A's and B's length but pool first.
A, B, C, D, E = [3, 4, 1], [5, 6, 1], [7, 8, 1], [9, 1], [10, 11, 12, 1]
CLS_A, CLS_B = [0, 3, 4], [0, 5, 6]
T, F = True, False

# (token_ids, adapter_flags, sizes of the stacked passes grads should run, or None).
STACKING_CASES = {
    "one_run_of_b": ([A, B, C, [13, 14, 1]], None, [4]),
    "duplicates": ([A, B, A, C, B], None, [3]),
    "mixed_lengths": ([D, A, B, E, C, D], None, [1, 2, 1, 1]),
    "cls_and_eos_in_one_run": ([A, CLS_A, B, CLS_B, CLS_A], None, [4]),
    "all_runs_of_one": ([D, A, E, A, D], None, [1, 1, 1]),
    "branch_splits_a_run": ([A, B, C, A], [T, T, F, F], [2, 2]),
    "alternating_branches": ([A, B, C, E], [T, F, T, F], [1, 1, 1, 1]),
    "one_text_on_both_branches": ([A, A, B, B, A], [T, F, T, F, T], [1, 1, 1, 1]),
}


def _stacking_case(name, adapters):
    seed = int(name[-1]) if name.startswith("random") else 0
    cfg = enc.EncoderConfig(embed_dim=8, text_layers=2, num_heads=2, hidden_dim=12,
                            vocab_size=64, max_tokens=8, adapter_bottleneck=3, image_input_dim=5)
    rng = np.random.default_rng(seed)
    params = enc.init_params(cfg, seed=seed, with_adapters=adapters)
    for key, tensor in params.tensors.items():
        if enc.is_adapter_key(key):
            tensor += 0.1 * rng.normal(size=tensor.shape)  # break the identity
    if name.startswith("random"):
        pool = [list(rng.integers(2, 64, size=rng.integers(0, 4))) + [1] for _ in range(6)]
        token_ids = [pool[i] for i in rng.integers(0, len(pool), size=12)]
        flags = (rng.random(12) < 0.5).tolist() if adapters else None
        sizes = None
    else:
        token_ids, flags, sizes = STACKING_CASES[name]
    batch = enc.TrainBatch(
        images=rng.normal(size=(len(token_ids), cfg.image_input_dim)),
        token_ids=token_ids,
        labels=np.arange(len(token_ids)) % 3,
        adapter_flags=flags,
    )
    return params, batch, sizes


class TestStackedTextPasses:
    """Contrastive ``grads`` stacks same-length runs of distinct texts; the bits stay those
    of one text per pass on any BLAS/SIMD stack."""

    @pytest.mark.parametrize("trainable", ["all", "adapters"])
    @pytest.mark.parametrize("name, adapters", [
        (name, adapters)
        for name in [*STACKING_CASES, "random0", "random1"] for adapters in (False, True)
        if adapters or STACKING_CASES.get(name, (None, None))[1] is None  # flags need adapters
    ])
    def test_bitwise_equal_to_one_text_per_pass(self, name, adapters, trainable, monkeypatch):
        params, batch, sizes = _stacking_case(name, adapters)
        spec = enc.LossSpec(trainable=trainable, use_adapters=adapters)
        passes = []
        forward = enc._text_forward

        def counting_forward(params, ids, use_adapters):
            passes.append(len(ids))
            return forward(params, ids, use_adapters)

        monkeypatch.setattr(enc, "_text_forward", counting_forward)
        losses, g = enc.grads(params, batch, spec)
        monkeypatch.undo()
        ref_losses, ref_g = _one_text_per_pass_grads(params, batch, spec)
        if sizes is not None:
            assert passes == sizes
        assert losses == ref_losses
        assert list(g) == list(ref_g)
        for key in g:
            assert g[key].tobytes() == ref_g[key].tobytes(), key

    @pytest.mark.parametrize("ids, message", [
        ([3, 64, 1], "token id out of vocabulary range"),
        ([3, 4, 5], "EOS must end a sequence that does not begin with CLS, and only end it"),
        ([3] * 8 + [1], "sequence length 9 exceeds max_tokens 8"),
        ([3, 1] + [4] * 7, "sequence length 9 exceeds max_tokens 8"),  # checked before EOS
        ([3, 1, 4, 1], "EOS must end a sequence that does not begin with CLS, and only end it"),
    ])
    def test_bad_text_in_a_run_raises_the_one_text_error(self, ids, message):
        params, batch, _ = _stacking_case("one_run_of_b", adapters=False)
        batch.token_ids = [A, B, ids, C]
        with pytest.raises(ValueError) as raised:
            enc.grads(params, batch, enc.LossSpec())
        assert str(raised.value) == message

    def test_adapter_branch_without_tensors_is_a_config_error(self):
        params, batch, _ = _stacking_case("one_run_of_b", adapters=False)
        with pytest.raises(ConfigError, match="^adapter branch requested but no adapter tensors"):
            enc.grads(params, batch, enc.LossSpec(use_adapters=True))


def _unrolled_text_forward(params, ids, use_adapters):
    """Reference text pass: each layer written out as attention, adapter 1, MLP, adapter 2."""
    cfg = params.config
    t = params.tensors
    ids = np.asarray(ids)
    x = t["tok_emb"][ids] + t["pos_emb"][: ids.shape[1]]
    caches = []
    for i in range(cfg.text_layers):
        pre = f"layers.{i}."
        a_in, ln1_cache = enc._layer_norm(x, t[pre + "ln1.g"], t[pre + "ln1.b"])
        attn_out, attn_cache = enc._attention_forward(a_in, t, pre + "attn.", cfg.num_heads)
        x1 = x + attn_out
        ad1_cache = ad2_cache = None
        if use_adapters:
            ad1_out, ad1_cache = enc._ffn_forward(x1, t, pre + "ad1.", enc._ADAPTER_KEYS)
            x1 = x1 + ad1_out
        m_in, ln2_cache = enc._layer_norm(x1, t[pre + "ln2.g"], t[pre + "ln2.b"])
        mlp_out, mlp_cache = enc._ffn_forward(m_in, t, pre + "mlp.", enc._MLP_KEYS)
        x2 = x1 + mlp_out
        if use_adapters:
            ad2_out, ad2_cache = enc._ffn_forward(x2, t, pre + "ad2.", enc._ADAPTER_KEYS)
            x2 = x2 + ad2_out
        caches.append((ln1_cache, attn_cache, ad1_cache, ln2_cache, mlp_cache, ad2_cache))
        x = x2
    y, lnf_cache = enc._layer_norm(x, t["lnf.g"], t["lnf.b"])
    rows = range(len(ids))  # each sequence at its leading CLS, else at its last id
    pool = [(row, 0 if ids[row, 0] == enc.CLS_ID else ids.shape[1] - 1) for row in rows]
    return np.stack([y[at] for at in pool]), (ids, pool, use_adapters, caches, lnf_cache)


def _unrolled_text_backward(params, cache, dvecs, grads):
    """Reverse of ``_unrolled_text_forward``, one branch per adapter."""
    t = params.tensors
    ids, pool, use_adapters, layer_caches, lnf_cache = cache
    dy = np.zeros(ids.shape + (params.config.embed_dim,))
    for at, dvec in zip(pool, dvecs):
        dy[at] = dvec
    dx = enc._layer_norm_backward(dy, lnf_cache, t, "lnf.", grads)
    for i in reversed(range(params.config.text_layers)):
        pre = f"layers.{i}."
        ln1_cache, attn_cache, ad1_cache, ln2_cache, mlp_cache, ad2_cache = layer_caches[i]
        if use_adapters:
            dx = dx + enc._ffn_backward(dx, ad2_cache, t, pre + "ad2.", enc._ADAPTER_KEYS, grads)
        d_mlp_in = enc._ffn_backward(dx, mlp_cache, t, pre + "mlp.", enc._MLP_KEYS, grads)
        dx = dx + enc._layer_norm_backward(d_mlp_in, ln2_cache, t, pre + "ln2.", grads)
        if use_adapters:
            dx = dx + enc._ffn_backward(dx, ad1_cache, t, pre + "ad1.", enc._ADAPTER_KEYS, grads)
        d_attn_in = enc._attention_backward(dx, attn_cache, t, pre + "attn.", grads)
        dx = dx + enc._layer_norm_backward(d_attn_in, ln1_cache, t, pre + "ln1.", grads)
    np.add.at(grads["tok_emb"], ids, dx)
    enc._accumulate(grads["pos_emb"][: ids.shape[1]], dx)


def _perturbed_params(text_layers, adapters, seed=0):
    """Small params whose adapters are no identity, so their place in a layer shows."""
    cfg = enc.EncoderConfig(embed_dim=8, text_layers=text_layers, num_heads=2, hidden_dim=12,
                            vocab_size=64, max_tokens=8, adapter_bottleneck=3, image_input_dim=5)
    rng = np.random.default_rng(seed)
    params = enc.init_params(cfg, seed=seed, with_adapters=adapters)
    for key, tensor in params.tensors.items():
        if enc.is_adapter_key(key) or ".ln" in key:
            tensor += 0.1 * rng.normal(size=tensor.shape)
    return params, rng


def _pool_tokens(ids, pooling, rng):
    """``ids`` with CLS first or EOS last in every row: as ``pooling`` says, or a random mix."""
    cls = rng.random(len(ids)) < 0.5 if pooling == "mixed" else np.full(len(ids), pooling == "cls")
    ids[cls, 0] = enc.CLS_ID
    ids[~cls, -1] = enc.EOS_ID
    return ids


class TestSublayerLoop:
    """The sublayer list gives the bits of the hand-unrolled layer, forward and backward."""

    @pytest.mark.parametrize("pooling", ["eos", "cls", "mixed"])
    @pytest.mark.parametrize("adapters", [False, True])
    @pytest.mark.parametrize("text_layers", [0, 1, 2, 3])
    def test_bitwise_equal_to_unrolled_layers(self, text_layers, adapters, pooling):
        params, rng = _perturbed_params(text_layers, adapters)
        for batch in range(1, 5):
            ids = _pool_tokens(rng.integers(2, 64, size=(batch, 5)), pooling, rng)
            dvecs = rng.normal(size=(batch, params.config.embed_dim))
            vecs, cache = enc._text_forward(params, ids, adapters)
            ref_vecs, ref_cache = _unrolled_text_forward(params, ids, adapters)
            assert vecs.tobytes() == ref_vecs.tobytes()
            g, ref_g = _zero_grads(params), _zero_grads(params)
            enc._text_backward(params, cache, dvecs, g)
            _unrolled_text_backward(params, ref_cache, dvecs, ref_g)
            for key in g:
                assert g[key].tobytes() == ref_g[key].tobytes(), (batch, key)


def _cache_arrays(cache):
    """Every array a text pass's cache holds, at any depth."""
    if isinstance(cache, np.ndarray):
        return [cache]
    if isinstance(cache, (tuple, list)):
        return [a for item in cache for a in _cache_arrays(item)]
    return []


class TestCacheLifetime:
    """A text pass keeps one copy of each norm's output, and contrastive ``grads`` keeps
    each run's activations only until that run is backpropagated."""

    @pytest.mark.parametrize("adapters", [False, True])
    def test_block_after_a_norm_caches_no_input(self, adapters):
        params, rng = _perturbed_params(text_layers=2, adapters=adapters)
        _, cache = enc._text_forward(params, [[3, 4, 5, 1], [6, 7, 8, 1]], adapters)
        _, _, caches = cache
        *sublayers, _ = caches  # the final norm's cache comes last
        assert len(sublayers) == 2 * (4 if adapters else 2)
        for norm, block, keys, norm_cache, block_cache in sublayers:
            assert (block_cache[0] is None) == (norm is not None), block
        enc._text_backward(params, cache, rng.normal(size=(2, 8)), _zero_grads(params))
        assert caches == []  # consumed

    @pytest.mark.parametrize("adapters", [False, True])
    def test_feed_forward_blocks_cache_gelus_tanh_but_no_pre_activation(self, adapters):
        params, rng = _perturbed_params(text_layers=2, adapters=adapters)
        t = params.tensors
        _, (_, _, caches) = enc._text_forward(params, [[3, 4, 5, 1], [6, 7, 8, 1]], adapters)
        images = rng.normal(size=(3, params.config.image_input_dim))
        blocks = [(block, keys, block_cache)
                  for _, block, keys, _, block_cache in caches[:-1] if keys is not None]
        blocks.append(("img.", enc._MLP_KEYS, enc._images_forward(params, images)[1]))
        assert len(blocks) == 2 * (3 if adapters else 1) + 1
        for block, keys, block_cache in blocks:
            w1, b1 = (block + key for key in keys[:2])
            x, tanh = block_cache  # the text MLP's input is rebuilt from its norm's xhat
            (hidden,) = [a for a in _cache_arrays(block_cache) if a.shape[-1] == t[b1].size]
            assert hidden is tanh, block
            if x is not None:
                assert tanh.tobytes() == enc._gelu_tanh(x @ t[w1] + t[b1]).tobytes(), block

    @pytest.mark.parametrize("adapters", [False, True])
    def test_each_run_is_released_before_the_next_backward(self, adapters, monkeypatch):
        params, batch, sizes = _stacking_case("mixed_lengths", adapters)
        forward, backward = enc._text_forward, enc._text_backward
        runs = []  # weak references to the arrays of each run's cache, in forward order
        backpropagated = 0

        def tracking_forward(params, ids, use_adapters):
            vecs, cache = forward(params, ids, use_adapters)
            runs.append([weakref.ref(a) for a in _cache_arrays(cache)])
            return vecs, cache

        def checking_backward(params, cache, dvecs, grads):
            nonlocal backpropagated
            assert all(ref() is None for refs in runs[:backpropagated] for ref in refs)
            assert all(ref() is not None for ref in runs[backpropagated])
            backpropagated += 1
            return backward(params, cache, dvecs, grads)

        monkeypatch.setattr(enc, "_text_forward", tracking_forward)
        monkeypatch.setattr(enc, "_text_backward", checking_backward)
        enc.grads(params, batch, enc.LossSpec(use_adapters=adapters))
        assert backpropagated == len(runs) == len(sizes) >= 3
        assert all(ref() is None for refs in runs for ref in refs)


def _full_cache_attention_forward(x, t, pre, n_heads):
    """Attention whose cache holds Q, K, V and the context beside the softmax probabilities."""
    batch, length, p = x.shape
    hd = p // n_heads
    scale = 1.0 / math.sqrt(hd)
    q = x @ t[pre + "Wq"] + t[pre + "bq"]
    k = x @ t[pre + "Wk"] + t[pre + "bk"]
    v = x @ t[pre + "Wv"] + t[pre + "bv"]
    qh, kh, vh = (m.reshape(batch, length, n_heads, hd).swapaxes(1, 2) for m in (q, k, v))
    attn = enc._softmax_last(qh @ kh.mT * scale)
    ctx = attn @ vh
    ctx_flat = ctx.swapaxes(1, 2).reshape(batch, length, p)
    out = ctx_flat @ t[pre + "Wo"] + t[pre + "bo"]
    return out, (x, qh, kh, vh, attn, ctx_flat, scale)


def _full_cache_attention_backward(dout, cache, t, pre, grads):
    """The backward of ``_full_cache_attention_forward``: it reads Q, K, V and the context."""
    x, qh, kh, vh, attn, ctx_flat, scale = cache
    batch, n_heads, length, hd = qh.shape
    enc._accumulate(grads[pre + "Wo"], ctx_flat.mT @ dout)
    enc._accumulate(grads[pre + "bo"], dout.sum(axis=-2))
    dctx = (dout @ t[pre + "Wo"].T).reshape(batch, length, n_heads, hd).swapaxes(1, 2)
    dattn = dctx @ vh.mT
    dvh = attn.mT @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = dscores @ kh * scale
    dkh = dscores.mT @ qh * scale
    dq, dk, dv = (dh.swapaxes(1, 2).reshape(x.shape) for dh in (dqh, dkh, dvh))
    for name, d in (("q", dq), ("k", dk), ("v", dv)):
        enc._accumulate(grads[pre + "W" + name], x.mT @ d)
        enc._accumulate(grads[pre + "b" + name], d.sum(axis=-2))
    return dq @ t[pre + "Wq"].T + dk @ t[pre + "Wk"].T + dv @ t[pre + "Wv"].T


def _full_cache_attention(monkeypatch):
    monkeypatch.setattr(enc, "_attention_forward", _full_cache_attention_forward)
    monkeypatch.setattr(enc, "_attention_backward", _full_cache_attention_backward)


class TestAttentionRebuild:
    """Attention caches its input and softmax probabilities; the backward rebuilds Q, K, V
    and the context, with the bits of a backward that cached them."""

    @pytest.mark.parametrize("adapters", [False, True])
    @pytest.mark.parametrize("name", ["one_run_of_b", "mixed_lengths", "random0", "random1"])
    def test_contrastive_grads_equal_the_full_cache(self, name, adapters, monkeypatch):
        params, batch, _ = _stacking_case(name, adapters)
        spec = enc.LossSpec(use_adapters=adapters)
        losses, g = enc.grads(params, batch, spec)
        _full_cache_attention(monkeypatch)
        ref_losses, ref_g = enc.grads(params, batch, spec)
        assert losses == ref_losses
        for key in g:
            assert g[key].tobytes() == ref_g[key].tobytes(), key

    @pytest.mark.parametrize("pooling", ["eos", "cls", "mixed"])
    @pytest.mark.parametrize("adapters", [False, True])
    def test_text_pass_equals_the_full_cache(self, pooling, adapters, monkeypatch):
        params, rng = _perturbed_params(text_layers=2, adapters=adapters)
        for batch in range(1, 5):
            ids = _pool_tokens(rng.integers(2, 64, size=(batch, rng.integers(1, 9))), pooling, rng)
            dvecs = rng.normal(size=(batch, params.config.embed_dim))
            results = []
            for full_cache in (False, True):
                if full_cache:
                    _full_cache_attention(monkeypatch)
                vecs, cache = enc._text_forward(params, ids, adapters)
                g = _zero_grads(params)
                enc._text_backward(params, cache, dvecs, g)
                results.append((vecs.tobytes(), g.flat.tobytes()))
            monkeypatch.undo()
            assert results[0] == results[1], ids.shape

    @pytest.mark.parametrize("adapters", [False, True])
    def test_attention_caches_only_its_probabilities(self, adapters):
        params, _ = _perturbed_params(text_layers=2, adapters=adapters)
        ids = [[3, 4, 5, 1], [6, 7, 8, 1], [9, 10, 11, 1]]
        _, (_, _, caches) = enc._text_forward(params, ids, adapters)
        attention = [block_cache for _, _, keys, _, block_cache in caches[:-1] if keys is None]
        assert len(attention) == params.config.text_layers
        for block_cache in attention:
            # (B, H, L, L) probabilities; no (B, L, P) Q, K, V, context or input.
            (attn,) = _cache_arrays(block_cache)
            assert attn.shape == (3, params.config.num_heads, 4, 4)
            assert np.allclose(attn.sum(axis=-1), 1.0)


PRIMITIVES = ("_layer_norm", "_layer_norm_backward", "_attention_forward",
              "_attention_backward", "_ffn_forward", "_ffn_backward")


class TestPrimitivesPatchable:
    """The text pass looks each primitive up by module name at call time, so a wrapper
    set on the module sees every call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(PRIMITIVES, 0)
        for name in PRIMITIVES:
            def counting(*args, _name=name, _fn=getattr(enc, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(enc, name, counting)
        return counts

    @pytest.mark.parametrize("adapters", [False, True])
    def test_encode_text_calls(self, adapters, calls):
        params, _ = _perturbed_params(text_layers=2, adapters=adapters)
        enc.encode_text(params, [3, 4, 5, 1], use_adapters=adapters)
        ffn = 2 * (3 if adapters else 1)
        assert calls == {"_layer_norm": 5, "_layer_norm_backward": 0, "_attention_forward": 2,
                         "_attention_backward": 0, "_ffn_forward": ffn, "_ffn_backward": 0}

    @pytest.mark.parametrize("adapters", [False, True])
    def test_contrastive_grads_calls(self, adapters, calls):
        params, rng = _perturbed_params(text_layers=2, adapters=adapters)
        batch = enc.TrainBatch(images=rng.normal(size=(4, 5)), token_ids=[A, B, D, A],
                               labels=np.arange(4) % 3)
        enc.grads(params, batch, enc.LossSpec(use_adapters=adapters))
        # Two text passes ([A, B] and [D]) of two layers, plus the image MLP.
        ffn = 2 * 2 * (3 if adapters else 1) + 1
        assert calls == {"_layer_norm": 10, "_layer_norm_backward": 10, "_attention_forward": 4,
                         "_attention_backward": 4, "_ffn_forward": ffn, "_ffn_backward": ffn}

    def test_adapter_grads_stop_below_the_lowest_adapter(self, calls):
        # Layer 0's attention and ln1 lie below every adapter, and the embeddings are frozen.
        params, rng = _perturbed_params(text_layers=2, adapters=True)
        batch = enc.TrainBatch(images=rng.normal(size=(4, 5)), token_ids=[A, B, D, A],
                               labels=np.arange(4) % 3)
        enc.grads(params, batch, enc.LossSpec(trainable="adapters", use_adapters=True))
        # Per text pass: lnf, layer 1's two norms and layer 0's ln2; six feed-forward blocks.
        assert calls == {"_layer_norm": 10, "_layer_norm_backward": 8, "_attention_forward": 4,
                         "_attention_backward": 2, "_ffn_forward": 13, "_ffn_backward": 12}

    def test_adapter_grads_skip_the_backward_of_base_branch_texts(self, calls):
        params, rng = _perturbed_params(text_layers=2, adapters=True)
        batch = enc.TrainBatch(images=rng.normal(size=(4, 5)), token_ids=[A, B, D, A],
                               labels=np.arange(4) % 3, adapter_flags=[False] * 4)
        _, g = enc.grads(params, batch, enc.LossSpec(trainable="adapters"))
        assert not g.flat.any()
        assert calls == {"_layer_norm": 10, "_layer_norm_backward": 0, "_attention_forward": 4,
                         "_attention_backward": 0, "_ffn_forward": 5, "_ffn_backward": 0}


def test_a_runtime_warning_in_package_code_fails_the_suite():
    # pyproject.toml turns every RuntimeWarning into an error, numpy's own included.
    with pytest.raises(RuntimeWarning, match="overflow"):
        enc._gelu_tanh(np.array([1e200]))
