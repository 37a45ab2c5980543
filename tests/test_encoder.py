import json
import math
import tracemalloc

import numpy as np
import pytest

from lexivis import checkpoint_json, encoder as enc
from lexivis.errors import ConfigError, DataError


def scalar_reference_forward(params, token_ids, pooling="eos"):
    """Independent re-derivation of the text forward pass with plain loops.

    Deliberately written position-by-position with python floats wherever
    possible; shares nothing with the vectorized implementation beyond the
    parameter tensors.
    """
    t = {k: v.tolist() for k, v in params.tensors.items()}
    cfg = params.config
    p = cfg.embed_dim
    if pooling == "eos":
        length = token_ids.index(enc.EOS_ID) + 1
        ids = token_ids[:length]
        pool = length - 1
    else:
        ids = list(token_ids)
        length = len(ids)
        pool = 0

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
        got = enc.encode_text(params, ids, pooling="cls")
        expected = scalar_reference_forward(params, ids, pooling="cls")
        assert np.allclose(got, expected, atol=1e-12)

    def test_deterministic(self, toy_config):
        params = enc.init_params(toy_config, seed=1)
        ids = enc.text_to_ids("some words", toy_config)
        assert np.array_equal(enc.encode_text(params, ids), enc.encode_text(params, ids))

    def test_returns_embed_dim_values(self, toy_config):
        params = enc.init_params(toy_config, seed=1)
        out = enc.encode_text(params, enc.text_to_ids("a", toy_config))
        assert out.shape == (toy_config.embed_dim,)

    def test_padding_after_eos_ignored(self, toy_config):
        params = enc.init_params(toy_config, seed=2)
        ids = enc.text_to_ids("two words", toy_config)
        padded = ids + [5, 9, 13]
        assert np.array_equal(enc.encode_text(params, ids), enc.encode_text(params, padded))

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
        extended = enc.add_adapters(params, seed=9)
        for key, val in params.tensors.items():
            assert np.array_equal(extended.tensors[key], val)
        assert extended.has_adapters


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


def _contrastive_batch(cfg, rng, b=4):
    texts = ["red fox", "blue bird", "red fox", "green tree frog"][:b]
    return enc.TrainBatch(
        images=rng.normal(size=(b, cfg.image_input_dim)),
        token_ids=[enc.text_to_ids(t, cfg) for t in texts],
        labels=np.array([0, 1, 0, 2][:b]),
    )


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

    def test_adapter_only_masks_base(self, toy_config):
        params = enc.init_params(toy_config, seed=6, with_adapters=True)
        params.tensors["layers.0.ad1.up"] += 0.05  # break identity so adapters get signal
        batch = _contrastive_batch(toy_config, np.random.default_rng(0))
        spec = enc.LossSpec(trainable="adapters", use_adapters=True)
        _, g = enc.grads(params, batch, spec)
        assert all(np.all(g[k] == 0.0) for k in g if not enc.is_adapter_key(k))
        assert any(np.any(g[k] != 0.0) for k in g if enc.is_adapter_key(k))

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
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(params, path, meta=AWKWARD_META)
        payload = json.loads(path.read_text())
        # Unknown top-level keys are ignored; a bare number must not be cut at
        # a buffer boundary ("1." of "1.25e-10").
        payload["zz_note"] = 1.25e-10
        payload = dict(reversed(payload.items()))  # any key order
        path.write_text(_layouts(payload)[layout])
        monkeypatch.setattr(checkpoint_json, "_CHUNK", chunk)
        loaded, meta = enc.load_checkpoint(path)
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
        full, skipped = params.zeros_like(), params.zeros_like()
        dx = enc._ffn_backward(dout, cache, params.tensors, "img.", enc._MLP_KEYS, full)
        assert dx.shape == images.shape
        none = enc._ffn_backward(
            dout, cache, params.tensors, "img.", enc._MLP_KEYS, skipped, input_grad=False
        )
        assert none is None
        assert all(np.array_equal(full[k], skipped[k]) for k in full)
