"""Tiny dual encoders with exact manual gradients.

Text: token + positional embeddings into a pre-norm transformer (self-attention
and GELU MLP sublayers with residuals, final layer norm), pooled at the EOS or
CLS position. Optional serial bottleneck adapters sit after the attention and
MLP sublayers of every layer; their up-projections are zero-initialized so the
adapter branch starts out exactly equal to the base branch. Image: a 2-layer
GELU MLP over precomputed feature vectors. Everything runs in float64 and all
gradients are hand-derived (finite-difference checked in the test suite).

Vocabulary is hash-bucketed: whitespace/punctuation-normalized words map to
crc32 buckets, with ids 0 and 1 reserved for CLS and EOS.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import checkpoint_json
from .errors import ConfigError, DataError, NumericsError
from .knowledge import atomic_open
from .queries import tokenize

CLS_ID = 0
EOS_ID = 1
NUM_RESERVED = 2

TAU_INIT = 14.29
TAU_MAX = 100.0

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)


@dataclass
class EncoderConfig:
    embed_dim: int = 32
    text_layers: int = 2
    num_heads: int = 2
    hidden_dim: int = 64
    vocab_size: int = 256
    max_tokens: int = 64
    adapter_bottleneck: int = 8
    image_input_dim: int = 8

    def __post_init__(self):
        for name, value in self.to_dict().items():
            # Plain ints only: a bool or float would pass the checks below but
            # break shape arithmetic and the checkpoint's canonical JSON.
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            low = 0 if name == "text_layers" else 1
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError("embed_dim must be divisible by num_heads")
        if not 0 < self.adapter_bottleneck < self.hidden_dim:
            raise ConfigError("adapter_bottleneck must lie in (0, hidden_dim)")
        if self.vocab_size <= NUM_RESERVED:
            raise ConfigError(f"vocab_size must exceed {NUM_RESERVED}")

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "text_layers": self.text_layers,
            "num_heads": self.num_heads,
            "hidden_dim": self.hidden_dim,
            "vocab_size": self.vocab_size,
            "max_tokens": self.max_tokens,
            "adapter_bottleneck": self.adapter_bottleneck,
            "image_input_dim": self.image_input_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**d)


def hash_token_id(word: str, vocab_size: int) -> int:
    """Deterministic, platform-stable bucket id in [NUM_RESERVED, vocab_size)."""
    return NUM_RESERVED + zlib.crc32(word.encode("utf-8")) % (vocab_size - NUM_RESERVED)


def text_to_ids(text: str, config: EncoderConfig, pooling: str = "eos") -> list[int]:
    """Tokenize a text and append/prepend the pooling token."""
    if pooling not in ("eos", "cls"):
        raise ValueError(f"unknown pooling {pooling!r}")
    words = tokenize(text)[: config.max_tokens - 1]
    ids = [hash_token_id(w, config.vocab_size) for w in words]
    return [CLS_ID] + ids if pooling == "cls" else ids + [EOS_ID]


# ---------------------------------------------------------------------------
# Parameters


def is_adapter_key(key: str) -> bool:
    return ".ad1." in key or ".ad2." in key


class FlatTensors(dict):
    """A copy of ``tensors``, or zeros of their shapes, as views into one float64 vector ``flat``.

    Write through the views: assigning a new array to a key detaches it from ``flat``.
    """

    def __init__(self, tensors: dict[str, np.ndarray], copy: bool = True):
        super().__init__()
        self.flat = np.zeros(sum(value.size for value in tensors.values()))
        offset = 0
        for name, value in tensors.items():
            self[name] = self.flat[offset : offset + value.size].reshape(value.shape)
            if copy:
                self[name][...] = value
            offset += value.size


class ModelParams:
    """Named tensor container for every trainable quantity (incl. log-tau)."""

    def __init__(self, config: EncoderConfig, tensors: dict[str, np.ndarray]):
        self.config = config
        self.tensors = tensors

    @property
    def has_adapters(self) -> bool:
        return any(is_adapter_key(k) for k in self.tensors)

    @property
    def tau(self) -> float:
        return float(np.exp(self.tensors["log_tau"]))

    def zeros_like(self) -> FlatTensors:
        return FlatTensors(self.tensors, copy=False)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def _param_specs(config: EncoderConfig, with_adapters: bool) -> Iterator[tuple]:
    """Every tensor as (name, shape, init), in creation and random-draw order.

    ``init`` is "ones", "zeros", "tau" or the fan-in of a uniform draw. The
    specs are generated lazily, so a reader can stop at the first mismatch.
    """
    p, h, a = config.embed_dim, config.hidden_dim, config.adapter_bottleneck
    d = config.image_input_dim
    yield from [("tok_emb", (config.vocab_size, p), p), ("pos_emb", (config.max_tokens, p), p)]
    for i in range(config.text_layers):
        pre = f"layers.{i}."
        specs = [(pre + "ln1.g", (p,), "ones"), (pre + "ln1.b", (p,), "zeros")]
        specs += [(pre + "attn." + name, (p, p), p) for name in ("Wq", "Wk", "Wv", "Wo")]
        specs += [(pre + "attn." + name, (p,), "zeros") for name in ("bq", "bk", "bv", "bo")]
        specs += [
            (pre + "ln2.g", (p,), "ones"), (pre + "ln2.b", (p,), "zeros"),
            (pre + "mlp.W1", (p, h), p), (pre + "mlp.b1", (h,), "zeros"),
            (pre + "mlp.W2", (h, p), h), (pre + "mlp.b2", (p,), "zeros"),
        ]
        if with_adapters:
            for ad in ("ad1.", "ad2."):
                # Zero up-projection: the adapter starts as an exact identity residual.
                specs += [
                    (pre + ad + "down", (p, a), p), (pre + ad + "bdown", (a,), "zeros"),
                    (pre + ad + "up", (a, p), "zeros"), (pre + ad + "bup", (p,), "zeros"),
                ]
        yield from specs
    yield from [
        ("lnf.g", (p,), "ones"), ("lnf.b", (p,), "zeros"),
        ("img.W1", (d, h), d), ("img.b1", (h,), "zeros"),
        ("img.W2", (h, p), h), ("img.b2", (p,), "zeros"),
        ("log_tau", (), "tau"),
    ]


def _init_tensor(rng: np.random.Generator, shape: tuple, init) -> np.ndarray:
    if init == "ones":
        return np.ones(shape)
    if init == "zeros":
        return np.zeros(shape)
    if init == "tau":
        return np.array(math.log(TAU_INIT))
    scale = 1.0 / math.sqrt(init)
    return rng.uniform(-scale, scale, size=shape)


def init_params(config: EncoderConfig, seed: int, with_adapters: bool = False) -> ModelParams:
    """Seeded parameter initialization (uniform, fan-in scaled)."""
    rng = np.random.default_rng(seed)
    return ModelParams(
        config,
        {
            name: _init_tensor(rng, shape, init)
            for name, shape, init in _param_specs(config, with_adapters)
        },
    )


def add_adapters(params: ModelParams, seed: int) -> ModelParams:
    """Attach zero-initialized adapters to an adapter-free parameter set."""
    if params.has_adapters:
        raise ConfigError("parameters already carry adapter tensors")
    rng = np.random.default_rng(seed)
    out = params.copy()
    for name, shape, init in _param_specs(params.config, with_adapters=True):
        if is_adapter_key(name):
            out.tensors[name] = _init_tensor(rng, shape, init)
    return out


# ---------------------------------------------------------------------------
# Primitive forward/backward pairs


def _gelu_tanh(x):
    """The tanh of GELU's approximation: GELU(x) is ``0.5 * x * (1.0 + t)``."""
    return np.tanh(_GELU_C * (x + 0.044715 * x**3))


def _gelu_grad(x, t):
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner


def _mean_last(x):
    # What ndarray.mean(axis=-1, keepdims=True) computes, without its Python wrapper.
    return np.add.reduce(x, -1, keepdims=True) / x.shape[-1]


def _layer_norm(x, g, b):
    centered = x - _mean_last(x)
    inv = 1.0 / np.sqrt(_mean_last(centered * centered) + _LN_EPS)  # ndarray.var's steps
    xhat = centered * inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_backward(dy, cache, t, pre, grads):
    xhat, inv = cache
    lead = tuple(range(dy.ndim - 1))
    grads[pre + "g"] += (dy * xhat).sum(axis=lead)
    grads[pre + "b"] += dy.sum(axis=lead)
    dxhat = dy * t[pre + "g"]
    return inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))


def _softmax_last(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_forward(x, t, pre, n_heads):
    """Bidirectional multi-head self-attention over one sequence (L, P)."""
    length, p = x.shape
    hd = p // n_heads
    scale = 1.0 / math.sqrt(hd)
    q = x @ t[pre + "Wq"] + t[pre + "bq"]
    k = x @ t[pre + "Wk"] + t[pre + "bk"]
    v = x @ t[pre + "Wv"] + t[pre + "bv"]
    qh = q.reshape(length, n_heads, hd).transpose(1, 0, 2)
    kh = k.reshape(length, n_heads, hd).transpose(1, 0, 2)
    vh = v.reshape(length, n_heads, hd).transpose(1, 0, 2)
    attn = _softmax_last(qh @ kh.transpose(0, 2, 1) * scale)
    ctx = attn @ vh
    ctx_flat = ctx.transpose(1, 0, 2).reshape(length, p)
    out = ctx_flat @ t[pre + "Wo"] + t[pre + "bo"]
    return out, (x, qh, kh, vh, attn, ctx_flat, scale)


def _attention_backward(dout, cache, t, pre, grads):
    x, qh, kh, vh, attn, ctx_flat, scale = cache
    length, p = x.shape
    n_heads = qh.shape[0]
    hd = p // n_heads

    grads[pre + "Wo"] += ctx_flat.T @ dout
    grads[pre + "bo"] += dout.sum(axis=0)
    dctx = (dout @ t[pre + "Wo"].T).reshape(length, n_heads, hd).transpose(1, 0, 2)

    dattn = dctx @ vh.transpose(0, 2, 1)
    dvh = attn.transpose(0, 2, 1) @ dctx
    # Softmax backward per attention row.
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = dscores @ kh * scale
    dkh = dscores.transpose(0, 2, 1) @ qh * scale

    dq = dqh.transpose(1, 0, 2).reshape(length, p)
    dk = dkh.transpose(1, 0, 2).reshape(length, p)
    dv = dvh.transpose(1, 0, 2).reshape(length, p)
    grads[pre + "Wq"] += x.T @ dq
    grads[pre + "bq"] += dq.sum(axis=0)
    grads[pre + "Wk"] += x.T @ dk
    grads[pre + "bk"] += dk.sum(axis=0)
    grads[pre + "Wv"] += x.T @ dv
    grads[pre + "bv"] += dv.sum(axis=0)
    return dq @ t[pre + "Wq"].T + dk @ t[pre + "Wk"].T + dv @ t[pre + "Wv"].T


# Tensor names of the two-layer feed-forward blocks: (in weight, in bias, out
# weight, out bias) under a key prefix.
_MLP_KEYS = ("W1", "b1", "W2", "b2")
_ADAPTER_KEYS = ("down", "bdown", "up", "bup")


def _ffn_forward(x, t, pre, keys):
    """Two-layer GELU feed-forward block: the MLP, adapter and image encoder."""
    w1, b1, w2, b2 = (pre + k for k in keys)
    z = x @ t[w1] + t[b1]
    tanh = _gelu_tanh(z)
    return (0.5 * z * (1.0 + tanh)) @ t[w2] + t[b2], (x, z, tanh)


def _ffn_backward(dout, cache, t, pre, keys, grads, input_grad=True):
    """Accumulate the block's weight gradients; return d input unless ``input_grad`` is off."""
    x, z, tanh = cache
    w1, b1, w2, b2 = (pre + k for k in keys)
    grads[w2] += (0.5 * z * (1.0 + tanh)).T @ dout  # the forward's GELU output, bit for bit
    grads[b2] += dout.sum(axis=0)
    dh = dout @ t[w2].T
    dz = dh * _gelu_grad(z, tanh)
    grads[w1] += x.T @ dz
    grads[b1] += dz.sum(axis=0)
    return dz @ t[w1].T if input_grad else None


# ---------------------------------------------------------------------------
# Text encoder


def _pooling_index(token_ids: list[int], pooling: str) -> int:
    if pooling == "eos":
        if EOS_ID not in token_ids:
            raise ValueError("EOS pooling requires an EOS token in the sequence")
        return token_ids.index(EOS_ID)
    if pooling == "cls":
        if not token_ids or token_ids[0] != CLS_ID:
            raise ValueError("CLS pooling requires CLS as the first token")
        return 0
    raise ValueError(f"unknown pooling {pooling!r}")


def _text_forward(params: ModelParams, token_ids: list[int], pooling: str, use_adapters: bool):
    cfg = params.config
    t = params.tensors
    if len(token_ids) > cfg.max_tokens:
        raise ValueError(f"sequence length {len(token_ids)} exceeds max_tokens {cfg.max_tokens}")
    if any(not 0 <= i < cfg.vocab_size for i in token_ids):
        raise ValueError("token id out of vocabulary range")
    if use_adapters and not params.has_adapters:
        raise ConfigError("adapter branch requested but no adapter tensors exist")

    pool = _pooling_index(token_ids, pooling)
    # Anything after the EOS token is padding: masked out of attention by
    # simply never entering the computation.
    ids = token_ids[: pool + 1] if pooling == "eos" else list(token_ids)
    length = len(ids)

    x = t["tok_emb"][ids] + t["pos_emb"][:length]
    caches = []
    for i in range(cfg.text_layers):
        pre = f"layers.{i}."
        a_in, ln1_cache = _layer_norm(x, t[pre + "ln1.g"], t[pre + "ln1.b"])
        attn_out, attn_cache = _attention_forward(a_in, t, pre + "attn.", cfg.num_heads)
        x1 = x + attn_out
        if use_adapters:
            ad1_out, ad1_cache = _ffn_forward(x1, t, pre + "ad1.", _ADAPTER_KEYS)
            x1 = x1 + ad1_out
        else:
            ad1_cache = None
        m_in, ln2_cache = _layer_norm(x1, t[pre + "ln2.g"], t[pre + "ln2.b"])
        mlp_out, mlp_cache = _ffn_forward(m_in, t, pre + "mlp.", _MLP_KEYS)
        x2 = x1 + mlp_out
        if use_adapters:
            ad2_out, ad2_cache = _ffn_forward(x2, t, pre + "ad2.", _ADAPTER_KEYS)
            x2 = x2 + ad2_out
        else:
            ad2_cache = None
        caches.append((ln1_cache, attn_cache, ad1_cache, ln2_cache, mlp_cache, ad2_cache))
        x = x2
    y, lnf_cache = _layer_norm(x, t["lnf.g"], t["lnf.b"])
    vec = y[pool if pooling == "cls" else length - 1].copy()
    cache = {
        "ids": ids,
        "length": length,
        "pool": pool if pooling == "cls" else length - 1,
        "use_adapters": use_adapters,
        "layer_caches": caches,
        "lnf_cache": lnf_cache,
    }
    return vec, cache


def _text_backward(params: ModelParams, cache: dict, dvec: np.ndarray, grads: dict) -> None:
    cfg = params.config
    t = params.tensors
    length = cache["length"]
    use_adapters = cache["use_adapters"]

    dy = np.zeros((length, cfg.embed_dim))
    dy[cache["pool"]] = dvec
    dx = _layer_norm_backward(dy, cache["lnf_cache"], t, "lnf.", grads)

    for i in reversed(range(cfg.text_layers)):
        pre = f"layers.{i}."
        ln1_cache, attn_cache, ad1_cache, ln2_cache, mlp_cache, ad2_cache = cache["layer_caches"][i]
        if use_adapters:
            d_ad2_in = _ffn_backward(dx, ad2_cache, t, pre + "ad2.", _ADAPTER_KEYS, grads)
            dx = dx + d_ad2_in
        d_mlp_in = _ffn_backward(dx, mlp_cache, t, pre + "mlp.", _MLP_KEYS, grads)
        d_x1a = _layer_norm_backward(d_mlp_in, ln2_cache, t, pre + "ln2.", grads)
        dx = dx + d_x1a
        if use_adapters:
            d_ad1_in = _ffn_backward(dx, ad1_cache, t, pre + "ad1.", _ADAPTER_KEYS, grads)
            dx = dx + d_ad1_in
        d_attn_in = _attention_backward(dx, attn_cache, t, pre + "attn.", grads)
        d_a = _layer_norm_backward(d_attn_in, ln1_cache, t, pre + "ln1.", grads)
        dx = dx + d_a

    np.add.at(grads["tok_emb"], cache["ids"], dx)
    grads["pos_emb"][:length] += dx


def encode_text(
    params: ModelParams,
    token_ids: list[int],
    pooling: str = "eos",
    use_adapters: bool = False,
) -> np.ndarray:
    """Unnormalized text feature at the pooling position (shape (P,))."""
    vec, _ = _text_forward(params, token_ids, pooling, use_adapters)
    return vec


# ---------------------------------------------------------------------------
# Image encoder


def _images_forward(params: ModelParams, images: np.ndarray):
    images = np.asarray(images, dtype=np.float64)
    dim = params.config.image_input_dim
    if images.ndim != 2 or images.shape[1] != dim:
        raise ValueError(f"image input shape {images.shape} != (N, image_input_dim={dim})")
    return _ffn_forward(images, params.tensors, "img.", _MLP_KEYS)


def encode_images(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """Unnormalized image features (N, P) for an (N, D) batch of input vectors."""
    out, _ = _images_forward(params, images)
    return out


# ---------------------------------------------------------------------------
# Joint loss gradients


@dataclass
class TrainBatch:
    """Inputs for one gradient computation.

    For the contrastive loss: images (B, D), token_ids (B sequences), labels
    (B,), and optional per-text adapter routing flags. For the grounding
    focal loss: region_features (M, P), token_ids (K category texts), and
    targets (M, K).
    """

    images: Optional[np.ndarray] = None
    token_ids: list = field(default_factory=list)
    labels: Optional[np.ndarray] = None
    adapter_flags: Optional[list] = None
    region_features: Optional[np.ndarray] = None
    targets: Optional[np.ndarray] = None


@dataclass
class LossSpec:
    """Which loss to differentiate and which tensors may receive gradient."""

    loss: str = "contrastive"  # "contrastive" | "ground_focal"
    trainable: str = "all"  # "all" | "adapters" | "none"
    use_adapters: bool = False
    pooling: str = "eos"
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0


def _encode_texts_dedup(params, token_ids, flags, pooling):
    """Encode every distinct (sequence, branch) pair once, in first-seen order."""
    index: dict[tuple, int] = {}
    rows = [index.setdefault((tuple(ids), bool(flag)), len(index))
            for ids, flag in zip(token_ids, flags)]
    encoded = [_text_forward(params, list(ids), pooling, flag) for ids, flag in index]
    feats = np.stack([vec for vec, _ in encoded])
    return feats[rows], encoded, rows


def grads(params: ModelParams, batch: TrainBatch, spec: LossSpec):
    """Exact analytic gradients of the selected loss.

    Returns (losses, grad_tensors) where grad_tensors is congruent to
    params.tensors; frozen tensors hold exact zeros.
    """
    from . import objective

    g = params.zeros_like()

    if spec.loss == "contrastive":
        if batch.images is None or batch.labels is None:
            raise ValueError("contrastive loss needs images and labels")
        flags = batch.adapter_flags
        if flags is None:
            flags = [spec.use_adapters] * len(batch.token_ids)
        img_raw, img_cache = _images_forward(params, batch.images)
        txt_raw, encoded, rows = _encode_texts_dedup(
            params, batch.token_ids, flags, spec.pooling
        )
        u = objective.normalize_rows(img_raw)
        v = objective.normalize_rows(txt_raw)
        sim = u @ v.T
        tau = params.tau
        loss, d_sim, d_tau = objective.grouped_contrastive_loss_with_grads(sim, batch.labels, tau)

        du = d_sim @ v
        dv = d_sim.T @ u
        d_img_raw = objective.normalize_rows_backward(img_raw, du)
        d_txt_raw = objective.normalize_rows_backward(txt_raw, dv)
        # Image inputs are fixed features: no gradient flows into them.
        _ffn_backward(d_img_raw, img_cache, params.tensors, "img.", _MLP_KEYS, g, input_grad=False)
        # Fold duplicate rows back onto their unique encoding.
        d_unique = np.zeros((len(encoded), params.config.embed_dim))
        np.add.at(d_unique, rows, d_txt_raw)
        for (_, cache), drow in zip(encoded, d_unique):
            _text_backward(params, cache, drow, g)
        # d loss / d log_tau via tau = exp(log_tau).
        g["log_tau"] += d_tau * tau
        losses = {
            "loss": loss.l_ic,
            "l_i2t": loss.l_i2t,
            "l_t2i": loss.l_t2i,
            "l_ic": loss.l_ic,
        }
    elif spec.loss == "ground_focal":
        from . import grounding

        if batch.region_features is None or batch.targets is None or not batch.token_ids:
            raise ValueError("ground_focal loss needs region_features, targets and category texts")
        feats = np.asarray(batch.region_features, dtype=np.float64)  # (M, P)
        targets = np.asarray(batch.targets, dtype=np.float64)
        shape = (len(feats), len(batch.token_ids))
        if targets.shape != shape:
            raise ValueError(f"scores shape {shape} != targets shape {targets.shape}")
        fp = grounding.FocalParams(alpha=spec.focal_alpha, gamma=spec.focal_gamma)
        # Column k of the scores, cells and bank gradient depends on text k
        # alone, so one text's cache is alive at a time. Every column comes from
        # the full (M,P)@(P,K) and (P,M)@(M,K) products, as a gemv column or a
        # strided elementwise loop need not give the same bits.
        bank = np.zeros((params.config.embed_dim, shape[1]))
        d_scores, cells = np.zeros(shape), np.empty(shape)
        for k, ids in enumerate(batch.token_ids):
            bank[:, k], cache = _text_forward(params, list(ids), spec.pooling, spec.use_adapters)
            cells[:, k], d_scores[:, k] = grounding.focal_cells(
                np.ascontiguousarray((feats @ bank)[:, k]), targets[:, k].copy(), fp
            )
            _text_backward(params, cache, (feats.T @ d_scores)[:, k], g)
            del cache
        losses = {"loss": grounding.focal_total(cells)}
    else:
        raise ConfigError(f"unknown loss {spec.loss!r}")

    if not np.isfinite(losses["loss"]):
        raise NumericsError("loss is non-finite", {"losses": losses})
    if spec.trainable not in ("all", "adapters", "none"):
        raise ConfigError(f"unknown trainable selection {spec.trainable!r}")
    for k in g:
        if spec.trainable == "none" or (spec.trainable == "adapters" and not is_adapter_key(k)):
            g[k][...] = 0.0
    return losses, g


# ---------------------------------------------------------------------------
# Checkpoints


CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path, meta: Optional[dict] = None) -> None:
    """Write a canonical-JSON checkpoint (field-wise and byte-wise stable).

    The bytes are ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``
    plus a newline, for the payload {encoder_config, format_version, meta,
    tensors: {name: {data, shape}}}. They are written one tensor row (a
    last-axis slice) at a time, so memory stays bounded by the longest row,
    and the file replaces ``path`` only once complete (``atomic_open``).
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with atomic_open(path) as out:
        # Top-level and tensor keys in sorted order, as sort_keys would emit them.
        out.write(
            f'{{"encoder_config":{encode(params.config.to_dict())}'
            f',"format_version":{encode(CHECKPOINT_VERSION)}'
            f',"meta":{encode(meta or {})},"tensors":{{'
        )
        for i, name in enumerate(sorted(params.tensors)):
            tensor = params.tensors[name]
            out.write(f'{"," if i else ""}{encode(name)}:{{"data":[')
            width = tensor.shape[-1] if tensor.ndim else 1
            sep = ""
            for row in tensor.reshape(math.prod(tensor.shape[:-1]), width):
                if row.size:  # a zero-size row adds no values and no comma
                    out.write(sep + encode(row.tolist())[1:-1])
                    sep = ","
            out.write(f'],"shape":{encode(list(tensor.shape))}}}')
        out.write("}}\n")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint whose tensors match what ``init_params`` builds for its config.

    The file streams through ``checkpoint_json.load``, so memory beyond the
    returned tensors is one buffer slice; any whitespace and key order is
    accepted. Adapter tensors are expected iff the checkpoint holds any
    adapter key. Every defect raises ``DataError``: malformed JSON, a data
    element that is not a JSON number, a non-object payload, an unsupported
    format version, an invalid ``encoder_config``, or a missing, extra or
    misshapen tensor. Arrays grow only with the values actually read and the
    expected shapes come from the config alone, so a corrupt config with huge
    dimensions allocates nothing.
    """
    payload = checkpoint_json.load(path)
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # true == 1.0 == 1
        raise DataError(f"{path}: unsupported checkpoint version")
    stored = payload.get("tensors")
    if not isinstance(payload.get("encoder_config"), dict) or not isinstance(stored, dict):
        raise DataError(f"{path}: checkpoint needs encoder_config and tensors objects")
    try:
        config = EncoderConfig.from_dict(payload["encoder_config"])
    except (TypeError, ConfigError) as exc:
        raise DataError(f"{path}: bad encoder_config ({exc})") from exc
    with_adapters = any(is_adapter_key(k) for k in stored)
    schema = {}
    # Stop at the first missing tensor: a huge stored layer count ends there.
    for name, shape, _ in _param_specs(config, with_adapters):
        if name not in stored:
            raise DataError(f"{path}: checkpoint tensor {name!r} is missing")
        schema[name] = shape
    extra = sorted(stored.keys() - schema.keys())
    if extra:
        raise DataError(f"{path}: unexpected checkpoint tensors {extra}")
    tensors = {}
    for k, spec in stored.items():
        shape, size = list(schema[k]), math.prod(schema[k])
        data = spec.get("data") if isinstance(spec, dict) else None
        if not isinstance(data, np.ndarray) or data.size != size or spec.get("shape") != shape:
            raise DataError(f"{path}: tensor {k!r} must hold {size} values of shape {shape}")
        tensors[k] = data.reshape(shape)
    return ModelParams(config, tensors), payload.get("meta", {})
