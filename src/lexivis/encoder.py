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

import itertools
import json
import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import checkpoint_json, compose
from .errors import ConfigError, DataError
from .knowledge import atomic_open
from .queries import tokenize

CLS_ID = 0
EOS_ID = 1
NUM_RESERVED = 2

TAU_INIT = 14.29
TAU_MAX = 100.0

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)

# Rows per pass of encode_images (64-127 per block): its memory beyond inputs and features.
_IMAGE_BLOCK = 64


@dataclass
class EncoderConfig:
    embed_dim: int = 32
    text_layers: int = 2
    num_heads: int = 2
    hidden_dim: int = 64
    vocab_size: int = 512
    max_tokens: int = compose.DEFAULT_MAX_TOKENS
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
        return asdict(self)


def text_to_ids(text: str, config: EncoderConfig, pooling: str = "eos") -> list[int]:
    """Tokenize a text and add the token it pools at, EOS last or CLS first: the ids say which."""
    if pooling not in ("eos", "cls"):
        raise ValueError(f"unknown pooling {pooling!r}")
    words = tokenize(text)[: compose.word_budget(config.max_tokens)]
    # Deterministic, platform-stable bucket ids in [NUM_RESERVED, vocab_size).
    ids = [NUM_RESERVED + zlib.crc32(w.encode("utf-8")) % (config.vocab_size - NUM_RESERVED)
           for w in words]
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
    specs = _param_specs(config, with_adapters)
    return ModelParams(config, {name: _init_tensor(rng, shape, init) for name, shape, init in specs})


def add_adapters(params: ModelParams, seed: int) -> ModelParams:
    """Attach zero-initialized adapters to an adapter-free parameter set in place; return it."""
    if params.has_adapters:
        raise ConfigError("parameters already carry adapter tensors")
    rng = np.random.default_rng(seed)
    for name, shape, init in _param_specs(params.config, with_adapters=True):
        if is_adapter_key(name):
            params.tensors[name] = _init_tensor(rng, shape, init)
    return params


# ---------------------------------------------------------------------------
# Primitive forward/backward pairs
#
# A backward accumulates into ``grads`` only the tensors it holds: a block whose tensors are
# absent is frozen, and skips its weight-gradient products while d input still flows.


def _gelu_tanh(x):
    """The tanh of GELU's approximation: GELU(x) is ``0.5 * x * (1.0 + t)``."""
    return np.tanh(_GELU_C * (x + 0.044715 * x**3))


def _gelu_grad(x, t):
    """``0.5 * (1 + t) + 0.5 * x * (1 - t**2) * d_inner`` by the same ufuncs, in two buffers."""
    tail, out = 0.5 * x, np.square(t)
    tail *= np.subtract(1.0, out, out=out)
    out = np.square(x, out=out)  # d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    out *= 3 * 0.044715
    out += 1.0
    out *= _GELU_C
    tail *= out
    out = np.multiply(0.5, np.add(1.0, t, out=out), out=out)
    out += tail
    return out


def _mean_last(x):
    # What ndarray.mean(axis=-1, keepdims=True) computes, without its Python wrapper.
    return np.add.reduce(x, -1, keepdims=True) / x.shape[-1]


def _layer_norm(x, g, b):
    centered = x - _mean_last(x)
    inv = 1.0 / np.sqrt(_mean_last(centered * centered) + _LN_EPS)  # ndarray.var's steps
    xhat = centered * inv
    return g * xhat + b, (xhat, inv)


def _accumulate(total, value):
    """``total += value``, a stacked ``value`` one leading slice (one sequence) at a time.

    Slice by slice, in order, keeps the bits of one sequence per pass; adding their sum would not.
    """
    if value.ndim == total.ndim:
        total += value
    else:
        for i in range(len(value)):  # indexing is cheaper than an ndarray iterator
            total += value[i]


def _layer_norm_backward(dy, cache, t, pre, grads):
    xhat, inv = cache
    if pre + "g" in grads:
        _accumulate(grads[pre + "g"], (dy * xhat).sum(axis=-2))
        _accumulate(grads[pre + "b"], dy.sum(axis=-2))
    dxhat = dy * t[pre + "g"]
    return inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))


def _softmax_last(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _qkv_heads(x, t, pre, n_heads):
    """Q, K and V of (B, L, P) inputs as (B, H, L, hd) views: each head of each sequence is one
    (L, hd) matrix. The forward and the backward's rebuild both call this: the same bits."""
    batch, length, p = x.shape
    return [(x @ t[pre + "W" + n] + t[pre + "b" + n]).reshape(batch, length, n_heads, p // n_heads)
            .swapaxes(1, 2) for n in "qkv"]


def _attention_forward(x, t, pre, n_heads):
    """Bidirectional multi-head self-attention over (B, L, P) sequences of one length.

    The cache is the input and the softmax probabilities; the backward rebuilds Q, K, V and the
    context from the input."""
    qh, kh, vh = _qkv_heads(x, t, pre, n_heads)
    attn = _softmax_last(qh @ kh.mT * (1.0 / math.sqrt(qh.shape[-1])))
    ctx_flat = (attn @ vh).swapaxes(1, 2).reshape(x.shape)
    return ctx_flat @ t[pre + "Wo"] + t[pre + "bo"], (x, attn)


def _attention_backward(dout, cache, t, pre, grads):
    x, attn = cache
    qh, kh, vh = _qkv_heads(x, t, pre, attn.shape[1])
    batch, n_heads, length, hd = qh.shape
    scale = 1.0 / math.sqrt(hd)
    if pre + "Wo" in grads:
        ctx_flat = (attn @ vh).swapaxes(1, 2).reshape(x.shape)
        _accumulate(grads[pre + "Wo"], ctx_flat.mT @ dout)
        _accumulate(grads[pre + "bo"], dout.sum(axis=-2))
    dctx = (dout @ t[pre + "Wo"].T).reshape(batch, length, n_heads, hd).swapaxes(1, 2)

    dattn = dctx @ vh.mT
    dvh = attn.mT @ dctx
    # Softmax backward per attention row.
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = dscores @ kh * scale
    dkh = dscores.mT @ qh * scale

    dq, dk, dv = (dh.swapaxes(1, 2).reshape(x.shape) for dh in (dqh, dkh, dvh))
    if pre + "Wq" in grads:
        for name, d in (("q", dq), ("k", dk), ("v", dv)):
            _accumulate(grads[pre + "W" + name], x.mT @ d)
            _accumulate(grads[pre + "b" + name], d.sum(axis=-2))
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
    return (0.5 * z * (1.0 + tanh)) @ t[w2] + t[b2], (x, tanh)


def _ffn_backward(dout, cache, t, pre, keys, grads, input_grad=True):
    """Accumulate the weight gradients of a block in ``grads``; return d input unless
    ``input_grad`` is off. The cache is the input and GELU's tanh: z is rebuilt."""
    x, tanh = cache
    w1, b1, w2, b2 = (pre + k for k in keys)
    z = x @ t[w1] + t[b1]  # the forward's pre-activation, bit for bit
    live = w1 in grads
    if live:  # the forward's GELU output, bit for bit
        _accumulate(grads[w2], (0.5 * z * (1.0 + tanh)).mT @ dout)
        _accumulate(grads[b2], dout.sum(axis=-2))
    dz = _gelu_grad(z, tanh)
    dz *= dout @ t[w2].T
    if live:
        _accumulate(grads[w1], x.mT @ dz)
        _accumulate(grads[b1], dz.sum(axis=-2))
    return dz @ t[w1].T if input_grad else None


# ---------------------------------------------------------------------------
# Text encoder


def _checked_ids(params: ModelParams, token_ids, use_adapters: bool) -> list[int]:
    """``token_ids`` checked for a text pass: pooled at CLS if first, else at a last, sole EOS."""
    cfg = params.config
    ids = list(token_ids)
    if len(ids) > cfg.max_tokens:
        raise ValueError(f"sequence length {len(ids)} exceeds max_tokens {cfg.max_tokens}")
    if any(not 0 <= i < cfg.vocab_size for i in ids):
        raise ValueError("token id out of vocabulary range")
    if use_adapters and not params.has_adapters:
        raise ConfigError("adapter branch requested but no adapter tensors exist")
    if ids[:1] != [CLS_ID] and (ids[-1:] != [EOS_ID] or EOS_ID in ids[:-1]):
        raise ValueError("EOS must end a sequence that does not begin with CLS, and only end it")
    return ids


def _sublayers(i: int, use_adapters: bool) -> list[tuple]:
    """Layer ``i``'s residual sublayers in order: (layer-norm prefix or None, block prefix,
    FFN keys or None for attention). The adapters are the two entries without a norm."""
    pre = f"layers.{i}."
    subs = [(pre + "ln1.", pre + "attn.", None), (None, pre + "ad1.", _ADAPTER_KEYS),
            (pre + "ln2.", pre + "mlp.", _MLP_KEYS), (None, pre + "ad2.", _ADAPTER_KEYS)]
    return [sub for sub in subs if use_adapters or sub[2] is not _ADAPTER_KEYS]


def _text_forward(params: ModelParams, ids, use_adapters: bool):
    """Pooled features (B, P) of B checked id sequences of one length, all on one branch."""
    cfg = params.config
    t = params.tensors
    ids = np.asarray(ids)
    x = t["tok_emb"][ids] + t["pos_emb"][: ids.shape[1]]
    caches = []  # one per sublayer: x = x + block(norm(x))
    for i in range(cfg.text_layers):
        for norm, block, keys in _sublayers(i, use_adapters):
            h, norm_cache = _layer_norm(x, t[norm + "g"], t[norm + "b"]) if norm else (x, None)
            if keys is None:
                out, block_cache = _attention_forward(h, t, block, cfg.num_heads)
            else:
                out, block_cache = _ffn_forward(h, t, block, keys)
            if norm:  # the backward rebuilds the block's input from the norm's xhat
                block_cache = (None, *block_cache[1:])
            x = x + out
            caches.append((norm, block, keys, norm_cache, block_cache))
    y, lnf_cache = _layer_norm(x, t["lnf.g"], t["lnf.b"])
    pool = (np.arange(len(ids)), np.where(ids[:, 0] == CLS_ID, 0, ids.shape[1] - 1))
    return y[pool], (ids, pool, caches + [lnf_cache])


def _text_backward(params: ModelParams, cache: tuple, dvecs: np.ndarray, grads: dict) -> None:
    """Accumulate the gradients of a ``_text_forward`` pass, given d features (B, P).

    Consumes ``cache``: each sublayer's activations are freed once its backward has run. Below
    the lowest sublayer with a tensor in ``grads``, d x only reaches the embeddings, so the
    backward stops there unless they train."""
    t = params.tensors
    ids, pool, caches = cache
    floor = 0  # the lowest sublayer whose backward runs
    if "tok_emb" not in grads:
        held = {key.rpartition(".")[0] + "." for key in grads}  # "layers.0.ad1.", "lnf.", ...
        live = [norm in held or block in held for norm, block, *_ in caches[:-1]] + ["lnf." in held]
        if True not in live:
            return  # nothing in grads is reached
        floor = live.index(True)
    dy = np.zeros(ids.shape + (params.config.embed_dim,))
    dy[pool] = dvecs
    dx = _layer_norm_backward(dy, caches.pop(), t, "lnf.", grads)
    while len(caches) > floor:
        norm, block, keys, norm_cache, block_cache = caches.pop()
        if norm:  # the norm's output, as _layer_norm computed it, bit for bit
            block_cache = (t[norm + "g"] * norm_cache[0] + t[norm + "b"], *block_cache[1:])
        if keys is None:
            d = _attention_backward(dx, block_cache, t, block, grads)
        else:
            d = _ffn_backward(dx, block_cache, t, block, keys, grads)
        if norm:
            d = _layer_norm_backward(d, norm_cache, t, norm, grads)
        dx = dx + d
    if "tok_emb" in grads:
        np.add.at(grads["tok_emb"], ids, dx)  # row by row in (sequence, position) order
        _accumulate(grads["pos_emb"][: ids.shape[1]], dx)


def encode_text(params: ModelParams, token_ids: list[int],
                use_adapters: bool = False) -> np.ndarray:
    """Unnormalized text feature at the position ``token_ids`` pools at (shape (P,))."""
    ids = _checked_ids(params, token_ids, use_adapters)
    return _text_forward(params, [ids], use_adapters)[0][0]


# ---------------------------------------------------------------------------
# Image encoder


def _images_forward(params: ModelParams, images: np.ndarray):
    images = np.asarray(images, dtype=np.float64)
    dim = params.config.image_input_dim
    if images.ndim != 2 or images.shape[1] != dim:
        raise ValueError(f"image input shape {images.shape} != (N, image_input_dim={dim})")
    return _ffn_forward(images, params.tensors, "img.", _MLP_KEYS)


def encode_images(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """Unnormalized image features (N, P) for an (N, D) batch of input vectors.

    The rows pass in blocks of 64-127 (below 64 rows, in one pass), so memory beyond the inputs
    and features is one block's. No block has one row, which goes through gemv: on the golden
    stack a block of >= 2 rows gives the rows of the full product, bit for bit."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:] != (params.config.image_input_dim,):
        return _images_forward(params, images)[0]  # raises, naming the whole batch's shape
    parts = max(1, len(images) // _IMAGE_BLOCK)
    out = np.empty((len(images), params.config.embed_dim))
    for block, rows in zip(np.array_split(images, parts), np.array_split(out, parts)):
        rows[...] = _images_forward(params, block)[0]
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
    trainable: str = "all"  # "all" | "adapters"
    use_adapters: bool = False
    focal: Optional["grounding.FocalParams"] = None  # ground_focal; None: FocalParams()

    def trains(self, key: str) -> bool:
        """Whether tensor ``key`` gets gradient: all of them, or the adapters alone."""
        return self.trainable == "all" or is_adapter_key(key)


def grads(params: ModelParams, batch: TrainBatch, spec: LossSpec):
    """Exact analytic gradients of the selected loss.

    Returns (losses, grad_tensors) where grad_tensors holds the trainable
    tensors (``spec.trains``), in ``params.tensors`` order, as views into one
    flat vector (``FlatTensors``). Frozen tensors get no gradient computed.
    """
    from . import objective

    if spec.trainable not in ("all", "adapters"):
        raise ConfigError(f"unknown trainable selection {spec.trainable!r}")
    g = FlatTensors({k: v for k, v in params.tensors.items() if spec.trains(k)}, copy=False)

    if spec.loss == "contrastive":
        if batch.images is None or batch.labels is None:
            raise ValueError("contrastive loss needs images and labels")
        flags = batch.adapter_flags
        if flags is None:
            flags = [spec.use_adapters] * len(batch.token_ids)
        img_raw, img_cache = _images_forward(params, batch.images)
        index: dict[tuple, int] = {}
        rows = [index.setdefault((tuple(ids), bool(flag)), len(index))
                for ids, flag in zip(batch.token_ids, flags)]
        texts = [(_checked_ids(params, ids, flag), flag) for ids, flag in index]
        # One stacked pass per run of consecutive distinct texts with one length and branch.
        # The runs are backpropagated in first-seen order: the bits of one text per pass.
        passes = [
            _text_forward(params, [ids for ids, _ in run], flag)
            for (_, flag), run in itertools.groupby(texts, lambda text: (len(text[0]), text[1]))
        ]
        txt_raw = np.concatenate([vecs for vecs, _ in passes])[rows]
        u = objective.normalize_rows(img_raw)
        v = objective.normalize_rows(txt_raw)
        sim = u @ v.T
        tau = params.tau
        loss, d_sim, d_tau = objective.grouped_contrastive_loss_with_grads(sim, batch.labels, tau)

        d_txt_raw = objective.normalize_rows_backward(txt_raw, d_sim.T @ u)
        if "img.W1" in g:  # a frozen image MLP has no backward to run
            d_img_raw = objective.normalize_rows_backward(img_raw, d_sim @ v)
            # Image inputs are fixed features: no gradient flows into them.
            _ffn_backward(d_img_raw, img_cache, params.tensors, "img.", _MLP_KEYS, g,
                          input_grad=False)
        # Fold duplicate rows back onto their unique encoding.
        d_unique = np.zeros((len(index), params.config.embed_dim))
        np.add.at(d_unique, rows, d_txt_raw)
        start = 0
        while passes:  # each run's cache is released before the next run's backward
            vecs, cache = passes.pop(0)
            _text_backward(params, cache, d_unique[start : start + len(vecs)], g)
            start += len(vecs)
        if "log_tau" in g:  # d loss / d log_tau via tau = exp(log_tau)
            g["log_tau"] += d_tau * tau
        losses = {"loss": loss.l_ic, "l_i2t": loss.l_i2t, "l_t2i": loss.l_t2i, "l_ic": loss.l_ic}
    elif spec.loss == "ground_focal":
        from . import grounding

        if batch.region_features is None or batch.targets is None or not batch.token_ids:
            raise ValueError("ground_focal loss needs region_features, targets and category texts")
        feats = np.asarray(batch.region_features, dtype=np.float64)  # (M, P)
        targets = np.asarray(batch.targets, dtype=np.float64)
        shape = (len(feats), len(batch.token_ids))
        if targets.shape != shape:
            raise ValueError(f"scores shape {shape} != targets shape {targets.shape}")
        fp = spec.focal or grounding.FocalParams()
        # Column k of the scores, cells and bank gradient depends on text k
        # alone, so one text's cache is alive at a time. Every column comes from
        # the full (M,P)@(P,K) and (P,M)@(M,K) products, as a gemv column or a
        # strided elementwise loop need not give the same bits.
        bank = np.zeros((params.config.embed_dim, shape[1]))
        d_scores, cells = np.zeros(shape), np.empty(shape)
        for k, ids in enumerate(batch.token_ids):
            ids = _checked_ids(params, ids, spec.use_adapters)
            (bank[:, k],), cache = _text_forward(params, [ids], spec.use_adapters)
            cells[:, k], d_scores[:, k] = grounding.focal_cells(
                np.ascontiguousarray((feats @ bank)[:, k]), targets[:, k].copy(), fp
            )
            _text_backward(params, cache, (feats.T @ d_scores)[:, k][None], g)
        losses = {"loss": grounding.focal_total(cells)}
    else:
        raise ConfigError(f"unknown loss {spec.loss!r}")

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
    format version, an invalid ``encoder_config``, or a missing, extra,
    misshapen or non-finite tensor. Arrays grow only with the values actually
    read and the expected shapes come from the config alone, so a corrupt
    config with huge dimensions allocates nothing.
    """
    payload = checkpoint_json.load(path)
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # true == 1.0 == 1
        raise DataError(f"{path}: unsupported checkpoint version")
    stored = payload.get("tensors")
    if not isinstance(payload.get("encoder_config"), dict) or not isinstance(stored, dict):
        raise DataError(f"{path}: checkpoint needs encoder_config and tensors objects")
    try:
        config = EncoderConfig(**payload["encoder_config"])
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
        if not np.isfinite(data).all():  # else eval would blame the first image it encodes
            raise DataError(f"{path}: tensor {k!r} holds a NaN or infinite value")
        tensors[k] = data.reshape(shape)
    return ModelParams(config, tensors), payload.get("meta", {})
