"""Triplet datasets, knowledge augmentation, and the training loop shared with grounding.

Training modes: ``scratch_1branch`` (plain dual encoders), ``scratch_2branch``
(adapter branch routes knowledge-augmented texts, base branch routes vanilla
texts, everything trained jointly), and ``continual_adapters`` (start from a
base checkpoint, attach zero-init adapters, update only adapter tensors).
Every run is fully determined by (seed, config, data).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import compose, encoder as enc, queries
from .errors import ConfigError, DataError, NumericsError
from .knowledge import KnowledgeStore, atomic_open, finite_array, iter_jsonl, string_field

TRAIN_MODES = ("scratch_1branch", "scratch_2branch", "continual_adapters")

OPTIMIZERS = ("sgd", "momentum", "adam")


@dataclass
class Triplet:
    """One (image, text, label) training instance.

    ``origin_text`` remembers the pre-augmentation description so label
    grouping survives augmentation (Combine emits two texts per original).
    """

    image: np.ndarray
    text: str
    kind: str = "category"
    label: Optional[int] = None
    augmented: bool = False
    origin_text: Optional[str] = None
    query: Optional[str] = None

    def group_key(self) -> str:
        return queries.normalize_text(
            self.origin_text if self.origin_text is not None else self.text
        )


def iter_dataset_jsonl(path, width: Optional[int] = None) -> Iterator[Triplet]:
    """Yield the validated triplets of a dataset file one row at a time.

    A malformed row raises ``DataError`` with its ``path:lineno``: among
    others one whose text is not a string or is blank, whose image is not
    ``width`` (default: the first row's length) finite numbers, whose
    ``label`` is not a 64-bit integer or null, whose ``augmented`` is not a
    bool, or whose ``origin_text`` or ``query`` is not a string or null.
    """
    for where, obj in iter_jsonl(path, DataError, ("image", "text")):
        kind = obj.get("kind", "category")
        if kind not in ("category", "caption"):
            raise DataError(f"{where}: kind must be 'category' or 'caption'")
        text = string_field(obj, "text", where, DataError)
        if not text.strip():
            raise DataError(f"{where}: text is blank")
        label, augmented = obj.get("label"), obj.get("augmented", False)
        if label is not None and (type(label) is not int or not -(2**63) <= label < 2**63):
            raise DataError(f"{where}: label must be a 64-bit integer or null")
        if type(augmented) is not bool:
            raise DataError(f"{where}: augmented must be true or false")
        for key in ("origin_text", "query"):
            if not isinstance(obj.get(key), (str, type(None))):
                raise DataError(f"{where}: {key} must be a string or null")
        image = finite_array(obj["image"], 1, where, "image", width)
        width = image.size
        yield Triplet(image, text, kind, label, augmented, obj.get("origin_text"), obj.get("query"))


def load_dataset_jsonl(path) -> list[Triplet]:
    return list(iter_dataset_jsonl(path))


@dataclass(frozen=True)
class DatasetFile:
    """A dataset file as a row source that re-reads the file on every iteration."""

    path: Path

    def __iter__(self) -> Iterator[Triplet]:
        return iter_dataset_jsonl(self.path)


def save_dataset_jsonl(triplets: Iterable[Triplet], path) -> None:
    """Write triplets as they are produced; ``path`` appears only when all are written.

    A failure while writing, or while producing a triplet, leaves no output
    and an existing ``path`` untouched (``knowledge.atomic_open``).
    """
    # One encoder for all rows: the bytes of json.dumps(row, sort_keys=True).
    encode = json.JSONEncoder(sort_keys=True).encode
    with atomic_open(path) as handle:
        for t in triplets:
            row = {
                "image": np.asarray(t.image, dtype=np.float64).ravel().tolist(),
                "text": t.text,
                "kind": t.kind,
                "label": t.label,
                "augmented": t.augmented,
                "origin_text": t.origin_text,
                "query": t.query,
            }
            handle.write(encode(row) + "\n")


def assign_labels(triplets: list[Triplet]) -> list[Triplet]:
    """Group labels: identical (normalized) descriptions share a dense label."""
    groups: dict[str, int] = {}
    return [replace(t, label=groups.setdefault(t.group_key(), len(groups))) for t in triplets]


@dataclass
class AugmentAudit:
    hits: int = 0
    misses: int = 0
    emitted: int = 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "emitted": self.emitted}


def iter_augmented(
    rows: Iterable[Triplet],
    audit: AugmentAudit,
    store: KnowledgeStore,
    source: str,
    scheme: str = "concat",
    template: compose.PromptTemplate = compose.PromptTemplate(),
    max_tokens: int = compose.DEFAULT_MAX_TOKENS,
    lexicon: Optional[dict[str, str]] = None,
) -> Iterator[Triplet]:
    """Rewrite every triplet's text with retrieved knowledge, one row at a time.

    ``rows`` is a re-iterable row source (``queries.iter_queries``). Each
    input row is retrieved, composed and labelled, and its output rows are
    yielded, and counted in ``audit``, before the next one is read. Memory
    is bounded by the number of distinct phrases and texts, not of rows.

    Category names are replaced by the prompt composition; captions follow the
    Concat/Combine scheme (Combine emits two triplets per knowledge hit).
    Retrieval misses leave the text unchanged. Labels are dense in first-seen
    order of the original text, so Combine pairs share a label.
    """
    groups: dict[str, int] = {}
    for t, query in queries.iter_queries(rows, lexicon or {}):
        item = store.retrieve(query, source)
        if item is None:
            audit.misses += 1
            texts = [t.text]
        elif t.kind == "category":
            audit.hits += 1
            texts = [compose.compose_class_text(template, query, item.text, max_tokens).text]
        else:
            audit.hits += 1
            augs = compose.compose_caption_texts(t.text, query, item.text, scheme, max_tokens)
            texts = [aug.text for aug in augs]
        label = groups.setdefault(queries.normalize_text(t.text), len(groups))
        for text in texts:
            audit.emitted += 1
            yield Triplet(
                image=t.image, text=text, kind=t.kind, label=label,
                augmented=item is not None, origin_text=t.text, query=query,
            )


def augment_dataset(
    triplets: list[Triplet],
    store: KnowledgeStore,
    source: str,
    scheme: str = "concat",
    template: compose.PromptTemplate = compose.PromptTemplate(),
    max_tokens: int = compose.DEFAULT_MAX_TOKENS,
    lexicon: Optional[dict[str, str]] = None,
) -> tuple[list[Triplet], AugmentAudit]:
    """``iter_augmented`` over an in-memory list: the augmented list and its audit."""
    audit = AugmentAudit()
    out = list(
        iter_augmented(triplets, audit, store, source, scheme, template, max_tokens, lexicon)
    )
    return out, audit


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 10
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    mode: str = "scratch_1branch"
    source: str = "wiki_def"
    base_checkpoint: Optional[str] = None
    encoder: enc.EncoderConfig = field(default_factory=enc.EncoderConfig)

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("contrastive training needs batch_size >= 2")
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {TRAIN_MODES}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.mode == "continual_adapters" and self.base_checkpoint is None:
            raise ConfigError("continual_adapters mode requires a base checkpoint")


@dataclass
class TrainResult:
    params: enc.ModelParams
    trace: list[tuple]  # (step, l_i2t, l_t2i, l_ic, tau)
    branch_counts: dict
    mode: str
    seed: int


class _Optimizer:
    """Plain SGD, classical momentum, or adaptive-moment updates of one flat vector.

    The updates are elementwise: the same bits as one update per tensor.
    """

    def __init__(self, kind: str, lr: float, size: int):
        self.kind = kind
        self.lr = lr
        self.t = 0
        self.m = None if kind == "sgd" else np.zeros(size)
        if kind == "adam":
            self.v = np.zeros(size)
            self.scratch = np.empty(size)

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        """Update ``w`` in place; ``g`` is used as scratch space and left undefined."""
        self.t += 1
        if self.kind == "momentum":
            self.m *= 0.9
            self.m += g
        if self.kind != "adam":
            w -= np.multiply(self.lr, self.m if self.kind == "momentum" else g, out=g)
            return
        b1, b2, eps = 0.9, 0.999, 1e-8
        m, v, s = self.m, self.v, self.scratch
        m *= b1
        m += np.multiply(1 - b1, g, out=s)
        v *= b2
        v += np.multiply(1 - b2, np.square(g, out=g), out=g)
        # lr * mhat / (sqrt(vhat) + eps), with mhat = m / (1 - b1**t), vhat likewise.
        np.sqrt(np.divide(v, 1 - b2**self.t, out=s), out=s)
        s += eps
        np.divide(m, 1 - b1**self.t, out=g)
        g *= self.lr
        w -= np.divide(g, s, out=g)


def _init_for_mode(config: TrainConfig, base_params: Optional[enc.ModelParams]):
    if config.mode == "continual_adapters":
        if base_params is None:
            base_params, _ = enc.load_checkpoint(config.base_checkpoint)
        params = base_params if base_params.has_adapters else enc.add_adapters(
            base_params, seed=config.seed
        )
        return params.copy()
    with_adapters = config.mode == "scratch_2branch"
    return enc.init_params(config.encoder, seed=config.seed, with_adapters=with_adapters)


def fit(
    params: enc.ModelParams,
    spec: enc.LossSpec,
    items: Sequence,
    make_batch: Callable[[list], enc.TrainBatch],
    epochs: int,
    batch_size: int,
    optimizer: str,
    learning_rate: float,
    seed: int,
) -> tuple[list[tuple], dict]:
    """The training loop shared by contrastive training and grounding.

    Each epoch visits ``items`` in a seeded permutation, ``batch_size`` at a
    time; ``make_batch`` turns the sampled items into encoder inputs. Each
    step updates one packed vector (``encoder.FlatTensors``) and clamps
    log-tau to ``TAU_MAX``. Returns the loss trace, with rows (step, l_i2t,
    l_t2i, l_ic, tau) for the contrastive loss and (step, focal_loss) for
    grounding, plus the per-branch text counts.
    """
    params.tensors = enc.FlatTensors(params.tensors)
    opt = _Optimizer(optimizer, learning_rate, params.tensors.flat.size)
    rng = np.random.default_rng(seed)
    trace = []
    branch_counts = {"base": 0, "adapter": 0}
    log_tau_max = np.log(enc.TAU_MAX)
    for _ in range(epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), batch_size):
            idx = order[start : start + batch_size]
            if spec.loss == "contrastive" and len(idx) < 2:
                continue  # a singleton batch has a degenerate contrastive loss
            batch = [items[i] for i in idx]
            train_batch = make_batch(batch)
            try:
                losses, g = enc.grads(params, train_batch, spec)
            except NumericsError as exc:
                exc.diagnostics["step"] = len(trace)
                exc.diagnostics["batch"] = batch
                raise
            opt.step(params.tensors.flat, g.flat)
            del g  # released before the next step's gradients are built
            if params.tensors["log_tau"] > log_tau_max:
                params.tensors["log_tau"][...] = log_tau_max
            flags = train_batch.adapter_flags or []
            branch_counts["adapter"] += sum(flags)
            branch_counts["base"] += len(flags) - sum(flags)
            step = len(trace) + 1
            if spec.loss == "contrastive":
                trace.append((step, losses["l_i2t"], losses["l_t2i"], losses["l_ic"], params.tau))
            else:
                trace.append((step, losses["loss"]))
    return trace, branch_counts


def train(
    config: TrainConfig,
    triplets: Iterable[Triplet],
    base_params: Optional[enc.ModelParams] = None,
) -> TrainResult:
    """Run seeded contrastive training and return params plus the loss trace.

    ``triplets`` is read once into per-row arrays and per-text token ids; if
    any row has no label, every row is labelled as ``assign_labels`` would.
    """
    params = _init_for_mode(config, base_params)
    cfg = params.config
    continual = config.mode == "continual_adapters"
    text_index: dict[str, int] = {}
    groups: dict[str, int] = {}

    def records():
        for t in triplets:
            image = np.asarray(t.image)
            if image.shape != (cfg.image_input_dim,):
                raise DataError(f"triplet image shape {image.shape} != ({cfg.image_input_dim},)")
            group = groups.setdefault(t.group_key(), len(groups))
            # Two-branch routing: knowledge hits through the adapter branch.
            adapter = t.augmented if config.mode == "scratch_2branch" else continual
            yield (image, text_index.setdefault(t.text, len(text_index)),
                   group if t.label is None else t.label, t.label is not None, group, adapter)

    fields = [("image", np.float64, (cfg.image_input_dim,)), ("text", np.intp),
              ("label", np.int64), ("labeled", bool), ("group", np.int64), ("adapter", bool)]
    rows = np.fromiter(records(), dtype=np.dtype(fields, align=True))
    token_ids = [np.array(enc.text_to_ids(text, cfg), dtype=np.int32) for text in text_index]
    del text_index, groups  # training needs neither
    labels = rows["label"] if rows["labeled"].all() else rows["group"]
    spec = enc.LossSpec(loss="contrastive", trainable="adapters" if continual else "all")

    def make_batch(batch: list[int]) -> enc.TrainBatch:
        return enc.TrainBatch(
            images=rows["image"][batch],
            token_ids=[token_ids[i].tolist() for i in rows["text"][batch]],
            labels=labels[batch],
            adapter_flags=rows["adapter"][batch].tolist(),
        )

    trace, branch_counts = fit(
        params, spec, range(len(rows)), make_batch, config.epochs, config.batch_size,
        config.optimizer, config.learning_rate, config.seed,
    )
    return TrainResult(
        params=params, trace=trace, branch_counts=branch_counts, mode=config.mode, seed=config.seed
    )


def save_trace_csv(trace: list[tuple], path, header: str = "step,l_i2t,l_t2i,l_ic,tau") -> None:
    """A loss trace as CSV: ``header``, then the ``repr`` of every value of each row."""
    with atomic_open(path) as handle:
        handle.write(header + "\n")
        for row in trace:
            handle.write(",".join(map(repr, row)) + "\n")
