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
from .knowledge import (KnowledgeStore, atomic_open, finite_array, iter_jsonl, label_field,
                        string_field)

TRAIN_MODES = ("scratch_1branch", "scratch_2branch", "continual_adapters")

OPTIMIZERS = ("sgd", "momentum", "adam")

_STR_OR_NULL = (str, type(None))

FLOAT_RULE = dict(over="raise", invalid="raise", divide="raise")  # cli.main's and each fit step's

# Values per pass of the two Adam steps that need a second operand beside the gradient.
_ADAM_BLOCK = 8192


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
    for where, obj in iter_jsonl(path, ("image", "text")):
        kind = obj.get("kind", "category")
        if kind not in ("category", "caption"):
            raise DataError(f"{where}: kind must be 'category' or 'caption'")
        text = string_field(obj, "text", where)
        if not text.strip():
            raise DataError(f"{where}: text is blank")
        label, augmented = label_field(obj, where), obj.get("augmented", False)
        if type(augmented) is not bool:
            raise DataError(f"{where}: augmented must be true or false")
        for key in ("origin_text", "query"):
            if not isinstance(obj.get(key), _STR_OR_NULL):
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
            row = {**vars(t), "image": np.asarray(t.image, dtype=np.float64).ravel().tolist()}
            handle.write(encode(row) + "\n")


def assign_labels(triplets: list[Triplet]) -> list[Triplet]:
    """Group labels: identical (normalized) descriptions share a dense label."""
    groups: dict[str, int] = {}
    return [replace(t, label=groups.setdefault(t.group_key(), len(groups))) for t in triplets]


def iter_augmented(
    rows: Iterable[Triplet],
    audit: dict[str, int],
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
    yielded, and counted in ``audit``, before the next one is read: its
    ``hits``, ``misses`` and ``emitted`` each start at 0. Memory
    is bounded by the number of distinct phrases and texts, not of rows.

    A category row gets the text eval encodes for its class
    (``compose.class_texts`` with ``template``): a hit if it kept knowledge,
    else the vanilla prompt; a prompt over the budget raises ``DataError``.
    Captions follow Concat/Combine (Combine emits two triplets per hit) and
    keep their text on a miss. Labels are dense in first-seen order of the
    original text, so Combine pairs share a label.
    """
    groups: dict[str, int] = {}
    audit.update(hits=0, misses=0, emitted=0)
    for t, query in queries.iter_queries(rows, lexicon or {}):
        if t.kind == "category":
            _, texts, hit = compose.class_texts(t.text, store, source, max_tokens, [template])
        else:
            item = store.retrieve(query, source)
            hit = item is not None
            texts = [aug.text for aug in compose.compose_caption_texts(
                t.text, query, item.text, scheme, max_tokens)] if hit else [t.text]
        audit["hits" if hit else "misses"] += 1
        label = groups.setdefault(queries.normalize_text(t.text), len(groups))
        for text in texts:
            audit["emitted"] += 1
            yield Triplet(
                image=t.image, text=text, kind=t.kind, label=label,
                augmented=hit, origin_text=t.text, query=query,
            )


def augment_dataset(
    triplets: list[Triplet], store: KnowledgeStore, source: str, **recipe
) -> tuple[list[Triplet], dict[str, int]]:
    """``iter_augmented`` over an in-memory list, with its keyword ``recipe`` (``scheme``,
    ``template``, ``max_tokens``, ``lexicon``) and defaults: the augmented list and its counts."""
    audit: dict[str, int] = {}
    return list(iter_augmented(triplets, audit, store, source, **recipe)), audit


def check_schedule(epochs: int, learning_rate: float, seed: int) -> None:
    """Reject a negative epoch count or seed, or a learning rate that is not finite and > 0."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if not 0 < learning_rate < float("inf"):  # false for NaN too
        raise ConfigError(f"learning_rate must be finite and > 0, got {learning_rate}")


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 10
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    mode: str = "scratch_1branch"
    encoder: enc.EncoderConfig = field(default_factory=enc.EncoderConfig)

    def __post_init__(self):
        check_schedule(self.epochs, self.learning_rate, self.seed)
        if self.batch_size < 2:
            raise ConfigError("contrastive training needs batch_size >= 2")
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {TRAIN_MODES}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainResult:
    params: enc.ModelParams
    trace: list[tuple]  # (step, l_i2t, l_t2i, l_ic, tau)
    branch_counts: dict
    cut: tuple  # (distinct texts cut to max_tokens, distinct texts, longest in words)


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
            self.scratch = np.empty(min(size, _ADAM_BLOCK))

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        """Update ``w`` in place; ``g`` is used as scratch space and left undefined.

        Adam holds ``m``, ``v`` and one block-sized scratch: the two steps that
        need an operand beside ``g`` run block by block through it, the rest
        over whole vectors.
        """
        self.t += 1
        if self.kind == "momentum":
            self.m *= 0.9
            self.m += g
        if self.kind != "adam":
            w -= np.multiply(self.lr, self.m if self.kind == "momentum" else g, out=g)
            return
        b1, b2, eps = 0.9, 0.999, 1e-8
        m, v, s, n = self.m, self.v, self.scratch, _ADAM_BLOCK
        blocks = [(g[i : i + n], m[i : i + n]) for i in range(0, g.size, n)]
        m *= b1
        for gb, mb in blocks:  # g is still needed for v
            mb += np.multiply(1 - b1, gb, out=s[: gb.size])
        v *= b2
        v += np.multiply(1 - b2, np.square(g, out=g), out=g)
        # lr * mhat / (sqrt(vhat) + eps), with mhat = m / (1 - b1**t), vhat likewise;
        # the denominator is built in g, and then the update.
        np.sqrt(np.divide(v, 1 - b2**self.t, out=g), out=g)
        g += eps
        for gb, mb in blocks:
            step = np.divide(mb, 1 - b1**self.t, out=s[: gb.size])
            step *= self.lr
            np.divide(step, gb, out=gb)
        w -= g


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
    time; ``make_batch`` turns the sampled items into encoder inputs. Only the
    trained tensors (``spec.trains``) are packed into one vector
    (``encoder.FlatTensors``), in the order ``encoder.grads`` packs their
    gradient, and ``params.tensors`` takes those views; frozen tensors stay as
    they are. Each step updates that vector, which is all the optimizer holds
    state for, and clamps log-tau so that tau never exceeds ``TAU_MAX``. A
    floating-point fault in a step is a ``NumericsError``, like a numerics
    fault in the loss, with the step and batch in its diagnostics. Returns
    the loss trace, with rows (step, l_i2t, l_t2i, l_ic, tau) for the
    contrastive loss and (step, focal_loss) for grounding, plus the
    per-branch text counts.
    """
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    trained = enc.FlatTensors({k: v for k, v in params.tensors.items() if spec.trains(k)})
    params.tensors.update(trained)
    opt = _Optimizer(optimizer, learning_rate, trained.flat.size)
    rng = np.random.default_rng(seed)
    trace = []
    branch_counts = {"base": 0, "adapter": 0}
    log_tau_max = np.nextafter(np.log(enc.TAU_MAX), -np.inf)  # exp(log(TAU_MAX)) rounds above it
    for _ in range(epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), batch_size):
            idx = order[start : start + batch_size]
            if spec.loss == "contrastive" and len(idx) < 2:
                continue  # a singleton batch has a degenerate contrastive loss
            batch = [items[i] for i in idx]
            train_batch = make_batch(batch)
            try:
                with np.errstate(**FLOAT_RULE):
                    losses, g = enc.grads(params, train_batch, spec)
                    opt.step(trained.flat, g.flat)
            except FloatingPointError as exc:
                raise NumericsError(str(exc), {"step": len(trace), "batch": batch}) from exc
            except NumericsError as exc:
                exc.diagnostics.update(step=len(trace), batch=batch)
                raise
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
    config: TrainConfig, triplets: Iterable[Triplet], base: Optional[enc.ModelParams] = None
) -> TrainResult:
    """Run seeded contrastive training and return params plus the loss trace.

    ``continual_adapters``, the one mode that takes ``base``, trains
    adapters on it and consumes it: adapters missing from ``base`` are
    attached in place, and the returned params are ``base`` itself with its
    tensors replaced by the trained ones, so no copy of the base stays alive
    beside them. The scratch modes initialise from
    ``config.encoder``. ``triplets`` is read once into per-row arrays and
    the token ids of the distinct texts, end to end in one array; if any row
    has no label, every row is labelled as ``assign_labels`` would.
    """
    continual = config.mode == "continual_adapters"
    if continual and base is None:
        raise ConfigError("continual_adapters mode requires a base checkpoint")
    if base is not None and not continual:
        raise ConfigError(f"mode {config.mode} takes no base model")
    if continual:
        params = base if base.has_adapters else enc.add_adapters(base, seed=config.seed)
    else:
        with_adapters = config.mode == "scratch_2branch"
        params = enc.init_params(config.encoder, seed=config.seed, with_adapters=with_adapters)
    cfg = params.config
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
    starts = [0]  # text i's ids are token_ids[starts[i] : starts[i + 1]]

    def all_ids():
        for text in text_index:
            ids = enc.text_to_ids(text, cfg)
            starts.append(starts[-1] + len(ids))
            yield from ids

    token_ids = np.fromiter(all_ids(), dtype=np.int32)
    starts = np.array(starts)
    words = [len(queries.tokenize(text)) for text in text_index]
    budget = compose.word_budget(cfg.max_tokens)  # the words text_to_ids keeps
    cut = (sum(n > budget for n in words), len(words), max(words, default=0))
    del text_index, groups, words  # training needs none of them
    labels = rows["label"] if rows["labeled"].all() else rows["group"]
    spec = enc.LossSpec(loss="contrastive", trainable="adapters" if continual else "all")

    def make_batch(batch: list[int]) -> enc.TrainBatch:
        return enc.TrainBatch(
            images=rows["image"][batch],
            token_ids=[token_ids[starts[i] : starts[i + 1]].tolist() for i in rows["text"][batch]],
            labels=labels[batch],
            adapter_flags=rows["adapter"][batch].tolist(),
        )

    trace, branch_counts = fit(
        params, spec, range(len(rows)), make_batch, config.epochs, config.batch_size,
        config.optimizer, config.learning_rate, config.seed,
    )
    return TrainResult(params=params, trace=trace, branch_counts=branch_counts, cut=cut)


def save_trace_csv(trace: list[tuple], path, header: str = "step,l_i2t,l_t2i,l_ic,tau") -> None:
    """A loss trace as CSV: ``header``, then the ``repr`` of every value of each row."""
    with atomic_open(path) as handle:
        handle.write(header + "\n")
        for row in trace:
            handle.write(",".join(map(repr, row)) + "\n")
