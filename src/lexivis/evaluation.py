"""Zero-shot classification, few-shot linear probing, and diagnostic statistics."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import compose, encoder as enc, queries
from .errors import ConfigError, DataError, NumericsError
from .knowledge import KnowledgeStore, atomic_open, knowledge_coverage

BRANCH_MODES = ("one_branch", "two_branch_selective")


@dataclass
class ClassEmbeddings:
    """Normalized class embedding columns (P, C) plus per-class provenance."""

    matrix: np.ndarray
    class_names: list[str]
    provenance: list[dict] = field(default_factory=list)


def _encode_class_text(params, text, use_adapters):
    ids = enc.text_to_ids(text, params.config, pooling="eos")
    return enc.encode_text(params, ids, pooling="eos", use_adapters=use_adapters)


def build_class_embeddings(
    params: enc.ModelParams,
    class_names: list[str],
    store: Optional[KnowledgeStore] = None,
    source: str = "wiki_def",
    with_knowledge: bool = False,
    branch_mode: str = "one_branch",
    templates: Optional[list[compose.PromptTemplate]] = None,
    max_tokens: Optional[int] = None,
) -> ClassEmbeddings:
    """Class name -> query -> optional knowledge -> composed text -> embedding.

    Branch selection for adapter-equipped models: ``one_branch`` sends every
    class through the knowledge (adapter) branch when evaluating with
    knowledge and through the base branch otherwise; ``two_branch_selective``
    routes each class by whether its own retrieval hit. Models without
    adapters always use the base branch. Template ensembles average the
    normalized embeddings and renormalize.
    """
    if not class_names:
        raise ValueError("class name list must be non-empty")
    if branch_mode not in BRANCH_MODES:
        raise ConfigError(f"unknown branch mode {branch_mode!r}")
    templates = templates or [compose.PromptTemplate()]
    max_tokens = max_tokens if max_tokens is not None else params.config.max_tokens

    cols = []
    provenance = []
    for name in class_names:
        query = queries.construct_query(name, "category")
        item = store.retrieve(query, source) if (with_knowledge and store) else None
        knowledge = item.text if item is not None else None
        if not params.has_adapters:
            use_adapters = False
        elif branch_mode == "one_branch":
            use_adapters = with_knowledge
        else:
            use_adapters = knowledge is not None
        embeds = []
        for template in templates:
            aug = compose.compose_class_text(template, query, knowledge, max_tokens)
            embeds.append(_unit_text(_encode_class_text(params, aug.text, use_adapters), name))
        cols.append(_unit_text(np.mean(embeds, axis=0), name))
        provenance.append(
            {"class": name, "query": query, "hit": knowledge is not None,
             "branch": "adapter" if use_adapters else "base"}
        )
    return ClassEmbeddings(np.stack(cols, axis=1), list(class_names), provenance)


def _unit_text(vec: np.ndarray, name: str) -> np.ndarray:
    """A class text embedding on the unit sphere; zero or non-finite norm raises."""
    norm = np.linalg.norm(vec)
    if not np.isfinite(norm) or norm == 0:
        raise NumericsError(f"class {name!r} encodes to a zero-norm or non-finite text embedding")
    return vec / norm


def unit_image_features(params: enc.ModelParams, images: np.ndarray) -> np.ndarray:
    """Encoded image features projected onto the unit sphere.

    A zero-norm or non-finite feature raises ``NumericsError`` instead of
    becoming NaN scores, which ``argmax`` would silently read as class 0.
    """
    feats = enc.encode_images(params, np.asarray(images, dtype=np.float64))
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(norms[:, 0]) | (norms[:, 0] == 0))
    if bad.size:
        raise NumericsError(
            f"image {int(bad[0])} encodes to a zero-norm or non-finite feature",
            {"rows": bad.tolist()},
        )
    return feats / norms


def zero_shot_classify(
    params: enc.ModelParams,
    images: np.ndarray,
    class_embeddings: ClassEmbeddings,
    labels: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Optional[float]]:
    """Argmax of image-class cosine scores; ties resolve to the lowest index."""
    scores = unit_image_features(params, images) @ class_embeddings.matrix
    preds = np.argmax(scores, axis=1)
    accuracy = None
    if labels is not None:
        labels = np.asarray(labels)
        accuracy = float(np.mean(preds == labels))
    return preds, accuracy


@dataclass
class ProbeResult:
    accuracy: float
    per_seed: list[float]
    shots_per_class: int


def _softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(
    features: np.ndarray,
    labels: np.ndarray,
    shots_per_class: int,
    seeds: tuple = (0, 1, 2),
    l2: float = 1e-4,
    steps: int = 500,
    lr: float = 0.5,
) -> ProbeResult:
    """Few-shot multinomial logistic probe on frozen features.

    For each seed, exactly ``shots_per_class`` examples per class train a
    softmax regression by full-batch gradient descent; accuracy is measured
    on the held-out remainder and averaged across seeds.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if shots_per_class < 1:
        raise ValueError("shots_per_class must be >= 1")
    classes = np.unique(labels)
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[c] for c in labels])
    for c in classes:
        available = int(np.sum(labels == c))
        if available <= shots_per_class:
            raise DataError(
                f"class {c.item()!r} has {available} examples; needs > {shots_per_class} "
                "to leave a held-out remainder"
            )

    accuracies = []
    n_classes = len(classes)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        train_idx = []
        for i in range(n_classes):
            members = np.flatnonzero(y == i)
            train_idx.extend(rng.permutation(members)[:shots_per_class])
        train_mask = np.zeros(len(y), dtype=bool)
        train_mask[train_idx] = True

        x_train, y_train = features[train_mask], y[train_mask]
        x_test, y_test = features[~train_mask], y[~train_mask]
        onehot = np.eye(n_classes)[y_train]

        w = np.zeros((features.shape[1], n_classes))
        b = np.zeros(n_classes)
        n = len(y_train)
        for _ in range(steps):
            probs = _softmax_rows(x_train @ w + b)
            delta = (probs - onehot) / n
            w -= lr * (x_train.T @ delta + l2 * w)
            b -= lr * delta.sum(axis=0)
        preds = np.argmax(x_test @ w + b, axis=1)
        accuracies.append(float(np.mean(preds == y_test)))
    return ProbeResult(float(np.mean(accuracies)), accuracies, shots_per_class)


@dataclass
class EvalReport:
    """One evaluation run: accuracy plus the diagnostic breakdown numbers."""

    top1_accuracy: float
    per_class_accuracy: dict
    concept_overlap_pct: Optional[float]
    knowledge_coverage_pct: Optional[float]
    config_digest: str

    def to_dict(self) -> dict:
        return {
            "top1_accuracy": self.top1_accuracy,
            "per_class_accuracy": self.per_class_accuracy,
            "concept_overlap_pct": self.concept_overlap_pct,
            "knowledge_coverage_pct": self.knowledge_coverage_pct,
            "config_digest": self.config_digest,
        }


def make_eval_report(
    params: enc.ModelParams,
    preds: np.ndarray,
    labels: np.ndarray,
    bank: ClassEmbeddings,
    eval_options: Optional[dict] = None,
    pretrain_concepts=None,
    store: Optional[KnowledgeStore] = None,
    source: str = "wiki_def",
) -> EvalReport:
    """Assemble the report for zero-shot predictions with overlap/coverage diagnostics."""
    labels = np.asarray(labels)
    accuracy = float(np.mean(preds == labels))
    per_class = {}
    for idx, name in enumerate(bank.class_names):
        mask = labels == idx
        if mask.any():
            per_class[name] = float(np.mean(preds[mask] == idx))
    overlap = None
    if pretrain_concepts:
        overlap = concept_overlap(pretrain_concepts, bank.class_names)
    coverage = None
    if store is not None:
        queries_ = [p["query"] for p in bank.provenance] or list(bank.class_names)
        coverage = 100.0 * knowledge_coverage(queries_, store, source)
    digest_payload = {"encoder": params.config.to_dict(), "options": eval_options or {}}
    digest = hashlib.sha256(
        json.dumps(digest_payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return EvalReport(
        top1_accuracy=accuracy,
        per_class_accuracy=per_class,
        concept_overlap_pct=overlap,
        knowledge_coverage_pct=coverage,
        config_digest=digest,
    )


def write_breakdown_csv(rows: list[dict], path) -> None:
    """Per-dataset breakdown: one row of score / overlap / coverage columns."""
    lines = ["dataset,score,concept_overlap,knowledge_coverage"]
    for row in rows:
        lines.append(
            "{dataset},{score!r},{concept_overlap},{knowledge_coverage}".format(
                dataset=row["dataset"],
                score=row["score"],
                concept_overlap="" if row.get("concept_overlap") is None else repr(row["concept_overlap"]),
                knowledge_coverage="" if row.get("knowledge_coverage") is None else repr(row["knowledge_coverage"]),
            )
        )
    with atomic_open(path) as handle:
        handle.write("\n".join(lines) + "\n")


def concept_overlap(pretrain_concepts, downstream_concepts) -> float:
    """Percentage of downstream concepts present in the pretraining pool."""
    pretrain = {queries.normalize_text(c) for c in pretrain_concepts}
    downstream = {queries.normalize_text(c) for c in downstream_concepts}
    if not pretrain or not downstream:
        raise ValueError("concept sets must be non-empty")
    return 100.0 * len(downstream & pretrain) / len(downstream)


def dataset_stats(
    triplets,
    lexicon: Optional[dict[str, str]] = None,
    min_freq: int = 5,
) -> dict:
    """Concept/vocabulary statistics of a triplet dataset.

    ``triplets`` is a re-iterable row source: a list, or a
    ``trainer.DatasetFile`` that streams the file twice. Concepts are the
    queries of ``queries.iter_queries``; the min-freq variants keep
    concepts occurring strictly more than ``min_freq`` times. Vocabulary is
    the set of whitespace tokens over the (unique) concept pool. The
    instances-per-concept spread is the population standard deviation.
    """
    counts = Counter(query for _, query in queries.iter_queries(triplets, lexicon or {}))
    if not counts:
        raise ValueError("dataset_stats requires a non-empty dataset")

    frequent = {c: n for c, n in counts.items() if n > min_freq}
    vocab_full = {tok for c in counts for tok in c.split()}
    vocab_minfreq = {tok for c in frequent for tok in c.split()}
    per_concept = np.array(list(counts.values()), dtype=np.float64)
    return {
        "instances": counts.total(),
        "concepts_full": len(counts),
        "concepts_minfreq": len(frequent),
        "vocab_full": len(vocab_full),
        "vocab_minfreq": len(vocab_minfreq),
        "mean_ins_per_concept": float(per_concept.mean()),
        "std_ins_per_concept": float(per_concept.std()),
    }
