"""Zero-shot classification, few-shot linear probing, and diagnostic statistics."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import compose, encoder as enc, queries
from .errors import ConfigError, DataError, NumericsError
from .knowledge import KnowledgeStore, atomic_open

BRANCH_MODES = ("one_branch", "two_branch_selective")

PROBE_L2, PROBE_STEPS, PROBE_LR = 1e-4, 500, 0.5


@dataclass
class ClassEmbeddings:
    """Normalized class embedding columns (P, C) plus per-class provenance."""

    matrix: np.ndarray
    class_names: list[str]
    provenance: list[dict] = field(default_factory=list)


def build_class_embeddings(
    params: enc.ModelParams,
    class_names: list[str],
    store: Optional[KnowledgeStore] = None,
    source: str = "wiki_def",
    branch_mode: str = "one_branch",
    templates: Optional[list[compose.PromptTemplate]] = None,
) -> ClassEmbeddings:
    """Class name -> ``compose.class_texts`` -> embedding column.

    Knowledge is retrieved iff a ``store`` is given and trimmed to the
    model's ``max_tokens``; a class is a hit iff its texts kept knowledge,
    all of them or none. Branch selection for adapter-equipped models:
    ``one_branch`` sends every class through the knowledge (adapter) branch
    when evaluating with knowledge and through the base branch otherwise;
    ``two_branch_selective`` sends the hits through it, as training does
    augmented rows. Models without adapters always use the base branch.
    Template ensembles average the normalized embeddings and renormalize.
    A text over the model's token budget raises ``DataError`` naming the class.
    """
    if not class_names:
        raise ValueError("class name list must be non-empty")
    if branch_mode not in BRANCH_MODES:
        raise ConfigError(f"unknown branch mode {branch_mode!r}")
    templates = templates or [compose.PromptTemplate()]
    max_tokens = params.config.max_tokens

    cols = []
    provenance = []
    for name in class_names:
        query, texts, kept = compose.class_texts(name, store, source, max_tokens, templates)
        use_adapters = params.has_adapters and (
            store is not None if branch_mode == "one_branch" else kept)
        embeds = []
        for text in texts:
            embed = enc.encode_text(params, enc.text_to_ids(text, params.config), use_adapters)
            embeds.append(_unit_text(embed, name))
        cols.append(_unit_text(np.mean(embeds, axis=0), name))
        provenance.append({"class": name, "query": query, "hit": kept,
                           "branch": "adapter" if use_adapters else "base"})
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


def linear_probe(
    features: np.ndarray,
    labels: np.ndarray,
    shots_per_class: int,
    n_seeds: int = 3,
) -> dict:
    """Few-shot multinomial logistic probe on frozen features: ``{accuracy, per_seed}``.

    For each seed in 0..n_seeds-1, exactly ``shots_per_class`` examples per class train a
    softmax regression (L2 weight ``PROBE_L2``) by ``PROBE_STEPS`` steps of
    full-batch gradient descent at rate ``PROBE_LR``; accuracy is measured
    on the held-out remainder and averaged across seeds.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if shots_per_class < 1 or n_seeds < 1:
        raise ConfigError("a linear probe needs shots_per_class >= 1 and at least one seed")
    # With return_counts, np.unique does not import numpy.ma, as numpy 2.x otherwise does.
    classes, counts = np.unique(labels, return_counts=True)
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[c] for c in labels])
    for c, available in zip(classes, counts.tolist()):
        if available <= shots_per_class:
            raise DataError(
                f"class {c.item()!r} has {available} examples; needs > {shots_per_class} "
                "to leave a held-out remainder"
            )

    accuracies = []
    n_classes = len(classes)
    for seed in range(n_seeds):
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
        for _ in range(PROBE_STEPS):
            probs = enc._softmax_last(x_train @ w + b)
            delta = (probs - onehot) / n
            w -= PROBE_LR * (x_train.T @ delta + PROBE_L2 * w)
            b -= PROBE_LR * delta.sum(axis=0)
        preds = np.argmax(x_test @ w + b, axis=1)
        accuracies.append(float(np.mean(preds == y_test)))
    return {"accuracy": float(np.mean(accuracies)), "per_seed": accuracies}


def make_eval_report(
    params: enc.ModelParams,
    preds: np.ndarray,
    labels: np.ndarray,
    bank: ClassEmbeddings,
    eval_options: Optional[dict] = None,
    pretrain_concepts=None,
) -> dict:
    """The report of zero-shot predictions: accuracy plus overlap/coverage diagnostics.

    Concept overlap is set only given ``pretrain_concepts``; knowledge coverage,
    the share of ``bank``'s classes whose texts kept knowledge, only if
    ``eval_options["with_knowledge"]``. ``config_digest`` hashes the encoder
    config and ``eval_options``.
    """
    # Imported here: at module level it costs every CLI process ~3.5 MB.
    import hashlib
    options = eval_options or {}
    labels = np.asarray(labels)
    per_class = {}
    for idx, name in enumerate(bank.class_names):
        mask = labels == idx
        if mask.any():
            per_class[name] = float(np.mean(preds[mask] == idx))
    overlap = None
    if pretrain_concepts:
        overlap = concept_overlap(pretrain_concepts, bank.class_names)
    coverage = None
    if options.get("with_knowledge"):
        hits = sum(1 for p in bank.provenance if p["hit"])
        coverage = 100.0 * (hits / len(bank.provenance))
    digest_payload = {"encoder": params.config.to_dict(), "options": options}
    digest = hashlib.sha256(
        json.dumps(digest_payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return {
        "top1_accuracy": float(np.mean(preds == labels)),
        "per_class_accuracy": per_class,
        "concept_overlap_pct": overlap,
        "knowledge_coverage_pct": coverage,
        "config_digest": digest,
    }


def write_breakdown_csv(reports, path) -> None:
    """Per-dataset breakdown: a score / overlap / coverage row per ``(name, report)`` pair."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["dataset", "score", "concept_overlap", "knowledge_coverage"])
        for name, report in reports:
            writer.writerow([name, report["top1_accuracy"], report["concept_overlap_pct"],
                             report["knowledge_coverage_pct"]])


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
