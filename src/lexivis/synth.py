"""Synthetic rare-concept transfer benchmark.

Builds a hermetic world from a seed: common classes are tokens with clustered
image prototypes; held-out rare classes have gibberish names, image prototypes
that mix two common prototypes, and dictionary definitions phrased in the
corresponding common tokens. Training with knowledge lets the text encoder
carry the definition tokens, so rare classes become recognizable zero-shot;
training without knowledge leaves their gibberish names meaningless.

For each seed the harness trains one model with and one without knowledge and
evaluates both with and without knowledge, producing the four
train/eval-consistency cells plus rare-class accuracies and coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import evaluation, trainer
from .compose import PromptTemplate
from .encoder import EncoderConfig
from .errors import ConfigError
from .knowledge import Dictionary, DictionaryEntry, KnowledgeStore, knowledge_coverage

COMMON_NAMES = ("amber", "basil", "cedar", "delta", "ember", "fjord", "grove", "heath")
RARE_NAMES = ("zyphit", "quorv", "blenkar", "drosp", "mivrax", "tosket", "grellu", "vapkin")

# Class-specific jargon used inside definitions. For a model trained with
# knowledge these are ordinary learned tokens; for a knowledge-free model they
# are unseen hash embeddings, i.e. the "spurious words" that make mismatched
# train/eval knowledge harmful.
DEF_TOKENS = (
    "vorthic", "snurle", "craddix", "plome", "ettrin", "wexal", "dorvun", "yintra",
)


@dataclass
class SynthConfig:
    n_common: int = 8
    n_rare: int = 8
    train_per_class: int = 16
    eval_per_class: int = 16
    noise: float = 0.1
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    seeds: tuple = (0, 1, 2, 3, 4)
    source: str = "wiki_def"
    empty_knowledge: bool = False
    encoder: EncoderConfig = field(
        default_factory=lambda: EncoderConfig(
            embed_dim=32,
            text_layers=2,
            num_heads=2,
            hidden_dim=64,
            vocab_size=512,
            max_tokens=32,
            image_input_dim=16,
        )
    )

    def __post_init__(self):
        if not 1 <= self.n_common <= len(COMMON_NAMES):
            raise ConfigError(f"n_common must lie in [1, {len(COMMON_NAMES)}]")
        if not 1 <= self.n_rare <= len(RARE_NAMES):
            raise ConfigError(f"n_rare must lie in [1, {len(RARE_NAMES)}]")
        if self.encoder.image_input_dim < self.n_common:
            raise ConfigError("image_input_dim must be >= n_common for orthogonal prototypes")
        if not self.seeds:
            raise ConfigError("the benchmark needs at least one seed")


@dataclass
class SynthWorld:
    common_names: list[str]
    rare_names: list[str]
    train_triplets: list
    eval_images: np.ndarray  # common classes first, then rare
    eval_labels: np.ndarray  # indices into common_names + rare_names
    store: KnowledgeStore


def _common_definition(jargon: str, rival: str) -> str:
    # The rival class name appears twice, matching the query's own two
    # mentions in the composed text; only the jargon tokens uniquely
    # identify the class. A knowledge-trained model learns the jargon,
    # a knowledge-free model reads two equally-weighted class names.
    return (
        f"a specimen kind akin to {jargon} and {jargon} forms often mistaken "
        f"for {rival} since {rival} specimens look similar"
    )


def _rare_definition(jargon_a: str, jargon_b: str, a: str, b: str) -> str:
    return (
        f"a specimen kind akin to {jargon_a} and {jargon_b} forms often mistaken "
        f"for {a} since {b} specimens look similar"
    )


def build_world(seed: int, cfg: SynthConfig) -> SynthWorld:
    """Deterministic world: prototypes, triplets, eval sets, and the snapshot."""
    rng = np.random.default_rng(seed)
    dim = cfg.encoder.image_input_dim
    common = list(COMMON_NAMES[: cfg.n_common])
    rare = list(RARE_NAMES[: cfg.n_rare])

    # Orthonormal prototypes for common classes; rare prototypes mix two.
    basis, _ = np.linalg.qr(rng.normal(size=(dim, cfg.n_common)))
    protos = [basis[:, i] for i in range(cfg.n_common)]
    pairs = []
    for j in range(cfg.n_rare):
        a = j % cfg.n_common
        b = (j + 1 + j // cfg.n_common) % cfg.n_common
        if a == b:
            b = (b + 1) % cfg.n_common
        pairs.append((a, b))
    rare_protos = [(protos[a] + protos[b]) / np.sqrt(2.0) for a, b in pairs]

    train = []
    for i, name in enumerate(common):
        for _ in range(cfg.train_per_class):
            x = protos[i] + cfg.noise * rng.normal(size=dim)
            train.append(trainer.Triplet(image=x, text=name, kind="category"))
    train = trainer.assign_labels(train)

    eval_images = []
    eval_labels = []
    for i, proto in enumerate(protos + rare_protos):
        for _ in range(cfg.eval_per_class):
            eval_images.append(proto + cfg.noise * rng.normal(size=dim))
            eval_labels.append(i)

    entries = []
    if not cfg.empty_knowledge:
        for i, name in enumerate(common):
            rival = common[(i + 1) % cfg.n_common]
            entries.append(
                DictionaryEntry(term=name, senses=(_common_definition(DEF_TOKENS[i], rival),))
            )
        for j, name in enumerate(rare):
            a, b = pairs[j]
            sense = _rare_definition(DEF_TOKENS[a], DEF_TOKENS[b], common[a], common[b])
            entries.append(DictionaryEntry(term=name, senses=(sense,)))
    store = KnowledgeStore(wiktionary=Dictionary(entries))
    return SynthWorld(
        common_names=common,
        rare_names=rare,
        train_triplets=train,
        eval_images=np.array(eval_images),
        eval_labels=np.array(eval_labels),
        store=store,
    )


def _train_condition(world: SynthWorld, cfg: SynthConfig, seed: int, with_knowledge: bool):
    triplets = world.train_triplets
    if with_knowledge:
        triplets, _ = trainer.augment_dataset(
            triplets,
            world.store,
            source=cfg.source,
            template=PromptTemplate("{}"),
            max_tokens=cfg.encoder.max_tokens,
        )
    tc = trainer.TrainConfig(
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        seed=seed,
        mode="scratch_1branch",
        encoder=cfg.encoder,
    )
    return trainer.train(tc, triplets)


def _accuracy(params, world, cfg, class_names, images, labels, with_knowledge):
    bank = evaluation.build_class_embeddings(
        params,
        class_names,
        store=world.store if with_knowledge else None,
        source=cfg.source,
        templates=[PromptTemplate("{}")],
    )
    _, acc = evaluation.zero_shot_classify(params, images, bank, labels)
    return acc


def run_seed(seed: int, cfg: SynthConfig) -> dict:
    """Train both conditions for one seed and fill the consistency cells."""
    world = build_world(seed, cfg)
    model_nok = _train_condition(world, cfg, seed, with_knowledge=False).params
    model_k = _train_condition(world, cfg, seed, with_knowledge=True).params

    all_names = world.common_names + world.rare_names
    n_common_eval = cfg.n_common * cfg.eval_per_class
    rare_images = world.eval_images[n_common_eval:]
    rare_labels = world.eval_labels[n_common_eval:] - cfg.n_common

    cells = {}
    for model_tag, params in (("train_nok", model_nok), ("train_k", model_k)):
        for eval_tag, with_k in (("eval_nok", False), ("eval_k", True)):
            acc = _accuracy(
                params, world, cfg, all_names,
                world.eval_images, world.eval_labels, with_k,
            )
            cells[f"{model_tag}_{eval_tag}"] = acc

    rare_acc = {
        "train_nok_eval_nok": _accuracy(
            model_nok, world, cfg, world.rare_names, rare_images, rare_labels, False
        ),
        "train_k_eval_k": _accuracy(
            model_k, world, cfg, world.rare_names, rare_images, rare_labels, True
        ),
    }
    coverage = (
        knowledge_coverage(world.rare_names, world.store, cfg.source)
        if not cfg.empty_knowledge
        else 0.0
    )
    greens = (cells["train_nok_eval_nok"], cells["train_k_eval_k"])
    oranges = (cells["train_nok_eval_k"], cells["train_k_eval_nok"])
    return {
        "seed": seed,
        "cells": cells,
        "rare_accuracy": rare_acc,
        "rare_gain": rare_acc["train_k_eval_k"] - rare_acc["train_nok_eval_nok"],
        "rare_coverage": coverage,
        "consistency_holds": max(oranges) < min(greens),
        "rare_win": rare_acc["train_k_eval_k"] > rare_acc["train_nok_eval_nok"],
    }


def run_bench(cfg: SynthConfig) -> dict:
    per_seed = [run_seed(seed, cfg) for seed in cfg.seeds]
    return {
        "n_seeds": len(cfg.seeds),
        "seeds": list(cfg.seeds),
        "per_seed": per_seed,
        "rare_wins": sum(r["rare_win"] for r in per_seed),
        "consistency_wins": sum(r["consistency_holds"] for r in per_seed),
        "mean_rare_gain": float(np.mean([r["rare_gain"] for r in per_seed])),
        "mean_cells": {
            key: float(np.mean([r["cells"][key] for r in per_seed]))
            for key in per_seed[0]["cells"]
        },
    }
