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
from typing import ClassVar

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
    n_seeds: int = 5  # runs seeds 0..n_seeds-1
    source: ClassVar[str] = "wiki_def"  # build_world's store holds Wiktionary senses only
    template: ClassVar[PromptTemplate] = PromptTemplate("{}")  # class texts, trained and evaluated
    empty_knowledge: bool = False
    encoder: EncoderConfig = field(
        default_factory=lambda: EncoderConfig(max_tokens=32, image_input_dim=16)
    )

    def __post_init__(self):
        if not 1 <= self.n_common <= len(COMMON_NAMES):
            raise ConfigError(f"n_common must lie in [1, {len(COMMON_NAMES)}]")
        if not 1 <= self.n_rare <= len(RARE_NAMES):
            raise ConfigError(f"n_rare must lie in [1, {len(RARE_NAMES)}]")
        if self.encoder.image_input_dim < self.n_common:
            raise ConfigError("image_input_dim must be >= n_common for orthogonal prototypes")
        if self.n_seeds < 1:
            raise ConfigError("the benchmark needs at least one seed")
        if self.train_per_class < 1 or self.eval_per_class < 1:
            raise ConfigError("train_per_class and eval_per_class must be >= 1")
        if not 0 <= self.noise < float("inf"):  # false for NaN too
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        self.train_config(seed=0)  # checks the training values before any world is built

    def train_config(self, seed: int) -> trainer.TrainConfig:
        """The ``scratch_1branch`` training run of one seed."""
        return trainer.TrainConfig(
            batch_size=self.batch_size, epochs=self.epochs, learning_rate=self.learning_rate,
            seed=seed, mode="scratch_1branch", encoder=self.encoder,
        )


@dataclass
class SynthWorld:
    common_names: list[str]
    rare_names: list[str]
    train_triplets: list
    eval_images: np.ndarray  # common classes first, then rare
    eval_labels: np.ndarray  # indices into common_names + rare_names
    store: KnowledgeStore


def _definition(jargon_a: str, jargon_b: str, a: str, b: str) -> str:
    # A rare class mixes two common ones. A common class gives its own jargon
    # and one rival twice: the rival class name appears twice, matching the
    # query's own two mentions in the composed text; only the jargon tokens
    # uniquely identify the class. A knowledge-trained model learns the
    # jargon, a knowledge-free model reads two equally-weighted class names.
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
            sense = _definition(DEF_TOKENS[i], DEF_TOKENS[i], rival, rival)
            entries.append(DictionaryEntry(term=name, senses=(sense,)))
        for j, name in enumerate(rare):
            a, b = pairs[j]
            sense = _definition(DEF_TOKENS[a], DEF_TOKENS[b], common[a], common[b])
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
        recipe = dict(template=cfg.template, max_tokens=cfg.encoder.max_tokens)
        triplets, _ = trainer.augment_dataset(triplets, world.store, cfg.source, **recipe)
    return trainer.train(cfg.train_config(seed), triplets)


def run_seed(seed: int, cfg: SynthConfig) -> dict:
    """Train both conditions for one seed and fill the consistency cells.

    One trained model is alive at a time: a condition's model is evaluated
    and dropped before the next condition trains.
    """
    world = build_world(seed, cfg)
    n_common_eval = cfg.n_common * cfg.eval_per_class
    rare_images = world.eval_images[n_common_eval:]
    rare_labels = world.eval_labels[n_common_eval:] - cfg.n_common

    cells, rare_acc = {}, {}
    for model_tag, with_knowledge in (("train_nok", False), ("train_k", True)):
        params = _train_condition(world, cfg, seed, with_knowledge).params
        for eval_tag, with_k in (("eval_nok", False), ("eval_k", True)):
            key = f"{model_tag}_{eval_tag}"
            bank = evaluation.build_class_embeddings(
                params, world.common_names + world.rare_names,
                store=world.store if with_k else None, source=cfg.source,
                templates=[cfg.template],
            )
            _, cells[key] = evaluation.zero_shot_classify(
                params, world.eval_images, bank, world.eval_labels
            )
            if key in ("train_nok_eval_nok", "train_k_eval_k"):
                # Column k of a bank depends on class k alone, so its rare columns are the
                # rare-only bank. The rare images are still encoded on their own: on the golden
                # stack a gemm over >= 2 of the rows gives the full product's rows bit for bit
                # (one row goes through gemv and does not), but no BLAS promises it.
                rare = evaluation.ClassEmbeddings(bank.matrix[:, cfg.n_common:], world.rare_names)
                _, rare_acc[key] = evaluation.zero_shot_classify(
                    params, rare_images, rare, rare_labels
                )
        del params  # not alive beside the next condition's model
    coverage = knowledge_coverage(world.rare_names, world.store, cfg.source)
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
    per_seed = [run_seed(seed, cfg) for seed in range(cfg.n_seeds)]
    return {
        "n_seeds": cfg.n_seeds,
        "seeds": list(range(cfg.n_seeds)),
        "per_seed": per_seed,
        "rare_wins": sum(r["rare_win"] for r in per_seed),
        "consistency_wins": sum(r["consistency_holds"] for r in per_seed),
        "mean_rare_gain": float(np.mean([r["rare_gain"] for r in per_seed])),
        "mean_cells": {
            key: float(np.mean([r["cells"][key] for r in per_seed]))
            for key in per_seed[0]["cells"]
        },
    }
