"""The four benchmark workloads and the operations each pass runs.

Every workload is a closed loop with one client: the benchmark process runs
one operation at a time, in-process, through a public entry point of the
package (``synth.run_seed`` or ``lexivis.cli.main``), and starts no threads
or processes while it measures. Inputs are generated from the workload seed
into the run's work directory; the program only ever sees those files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean
from typing import Callable, Optional

import gen
from lexivis import cli, compose, grounding, knowledge, queries, synth, trainer


class OpFailed(Exception):
    pass


@dataclass
class Op:
    """One call into the program, with what to digest and check afterwards."""

    label: str
    span: str  # root span name: "<layer>.<entry point>"
    call: Callable[[], tuple[float, dict]]  # -> (seconds inside the entry point, summary)
    outputs: tuple[str, ...] = ()
    finite: tuple[str, ...] = ()
    check: Optional[Callable[[dict], Optional[str]]] = None


def cli_op(label: str, argv: list[str], outputs=(), finite=()) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(argv))
            seconds = time.perf_counter() - start
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
        lines = out.getvalue().strip().splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise OpFailed("no JSON summary on stdout") from None
        return seconds, summary

    return Op(label, f"cli.{argv[0]}", call, tuple(outputs), tuple(finite))


def is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _mean_tokens(texts) -> float:
    lengths = [len(queries.tokenize(t)) + 1 for t in texts]  # + the pooling token
    return mean(lengths) if lengths else 0.0


def _summaries(passes, label: str) -> list[dict]:
    return [op.summary for p in passes for op in p.ops if op.label == label and op.summary]


class Workload:
    name: str
    why: str
    # Stage metrics: name -> (op labels, unit, work done per summary, or None for seconds).
    stages: dict

    def keys(self, seed: int) -> list:
        """The distinct inputs a run repeats; one unless overridden."""
        return ["inputs"]

    def generate(self, work: Path, seed: int) -> None:
        """Write this workload's input files for ``seed`` into ``work``."""
        raise NotImplementedError

    def ops(self, key, seed: int) -> list[Op]:
        raise NotImplementedError

    def load(self, work: Path, seed: int) -> None:
        """Set-up: load this workload's inputs once through the library loaders."""
        raise NotImplementedError

    def inputs(self, work: Path, seed: int, passes) -> dict:
        """Input properties as measured on the generated files and outputs."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# synth_rare


def _synth_check(result: dict) -> Optional[str]:
    if result["rare_coverage"] != 1.0:
        return f"rare_coverage is {result['rare_coverage']}, expected 1.0"
    bad = [k for k, v in {**result["cells"], **result["rare_accuracy"]}.items() if not is_finite(v)]
    return f"non-finite accuracy in {bad}" if bad else None


class SynthRare(Workload):
    name = "synth_rare"
    why = ("synth.run_seed with the default SynthConfig on 2 seeds: the quality headline; "
           "short-sequence scratch_1branch training with heavy in-batch text dedup dominates")
    stages = {"synth_seed_s": (("run_seed",), "s", None)}

    def keys(self, seed):
        return [2 * seed, 2 * seed + 1]

    def generate(self, work, seed):
        pass  # synth.run_seed builds its own world from the seed

    def ops(self, key, seed):
        def call():
            cfg = synth.SynthConfig()
            start = time.perf_counter()
            result = synth.run_seed(key, cfg)
            return time.perf_counter() - start, result

        return [Op("run_seed", "synth.run_seed", call, finite=("rare_gain",), check=_synth_check)]

    def load(self, work, seed):
        for s in self.keys(seed):
            synth.build_world(s, synth.SynthConfig())

    def inputs(self, work, seed, passes):
        cfg = synth.SynthConfig()
        world = synth.build_world(self.keys(seed)[0], cfg)
        augmented, _ = trainer.augment_dataset(
            world.train_triplets, world.store, source=cfg.source,
            template=compose.PromptTemplate("{}"), max_tokens=cfg.encoder.max_tokens,
        )
        plain = {t.text for t in world.train_triplets}
        rich = {t.text for t in augmented}
        return {
            "synth_seeds": self.keys(seed),
            "train_triplets_per_condition": len(world.train_triplets),
            "distinct_train_texts": {"without_knowledge": len(plain), "with_knowledge": len(rich)},
            "distinct_text_share_of_training_set": len(plain) / len(world.train_triplets),
            "mean_tokens_per_sequence": {"without_knowledge": _mean_tokens(plain),
                                         "with_knowledge": _mean_tokens(rich)},
            "classes": {"common": len(world.common_names), "rare": len(world.rare_names)},
            "eval_images": int(len(world.eval_images)),
            "knowledge_hit_ratio": {"wiki_def": knowledge.knowledge_coverage(
                world.common_names + world.rare_names, world.store, cfg.source)},
        }


def synth_quality(passes) -> dict:
    """Mean rare gain and win fractions over the distinct seeds of a run."""
    per_seed = {}
    for p in passes:
        for op in p.ops:
            if op.summary is not None and op.error is None:
                per_seed.setdefault(op.summary["seed"], op.summary)
    results = [per_seed[s] for s in sorted(per_seed)]
    if not results:
        return {}
    return {
        "rare_gain": {"value": mean(r["rare_gain"] for r in results), "unit": "accuracy"},
        "rare_win_frac": {"value": mean(float(r["rare_win"]) for r in results), "unit": "fraction of seeds"},
        "consistency_frac": {"value": mean(float(r["consistency_holds"]) for r in results),
                             "unit": "fraction of seeds"},
    }


# ---------------------------------------------------------------------------
# caption_2branch

CAPTIONS, CLASSES, PER_CLASS, CAPTION_EPOCHS = 500, 40, 15, 1


def _pairs(summary: dict) -> int:
    return sum(summary["branch_counts"].values())


class Caption2Branch(Workload):
    name = "caption_2branch"
    why = ("augment, scratch_2branch and continual_adapters training, zero-shot and probe "
           "eval on unique captions: no text repeats, both branches, adapter-only updates")
    stages = {
        "augment_triplets_per_s": (("augment",), "triplets/s", lambda s: s["emitted"]),
        "train_samples_per_s": (("train_scratch_2branch",), "pairs/s", _pairs),
        "adapter_train_samples_per_s": (("train_continual_adapters",), "pairs/s", _pairs),
        "eval_zeroshot_s": (("eval_zeroshot",), "s", None),
        "eval_probe_s": (("eval_probe",), "s", None),
    }

    def generate(self, work, seed):
        gen.caption_inputs(work, seed, CAPTIONS, CLASSES, PER_CLASS)

    def ops(self, key, seed):
        train = ["--dataset", "aug.jsonl", "--epochs", str(CAPTION_EPOCHS), "--batch-size", "16",
                 "--seed", str(seed)]
        return [
            cli_op("augment", ["augment", "--dataset", "captions.jsonl", "--out", "aug.jsonl",
                               "--wiktionary", "wiktionary.jsonl", "--source", "wiki_def",
                               "--lexicon", "lexicon.tsv", "--scheme", "combine"],
                   outputs=("aug.jsonl",)),
            cli_op("train_scratch_2branch",
                   ["train", *train, "--mode", "scratch_2branch", "--out-checkpoint", "base.json",
                    "--trace", "base.csv"],
                   outputs=("base.json", "base.csv"), finite=("final_l_ic",)),
            cli_op("train_continual_adapters",
                   ["train", *train, "--mode", "continual_adapters", "--base-checkpoint", "base.json",
                    "--out-checkpoint", "adapters.json", "--trace", "adapters.csv"],
                   outputs=("adapters.json", "adapters.csv"), finite=("final_l_ic",)),
            cli_op("eval_zeroshot",
                   ["eval-zeroshot", "--checkpoint", "adapters.json", "--images", "eval_images.jsonl",
                    "--classes", "classes.json", "--with-knowledge", "--wiktionary", "wiktionary.jsonl",
                    "--branch-mode", "two_branch_selective", "--templates", "templates.txt",
                    "--out", "zeroshot.json"],
                   outputs=("zeroshot.json",), finite=("accuracy",)),
            cli_op("eval_probe", ["eval-probe", "--checkpoint", "adapters.json",
                                  "--images", "eval_images.jsonl", "--shots", "5"],
                   finite=("accuracy",)),
        ]

    def load(self, work, seed):
        knowledge.load_wiktionary_snapshot(work / "wiktionary.jsonl")
        queries.load_lexicon(work / "lexicon.tsv")
        trainer.load_dataset_jsonl(work / "captions.jsonl")
        compose.load_templates(work / "templates.txt")
        json.loads((work / "classes.json").read_text(encoding="utf-8"))

    def inputs(self, work, seed, passes):
        rows = [json.loads(line) for line in _lines(work / "captions.jsonl")]
        texts = [r["text"] for r in rows]
        out = {
            "captions": len(rows),
            "distinct_caption_share": len(set(texts)) / len(texts),
            "lexicon_entries": len(_lines(work / "lexicon.tsv")),
            "wiktionary_entries": len(_lines(work / "wiktionary.jsonl")),
            "eval_zeroshot": {
                "classes_C": len(json.loads((work / "classes.json").read_text(encoding="utf-8"))),
                "templates_T": len(_lines(work / "templates.txt")),
                "images_N": len(_lines(work / "eval_images.jsonl")),
            },
            "snapshot_bytes": {"wiktionary": (work / "wiktionary.jsonl").stat().st_size},
        }
        augment = _summaries(passes, "augment")
        if augment:
            s = augment[0]
            out["knowledge_hit_ratio"] = {"wiki_def": _ratio(s["hits"], s["hits"] + s["misses"])}
        if (work / "aug.jsonl").exists():
            aug = [json.loads(line)["text"] for line in _lines(work / "aug.jsonl")]
            out["augmented_triplets"] = len(aug)
            out["distinct_text_share_of_training_set"] = len(set(aug)) / len(aug)
            out["mean_tokens_per_sequence"] = _mean_tokens(aug)
        return out


# ---------------------------------------------------------------------------
# grounding

K, R_TRAIN, R_EVAL, M = 40, 30, 100, 6


class Grounding(Workload):
    name = "grounding"
    why = ("ground-train and ground-eval with knowledge at K=40 categories: the only path "
           "through grounding and focal loss; eval re-encodes the same K texts per image")
    stages = {
        "ground_train_steps_per_s": (("ground_train",), "steps/s", lambda s: s["steps"]),
        "ground_eval_images_per_s": (("ground_eval",), "images/s", lambda s: s["n_images"]),
    }

    def generate(self, work, seed):
        gen.grounding_inputs(work, seed, K, R_TRAIN, R_EVAL, M)

    def ops(self, key, seed):
        store = ["--classes", "classes.json", "--with-knowledge", "--wiktionary", "wiktionary.jsonl"]
        return [
            cli_op("ground_train",
                   ["ground-train", "--regions", "regions_train.jsonl", *store, "--epochs", "1",
                    "--seed", str(seed), "--out-checkpoint", "ground.json", "--trace", "ground.csv"],
                   outputs=("ground.json", "ground.csv"), finite=("final_loss",)),
            cli_op("ground_eval",
                   ["ground-eval", "--checkpoint", "ground.json", "--regions", "regions_eval.jsonl",
                    *store, "--out", "ground_predictions.json"],
                   outputs=("ground_predictions.json",), finite=("accuracy",)),
        ]

    def load(self, work, seed):
        knowledge.load_wiktionary_snapshot(work / "wiktionary.jsonl")
        grounding.load_regions_jsonl(work / "regions_train.jsonl")
        grounding.load_regions_jsonl(work / "regions_eval.jsonl")
        json.loads((work / "classes.json").read_text(encoding="utf-8"))

    def inputs(self, work, seed, passes):
        names = json.loads((work / "classes.json").read_text(encoding="utf-8"))
        store = knowledge.KnowledgeStore(
            wiktionary=knowledge.load_wiktionary_snapshot(work / "wiktionary.jsonl"))
        items = [store.retrieve(n, "wiki_def") for n in names]
        texts = [compose.compose_od_text(n, i.text if i else None).text for n, i in zip(names, items)]
        train = grounding.load_regions_jsonl(work / "regions_train.jsonl")
        evals = grounding.load_regions_jsonl(work / "regions_eval.jsonl")
        return {
            "categories_K": len(names),
            "train_images_R": len(train),
            "eval_images_R": len(evals),
            "regions_per_image_M": sorted({int(r.features.shape[0]) for r in train + evals}),
            "knowledge_hit_ratio": {"wiki_def": _ratio(sum(i is not None for i in items), len(items))},
            "mean_tokens_per_sequence": _mean_tokens(texts),
            "snapshot_bytes": {"wiktionary": (work / "wiktionary.jsonl").stat().st_size},
        }


# ---------------------------------------------------------------------------
# lexical_prep

LEX_CAPTIONS, LEX_NOUNS, WN_DEPTH, WN_WIDTH = 4000, 1500, 18, 60

_SNAPSHOT = {"wn_hier": ("--wordnet", "wordnet.jsonl"), "wn_def": ("--wordnet", "wordnet.jsonl"),
             "wiki_def": ("--wiktionary", "wiktionary.jsonl")}


class LexicalPrep(Workload):
    name = "lexical_prep"
    why = ("augment over 3 sources x 2 schemes plus stats and coverage on a large corpus and "
           "deep WordNet: knowledge, queries, compose and JSONL I/O only, no encoder work")
    stages = {
        "augment_triplets_per_s": (tuple(f"augment_{s}_{c}" for s in _SNAPSHOT
                                         for c in ("concat", "combine")),
                                   "triplets/s", lambda s: s["emitted"]),
    }

    def generate(self, work, seed):
        gen.lexical_inputs(work, seed, LEX_CAPTIONS, LEX_NOUNS, WN_DEPTH, WN_WIDTH)

    def ops(self, key, seed):
        ops = []
        for source, snapshot in _SNAPSHOT.items():
            for scheme in ("concat", "combine"):
                out = f"aug_{source}_{scheme}.jsonl"
                ops.append(cli_op(f"augment_{source}_{scheme}",
                                  ["augment", "--dataset", "corpus.jsonl", "--out", out, *snapshot,
                                   "--source", source, "--lexicon", "lexicon.tsv", "--scheme", scheme],
                                  outputs=(out,)))
        ops.append(cli_op("stats", ["stats", "--dataset", "corpus.jsonl", "--lexicon", "lexicon.tsv",
                                    "--out", "stats.json"], outputs=("stats.json",)))
        for source, snapshot in _SNAPSHOT.items():
            ops.append(cli_op(f"coverage_{source}", ["coverage", "--source", source, *snapshot,
                                                     "--queries", "queries.txt"],
                              finite=("coverage",)))
        return ops

    def load(self, work, seed):
        knowledge.load_wordnet_snapshot(work / "wordnet.jsonl")
        knowledge.load_wiktionary_snapshot(work / "wiktionary.jsonl")
        queries.load_lexicon(work / "lexicon.tsv")
        trainer.load_dataset_jsonl(work / "corpus.jsonl")

    def inputs(self, work, seed, passes):
        rows = [json.loads(line) for line in _lines(work / "corpus.jsonl")]
        graph = knowledge.load_wordnet_snapshot(work / "wordnet.jsonl")
        depth = max(len(graph.hypernym_path(rec)) for rec in graph.synsets.values())
        out = {
            "corpus_rows": len(rows),
            "caption_rows": sum(r["kind"] == "caption" for r in rows),
            "category_rows": sum(r["kind"] == "category" for r in rows),
            "mean_tokens_per_caption": _mean_tokens(r["text"] for r in rows),
            "wordnet_synsets": len(graph),
            "wordnet_max_path_synsets": depth,
            "wiktionary_entries": len(_lines(work / "wiktionary.jsonl")),
            "lexicon_entries": len(_lines(work / "lexicon.tsv")),
            "coverage_queries": len(_lines(work / "queries.txt")),
            "snapshot_bytes": {f: (work / f).stat().st_size for f in ("wordnet.jsonl", "wiktionary.jsonl")},
        }
        hits = {}
        for source in _SNAPSHOT:
            s = _summaries(passes, f"augment_{source}_concat")
            if s:
                hits[source] = _ratio(s[0]["hits"], s[0]["hits"] + s[0]["misses"])
        out["knowledge_hit_ratio"] = hits
        return out


WORKLOADS = {w.name: w for w in (SynthRare(), Caption2Branch(), Grounding(), LexicalPrep())}
