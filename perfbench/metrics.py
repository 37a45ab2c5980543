"""Timing statistics and the per-layer metrics derived from spans."""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from spans import Span, self_times

# Tail percentiles tried from the highest down; a tail is reported only when
# at least ten samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

LAYERS = ("knowledge", "queries", "compose", "encoder", "objective", "trainer",
          "grounding", "evaluation", "synth", "cli")

CLI_SUBCOMMANDS = ("augment", "stats", "coverage", "train", "eval-zeroshot", "eval-probe",
                   "ground-train", "ground-eval")

SOURCES = ("wn_hier", "wn_def", "wiki_def")


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timing(values: list[float], unit: str, higher_is_worse: bool = True) -> dict:
    """Median, the highest ladder percentile with ten samples beyond it, and n.

    For a rate (``higher_is_worse=False``) the tail is the mirrored low
    percentile, the slow end of the distribution.
    """
    out = {"unit": unit, "n": len(values), "median": median(values) if values else None,
           "tail": None}
    for pct in TAIL_LADDER:
        if len(values) * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            at = pct if higher_is_worse else 100.0 - pct
            out["tail"] = {"pct": f"p{at:g}", "value": percentile(values, at)}
            break
    return out


def count_unit(name: str) -> str:
    if name.endswith("tokens_per_s"):
        return "1/s"
    if "_ratio" in name or name.endswith("_share"):
        return "ratio"
    return "count"


def share_name(name: str) -> str:
    """``x.s`` -> ``x.share`` and ``x_s`` -> ``x_share``: the fraction-of-wall form."""
    return name[:-2] + (".share" if name.endswith(".s") else "_share")


def layer_metrics(spans: list[Span], n_passes: int) -> tuple[dict, dict, dict]:
    """Per-pass layer seconds, per-pass counts and ratios, and latency distributions.

    ``spans`` are those of ``n_passes`` traced passes; every root span is one
    operation, so the traced wall time is the sum of root durations.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(*names):
        return sum(s.end - s.start for n in names for s in by_name.get(n, ())) / n_passes

    def own(*names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ())) / n_passes

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names) / n_passes

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()) if s.attrs) / n_passes

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += selfs[s.id] / n_passes
    compose_names = ("compose.compose_class_text", "compose.compose_caption_texts",
                     "compose.compose_od_text")

    seconds = {
        "wall_s": sum(s.end - s.start for s in spans if s.parent is None) / n_passes,
        "knowledge.load_s": dur("knowledge.load"),
        "knowledge.retrieve.s": dur("knowledge.retrieve"),
        "queries.construct_query.s": dur("queries.construct_query"),
        "queries.build_frequency_table.s": dur("queries.build_frequency_table"),
        "queries.load_lexicon.s": dur("queries.load_lexicon"),
        "compose.s": dur(*compose_names),
        "encoder.grads.self_s": own("encoder.grads"),
        "encoder.encode_text.s": dur("encoder.encode_text"),
        "encoder.encode_images.s": dur("encoder.encode_images"),
        "encoder.checkpoint_io_s": dur("encoder.save_checkpoint", "encoder.load_checkpoint"),
        "encoder.text_to_ids.s": dur("encoder.text_to_ids"),
        "objective.loss.s": dur("objective.loss"),
        "objective.normalize.s": dur("objective.normalize"),
        "trainer.train.s": dur("trainer.train"),
        "trainer.train.self_s": own("trainer.train"),
        "trainer.augment_dataset.s": dur("trainer.augment_dataset"),
        "trainer.dataset_io_s": dur("trainer.dataset_io"),
        "grounding.load_regions_jsonl.s": dur("grounding.load_regions_jsonl"),
        "grounding.region_classify.s": dur("grounding.region_classify"),
        "grounding.focal.s": dur("grounding.focal"),
        "evaluation.build_class_embeddings.s": dur("evaluation.build_class_embeddings"),
        "evaluation.zero_shot_classify.s": dur("evaluation.zero_shot_classify"),
        "evaluation.make_eval_report.s": dur("evaluation.make_eval_report"),
        "evaluation.linear_probe.s": dur("evaluation.linear_probe"),
        "evaluation.dataset_stats.s": dur("evaluation.dataset_stats"),
        "synth.build_world.s": dur("synth.build_world"),
        "synth.run_seed.self_s": own("synth.run_seed"),
    }
    for sub in CLI_SUBCOMMANDS:
        seconds[f"cli.{sub}.s"] = dur(f"cli.{sub}")
        seconds[f"cli.{sub}.self_s"] = own(f"cli.{sub}")
    for layer in LAYERS:
        seconds[f"{layer}.self_s"] = layer_self[layer]

    retrieves = by_name.get("knowledge.retrieve", [])
    grads_texts = attr_sum("encoder.grads", "texts")
    grads_unique = attr_sum("encoder.grads", "unique")
    grads_tokens = attr_sum("encoder.grads", "tokens")
    encoded, distinct = 0, 0
    for trace_texts in _texts_by_pass(by_name.get("grounding.encode_phrases_parallel", [])):
        encoded += len(trace_texts)
        distinct += len(set(trace_texts))
    counts = {
        "knowledge.retrieve.calls": calls("knowledge.retrieve"),
        "queries.construct_query.calls": calls("queries.construct_query"),
        "compose.calls": calls(*compose_names),
        "compose.knowledge_words_trimmed": sum(attr_sum(n, "trimmed") for n in compose_names),
        "encoder.grads.calls": calls("encoder.grads"),
        "encoder.grads.texts": grads_texts,
        "encoder.grads.unique_texts": grads_unique,
        "encoder.grads.dedup_ratio": grads_unique / grads_texts if grads_texts else 0.0,
        "encoder.grads.tokens": grads_tokens,
        "encoder.grads.tokens_per_s": (grads_tokens / seconds["encoder.grads.self_s"]
                                       if grads_tokens else 0.0),
        "encoder.grads.adapter_share": (attr_sum("encoder.grads", "adapter") / grads_unique
                                        if grads_unique else 0.0),
        "encoder.encode_text.calls": calls("encoder.encode_text"),
        "encoder.encode_text.tokens": attr_sum("encoder.encode_text", "tokens"),
        "encoder.encode_images.calls": calls("encoder.encode_images"),
        "encoder.encode_images.rows": attr_sum("encoder.encode_images", "rows"),
        "objective.loss.calls": calls("objective.loss"),
        "trainer.train.steps": attr_sum("trainer.train", "steps"),
        "grounding.region_classify.calls": calls("grounding.region_classify"),
        "grounding.phrase_texts_encoded": encoded / n_passes,
        "grounding.bank_useful_ratio": distinct / encoded if encoded else 0.0,
        "evaluation.build_class_embeddings.texts": attr_sum("evaluation.build_class_embeddings", "texts"),
        "evaluation.zero_shot_classify.calls": calls("evaluation.zero_shot_classify"),
    }
    for source in SOURCES:
        tried = [s for s in retrieves if s.attrs["source"] == source]
        counts[f"knowledge.retrieve.hit_ratio.{source}"] = (
            sum(s.attrs["hit"] for s in tried) / len(tried) if tried else 0.0)

    distributions = {
        "trainer.step_ms": timing(_step_intervals_ms(spans), "ms"),
        "grounding.region_classify_ms": timing(
            [1e3 * (s.end - s.start) for s in by_name.get("grounding.region_classify", [])], "ms"),
        "encoder.grads.us_per_token": {
            "unit": "us", "value": (1e6 * seconds["encoder.grads.self_s"] / grads_tokens
                                    if grads_tokens else None)},
    }
    return seconds, counts, distributions


def _texts_by_pass(spans: list[Span]):
    """Texts handed to the phrase bank, grouped by the pass (trace id prefix)."""
    grouped: dict[str, list[str]] = defaultdict(list)
    for s in spans:
        grouped[s.trace.split(":", 1)[0]].extend(s.attrs["texts"])
    return grouped.values()


def _step_intervals_ms(spans: list[Span]) -> list[float]:
    """Intervals between successive ``encoder.grads`` starts inside each train call."""
    trains = {s.id for s in spans if s.name == "trainer.train"}
    starts: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        if s.name == "encoder.grads" and s.parent in trains:
            starts[s.parent].append(s.start)
    out = []
    for xs in starts.values():
        xs.sort()
        out.extend(1e3 * (b - a) for a, b in zip(xs, xs[1:]))
    return out
