"""In-memory span tracing of lexivis from outside the package.

Tracing wraps public functions by reassigning module attributes. A function
imported with ``from ... import`` is looked up in the importing module, so
every module attribute bound to the same function object is patched, not
only the defining one; ``patch_sites`` lists where that happened. Methods
are patched on their class. Nothing inside ``src/`` changes.

A span records name, start, end, parent span and the trace id of the
operation that caused it, plus a few counts read from arguments and return
values. A layer is the span name before its first dot, which is a module of
``lexivis`` for every wrapped function and for the operation roots.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    trace: str
    name: str
    start: float
    end: float
    attrs: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _retrieve_attrs(args, kwargs, result):
    return {"source": _arg(args, kwargs, 2, "source"), "hit": result is not None}


def _knowledge_words(parts: dict) -> int:
    return len(parts["knowledge"].split()) if parts.get("knowledge") else 0


def _compose_attrs(knowledge_index: int):
    def attrs(args, kwargs, result):
        knowledge = _arg(args, kwargs, knowledge_index, "knowledge")
        if knowledge is None:
            return {"trimmed": 0}
        first = result[0] if isinstance(result, list) else result
        return {"trimmed": len(knowledge.split()) - _knowledge_words(first.parts)}

    return attrs


def _grads_attrs(args, kwargs, result):
    batch, spec = _arg(args, kwargs, 1, "batch"), _arg(args, kwargs, 2, "spec")
    flags = batch.adapter_flags
    if flags is None or spec.loss != "contrastive":
        flags = [spec.use_adapters] * len(batch.token_ids)
    distinct = {(tuple(ids), bool(flag)) for ids, flag in zip(batch.token_ids, flags)}
    return {
        "texts": len(batch.token_ids),
        "unique": len(distinct),
        "tokens": sum(len(ids) for ids, _ in distinct),
        "adapter": sum(1 for _, flag in distinct if flag),
        "trainable": spec.trainable,
    }


def _train_attrs(args, kwargs, result):
    return {"steps": len(result.trace), "pairs": sum(result.branch_counts.values())}


def _class_bank_attrs(args, kwargs, result):
    templates = _arg(args, kwargs, 6, "templates") or [None]
    return {"texts": len(result.class_names) * len(templates)}


# (span name, owner path inside lexivis, attribute, attrs(args, kwargs, result) or None).
# ``queries.tokenize`` is patched only where other modules import it: inside
# ``queries`` it runs once per caption and phrase, and its spans would cost
# more than they tell.
CROSS_MODULE_ONLY = {"queries.tokenize"}

TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("knowledge.load", "knowledge", "load_wordnet_snapshot", None),
    ("knowledge.load", "knowledge", "load_wiktionary_snapshot", None),
    ("knowledge.retrieve", "knowledge.KnowledgeStore", "retrieve", _retrieve_attrs),
    ("knowledge.knowledge_coverage", "knowledge", "knowledge_coverage", None),
    ("queries.construct_query", "queries", "construct_query", None),
    ("queries.build_frequency_table", "queries", "build_frequency_table", None),
    ("queries.load_lexicon", "queries", "load_lexicon", None),
    ("queries.tokenize", "queries", "tokenize", None),
    ("compose.compose_class_text", "compose", "compose_class_text", _compose_attrs(2)),
    ("compose.compose_caption_texts", "compose", "compose_caption_texts", _compose_attrs(2)),
    ("compose.compose_od_text", "compose", "compose_od_text", _compose_attrs(1)),
    ("compose.load_templates", "compose", "load_templates", None),
    ("encoder.grads", "encoder", "grads", _grads_attrs),
    ("encoder.encode_text", "encoder", "encode_text",
     lambda a, k, r: {"tokens": len(_arg(a, k, 1, "token_ids"))}),
    ("encoder.encode_images", "encoder", "encode_images",
     lambda a, k, r: {"rows": len(r)}),
    ("encoder.text_to_ids", "encoder", "text_to_ids", None),
    ("encoder.save_checkpoint", "encoder", "save_checkpoint", None),
    ("encoder.load_checkpoint", "encoder", "load_checkpoint", None),
    ("encoder.init_params", "encoder", "init_params", None),
    ("objective.loss", "objective", "grouped_contrastive_loss_with_grads", None),
    ("objective.normalize", "objective", "normalize_rows", None),
    ("objective.normalize", "objective", "normalize_rows_backward", None),
    ("trainer.train", "trainer", "train", _train_attrs),
    ("trainer.augment_dataset", "trainer", "augment_dataset", None),
    ("trainer.dataset_io", "trainer", "load_dataset_jsonl", None),
    ("trainer.dataset_io", "trainer", "save_dataset_jsonl", None),
    ("trainer.dataset_io", "trainer", "save_trace_csv", None),
    ("grounding.load_regions_jsonl", "grounding", "load_regions_jsonl", None),
    ("grounding.region_classify", "grounding", "zero_shot_region_classify", None),
    ("grounding.encode_phrases_parallel", "grounding", "encode_phrases_parallel",
     lambda a, k, r: {"texts": list(r.texts)}),
    ("grounding.focal", "grounding", "focal_loss_with_grad", None),
    ("evaluation.build_class_embeddings", "evaluation", "build_class_embeddings", _class_bank_attrs),
    ("evaluation.zero_shot_classify", "evaluation", "zero_shot_classify", None),
    ("evaluation.make_eval_report", "evaluation", "make_eval_report", None),
    ("evaluation.linear_probe", "evaluation", "linear_probe", None),
    ("evaluation.dataset_stats", "evaluation", "dataset_stats", None),
    ("synth.build_world", "synth", "build_world", None),
]


def _lexivis_modules() -> list:
    import lexivis

    return [
        importlib.import_module(f"lexivis.{info.name}")
        for info in pkgutil.iter_modules(lexivis.__path__)
    ]


def _resolve(owner: str):
    module, *attrs = owner.split(".")
    obj = importlib.import_module(f"lexivis.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


class Tracer:
    """Collects spans for the operations run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.patch_sites: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._trace = ""

    def _open(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, start, name, end=None, attrs=None):
        end = time.perf_counter() if end is None else end
        self._stack.pop()
        self.spans.append(Span(sid, parent, self._trace, name, start, end, attrs))

    @contextmanager
    def operation(self, trace_id: str, name: str):
        """Root span of one benchmark operation; its spans share ``trace_id``."""
        self._trace = trace_id
        sid, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, parent, start, name)

    def wrap(self, fn: Callable, name: str, describe: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            sid, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, start, name)
                raise
            end = time.perf_counter()
            attrs = describe(args, kwargs, result) if describe is not None else None
            self._close(sid, parent, start, name, end, attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every target for the duration of the block."""
        modules = _lexivis_modules()
        saved = []
        sites = []
        for name, owner, attr, describe in TARGETS:
            obj = _resolve(owner)
            original = getattr(obj, attr)
            wrapper = self.wrap(original, name, describe)
            if isinstance(obj, type):
                holders = [(obj, attr)]
            else:
                holders = [
                    (mod, key) for mod in modules for key, value in vars(mod).items()
                    if value is original
                    and not (name in CROSS_MODULE_ONLY and mod.__name__ == f"lexivis.{owner}")
                ]
            for holder, key in holders:
                saved.append((holder, key, original))
                setattr(holder, key, wrapper)
                sites.append(f"{holder.__name__.removeprefix('lexivis.')}.{key}")
        self.patch_sites = sorted(sites)
        try:
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    {"id": s.id, "parent": s.parent, "trace": s.trace, "name": s.name,
                     "start": s.start, "end": s.end, "attrs": s.attrs}
                ) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out
