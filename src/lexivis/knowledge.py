"""Snapshot-backed knowledge stores: WordNet hierarchy/definitions and Wiktionary senses.

Snapshots are UTF-8 JSONL files. WordNet rows carry
``{id, lemmas, definition, hypernym_ids}``; Wiktionary rows carry
``{term, senses}``. Loaded stores are immutable and safe for concurrent reads;
every retrieval is a pure function of (snapshot, query).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, TextIO

import numpy as np

from .errors import DataError, LexivisError, SnapshotError
from .queries import normalize_text

SOURCES = ("wn_hier", "wn_def", "wiki_def")

# Leading words dropped by the wiktionary lookup fallback chain.
DETERMINERS = frozenset({"a", "an", "the"})

# Hard cap on hypernym traversal; crossing it means the snapshot has a cycle.
MAX_HYPERNYM_HOPS = 32


@dataclass(frozen=True)
class SynsetRecord:
    """One WordNet synset: a concept with its lemmas, gloss and parents."""

    id: str
    lemmas: tuple[str, ...]
    definition: str
    hypernym_ids: tuple[str, ...]


@dataclass(frozen=True)
class DictionaryEntry:
    """One Wiktionary term with its ordered senses (first sense is retrieved)."""

    term: str
    senses: tuple[str, ...]


@dataclass(frozen=True)
class KnowledgeItem:
    """A retrieved piece of external knowledge for a query."""

    query: str
    source: str
    text: str


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def iter_jsonl(path, error: type[LexivisError], fields=()) -> Iterator[tuple[str, dict]]:
    """Yield (``path:lineno``, object) for every non-blank line of a UTF-8 JSONL file.

    Invalid JSON (nesting or an integer too large for ``json``), a row that
    is not a JSON object, or one missing a name in ``fields`` (the first is
    named) raises ``error`` with the row's ``path:lineno``: ``SnapshotError``
    for snapshots, ``DataError`` for data files. Text that is not UTF-8 and
    a file without a non-blank line raise it naming the file.
    """
    empty = True
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise error(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                if not isinstance(obj, dict):
                    raise error(f"{where}: expected a JSON object")
                for key in fields:
                    if key not in obj:
                        raise error(f"{where}: missing field {key!r}")
                empty = False
                yield where, obj
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text") from exc
    if empty:
        raise error(f"{path}: no rows found")


def read_lines(path) -> Iterator[tuple[str, str]]:
    """Yield (``path:lineno``, stripped line) for every non-blank line of a UTF-8 text file.

    Text that is not UTF-8 and a file without a non-blank line raise
    ``DataError`` naming the file, as in ``iter_jsonl``.
    """
    empty = True
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    empty = False
                    yield f"{path}:{lineno}", line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
    if empty:
        raise DataError(f"{path}: no lines found")


def finite_array(
    value, ndim: int, where: str, what: str, width: Optional[int] = None
) -> np.ndarray:
    """A feature field of a JSONL row as a non-empty float64 array of ``ndim`` axes.

    Anything else, including a NaN or infinite entry or, when ``width`` is
    given, a last axis of another length, raises ``DataError`` prefixed with
    ``where`` (the row's ``path:lineno``).
    """
    try:
        array = np.asarray(value)
    except ValueError:  # ragged rows
        array = np.empty(0, dtype=object)
    # Numbers (or bools) only: a string, null or an integer beyond 64 bits
    # gives another dtype kind, and a float64 cast would accept a string "0".
    if (
        array.dtype.kind not in "biuf" or array.ndim != ndim or array.size == 0
        or not np.isfinite(array).all()
    ):
        shape = "list" if ndim == 1 else "matrix"
        raise DataError(f"{where}: {what} must be a non-empty {shape} of finite numbers")
    if width is not None and array.shape[-1] != width:
        raise DataError(f"{where}: {what} width is {array.shape[-1]}, expected {width}")
    return array.astype(np.float64, copy=False)


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text; it appears only when the block succeeds.

    The text goes to a temporary file beside ``path`` that replaces it on
    success and is deleted on any failure, so a failed write leaves an
    existing ``path`` untouched. ``path`` may be a file the block reads.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class WordNetGraph:
    """In-memory WordNet snapshot with a lemma index and hypernym links."""

    def __init__(self, records: list[SynsetRecord], digest: str = ""):
        self.digest = digest
        self.synsets: dict[str, SynsetRecord] = {}
        self.lemma_index: dict[str, str] = {}
        for rec in records:
            if rec.id in self.synsets:
                raise SnapshotError(f"duplicate synset id {rec.id!r}")
            self.synsets[rec.id] = rec
            for lemma in rec.lemmas:
                # First-listed synset per lemma wins, preserving file order.
                self.lemma_index.setdefault(lemma, rec.id)
        for rec in self.synsets.values():
            for hid in rec.hypernym_ids:
                if hid not in self.synsets:
                    raise SnapshotError(
                        f"synset {rec.id!r} references unknown hypernym id {hid!r}"
                    )

    def __len__(self) -> int:
        return len(self.synsets)

    def lookup(self, query: str) -> Optional[SynsetRecord]:
        """Locate a synset: exact multi-word lemma first, then head noun."""
        norm = normalize_text(query)
        if not norm:
            return None
        lemma = norm.replace(" ", "_")
        sid = self.lemma_index.get(lemma)
        if sid is None and " " in norm:
            sid = self.lemma_index.get(norm.split()[-1])
        return self.synsets[sid] if sid is not None else None

    def hypernym_path(self, record: SynsetRecord) -> list[SynsetRecord]:
        """Walk first-hypernym links up to a root; errors out on cycles."""
        path = [record]
        current = record
        while current.hypernym_ids:
            if len(path) >= MAX_HYPERNYM_HOPS:
                raise SnapshotError(
                    f"hypernym chain from {record.id!r} exceeds "
                    f"{MAX_HYPERNYM_HOPS} hops (cycle?)"
                )
            current = self.synsets[current.hypernym_ids[0]]
            path.append(current)
        return path


class Dictionary:
    """In-memory Wiktionary snapshot keyed by lowercase term."""

    def __init__(self, entries: list[DictionaryEntry], digest: str = ""):
        self.digest = digest
        self.entries: dict[str, DictionaryEntry] = {}
        for entry in entries:
            if entry.term in self.entries:
                raise SnapshotError(f"duplicate dictionary term {entry.term!r}")
            self.entries[entry.term] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, query: str) -> Optional[DictionaryEntry]:
        """Lookup chain: exact phrase -> leading determiner stripped -> head noun."""
        norm = normalize_text(query)
        if not norm:
            return None
        candidates = [norm]
        words = norm.split()
        if len(words) > 1 and words[0] in DETERMINERS:
            candidates.append(" ".join(words[1:]))
        if len(words) > 1:
            candidates.append(words[-1])
        for cand in candidates:
            entry = self.entries.get(cand)
            if entry is not None:
                return entry
        return None


def load_wordnet_snapshot(path) -> WordNetGraph:
    """Load a WordNet JSONL snapshot, validating every row and all references."""
    records = []
    fields = ("id", "lemmas", "definition", "hypernym_ids")
    for where, obj in iter_jsonl(path, SnapshotError, fields):
        lemmas, hypernym_ids = obj["lemmas"], obj["hypernym_ids"]
        if not isinstance(lemmas, list) or not lemmas:
            raise SnapshotError(f"{where}: lemmas must be a non-empty list")
        if not isinstance(hypernym_ids, list):
            raise SnapshotError(f"{where}: hypernym_ids must be a list")
        records.append(
            SynsetRecord(
                id=str(obj["id"]),
                lemmas=tuple(str(l).lower() for l in lemmas),
                definition=str(obj["definition"]),
                hypernym_ids=tuple(str(h) for h in hypernym_ids),
            )
        )
    try:
        return WordNetGraph(records, digest=_file_digest(path))
    except SnapshotError as exc:  # a duplicate or a dangling reference
        raise SnapshotError(f"{path}: {exc}") from exc


def load_wiktionary_snapshot(path) -> Dictionary:
    """Load a Wiktionary JSONL snapshot of {term, senses} rows."""
    entries = []
    for where, obj in iter_jsonl(path, SnapshotError, ("term", "senses")):
        senses = obj["senses"]
        if not isinstance(senses, list) or not senses:
            raise SnapshotError(f"{where}: senses must be a non-empty list")
        entries.append(
            DictionaryEntry(
                term=str(obj["term"]).lower(),
                senses=tuple(str(s) for s in senses),
            )
        )
    try:
        return Dictionary(entries, digest=_file_digest(path))
    except SnapshotError as exc:  # a duplicate term
        raise SnapshotError(f"{path}: {exc}") from exc


def wn_hierarchy(graph: WordNetGraph, query: str) -> Optional[KnowledgeItem]:
    """Hypernym-path knowledge: first lemma of each synset from query to root."""
    record = graph.lookup(query)
    if record is None:
        return None
    names = [rec.lemmas[0] for rec in graph.hypernym_path(record)]
    return KnowledgeItem(query=query, source="wn_hier", text=", ".join(names))


def wn_definition(graph: WordNetGraph, query: str) -> Optional[KnowledgeItem]:
    """Gloss of the first synset located for the query."""
    record = graph.lookup(query)
    if record is None:
        return None
    return KnowledgeItem(query=query, source="wn_def", text=record.definition)


def wiki_definition(dictionary: Dictionary, query: str) -> Optional[KnowledgeItem]:
    """First sense of the dictionary entry found by the lookup chain."""
    entry = dictionary.lookup(query)
    if entry is None:
        return None
    return KnowledgeItem(query=query, source="wiki_def", text=entry.senses[0])


@dataclass
class KnowledgeStore:
    """Bundles the loaded snapshots and dispatches retrieval by source name."""

    wordnet: Optional[WordNetGraph] = None
    wiktionary: Optional[Dictionary] = None

    def retrieve(self, query: str, source: str) -> Optional[KnowledgeItem]:
        if source not in SOURCES:
            raise ValueError(f"unknown knowledge source {source!r}; expected one of {SOURCES}")
        if source in ("wn_hier", "wn_def"):
            if self.wordnet is None:
                return None
            fn = wn_hierarchy if source == "wn_hier" else wn_definition
            return fn(self.wordnet, query)
        if self.wiktionary is None:
            return None
        return wiki_definition(self.wiktionary, query)

    def provenance(self) -> dict[str, str]:
        digests = {}
        if self.wordnet is not None:
            digests["wordnet"] = self.wordnet.digest
        if self.wiktionary is not None:
            digests["wiktionary"] = self.wiktionary.digest
        return digests


def knowledge_coverage(queries: list[str], store: KnowledgeStore, source: str) -> float:
    """Fraction of queries with a non-empty retrieval from the given source."""
    if not queries:
        raise ValueError("knowledge_coverage requires at least one query")
    hits = sum(1 for q in queries if store.retrieve(q, source) is not None)
    return hits / len(queries)
