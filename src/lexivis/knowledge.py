"""Snapshot-backed knowledge stores: WordNet hierarchy/definitions and Wiktionary senses.

Snapshots are UTF-8 JSONL files, read and refused (``DataError``) like every
input file. WordNet rows carry ``{id, lemmas, definition, hypernym_ids}``;
Wiktionary rows carry ``{term, senses}``. Loaded stores are immutable and safe
for concurrent reads; every retrieval is a pure function of (snapshot, query).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, TextIO

import numpy as np

from .errors import DataError
from .queries import normalize_text

# The snapshot each source reads: its ``KnowledgeStore`` field and CLI flag name.
SNAPSHOT_OF = {"wn_hier": "wordnet", "wn_def": "wordnet", "wiki_def": "wiktionary"}
SOURCES = tuple(SNAPSHOT_OF)

# Leading words dropped by the wiktionary lookup fallback chain.
DETERMINERS = frozenset({"a", "an", "the"})

# Hard cap on hypernym traversal; crossing it means the snapshot has a cycle.
MAX_HYPERNYM_HOPS = 32

# json.loads's own decoder, called once per row without its per-call set-up.
_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True, slots=True)
class SynsetRecord:
    """One WordNet synset: a concept with its lemmas, gloss and parents."""

    id: str
    lemmas: tuple[str, ...]
    definition: str
    hypernym_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class DictionaryEntry:
    """One Wiktionary term with its ordered senses (first sense is retrieved)."""

    term: str
    senses: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class KnowledgeItem:
    """A retrieved piece of external knowledge for a query."""

    query: str
    source: str
    text: str


def read_lines(path) -> Iterator[tuple[str, str]]:
    """Yield (``path:lineno``, stripped line) for every non-blank line of a UTF-8 text file.

    The one reader of every input file but a checkpoint; a leading byte-order
    mark is not part of the text. Text that is not UTF-8 and a file without a
    non-blank line raise ``DataError`` naming the file.
    """
    empty, name = True, str(path)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    empty = False
                    yield f"{name}:{lineno}", line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
    if empty:
        raise DataError(f"{path}: no lines found")


def iter_jsonl(path, fields=()) -> Iterator[tuple[str, dict]]:
    """Yield (``path:lineno``, object) for every line ``read_lines`` yields of a JSONL file.

    Invalid JSON (nesting or an integer too large for ``json``), a row that
    is not a JSON object, or one missing a name in ``fields`` (the first is
    named) raises ``DataError`` with the row's ``path:lineno``. A row is read
    as ``json.loads`` reads it, with the same error messages.
    """
    for where, line in read_lines(path):
        try:
            # The two checks json.loads adds to the decoder's: a stripped line
            # has no JSON whitespace left to skip at either end.
            if line[0] == "\ufeff":  # not the file's leading mark, which read_lines drops
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            obj, end = _raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{where}: expected a JSON object")
        for key in fields:
            if key not in obj:
                raise DataError(f"{where}: missing field {key!r}")
        yield where, obj


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
    # The common row, a list of floats, is checked by its sum, which a NaN or
    # an infinite entry makes non-finite; numpy's check costs more on a short
    # row. Any other array, or a sum that overflows, is checked by numpy.
    if not (ndim == array.ndim == 1 and array.dtype == np.float64 and array.size
            and math.isfinite(sum(value))):
        # Numbers (or bools) only: a string, null or an integer beyond 64 bits
        # gives another dtype kind, and a float64 cast would accept a string "0".
        if (
            array.dtype.kind not in "biuf" or array.ndim != ndim or array.size == 0
            or not np.isfinite(array).all()
        ):
            shape = "list" if ndim == 1 else "matrix"
            raise DataError(f"{where}: {what} must be a non-empty {shape} of finite numbers")
        array = array.astype(np.float64, copy=False)
    if width is not None and array.shape[-1] != width:
        raise DataError(f"{where}: {what} width is {array.shape[-1]}, expected {width}")
    return array


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text; it appears only when the block succeeds.

    The text goes to a temporary file beside ``path`` that replaces it on
    success and is deleted on any failure, so a failed write leaves an
    existing ``path`` untouched. ``path`` may be a file the block reads. An
    ``OSError`` from opening or replacing the temporary file names ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        tmp.replace(path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _lemma_key(text: str) -> str:
    """The one lemma rule of index and lookup: normalized, with ``_`` between words."""
    return normalize_text(text).replace(" ", "_")


class WordNetGraph:
    """In-memory WordNet snapshot with a lemma index and hypernym links."""

    def __init__(self, records: list[SynsetRecord]):
        self.synsets: dict[str, SynsetRecord] = {}
        self.lemma_index: dict[str, str] = {}
        for rec in records:
            if rec.id in self.synsets:
                raise DataError(f"duplicate synset id {rec.id!r}")
            self.synsets[rec.id] = rec
            for lemma in rec.lemmas:
                # First-listed synset per lemma wins, preserving file order.
                self.lemma_index.setdefault(_lemma_key(lemma), rec.id)
        for rec in self.synsets.values():
            for hid in rec.hypernym_ids:
                if hid not in self.synsets:
                    raise DataError(
                        f"synset {rec.id!r} references unknown hypernym id {hid!r}"
                    )

    def __len__(self) -> int:
        return len(self.synsets)

    def lookup(self, query: str) -> Optional[SynsetRecord]:
        """Locate a synset: exact multi-word lemma first, then head noun."""
        norm = normalize_text(query)
        sid = self.lemma_index.get(_lemma_key(norm))
        if sid is None and " " in norm:
            sid = self.lemma_index.get(norm.split()[-1])
        return self.synsets[sid] if sid is not None else None

    def hypernym_path(self, record: SynsetRecord) -> list[SynsetRecord]:
        """Walk first-hypernym links up to a root; errors out on cycles."""
        path = [record]
        current = record
        while current.hypernym_ids:
            if len(path) >= MAX_HYPERNYM_HOPS:
                raise _long_chain(record.id)
            current = self.synsets[current.hypernym_ids[0]]
            path.append(current)
        return path


class Dictionary:
    """In-memory Wiktionary snapshot keyed by normalized term, as its lookup reads."""

    def __init__(self, entries: list[DictionaryEntry]):
        self.entries: dict[str, DictionaryEntry] = {}
        for entry in entries:
            key = normalize_text(entry.term)
            if key in self.entries:
                raise DataError(f"duplicate dictionary term {entry.term!r}")
            self.entries[key] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, query: str) -> Optional[DictionaryEntry]:
        """Lookup chain: exact phrase -> leading determiner stripped -> head noun."""
        norm = normalize_text(query)
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


def string_field(obj: dict, key: str, where: str) -> str:
    """``obj[key]`` when it is a JSON string; otherwise ``DataError`` at ``where``."""
    value = obj[key]
    if not isinstance(value, str):
        raise DataError(f"{where}: {key} must be a string")
    return value


def label_field(obj: dict, where: str) -> Optional[int]:
    """``obj``'s optional ``label``: a signed 64-bit integer or null, else ``DataError``."""
    label = obj.get("label")
    if label is not None and (type(label) is not int or not -(2**63) <= label < 2**63):
        raise DataError(f"{where}: label must be a 64-bit integer or null")
    return label


_STR = frozenset((str,))


def _string_list(obj: dict, key: str, where: str, nonempty: bool) -> tuple[str, ...]:
    value = obj[key]
    if (type(value) is not list or (nonempty and not value)
            or not _STR.issuperset(map(type, value))):
        what = "a non-empty list" if nonempty else "a list"
        raise DataError(f"{where}: {key} must be {what} of strings")
    if nonempty and not all(map(str.strip, value)):  # a blank lemma or sense
        raise DataError(f"{where}: {key} must not hold a blank string")
    return tuple(value)


def _long_chain(sid: str) -> DataError:
    return DataError(f"hypernym chain from {sid!r} exceeds {MAX_HYPERNYM_HOPS} hops (cycle?)")


def _check_chain_lengths(synsets: dict[str, SynsetRecord]) -> None:
    """Refuse the first synset, in ``synsets`` order, whose ``hypernym_path`` would refuse it.

    Each synset's chain length is kept once known, so every first-hypernym
    link is walked once, not once per synset below it.
    """
    length = {None: 0}  # synset id -> synsets on its first-hypernym chain; None is above a root
    for rec in synsets.values():
        chain, sid = [], rec.id
        while sid not in length and len(chain) <= MAX_HYPERNYM_HOPS:
            chain.append(sid)
            parents = synsets[sid].hypernym_ids
            sid = parents[0] if parents else None
        n = length.get(sid, 0)  # a walk cut at the cap holds one synset too many already
        for sid in reversed(chain):
            n += 1
            length[sid] = n
        if n > MAX_HYPERNYM_HOPS:
            raise _long_chain(rec.id)


def load_wordnet_snapshot(path) -> WordNetGraph:
    """Load a WordNet JSONL snapshot, validating every row and all references.

    Besides malformed rows, duplicate ids and dangling hypernyms, a synset
    whose first-hypernym chain is longer than ``MAX_HYPERNYM_HOPS`` (or a
    cycle) raises ``DataError`` naming the file.
    """
    records = []
    ids = {}  # each synset id's first-seen string, shared by the record and every child naming it
    fields = ("id", "lemmas", "definition", "hypernym_ids")
    for where, obj in iter_jsonl(path, fields):
        sid = string_field(obj, "id", where)
        lemmas = _string_list(obj, "lemmas", where, True)
        definition = string_field(obj, "definition", where)
        hypernym_ids = _string_list(obj, "hypernym_ids", where, False)
        if not definition.strip():  # retrieved as knowledge, it would compose an empty hit
            raise DataError(f"{where}: definition is blank")
        sid = ids.setdefault(sid, sid)
        records.append(SynsetRecord(sid, tuple(map(normalize_text, lemmas)), definition,
                                    tuple(map(ids.setdefault, hypernym_ids, hypernym_ids))))
    try:
        graph = WordNetGraph(records)
        _check_chain_lengths(graph.synsets)  # in file order, so the first long chain is named
    except DataError as exc:  # a duplicate, a dangling reference or a long chain
        raise DataError(f"{path}: {exc}") from exc
    return graph


def load_wiktionary_snapshot(path) -> Dictionary:
    """Load a Wiktionary JSONL snapshot of {term, senses} rows."""
    entries = []
    for where, obj in iter_jsonl(path, ("term", "senses")):
        term = string_field(obj, "term", where)
        if not term.strip():  # it would be the key "" that no query reaches
            raise DataError(f"{where}: term is blank")
        entries.append(DictionaryEntry(term, _string_list(obj, "senses", where, True)))
    try:
        return Dictionary(entries)
    except DataError as exc:  # a duplicate term
        raise DataError(f"{path}: {exc}") from exc


@dataclass
class KnowledgeStore:
    """Bundles the loaded snapshots; ``retrieve`` is the one lookup by source name."""

    wordnet: Optional[WordNetGraph] = None
    wiktionary: Optional[Dictionary] = None

    def retrieve(self, query: str, source: str) -> Optional[KnowledgeItem]:
        """The query's knowledge from ``source``, or None on a miss.

        ``wn_hier`` gives the first lemma of each synset on the hypernym path
        from the query to its root, ``wn_def`` the gloss of the query's synset,
        and ``wiki_def`` the first sense of its dictionary entry. A store
        without that source's snapshot gives None; an unknown source raises.
        """
        if source not in SOURCES:
            raise ValueError(f"unknown knowledge source {source!r}; expected one of {SOURCES}")
        snapshot = getattr(self, SNAPSHOT_OF[source])
        found = snapshot.lookup(query) if snapshot is not None else None
        if found is None:
            return None
        if source == "wiki_def":
            text = found.senses[0]
        elif source == "wn_def":
            text = found.definition
        else:
            text = ", ".join(rec.lemmas[0] for rec in snapshot.hypernym_path(found))
        return KnowledgeItem(query=query, source=source, text=text)


def knowledge_coverage(queries: list[str], store: KnowledgeStore, source: str) -> float:
    """Fraction of queries with a non-empty retrieval from the given source."""
    if not queries:
        raise ValueError("knowledge_coverage requires at least one query")
    hits = sum(1 for q in queries if store.retrieve(q, source) is not None)
    return hits / len(queries)
