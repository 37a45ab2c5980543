"""Query construction: noun-phrase chunking and rarest-phrase selection.

Category names pass through verbatim (lowercased); captions are reduced to
their rarest noun phrase over a corpus. Tagging is lexicon-driven (TSV file
``token<TAB>TAG``) and chunking uses the pattern ``DET? (ADJ|NUM)* NOUN+``,
so the whole path is deterministic and hermetic.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .errors import DataError

TAGS = ("NOUN", "ADJ", "NUM", "DET", "OTHER")

_STRIP_CHARS = string.punctuation + "‘’“”"


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    tag: str


@dataclass(frozen=True)
class NounPhrase:
    """A chunk whose head is a noun; ``normalized`` is the space-joined form."""

    tokens: tuple[TaggedToken, ...]
    normalized: str


@dataclass(frozen=True)
class Query:
    text: str
    origin: str = "category"


def normalize_text(text: str) -> str:
    """Lowercase and collapse whitespace: the one key for comparing texts."""
    return " ".join(text.lower().split())


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokens with leading/trailing punctuation stripped."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            out.append(tok)
    return out


def load_lexicon(path) -> dict[str, str]:
    """Read a TSV POS lexicon mapping token -> tag."""
    path = Path(path)
    lexicon = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'token<TAB>TAG'")
            token, tag = parts[0].strip().lower(), parts[1].strip().upper()
            if tag not in TAGS:
                raise DataError(f"{path}:{lineno}: unknown tag {tag!r}")
            lexicon[token] = tag
    return lexicon


def pos_tag(tokens: Iterable[str], lexicon: dict[str, str]) -> list[TaggedToken]:
    """Tag each token from the lexicon; unknown tokens default to NOUN."""
    return [TaggedToken(tok, lexicon.get(tok, "NOUN")) for tok in tokens]


def chunk_noun_phrases(tagged: list[TaggedToken]) -> list[NounPhrase]:
    """Maximal ``DET? (ADJ|NUM)* NOUN+`` matches, left to right.

    For every maximal match the bare NOUN+ head sub-phrase is also emitted
    when it differs, so "professional boxer" yields "boxer" as well.
    Duplicates are removed preserving first-seen order.
    """
    phrases: list[NounPhrase] = []
    seen: set[str] = set()

    def emit(tokens: list[TaggedToken]) -> None:
        normalized = " ".join(t.surface for t in tokens)
        if normalized not in seen:
            seen.add(normalized)
            phrases.append(NounPhrase(tuple(tokens), normalized))

    i = 0
    n = len(tagged)
    while i < n:
        j = i
        if j < n and tagged[j].tag == "DET":
            j += 1
        while j < n and tagged[j].tag in ("ADJ", "NUM"):
            j += 1
        head_start = j
        while j < n and tagged[j].tag == "NOUN":
            j += 1
        if j == head_start:
            # No noun head here; the pattern cannot match starting at i.
            i += 1
            continue
        emit(list(tagged[i:j]))
        if head_start != i:
            emit(list(tagged[head_start:j]))
        i = j
    return phrases


@dataclass
class FrequencyTable:
    """Noun-phrase occurrence counts over a caption corpus."""

    counts: dict[str, int] = field(default_factory=dict)
    total_docs: int = 0

    def count(self, phrase: str) -> int:
        return self.counts.get(phrase, 0)

    def add(self, phrase: str, n: int = 1) -> None:
        self.counts[phrase] = self.counts.get(phrase, 0) + n


def caption_noun_phrases(caption: str, lexicon: dict[str, str]) -> list[NounPhrase]:
    return chunk_noun_phrases(pos_tag(tokenize(caption), lexicon))


def build_frequency_table(corpus: Iterable[str], lexicon: dict[str, str]) -> FrequencyTable:
    """Count every chunked noun phrase across a caption corpus."""
    table = FrequencyTable()
    for caption in corpus:
        table.total_docs += 1
        for phrase in caption_noun_phrases(caption, lexicon):
            table.add(phrase.normalized)
    if table.total_docs == 0:
        raise DataError("cannot build a frequency table from an empty corpus")
    return table


def _rarity_key(table: Optional[FrequencyTable]):
    # Rarest first; ties broken by longer phrase, then lexicographically.
    def key(phrase: str):
        count = table.count(phrase) if table is not None else 0
        return (count, -len(phrase), phrase)

    return key


def construct_query(
    text: str,
    kind: str,
    freq: Optional[FrequencyTable] = None,
    lexicon: Optional[dict[str, str]] = None,
) -> Query:
    """Reduce a language description to its knowledge query.

    Category names are used verbatim (lowercased). Captions map to the
    rarest chunked noun phrase; a caption with no noun phrase falls back to
    its least-frequent NOUN token, and finally to the whole caption.
    """
    if not text.strip():
        raise ValueError("cannot construct a query from empty text")
    if kind == "category":
        return Query(text=text.strip().lower(), origin="category")
    if kind != "caption":
        raise ValueError(f"unknown query kind {kind!r}")

    tagged = pos_tag(tokenize(text), lexicon or {})
    phrases = chunk_noun_phrases(tagged)
    key = _rarity_key(freq)
    if phrases:
        best = min((p.normalized for p in phrases), key=key)
        return Query(text=best, origin="caption_np")
    nouns = [t.surface for t in tagged if t.tag == "NOUN"]
    if nouns:
        return Query(text=min(nouns, key=key), origin="caption_fallback")
    return Query(text=normalize_text(text), origin="caption_fallback")
