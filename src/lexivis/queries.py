"""Query construction: noun-phrase chunking and rarest-phrase selection.

Category names pass through verbatim (lowercased); captions are reduced to
their rarest noun phrase over a corpus. Tagging is lexicon-driven (TSV file
``token<TAB>TAG``) and chunking uses the pattern ``DET? (ADJ|NUM)* NOUN+``,
so the whole path is deterministic and hermetic.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

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


def build_frequency_table(corpus: Iterable[str], lexicon: dict[str, str]) -> Counter:
    """Count every chunked noun phrase across a caption corpus."""
    table = Counter()
    for caption in corpus:
        phrases = chunk_noun_phrases(pos_tag(tokenize(caption), lexicon))
        table.update(phrase.normalized for phrase in phrases)
    return table


def construct_query(
    text: str,
    kind: str,
    freq: Counter = Counter(),
    lexicon: Optional[dict[str, str]] = None,
) -> str:
    """Reduce a language description to its knowledge query.

    Category names are used verbatim (lowercased). Captions map to the
    rarest chunked noun phrase in ``freq``; a caption with no noun phrase
    falls back to its least-frequent NOUN token, and finally to the whole
    caption. Ties go to the longer phrase, then the lexicographically first.
    """
    if not text.strip():
        raise ValueError("cannot construct a query from empty text")
    if kind == "category":
        return text.strip().lower()
    if kind != "caption":
        raise ValueError(f"unknown query kind {kind!r}")

    def rarity(phrase: str):
        return (freq[phrase], -len(phrase), phrase)

    tagged = pos_tag(tokenize(text), lexicon or {})
    phrases = chunk_noun_phrases(tagged)
    if phrases:
        return min((p.normalized for p in phrases), key=rarity)
    nouns = [t.surface for t in tagged if t.tag == "NOUN"]
    if nouns:
        return min(nouns, key=rarity)
    return normalize_text(text)


def iter_queries(rows: Iterable, lexicon: dict[str, str]) -> Iterator[tuple]:
    """Yield ``(row, query)`` for every row of a dataset, in order.

    ``rows`` is iterated twice, so it must be re-iterable: a list, or a
    source that re-reads its file on every iteration. The first pass counts
    the captions' noun phrases, the one frequency table that picks each
    caption's query; the second constructs the queries one row at a time.
    Memory is bounded by the number of distinct phrases, not of rows.
    """
    if isinstance(rows, Iterator):
        raise TypeError("iter_queries needs a re-iterable row source, not an iterator")
    freq = build_frequency_table((r.text for r in rows if r.kind == "caption"), lexicon)
    for row in rows:
        yield row, construct_query(row.text, row.kind, freq, lexicon)
