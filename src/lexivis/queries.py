"""Query construction: noun-phrase chunking and rarest-phrase selection.

Category names pass through normalized (lowercased, single-spaced); captions
are reduced to their rarest noun phrase over a corpus. Tagging is
lexicon-driven (TSV file ``token<TAB>TAG``) and chunking uses the pattern
``DET? (ADJ|NUM)* NOUN+``, so the whole path is deterministic and hermetic.
"""

from __future__ import annotations

import string
from collections import Counter
from typing import Iterable, Iterator, Optional

from .errors import DataError

TAGS = ("NOUN", "ADJ", "NUM", "DET", "OTHER")

_STRIP_CHARS = string.punctuation + "‘’“”"


def normalize_text(text: str) -> str:
    """Lowercase and collapse whitespace: the one key for comparing texts (``text`` if it is one)."""
    norm = " ".join(text.lower().split())
    return text if norm == text else norm


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokens with leading/trailing punctuation stripped."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            out.append(tok)
    return out


def load_lexicon(path) -> dict[str, str]:
    """Read a TSV POS lexicon mapping token -> tag, keyed by the token ``tokenize`` makes."""
    from .knowledge import read_lines  # knowledge imports this module

    lexicon = {}
    for where, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{where}: expected 'token<TAB>TAG'")
        tokens, tag = tokenize(parts[0]), parts[1].strip().upper()
        if tag not in TAGS:
            raise DataError(f"{where}: unknown tag {tag!r}")
        if len(tokens) != 1:  # pos_tag looks up tokenize output, so no other key is reached
            raise DataError(f"{where}: {parts[0].strip()!r} is not one token")
        if tokens[0] in lexicon:  # the earlier row is found again here, not kept for every row
            first = next(at for at, row in read_lines(path)
                         if tokenize(row.split("\t")[0]) == tokens)
            raise DataError(f"{where}: token {tokens[0]!r} is already listed at {first}")
        lexicon[tokens[0]] = TAGS[TAGS.index(tag)]  # one string per tag, not one per row
    return lexicon


def pos_tag(tokens: Iterable[str], lexicon: dict[str, str]) -> list[str]:
    """The tag of each token from the lexicon; unknown tokens default to NOUN."""
    return [lexicon.get(tok, "NOUN") for tok in tokens]


def chunk_noun_phrases(words: list[str], tags: list[str]) -> list[str]:
    """Maximal ``DET? (ADJ|NUM)* NOUN+`` matches over tagged words, left to right.

    Each phrase is its words joined by spaces. For every maximal match the
    bare NOUN+ head sub-phrase is also emitted when it differs, so
    "professional boxer" yields "boxer" as well. Duplicates are removed
    preserving first-seen order.
    """
    phrases: dict[str, None] = {}  # insertion-ordered set
    i = 0
    n = len(tags)
    while i < n:
        j = i
        if j < n and tags[j] == "DET":
            j += 1
        while j < n and tags[j] in ("ADJ", "NUM"):
            j += 1
        head_start = j
        while j < n and tags[j] == "NOUN":
            j += 1
        if j == head_start:
            # No noun head here; the pattern cannot match starting at i.
            i += 1
            continue
        phrases[" ".join(words[i:j])] = None
        if head_start != i:
            phrases[" ".join(words[head_start:j])] = None
        i = j
    return list(phrases)


def build_frequency_table(corpus: Iterable[str], lexicon: dict[str, str]) -> Counter:
    """Count every chunked noun phrase across a caption corpus."""
    table = Counter()
    for caption in corpus:
        words = tokenize(caption)
        table.update(chunk_noun_phrases(words, pos_tag(words, lexicon)))
    return table


def construct_query(
    text: str,
    kind: str,
    freq: Counter = Counter(),
    lexicon: Optional[dict[str, str]] = None,
) -> str:
    """Reduce a language description to its knowledge query.

    Category names are normalized (``normalize_text``). Captions map to the
    rarest chunked noun phrase in ``freq``; ties go to the longer phrase,
    then the lexicographically first. Every NOUN starts or continues a
    phrase, so only a caption without nouns has none: its query is the
    whole normalized caption.
    """
    if not text.strip():
        raise ValueError("cannot construct a query from empty text")
    if kind == "category":
        return normalize_text(text)
    if kind != "caption":
        raise ValueError(f"unknown query kind {kind!r}")

    def rarity(phrase: str):
        return (freq[phrase], -len(phrase), phrase)

    words = tokenize(text)
    phrases = chunk_noun_phrases(words, pos_tag(words, lexicon or {}))
    return min(phrases, key=rarity) if phrases else normalize_text(text)


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
