"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and sizes: the same arguments
write byte-identical files. Words are pseudo-words built from syllables, so
the lexicon, the snapshots and the corpora share one vocabulary without any
external data. Floats are rounded to six decimals to keep the JSONL inputs
compact; the program reads them as float64 either way.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "kr", "st", "pl")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "s", "k", "x", "th")

DETERMINERS = ("a", "the")
NUMBERS = ("two", "three", "four", "five")
PREPOSITIONS = ("on", "in", "near", "with", "under", "beside", "behind", "of")
FUNCTION_TAGS = {
    **{w: "DET" for w in ("a", "an", "the")},
    **{w: "NUM" for w in NUMBERS},
    **{w: "OTHER" for w in PREPOSITIONS + ("and", "is", "that", "which", "for", "by", "or")},
}


def pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """``n`` distinct pronounceable words not already in ``taken`` (which grows)."""
    out = []
    while len(out) < n:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3))
        ) + rng.choice(_CODAS)
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def write_lexicon(path: Path, nouns: list[str], adjectives: list[str], others: list[str]) -> None:
    tags = dict(FUNCTION_TAGS)
    tags.update({w: "ADJ" for w in adjectives})
    tags.update({w: "OTHER" for w in others})
    # Half of the nouns are listed explicitly; the rest rely on the NOUN default.
    tags.update({w: "NOUN" for w in nouns[::2]})
    lines = [f"{word}\t{tag}" for word, tag in sorted(tags.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _vec(x: np.ndarray) -> list[float]:
    return [round(float(v), 6) for v in x]


def _sentence(rng: random.Random, pool: list[str], lo: int, hi: int) -> str:
    return "a " + " ".join(rng.choice(pool) for _ in range(rng.randint(lo, hi)))


class Vocabulary:
    """Nouns, adjectives and plain words shared by one workload's files."""

    def __init__(self, rng: random.Random, n_nouns: int, n_adjectives: int, n_others: int):
        taken = set(FUNCTION_TAGS)
        self.nouns = pseudo_words(rng, n_nouns, taken)
        self.adjectives = pseudo_words(rng, n_adjectives, taken)
        self.others = pseudo_words(rng, n_others, taken)

    def gloss(self, rng: random.Random, lo: int = 6, hi: int = 16) -> str:
        """A definition phrased in plain words and other nouns."""
        return _sentence(rng, self.others + self.nouns, lo, hi)


def captions(rng: random.Random, vocab: Vocabulary, n: int) -> list[tuple[str, str]]:
    """``n`` distinct (caption, head noun) pairs.

    Shapes mix adjective phrases, counted nouns and two-noun compounds, so
    the chunker emits multi-word phrases and the lookup fallback chain
    (exact phrase, determiner stripped, head noun) runs on every source.
    """
    nouns, adjs = vocab.nouns, vocab.adjectives
    seen: set[str] = set()
    out = []
    while len(out) < n:
        head, other = rng.choice(nouns), rng.choice(nouns)
        det, det2, prep = rng.choice(DETERMINERS), rng.choice(DETERMINERS), rng.choice(PREPOSITIONS)
        shape = rng.randrange(4)
        if shape == 0:
            text = f"{det} {rng.choice(adjs)} {head} {prep} {det2} {other}"
        elif shape == 1:
            text = f"{rng.choice(NUMBERS)} {head} {prep} {det2} {rng.choice(adjs)} {other}"
        elif shape == 2:
            text = f"{det} {rng.choice(nouns)} {head} {prep} {det2} {other}"
        else:
            text = f"{det} {rng.choice(adjs)} {rng.choice(adjs)} {head}"
        if text not in seen:
            seen.add(text)
            out.append((text, head))
    return out


def wiktionary_rows(rng: random.Random, vocab: Vocabulary, terms: list[str]) -> list[dict]:
    return [
        {"term": t, "senses": [vocab.gloss(rng)] + ([vocab.gloss(rng)] if rng.random() < 0.3 else [])}
        for t in terms
    ]


def wordnet_rows(rng: random.Random, vocab: Vocabulary, leaves: list[str], depth: int, width: int) -> list[dict]:
    """A hypernym tree ``depth`` levels deep with ``width`` synsets per level.

    Every leaf noun hangs below a random synset of the deepest levels, so
    hypernym paths run ``depth`` to ``depth + 1`` hops, under the loader's cap.
    Some leaves also carry a two-word lemma, which the lemma index matches
    before falling back to the head noun.
    """
    taken = set(FUNCTION_TAGS) | set(vocab.nouns) | set(vocab.adjectives) | set(vocab.others)
    rows = [{"id": "n0", "lemmas": ["entity"], "definition": "that which exists", "hypernym_ids": []}]
    levels = [["n0"]]
    for level in range(1, depth):
        ids = []
        for name in pseudo_words(rng, width, taken):
            sid = f"n{len(rows)}"
            rows.append(
                {
                    "id": sid,
                    "lemmas": [name],
                    "definition": vocab.gloss(rng),
                    "hypernym_ids": [rng.choice(levels[level - 1])],
                }
            )
            ids.append(sid)
        levels.append(ids)
    deep = [sid for level in levels[-3:] for sid in level]
    for noun in leaves:
        lemmas = [noun]
        if rng.random() < 0.2:
            lemmas.append(f"{rng.choice(vocab.adjectives)}_{noun}")
        rows.append(
            {
                "id": f"n{len(rows)}",
                "lemmas": lemmas,
                "definition": vocab.gloss(rng),
                "hypernym_ids": [rng.choice(deep)],
            }
        )
    return rows


def _prototypes(nprng: np.random.Generator, names: list[str], dim: int) -> dict[str, np.ndarray]:
    protos = nprng.normal(size=(len(names), dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    return dict(zip(names, protos))


def caption_inputs(out: Path, seed: int, n_captions: int, n_classes: int, per_class: int,
                   image_dim: int = 16) -> None:
    """Caption corpus, lexicon, Wiktionary (~75 % of nouns), classes, templates, eval images."""
    rng = random.Random(f"caption-{seed}")
    nprng = np.random.default_rng([seed, 1])
    vocab = Vocabulary(rng, n_nouns=240, n_adjectives=60, n_others=120)
    protos = _prototypes(nprng, vocab.nouns, image_dim)
    rows = []
    for text, head in captions(rng, vocab, n_captions):
        image = protos[head] + 0.3 * nprng.normal(size=image_dim)
        rows.append({"image": _vec(image), "text": text, "kind": "caption"})
    write_jsonl(out / "captions.jsonl", rows)
    write_lexicon(out / "lexicon.tsv", vocab.nouns, vocab.adjectives, vocab.others)
    defined = [n for n in vocab.nouns if rng.random() < 0.75]
    write_jsonl(out / "wiktionary.jsonl", wiktionary_rows(rng, vocab, defined))
    classes = rng.sample(vocab.nouns, n_classes)
    (out / "classes.json").write_text(json.dumps(classes) + "\n", encoding="utf-8")
    templates = ["a photo of a {}", "a blurry photo of the {}", "a close view of a {}", "{} in the wild"]
    (out / "templates.txt").write_text("\n".join(templates) + "\n", encoding="utf-8")
    evals = []
    for label, name in enumerate(classes):
        for _ in range(per_class):
            evals.append({"image": _vec(protos[name] + 0.3 * nprng.normal(size=image_dim)), "label": label})
    write_jsonl(out / "eval_images.jsonl", evals)


def _region_rows(nprng: np.random.Generator, protos: np.ndarray, n_images: int, m: int, prefix: str) -> list[dict]:
    k, dim = protos.shape
    rows = []
    for i in range(n_images):
        cats = nprng.integers(0, k, size=m)
        background = nprng.random(m) < 0.15
        targets = np.zeros((m, k), dtype=int)
        features = np.empty((m, dim))
        for r in range(m):
            if background[r]:
                features[r] = 0.5 * nprng.normal(size=dim)
            else:
                targets[r, cats[r]] = 1
                features[r] = protos[cats[r]] + 0.3 * nprng.normal(size=dim)
        rows.append(
            {
                "image_id": f"{prefix}{i:05d}",
                "features": [_vec(f) for f in features],
                "targets": targets.tolist(),
            }
        )
    return rows


def grounding_inputs(out: Path, seed: int, k: int, r_train: int, r_eval: int, m: int,
                     dim: int = 32) -> None:
    """K category names, a Wiktionary for ~90 % of them, train and eval region sets."""
    rng = random.Random(f"grounding-{seed}")
    nprng = np.random.default_rng([seed, 2])
    vocab = Vocabulary(rng, n_nouns=k, n_adjectives=10, n_others=80)
    (out / "classes.json").write_text(json.dumps(vocab.nouns) + "\n", encoding="utf-8")
    defined = [n for n in vocab.nouns if rng.random() < 0.9]
    write_jsonl(out / "wiktionary.jsonl", wiktionary_rows(rng, vocab, defined))
    protos = nprng.normal(size=(k, dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    write_jsonl(out / "regions_train.jsonl", _region_rows(nprng, protos, r_train, m, "train"))
    write_jsonl(out / "regions_eval.jsonl", _region_rows(nprng, protos, r_eval, m, "eval"))


def lexical_inputs(out: Path, seed: int, n_captions: int, n_nouns: int, wn_depth: int,
                   wn_width: int, image_dim: int = 4) -> None:
    """Large caption corpus with category rows, lexicon, deep WordNet, Wiktionary, query list.

    WordNet covers ~80 % of the nouns and Wiktionary ~70 %, so every source
    misses on some queries and walks its whole fallback chain.
    """
    rng = random.Random(f"lexical-{seed}")
    nprng = np.random.default_rng([seed, 3])
    vocab = Vocabulary(rng, n_nouns=n_nouns, n_adjectives=max(20, n_nouns // 8), n_others=200)
    rows = []
    for text, _ in captions(rng, vocab, n_captions):
        rows.append({"image": _vec(nprng.normal(size=image_dim)), "text": text, "kind": "caption"})
    for noun in rng.sample(vocab.nouns, n_captions // 10):
        rows.append({"image": _vec(nprng.normal(size=image_dim)), "text": noun, "kind": "category"})
    write_jsonl(out / "corpus.jsonl", rows)
    write_lexicon(out / "lexicon.tsv", vocab.nouns, vocab.adjectives, vocab.others)
    wn_leaves = [n for n in vocab.nouns if rng.random() < 0.8]
    write_jsonl(out / "wordnet.jsonl", wordnet_rows(rng, vocab, wn_leaves, wn_depth, wn_width))
    wiki_terms = [n for n in vocab.nouns if rng.random() < 0.7]
    write_jsonl(out / "wiktionary.jsonl", wiktionary_rows(rng, vocab, wiki_terms))
    query_list = vocab.nouns + [f"the {n}" for n in vocab.nouns[::3]] + [
        f"{rng.choice(vocab.adjectives)} {n}" for n in vocab.nouns[1::3]
    ]
    (out / "queries.txt").write_text("\n".join(query_list) + "\n", encoding="utf-8")
