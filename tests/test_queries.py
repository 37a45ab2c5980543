import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexivis.queries import (
    build_frequency_table,
    chunk_noun_phrases,
    construct_query,
    iter_queries,
    TAGS,
    load_lexicon,
    normalize_text,
    pos_tag,
    tokenize,
)
from lexivis.trainer import Triplet


class TestTokenize:
    def test_case_and_punctuation(self):
        assert tokenize("Professional boxer!") == ["professional", "boxer"]

    def test_empty(self):
        assert tokenize("") == []

    def test_simple(self):
        assert tokenize("the crowd") == ["the", "crowd"]

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("hello , - world.") == ["hello", "world"]


class TestPosTag:
    def test_lexicon_lookup(self):
        tags = pos_tag(["professional", "boxer"], {"professional": "ADJ", "boxer": "NOUN"})
        assert tags == ["ADJ", "NOUN"]

    def test_determiner(self):
        assert pos_tag(["the"], {"the": "DET"})[0] == "DET"

    def test_unknown_defaults_to_noun(self):
        assert pos_tag(["zzzword"], {})[0] == "NOUN"

    def test_lexicon_entry_is_keyed_by_its_token(self, tmp_path):
        # pos_tag looks up "dr", the token tokenize makes of "Dr.", never "dr.".
        path = tmp_path / "lexicon.tsv"
        path.write_text("Dr.\tOTHER\n")
        lexicon = load_lexicon(path)
        assert lexicon == {"dr": "OTHER"}
        assert pos_tag(tokenize("Dr. Smith"), lexicon) == ["OTHER", "NOUN"]

    def test_lexicon_holds_the_tag_constants(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("the\tdet\nboxer\t NOUN\nfast\tADJ\n")
        lexicon = load_lexicon(path)
        assert lexicon == {"the": "DET", "boxer": "NOUN", "fast": "ADJ"}
        assert all(any(tag is member for member in TAGS) for tag in lexicon.values())


def _chunk(sentence, lexicon):
    words = tokenize(sentence)
    return chunk_noun_phrases(words, pos_tag(words, lexicon))


class TestChunker:
    def test_published_example(self, lexicon):
        phrases = _chunk("professional boxer is introduced to the crowd", lexicon)
        assert phrases == ["professional boxer", "boxer", "the crowd", "crowd"]

    def test_all_other_yields_nothing(self, lexicon):
        assert _chunk("is to of", lexicon) == []

    def test_adj_num_noun(self, lexicon):
        phrases = _chunk("red 7 apples", lexicon)
        assert set(phrases) == {"red 7 apples", "apples"}

    def test_noun_run_is_single_chunk(self):
        assert chunk_noun_phrases(["street", "dog"], ["NOUN", "NOUN"]) == ["street dog"]

    def test_det_without_noun_is_skipped(self):
        assert chunk_noun_phrases(["the", "old", "ran"], ["DET", "ADJ", "OTHER"]) == []

    @settings(max_examples=60, deadline=None)
    @given(
        tags=st.lists(st.sampled_from(["NOUN", "ADJ", "NUM", "DET", "OTHER"]), min_size=0, max_size=12)
    )
    def test_soundness(self, tags):
        words = [f"w{i}" for i in range(len(tags))]
        for phrase in chunk_noun_phrases(words, tags):
            indices = [int(word[1:]) for word in phrase.split(" ")]
            assert indices == list(range(indices[0], indices[-1] + 1))
            assert tags[indices[-1]] == "NOUN"
            assert all(tags[i] != "OTHER" for i in indices)
        # Every NOUN lies in a match: a caption has a phrase exactly when it has a noun.
        assert bool(chunk_noun_phrases(words, tags)) == ("NOUN" in tags)


class TestFrequencyTable:
    def test_enumeration(self, lexicon):
        table = build_frequency_table(["a dog", "a dog", "a cat"], lexicon)
        assert table == {"a dog": 2, "dog": 2, "a cat": 1, "cat": 1}

    def test_no_phrases(self, lexicon):
        table = build_frequency_table(["is to of"], lexicon)
        assert table == {}

    def test_linearity(self, lexicon):
        table = build_frequency_table(["a big dog"] * 5, lexicon)
        assert set(table.values()) == {5}

    def test_empty_corpus_ranks_like_no_table(self, lexicon):
        table = build_frequency_table([], lexicon)
        assert table == {}
        assert construct_query("a dog and a cat", "caption", table, lexicon) == "a cat"


class TestConstructQuery:
    def test_category_identity(self):
        assert construct_query("tench", "category") == "tench"

    def test_category_lowercases(self):
        assert construct_query("Tench", "category") == "tench"

    def test_category_is_normalized_like_snapshot_keys(self):
        assert construct_query("Hot  Dog", "category") == "hot dog"

    def test_normalized_text_comes_back_as_itself(self):
        text = " ".join(["hot", "dog"])  # built at run time, not a shared constant
        assert normalize_text(text) is text
        raw = "Hot  Dog"
        assert normalize_text(raw) == "hot dog" and normalize_text(raw) is not raw
        assert normalize_text("hot dog ") == "hot dog"

    def test_rarest_phrase_wins(self, lexicon):
        freq = Counter({"professional boxer": 1, "boxer": 9, "the crowd": 4, "crowd": 12})
        q = construct_query("professional boxer is introduced to the crowd", "caption", freq, lexicon)
        assert q == "professional boxer"

    def test_no_phrase_falls_back_to_caption(self, lexicon):
        q = construct_query("is to of", "caption", Counter(), lexicon)
        assert q == "is to of"

    def test_empty_text_errors(self):
        with pytest.raises(ValueError):
            construct_query("   ", "category")

    def test_unknown_kind_errors(self):
        with pytest.raises(ValueError):
            construct_query("x", "tag")

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.dictionaries(
            st.sampled_from(["a dog", "dog", "a cat", "cat", "big dog", "street"]),
            st.integers(min_value=0, max_value=9),
            min_size=0,
            max_size=6,
        )
    )
    def test_rarity_argmin_brute_force(self, lexicon, counts):
        caption = "a dog and a cat on the street"
        freq = Counter({k: v for k, v in counts.items() if v > 0})
        q = construct_query(caption, "caption", freq, lexicon)
        phrases = _chunk(caption, lexicon)
        assert q in phrases
        assert freq[q] == min(freq[p] for p in phrases)

    def test_tie_break_longer_then_lexicographic(self, lexicon):
        freq = Counter()
        q = construct_query("a dog and a cat", "caption", freq, lexicon)
        # all counts 0; "a dog" and "a cat" tie on length, lexicographic wins
        assert q == "a cat"

    def test_corpus_permutation_invariance(self, lexicon):
        captions = ["a dog", "a cat", "a dog and a cat", "the street dog"]
        results = set()
        for perm in itertools.permutations(captions):
            freq = build_frequency_table(list(perm), lexicon)
            results.add(construct_query("a dog and a cat on the street", "caption", freq, lexicon))
        assert len(results) == 1


class TestIterQueries:
    def test_captions_ranked_over_the_whole_corpus(self, lexicon):
        rows = [
            Triplet(image=None, text="a dog and a cat", kind="caption"),
            Triplet(image=None, text="a dog", kind="caption"),
            Triplet(image=None, text="Tench", kind="category"),
        ]
        assert [(row.text, q) for row, q in iter_queries(rows, lexicon)] == [
            ("a dog and a cat", "a cat"),
            ("a dog", "a dog"),
            ("Tench", "tench"),
        ]

    def test_reads_the_source_twice(self, lexicon):
        class Source:
            passes = 0

            def __iter__(self):
                Source.passes += 1
                return iter([Triplet(image=None, text="a dog", kind="caption")])

        assert [q for _, q in iter_queries(Source(), lexicon)] == ["a dog"]
        assert Source.passes == 2

    def test_one_shot_iterator_rejected(self, lexicon):
        rows = iter([Triplet(image=None, text="a dog", kind="caption")])
        with pytest.raises(TypeError, match="re-iterable"):
            next(iter_queries(rows, lexicon))
