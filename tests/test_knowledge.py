import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexivis import knowledge
from lexivis.errors import DataError
from lexivis.knowledge import (
    Dictionary,
    DictionaryEntry,
    KnowledgeItem,
    KnowledgeStore,
    SynsetRecord,
    WordNetGraph,
    atomic_open,
    finite_array,
    iter_jsonl,
    knowledge_coverage,
    load_wordnet_snapshot,
    load_wiktionary_snapshot,
    read_lines,
)

BOXER_CHAIN = [
    {"id": "b", "lemmas": ["boxer"], "definition": "someone who fights with his fists for sport", "hypernym_ids": ["c"]},
    {"id": "c", "lemmas": ["combatant"], "definition": "someone who fights", "hypernym_ids": ["p"]},
    {"id": "p", "lemmas": ["person"], "definition": "a human being", "hypernym_ids": ["ca"]},
    {"id": "ca", "lemmas": ["causal_agent"], "definition": "produces an effect", "hypernym_ids": ["pe"]},
    {"id": "pe", "lemmas": ["physical_entity"], "definition": "has physical existence", "hypernym_ids": ["e"]},
    {"id": "e", "lemmas": ["entity"], "definition": "that which exists", "hypernym_ids": []},
]


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def _synset(sid, parent=None):
    return {"id": sid, "lemmas": [f"w{sid}"], "definition": "x",
            "hypernym_ids": [] if parent is None else [parent]}


def _chain(ids):
    """Synset rows for a first-hypernym chain, from ``ids[0]`` up to the root ``ids[-1]``."""
    return [_synset(sid, parent) for sid, parent in zip(ids, [*ids[1:], None])]


def _chain_error(path, sid):
    return rf"^{path}: hypernym chain from '{sid}' exceeds 32 hops \(cycle\?\)$"


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    """One file path for the examples of a property test to overwrite in turn."""
    return tmp_path_factory.mktemp("rows") / "rows.jsonl"


class TestLoadWordnet:
    def test_single_root(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [{"id": "n1", "lemmas": ["entity"], "definition": "that which exists", "hypernym_ids": []}])
        graph = load_wordnet_snapshot(path)
        assert len(graph) == 1
        assert graph.lookup("entity").definition == "that which exists"

    def test_boxer_chain_is_six_synsets(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, BOXER_CHAIN)
        assert len(load_wordnet_snapshot(path)) == 6

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        rows = [
            {"id": "n1", "lemmas": ["a"], "definition": "x", "hypernym_ids": []},
            {"id": "n2", "definition": "x", "hypernym_ids": []},
        ]
        _write_jsonl(path, rows)
        with pytest.raises(DataError, match=":2"):
            load_wordnet_snapshot(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        path.write_text('{"id": "n1", "lemmas": ["a"], "definition": "x", "hypernym_ids": []}\nnot json\n')
        with pytest.raises(DataError, match=":2"):
            load_wordnet_snapshot(path)

    # 5 raised a TypeError; the string "n0" was read as the ids "n" and "0".
    @pytest.mark.parametrize("hypernym_ids", [5, "n0", None, {"n0": 1}])
    def test_hypernym_ids_must_be_a_list(self, tmp_path, hypernym_ids):
        path = tmp_path / "wn.jsonl"
        rows = [
            {"id": "n0", "lemmas": ["a"], "definition": "x", "hypernym_ids": []},
            {"id": "n1", "lemmas": ["b"], "definition": "x", "hypernym_ids": hypernym_ids},
        ]
        _write_jsonl(path, rows)
        with pytest.raises(DataError, match=f"{path}:2: hypernym_ids must be a list"):
            load_wordnet_snapshot(path)

    def test_snapshot_errors_name_the_file(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [{"id": "n1", "lemmas": ["a"], "definition": "x", "hypernym_ids": ["n9"]}])
        with pytest.raises(DataError, match=f"{path}: synset 'n1' references unknown"):
            load_wordnet_snapshot(path)

    def test_dangling_hypernym_names_id(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [{"id": "n1", "lemmas": ["a"], "definition": "x", "hypernym_ids": ["ghost"]}])
        with pytest.raises(DataError, match="ghost"):
            load_wordnet_snapshot(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        row = {"id": "n1", "lemmas": ["a"], "definition": "x", "hypernym_ids": []}
        _write_jsonl(path, [row, row])
        with pytest.raises(DataError, match="duplicate"):
            load_wordnet_snapshot(path)

    def test_cycle_is_found_at_load_naming_the_file(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        rows = [
            {"id": "n0", "lemmas": ["root"], "definition": "x", "hypernym_ids": []},
            {"id": "n3", "lemmas": ["c"], "definition": "x", "hypernym_ids": ["n1"]},
            {"id": "n2", "lemmas": ["b"], "definition": "x", "hypernym_ids": ["n1"]},
            {"id": "n1", "lemmas": ["a"], "definition": "x", "hypernym_ids": ["n2", "n0"]},
        ]
        _write_jsonl(path, rows)
        # n3 only leads into the cycle, and is the first such synset in the file.
        with pytest.raises(
            DataError, match=rf"^{path}: hypernym chain from 'n3' exceeds 32 hops \(cycle\?\)$"
        ):
            load_wordnet_snapshot(path)

    @pytest.mark.parametrize("n", [32, 33])
    def test_chain_cap_at_load_matches_hypernym_path(self, tmp_path, n):
        rows = [
            {"id": f"s{i}", "lemmas": [f"w{i}"], "definition": "x",
             "hypernym_ids": [f"s{i + 1}"] if i + 1 < n else []}
            for i in reversed(range(n))
        ]
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, rows)
        graph = WordNetGraph([
            SynsetRecord(r["id"], tuple(r["lemmas"]), "", tuple(r["hypernym_ids"])) for r in rows
        ])
        if n == 32:
            assert len(graph.hypernym_path(graph.synsets["s0"])) == 32
            assert len(load_wordnet_snapshot(path)) == 32
        else:
            with pytest.raises(DataError, match="'s0' exceeds 32 hops"):
                graph.hypernym_path(graph.synsets["s0"])
            with pytest.raises(DataError, match=f"^{path}: hypernym chain from 's0'"):
                load_wordnet_snapshot(path)

    @pytest.mark.parametrize("order", ["root-first", "leaf-first"])
    @pytest.mark.parametrize("n", [32, 33])
    def test_chain_cap_holds_in_either_file_order(self, tmp_path, n, order):
        rows = _chain([f"s{i}" for i in range(n)])
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, rows[::-1] if order == "root-first" else rows)
        if n == 32:
            assert len(load_wordnet_snapshot(path)) == 32
        else:
            with pytest.raises(DataError, match=_chain_error(path, "s0")):
                load_wordnet_snapshot(path)

    def test_cycle_reached_through_earlier_synsets_names_the_first(self, tmp_path):
        # t and u lead into the cycle a -> b -> a and are listed before it.
        rows = [_synset("t", "u"), _synset("u", "a"), _synset("root"), _synset("a", "b"),
                _synset("b", "a")]
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, rows)
        with pytest.raises(DataError, match=_chain_error(path, "t")):
            load_wordnet_snapshot(path)

    def test_long_chain_over_an_upper_part_checked_through_a_sibling(self, tmp_path):
        # "a" checks u1..u30 (31 synsets with it); "b3" joins u1 three links down: 33.
        upper = _chain([f"u{i}" for i in range(1, 31)])
        lower = [_synset("b3", "b2"), _synset("b2", "b1"), _synset("b1", "u1")]
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [_synset("a", "u1"), *upper, *lower])
        with pytest.raises(DataError, match=_chain_error(path, "b3")):
            load_wordnet_snapshot(path)
        _write_jsonl(path, [_synset("a", "u1"), *upper, *lower[1:]])  # b2 has 32
        assert len(load_wordnet_snapshot(path)) == 33

    # Under a cap of 3, graphs of a few synsets have long chains and cycles often.
    @settings(max_examples=150, deadline=None)
    @given(parents=st.lists(st.one_of(st.none(), st.integers(0, 7)), min_size=1, max_size=8))
    def test_load_refuses_the_synset_hypernym_path_refuses_first(self, scratch_file, parents):
        rows = [_synset(f"n{i}", None if p is None or p >= len(parents) else f"n{p}")
                for i, p in enumerate(parents)]
        _write_jsonl(scratch_file, rows)
        reference = WordNetGraph([
            SynsetRecord(r["id"], tuple(r["lemmas"]), "x", tuple(r["hypernym_ids"])) for r in rows
        ])
        with mock.patch.object(knowledge, "MAX_HYPERNYM_HOPS", 3):
            expected = got = None
            for rec in reference.synsets.values():  # the check, one hypernym_path per synset
                try:
                    reference.hypernym_path(rec)
                except DataError as exc:
                    expected = f"{scratch_file}: {exc}"
                    break
            try:
                load_wordnet_snapshot(scratch_file)
            except DataError as exc:
                got = str(exc)
        assert got == expected

    def test_lemma_with_a_space_is_indexed_like_its_lookup(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [
            {"id": "n0", "lemmas": ["Causal Agent"], "definition": "a cause", "hypernym_ids": []},
        ])
        graph = load_wordnet_snapshot(path)
        assert graph.lookup("causal  agent").id == "n0"
        assert graph.lookup("the causal_agent").id == "n0"
        # Only the key gets underscores; the stored lemma is normalized like the query.
        assert KnowledgeStore(wordnet=graph).retrieve("causal agent", "wn_hier").text == (
            "causal agent"
        )

    def test_stored_lemma_is_normalized_like_its_key(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [
            {"id": "b", "lemmas": ["Boxer  "], "definition": "fights", "hypernym_ids": ["c"]},
            {"id": "c", "lemmas": ["causal  agent"], "definition": "a cause", "hypernym_ids": []},
        ])
        graph = load_wordnet_snapshot(path)
        assert [rec.lemmas for rec in graph.synsets.values()] == [("boxer",), ("causal agent",)]
        assert KnowledgeStore(wordnet=graph).retrieve("boxer", "wn_hier").text == (
            "boxer, causal agent"
        )

    # Ids of more than one character: CPython shares one-character strings anyway.
    ONE_STRING_ROWS = [
        {"id": "n.boxer", "lemmas": ["boxer"], "definition": "fights", "hypernym_ids": ["n.person"]},
        {"id": "n.person", "lemmas": ["Person "], "definition": "a human", "hypernym_ids": []},
        {"id": "n.kickboxer", "lemmas": ["kickboxer", "kick boxer"], "definition": "kicks",
         "hypernym_ids": ["n.boxer", "n.person"]},
    ]

    def test_hypernym_id_is_the_named_synset_id(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, self.ONE_STRING_ROWS)
        graph = load_wordnet_snapshot(path)
        hypernym_ids = [hid for rec in graph.synsets.values() for hid in rec.hypernym_ids]
        assert hypernym_ids == ["n.person", "n.boxer", "n.person"]
        assert all(hid is graph.synsets[hid].id for hid in hypernym_ids)

    def test_space_free_lemma_is_its_index_key(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, self.ONE_STRING_ROWS)
        graph = load_wordnet_snapshot(path)
        keys = {key: key for key in graph.lemma_index}
        lemmas = [lemma for rec in graph.synsets.values() for lemma in rec.lemmas if " " not in lemma]
        assert lemmas == ["boxer", "person", "kickboxer"]
        assert all(keys[lemma] is lemma for lemma in lemmas)

    def test_first_listed_synset_wins_lemma_ties(self):
        records = [
            SynsetRecord("n1", ("bank",), "river bank", ()),
            SynsetRecord("n2", ("bank",), "money bank", ()),
        ]
        graph = WordNetGraph(records)
        assert graph.lookup("bank").id == "n1"


class TestWordnetRetrieval:
    def test_boxer_hierarchy_matches_published_example(self, store):
        item = store.retrieve("boxer", "wn_hier")
        assert item.text == "boxer, combatant, person, causal_agent, physical_entity, entity"
        assert item.source == "wn_hier"

    def test_root_hierarchy_is_itself(self, store):
        assert store.retrieve("entity", "wn_hier").text == "entity"

    def test_unknown_query_returns_none(self, store):
        assert store.retrieve("zzzunknown", "wn_hier") is None
        assert store.retrieve("zzzunknown", "wn_def") is None

    def test_boxer_definition(self, store):
        assert store.retrieve("boxer", "wn_def").text == "someone who fights with his fists for sport"

    def test_entity_definition_reads_back_fixture(self, store):
        assert store.retrieve("entity", "wn_def").text == "that which exists"

    def test_multiword_lemma_lookup_uses_underscores(self, store):
        item = store.retrieve("causal agent", "wn_def")
        assert item.text == "any entity that produces an effect or is responsible for events or results"

    def test_head_noun_fallback(self, store):
        expected = store.retrieve("crowd", "wn_def").text
        assert store.retrieve("the angry crowd", "wn_def").text == expected

    def test_cycle_guard_raises(self):
        records = [
            SynsetRecord("a", ("alpha",), "", ("b",)),
            SynsetRecord("b", ("beta",), "", ("a",)),
        ]
        graph = WordNetGraph(records)
        with pytest.raises(DataError, match="32"):
            KnowledgeStore(wordnet=graph).retrieve("alpha", "wn_hier")

    def test_long_acyclic_chain_within_cap_is_fine(self):
        n = 32
        records = [
            SynsetRecord(f"s{i}", (f"w{i}",), "", (f"s{i+1}",) if i + 1 < n else ())
            for i in range(n)
        ]
        graph = WordNetGraph(records)
        assert KnowledgeStore(wordnet=graph).retrieve("w0", "wn_hier").text.count(",") == n - 1


class TestWiktionary:
    def test_boxer_first_sense(self, store):
        assert store.retrieve("boxer", "wiki_def").text == "a participant (fighter) in a boxing match"

    def test_determiner_strip_fallback(self, store):
        expected = store.retrieve("crowd", "wiki_def").text
        assert store.retrieve("the crowd", "wiki_def").text == expected

    def test_head_noun_fallback(self, store):
        expected = store.retrieve("boxer", "wiki_def").text
        assert store.retrieve("professional boxer", "wiki_def").text == expected

    def test_miss_returns_none(self, store):
        assert store.retrieve("zzzunknown", "wiki_def") is None

    def test_load_errors(self, tmp_path):
        path = tmp_path / "wk.jsonl"
        _write_jsonl(path, [{"term": "x", "senses": []}])
        with pytest.raises(DataError, match="senses"):
            load_wiktionary_snapshot(path)

    def test_term_is_keyed_like_its_lookup(self):
        dictionary = Dictionary([DictionaryEntry(" Hot  Dog", ("a sausage",))])
        assert list(dictionary.entries) == ["hot dog"]
        assert dictionary.lookup("a hot dog").senses == ("a sausage",)
        assert dictionary.lookup("") is None

    def test_normalized_term_is_its_own_key(self, tmp_path):
        path = tmp_path / "wk.jsonl"
        _write_jsonl(path, [{"term": "hot dog", "senses": ["a sausage"]},
                            {"term": " Boxer", "senses": ["a fighter"]}])
        entries = load_wiktionary_snapshot(path).entries
        assert [(key, entry.term) for key, entry in entries.items()] == [
            ("hot dog", "hot dog"), ("boxer", " Boxer")]
        assert next(iter(entries)) is entries["hot dog"].term

    @pytest.mark.parametrize("term", ["", " \t"])
    def test_blank_term_is_refused(self, tmp_path, term):
        path = tmp_path / "wk.jsonl"
        _write_jsonl(path, [{"term": "x", "senses": ["y"]}, {"term": term, "senses": ["z"]}])
        with pytest.raises(DataError, match=f"^{path}:2: term is blank$"):
            load_wiktionary_snapshot(path)


class TestRetrieveChecks:
    def test_records_are_frozen_and_hold_no_dict(self, store):
        records = [store.wordnet.lookup("boxer"), store.wiktionary.lookup("boxer"),
                   store.retrieve("boxer", "wn_def")]
        assert [type(rec) for rec in records] == [SynsetRecord, DictionaryEntry, KnowledgeItem]
        for rec in records:
            assert not hasattr(rec, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, dataclasses.fields(rec)[0].name, "boxer")
    def test_unknown_source_raises_before_the_snapshot_check(self):
        with pytest.raises(ValueError, match="unknown knowledge source 'wn_gloss'"):
            KnowledgeStore().retrieve("boxer", "wn_gloss")

    @pytest.mark.parametrize("source", ["wn_hier", "wn_def", "wiki_def"])
    def test_a_store_without_the_source_snapshot_misses(self, wordnet_graph, wiktionary, source):
        if source == "wiki_def":
            other = KnowledgeStore(wordnet=wordnet_graph)
        else:
            other = KnowledgeStore(wiktionary=wiktionary)
        assert other.retrieve("boxer", source) is None


class TestCoverage:
    def test_full_coverage(self, store):
        assert knowledge_coverage(["boxer", "tench"], store, "wiki_def") == 1.0

    def test_half_coverage(self, store):
        assert knowledge_coverage(["boxer", "zzzunknown"], store, "wiki_def") == 0.5

    def test_zero_coverage(self, store):
        assert knowledge_coverage(["zzza", "zzzb"], store, "wn_def") == 0.0

    def test_empty_queries_error(self, store):
        with pytest.raises(ValueError):
            knowledge_coverage([], store, "wiki_def")

    @settings(max_examples=25, deadline=None)
    @given(
        terms=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5), min_size=1, max_size=8, unique=True),
        extra=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5), max_size=4, unique=True),
        queries=st.lists(st.text(alphabet="abcdefxyz", min_size=1, max_size=5), min_size=1, max_size=8),
    )
    def test_coverage_monotone_in_snapshot(self, terms, extra, queries):
        base = [DictionaryEntry(t, ("a definition",)) for t in terms]
        grown = base + [DictionaryEntry(t, ("more",)) for t in extra if t not in terms]
        small = KnowledgeStore(wiktionary=Dictionary(base))
        big = KnowledgeStore(wiktionary=Dictionary(grown))
        assert knowledge_coverage(queries, big, "wiki_def") >= knowledge_coverage(
            queries, small, "wiki_def"
        )


@pytest.mark.parametrize("load, name", [
    (load_wordnet_snapshot, "wordnet.jsonl"), (load_wiktionary_snapshot, "wiktionary.jsonl"),
])
def test_snapshot_loader_opens_its_file_once(opened_paths, load, name):
    from tests.conftest import FIXTURES

    path = FIXTURES / name
    assert len(load(path)) > 0
    assert opened_paths.count(str(path)) == 1


def test_determinism_across_reloads(tmp_path, wordnet_graph):
    from tests.conftest import FIXTURES

    again = load_wordnet_snapshot(FIXTURES / "wordnet.jsonl")
    for q in ("boxer", "entity", "crowd", "tench"):
        expected = KnowledgeStore(wordnet=wordnet_graph).retrieve(q, "wn_hier").text
        assert KnowledgeStore(wordnet=again).retrieve(q, "wn_hier").text == expected


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# json.dumps writes NaN, Infinity and -Infinity for the floats that have no JSON number.
JSON_TEXTS = st.one_of(
    st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=4), JSON_VALUES
).flatmap(lambda v: st.sampled_from([json.dumps(v), json.dumps(v, ensure_ascii=False)]))
JSONL_LINES = st.one_of(
    JSON_TEXTS,
    JSON_TEXTS.map(lambda text: "\ufeff" + text),  # a byte-order mark past the file's start
    st.tuples(JSON_TEXTS, st.sampled_from([" x", "{}", "1", "]", ' {"b": 2}', "\ufeff", ",", " NaN",
                                           "\x1c1", "\u20282"])).map("".join),  # trailing data
    st.tuples(JSON_TEXTS, st.integers(0, 30)).map(lambda a: a[0][: a[1]]),  # cut short
    st.sampled_from(['{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', '{"a": nan}', "NaN",
                     '{"a": inf}', "[" * 100_000 + "]" * 100_000, '{"a": ' + "9" * 5000 + "}"]),
    st.text(max_size=12),
).map(str.strip).filter(lambda line: line and "\n" not in line and "\r" not in line)


def _loads_outcome(where, line):
    """What ``iter_jsonl`` should make of ``line``: json.loads's object or its error message."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})"
    return obj if isinstance(obj, dict) else f"{where}: expected a JSON object"


class TestReaders:
    """The line-level contract every input file shares (``iter_jsonl``, ``read_lines``)."""

    @settings(max_examples=300, deadline=None)
    @given(line=JSONL_LINES)
    def test_a_row_reads_as_json_loads_reads_it(self, scratch_file, line):
        scratch_file.write_text('{"first": 1}\n' + line + "\n", encoding="utf-8")
        try:
            got = list(iter_jsonl(scratch_file))[1][1]
        except DataError as exc:
            got = str(exc)
        assert repr(got) == repr(_loads_outcome(f"{scratch_file}:2", line))

    def test_rows_come_with_their_location(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == [(f"{path}:1", {"a": 1}), (f"{path}:4", {"a": 2})]

    def test_first_missing_field_is_named(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1, "b": 2}\n{"c": 3}\n', encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2: missing field 'a'"):
            list(iter_jsonl(path, ("a", "b")))

    # The nesting raised RecursionError and the integer an unlocated ValueError.
    @pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "9" * 5000])
    def test_json_limits_are_located(self, tmp_path, value):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"a": ' + value + "}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2: invalid JSON"):
            list(iter_jsonl(path))

    @pytest.mark.parametrize("reader", ["jsonl", "lines"])
    def test_non_utf8_text_names_the_file(self, tmp_path, reader):
        path = tmp_path / "rows.txt"
        path.write_bytes(b'{"a": "caf\xe9"}\n')
        with pytest.raises(DataError, match=f"{path}: not UTF-8 text"):
            list(iter_jsonl(path) if reader == "jsonl" else read_lines(path))

    @pytest.mark.parametrize("content", ["", "\n  \n\t\n"])
    @pytest.mark.parametrize("reader", ["jsonl", "lines"])
    def test_file_without_a_line_is_a_data_error(self, tmp_path, reader, content):
        path = tmp_path / "rows.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}: no lines found"):
            list(iter_jsonl(path) if reader == "jsonl" else read_lines(path))

    def test_byte_order_mark_is_not_text(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_bytes(b'\xef\xbb\xbf{"a": "boxer"}\n')
        assert list(read_lines(path)) == [(f"{path}:1", '{"a": "boxer"}')]
        assert list(iter_jsonl(path)) == [(f"{path}:1", {"a": "boxer"})]

    def test_lines_are_stripped_and_located(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("  boxer \n\ncrowd\n", encoding="utf-8")
        assert list(read_lines(path)) == [(f"{path}:1", "boxer"), (f"{path}:3", "crowd")]


class TestAtomicOpen:
    def test_success_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_open(path) as handle:
            handle.write("naïve\n")
            assert path.read_text() == "old\n"  # not visible until the block ends
        assert path.read_bytes() == "naïve\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_leaves_target_untouched(self, tmp_path, existing):
        path = tmp_path / "out.txt"
        if existing:
            path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert [p.name for p in tmp_path.iterdir()] == (["out.txt"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"

    def test_block_may_read_the_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a\nb\n")
        with atomic_open(path) as handle, open(path) as source:
            for line in source:
                handle.write(line.upper())
        assert path.read_text() == "A\nB\n"


NUMBERS = st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.booleans())
ENTRIES = st.one_of(NUMBERS, st.none(), st.text(max_size=2))
FEATURE_VALUES = st.one_of(
    st.lists(st.floats(), max_size=5),
    st.integers(1, 4).flatmap(  # equal-length rows, finite or not
        lambda n: st.lists(st.lists(st.floats(), min_size=n, max_size=n), max_size=4)),
    st.lists(st.lists(st.floats(), max_size=4), max_size=4),  # ragged or empty rows
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3),
             min_size=2, max_size=3),  # finite rows, often ragged
    st.lists(ENTRIES, max_size=5),  # ints, bools, mixed, strings, null
    st.lists(st.lists(ENTRIES, max_size=3), max_size=3),
    st.lists(st.one_of(ENTRIES, st.lists(ENTRIES, max_size=2)), max_size=3),  # nested
    st.lists(st.lists(st.lists(st.floats(), max_size=2), max_size=2), max_size=2),
    ENTRIES,
)


def _numpy_outcome(value, ndim, width):
    """``finite_array`` as numpy alone checks a value: the float64 array, or the error message."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged rows
        array = np.empty(0, dtype=object)
    if (array.dtype.kind not in "biuf" or array.ndim != ndim or array.size == 0
            or not np.isfinite(array).all()):
        shape = "list" if ndim == 1 else "matrix"
        return f"row:1: v must be a non-empty {shape} of finite numbers"
    if width is not None and array.shape[-1] != width:
        return f"row:1: v width is {array.shape[-1]}, expected {width}"
    return array.astype(np.float64, copy=False)


class TestFiniteArray:
    @settings(max_examples=400, deadline=None)
    @given(value=FEATURE_VALUES, ndim=st.sampled_from([1, 2]),
           width=st.sampled_from([None, 1, 2, 3]))
    def test_checks_a_value_as_numpy_does(self, value, ndim, width):
        expected = _numpy_outcome(value, ndim, width)
        try:
            got = finite_array(value, ndim, "row:1", "v", width)
        except DataError as exc:
            assert str(exc) == expected
        else:
            assert not isinstance(expected, str), expected
            assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
    # A numeric string used to pass: the float64 cast converted "0" to 0.0.
    @pytest.mark.parametrize(
        "value", [["0", 1.0], [None, 1.0], [10**20, 1.0], [[1.0], [1.0, 2.0]], "1.5"],
        ids=["numeric_string", "null", "huge_int", "ragged", "string"],
    )
    def test_non_numbers_are_rejected(self, value):
        with pytest.raises(DataError, match="row:3: image must be"):
            finite_array(value, 1, "row:3", "image")

    def test_numbers_become_float64(self):
        array = finite_array([1, 2.5, True], 1, "row:1", "image", width=3)
        assert array.dtype == np.float64 and array.tolist() == [1.0, 2.5, 1.0]

    def test_width_is_checked_on_the_last_axis(self):
        with pytest.raises(DataError, match="row:2: features width is 2, expected 3"):
            finite_array([[1.0, 2.0]], 2, "row:2", "features", width=3)
