import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexivis.errors import DataError, SnapshotError
from lexivis.knowledge import (
    Dictionary,
    DictionaryEntry,
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
    wiki_definition,
    wn_definition,
    wn_hierarchy,
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
            {"id": "n1", "lemmas": ["a"], "definition": "", "hypernym_ids": []},
            {"id": "n2", "definition": "", "hypernym_ids": []},
        ]
        _write_jsonl(path, rows)
        with pytest.raises(SnapshotError, match=":2"):
            load_wordnet_snapshot(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        path.write_text('{"id": "n1", "lemmas": ["a"], "definition": "", "hypernym_ids": []}\nnot json\n')
        with pytest.raises(SnapshotError, match=":2"):
            load_wordnet_snapshot(path)

    # 5 raised a TypeError; the string "n0" was read as the ids "n" and "0".
    @pytest.mark.parametrize("hypernym_ids", [5, "n0", None, {"n0": 1}])
    def test_hypernym_ids_must_be_a_list(self, tmp_path, hypernym_ids):
        path = tmp_path / "wn.jsonl"
        rows = [
            {"id": "n0", "lemmas": ["a"], "definition": "", "hypernym_ids": []},
            {"id": "n1", "lemmas": ["b"], "definition": "", "hypernym_ids": hypernym_ids},
        ]
        _write_jsonl(path, rows)
        with pytest.raises(SnapshotError, match=f"{path}:2: hypernym_ids must be a list"):
            load_wordnet_snapshot(path)

    def test_snapshot_errors_name_the_file(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [{"id": "n1", "lemmas": ["a"], "definition": "", "hypernym_ids": ["n9"]}])
        with pytest.raises(SnapshotError, match=f"{path}: synset 'n1' references unknown"):
            load_wordnet_snapshot(path)

    def test_dangling_hypernym_names_id(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        _write_jsonl(path, [{"id": "n1", "lemmas": ["a"], "definition": "", "hypernym_ids": ["ghost"]}])
        with pytest.raises(SnapshotError, match="ghost"):
            load_wordnet_snapshot(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        row = {"id": "n1", "lemmas": ["a"], "definition": "", "hypernym_ids": []}
        _write_jsonl(path, [row, row])
        with pytest.raises(SnapshotError, match="duplicate"):
            load_wordnet_snapshot(path)

    def test_cycle_is_found_at_load_naming_the_file(self, tmp_path):
        path = tmp_path / "wn.jsonl"
        rows = [
            {"id": "n0", "lemmas": ["root"], "definition": "", "hypernym_ids": []},
            {"id": "n3", "lemmas": ["c"], "definition": "", "hypernym_ids": ["n1"]},
            {"id": "n2", "lemmas": ["b"], "definition": "", "hypernym_ids": ["n1"]},
            {"id": "n1", "lemmas": ["a"], "definition": "", "hypernym_ids": ["n2", "n0"]},
        ]
        _write_jsonl(path, rows)
        # n3 only leads into the cycle, and is the first such synset in the file.
        with pytest.raises(
            SnapshotError, match=rf"^{path}: hypernym chain from 'n3' exceeds 32 hops \(cycle\?\)$"
        ):
            load_wordnet_snapshot(path)

    @pytest.mark.parametrize("n", [32, 33])
    def test_chain_cap_at_load_matches_hypernym_path(self, tmp_path, n):
        rows = [
            {"id": f"s{i}", "lemmas": [f"w{i}"], "definition": "",
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
            with pytest.raises(SnapshotError, match="'s0' exceeds 32 hops"):
                graph.hypernym_path(graph.synsets["s0"])
            with pytest.raises(SnapshotError, match=f"^{path}: hypernym chain from 's0'"):
                load_wordnet_snapshot(path)

    def test_first_listed_synset_wins_lemma_ties(self):
        records = [
            SynsetRecord("n1", ("bank",), "river bank", ()),
            SynsetRecord("n2", ("bank",), "money bank", ()),
        ]
        graph = WordNetGraph(records)
        assert graph.lookup("bank").id == "n1"


class TestWordnetRetrieval:
    def test_boxer_hierarchy_matches_published_example(self, wordnet_graph):
        item = wn_hierarchy(wordnet_graph, "boxer")
        assert item.text == "boxer, combatant, person, causal_agent, physical_entity, entity"
        assert item.source == "wn_hier"

    def test_root_hierarchy_is_itself(self, wordnet_graph):
        assert wn_hierarchy(wordnet_graph, "entity").text == "entity"

    def test_unknown_query_returns_none(self, wordnet_graph):
        assert wn_hierarchy(wordnet_graph, "zzzunknown") is None
        assert wn_definition(wordnet_graph, "zzzunknown") is None

    def test_boxer_definition(self, wordnet_graph):
        assert wn_definition(wordnet_graph, "boxer").text == "someone who fights with his fists for sport"

    def test_entity_definition_reads_back_fixture(self, wordnet_graph):
        assert wn_definition(wordnet_graph, "entity").text == "that which exists"

    def test_multiword_lemma_lookup_uses_underscores(self, wordnet_graph):
        item = wn_definition(wordnet_graph, "causal agent")
        assert item.text == "any entity that produces an effect or is responsible for events or results"

    def test_head_noun_fallback(self, wordnet_graph):
        assert wn_definition(wordnet_graph, "the angry crowd").text == wn_definition(wordnet_graph, "crowd").text

    def test_cycle_guard_raises(self):
        records = [
            SynsetRecord("a", ("alpha",), "", ("b",)),
            SynsetRecord("b", ("beta",), "", ("a",)),
        ]
        graph = WordNetGraph(records)
        with pytest.raises(SnapshotError, match="32"):
            wn_hierarchy(graph, "alpha")

    def test_long_acyclic_chain_within_cap_is_fine(self):
        n = 32
        records = [
            SynsetRecord(f"s{i}", (f"w{i}",), "", (f"s{i+1}",) if i + 1 < n else ())
            for i in range(n)
        ]
        graph = WordNetGraph(records)
        assert wn_hierarchy(graph, "w0").text.count(",") == n - 1


class TestWiktionary:
    def test_boxer_first_sense(self, wiktionary):
        assert wiki_definition(wiktionary, "boxer").text == "a participant (fighter) in a boxing match"

    def test_determiner_strip_fallback(self, wiktionary):
        expected = wiki_definition(wiktionary, "crowd").text
        assert wiki_definition(wiktionary, "the crowd").text == expected

    def test_head_noun_fallback(self, wiktionary):
        expected = wiki_definition(wiktionary, "boxer").text
        assert wiki_definition(wiktionary, "professional boxer").text == expected

    def test_miss_returns_none(self, wiktionary):
        assert wiki_definition(wiktionary, "zzzunknown") is None

    def test_load_errors(self, tmp_path):
        path = tmp_path / "wk.jsonl"
        _write_jsonl(path, [{"term": "x", "senses": []}])
        with pytest.raises(SnapshotError, match="senses"):
            load_wiktionary_snapshot(path)


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


def test_determinism_across_reloads(tmp_path, wordnet_graph):
    from tests.conftest import FIXTURES

    again = load_wordnet_snapshot(FIXTURES / "wordnet.jsonl")
    for q in ("boxer", "entity", "crowd", "tench"):
        assert wn_hierarchy(again, q).text == wn_hierarchy(wordnet_graph, q).text
    assert again.digest == wordnet_graph.digest


class TestReaders:
    """The line-level contract every input file shares (``iter_jsonl``, ``read_lines``)."""

    def test_rows_come_with_their_location(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n', encoding="utf-8")
        assert list(iter_jsonl(path, DataError)) == [(f"{path}:1", {"a": 1}), (f"{path}:4", {"a": 2})]

    def test_first_missing_field_is_named(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1, "b": 2}\n{"c": 3}\n', encoding="utf-8")
        with pytest.raises(SnapshotError, match=f"{path}:2: missing field 'a'"):
            list(iter_jsonl(path, SnapshotError, ("a", "b")))

    # The nesting raised RecursionError and the integer an unlocated ValueError.
    @pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "9" * 5000])
    def test_json_limits_are_located(self, tmp_path, value):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"a": ' + value + "}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2: invalid JSON"):
            list(iter_jsonl(path, DataError))

    @pytest.mark.parametrize("reader", ["jsonl", "lines"])
    def test_non_utf8_text_names_the_file(self, tmp_path, reader):
        path = tmp_path / "rows.txt"
        path.write_bytes(b'{"a": "caf\xe9"}\n')
        with pytest.raises(DataError, match=f"{path}: not UTF-8 text"):
            list(iter_jsonl(path, DataError) if reader == "jsonl" else read_lines(path))

    @pytest.mark.parametrize("content", ["", "\n  \n\t\n"])
    @pytest.mark.parametrize("reader", ["jsonl", "lines"])
    def test_file_without_a_line_is_a_data_error(self, tmp_path, reader, content):
        path = tmp_path / "rows.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}: no (rows|lines) found"):
            list(iter_jsonl(path, DataError) if reader == "jsonl" else read_lines(path))

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
        with atomic_open(path) as handle:
            for line in open(path):
                handle.write(line.upper())
        assert path.read_text() == "A\nB\n"


class TestFiniteArray:
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
