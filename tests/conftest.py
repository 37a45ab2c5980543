import sys

sys.dont_write_bytecode = True  # no src/lexivis/__pycache__ left for a later benchmark run to read

from pathlib import Path  # noqa: E402

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

sys.path.insert(0, str(ROOT / "src"))

_OPEN_RECORDERS: list[list[str]] = []


def _record_open(event, args):
    if event == "open":
        for paths in _OPEN_RECORDERS:
            paths.append(str(args[0]))


sys.addaudithook(_record_open)


@pytest.fixture
def opened_paths():
    """Every path opened while the test runs, in order (the ``open`` audit event)."""
    paths: list[str] = []
    _OPEN_RECORDERS.append(paths)
    yield paths
    _OPEN_RECORDERS.remove(paths)


@pytest.fixture(scope="session")
def wordnet_graph():
    from lexivis.knowledge import load_wordnet_snapshot

    return load_wordnet_snapshot(FIXTURES / "wordnet.jsonl")


@pytest.fixture(scope="session")
def wiktionary():
    from lexivis.knowledge import load_wiktionary_snapshot

    return load_wiktionary_snapshot(FIXTURES / "wiktionary.jsonl")


@pytest.fixture(scope="session")
def store(wordnet_graph, wiktionary):
    from lexivis.knowledge import KnowledgeStore

    return KnowledgeStore(wordnet=wordnet_graph, wiktionary=wiktionary)


@pytest.fixture(scope="session")
def lexicon():
    from lexivis.queries import load_lexicon

    return load_lexicon(FIXTURES / "lexicon.tsv")


@pytest.fixture
def toy_config():
    from lexivis.encoder import EncoderConfig

    return EncoderConfig(
        embed_dim=8,
        text_layers=2,
        num_heads=2,
        hidden_dim=12,
        vocab_size=64,
        max_tokens=16,
        adapter_bottleneck=3,
        image_input_dim=5,
    )
