"""Every span target of perfbench/spans.py names a function lexivis still has.

``perfbench run.py --trace 1`` patches these by name, so a renamed reader
would break traced runs. The module is compiled from its source here, so no
bytecode is written next to it.
"""

import sys
import types

import pytest

from tests.conftest import ROOT

SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    # dataclasses look their module up in sys.modules.
    sys.modules[module.__name__] = module
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"), module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for _, owner, attr, _ in spans.TARGETS],
    ids=[f"{owner}.{attr}" for _, owner, attr, _ in spans.TARGETS],
)
def test_target_resolves_to_a_function(owner, attr):
    assert callable(getattr(spans._resolve(owner), attr, None)), f"lexivis.{owner}.{attr}"


def test_tracer_patches_and_restores_every_target():
    from lexivis import knowledge

    original = knowledge.load_wordnet_snapshot
    with spans.Tracer().installed() as tracer:
        assert knowledge.load_wordnet_snapshot is not original
        assert "knowledge.load_wordnet_snapshot" in tracer.patch_sites
    assert knowledge.load_wordnet_snapshot is original
