"""Every span target of perfbench/spans.py names a function lexivis still has.

``perfbench run.py --trace 1`` patches these by name, so a renamed reader
would break traced runs, and describes each call from its arguments and
result, so a dropped result field would break them too. The module is
compiled from its source here, so no bytecode is written next to it.
"""

import json
import sys
import types

import numpy as np
import pytest

from tests.conftest import FIXTURES, ROOT

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


def _pipeline(tmp_path) -> list[list[str]]:
    """A tiny run of every traced stage on the bundled fixtures."""
    rng = np.random.default_rng(0)
    names = ["boxer", "tench", "crowd", "fireplug"]
    texts = [*names, "a professional boxer is walking", "the big crowd on the red fireplug"]
    rows = [{"image": rng.normal(size=4).tolist(), "text": text,
             "kind": "category" if text in names else "caption"}
            for text in texts * 2]
    (tmp_path / "ds.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    (tmp_path / "classes.json").write_text(json.dumps(names))
    images = [{"image": np.eye(4)[i].tolist(), "label": i} for i in range(4)]
    (tmp_path / "images.jsonl").write_text("".join(json.dumps(r) + "\n" for r in images))
    region = {"image_id": "im0", "features": np.eye(4, 8).tolist(), "targets": np.eye(4).tolist()}
    (tmp_path / "regions.jsonl").write_text(json.dumps(region) + "\n")
    p = {name: str(tmp_path / name) for name in (
        "ds.jsonl", "aug.jsonl", "classes.json", "images.jsonl", "regions.jsonl",
        "base.json", "adapters.json", "ground.json")}
    wk = ["--wiktionary", str(FIXTURES / "wiktionary.jsonl")]
    tiny = ["--embed-dim", "8", "--hidden-dim", "16", "--vocab-size", "64",
            "--adapter-bottleneck", "2", "--max-tokens", "16"]
    train = ["train", "--dataset", p["aug.jsonl"], "--epochs", "1", "--batch-size", "4"]
    return [
        ["augment", "--dataset", p["ds.jsonl"], "--out", p["aug.jsonl"], *wk,
         "--lexicon", str(FIXTURES / "lexicon.tsv"), "--scheme", "combine"],
        [*train, *tiny, "--mode", "scratch_2branch", "--out-checkpoint", p["base.json"]],
        [*train, "--mode", "continual_adapters", "--base-checkpoint", p["base.json"],
         "--out-checkpoint", p["adapters.json"]],
        ["eval-zeroshot", "--checkpoint", p["adapters.json"], "--images", p["images.jsonl"],
         "--classes", p["classes.json"], "--with-knowledge", *wk],
        ["ground-train", "--regions", p["regions.jsonl"], "--classes", p["classes.json"],
         "--with-knowledge", *wk, *tiny, "--epochs", "1", "--out-checkpoint", p["ground.json"]],
        ["ground-eval", "--checkpoint", p["ground.json"], "--regions", p["regions.jsonl"],
         "--classes", p["classes.json"], "--with-knowledge", *wk],
    ]


def test_traced_pipeline_describes_every_described_target(tmp_path, capsys):
    from lexivis.cli import main

    with spans.Tracer().installed() as tracer:
        for argv in _pipeline(tmp_path):
            with tracer.operation(argv[0], f"cli.{argv[0]}"):
                code = main(argv)
            assert code == 0, capsys.readouterr().err
    described = {s.name for s in tracer.spans if s.attrs is not None}
    expected = {name for name, _, _, describe in spans.TARGETS if describe is not None}
    assert expected - described == set()
