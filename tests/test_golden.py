"""Golden bytes: the sha256 of deterministic CLI outputs on a tiny seeded fixture.

A change that alters one bit of a checkpoint, a loss trace or the grounding
predictions fails here. Float results depend on the numpy build, its BLAS and
the SIMD paths numpy dispatches to on this CPU, so the digests are keyed to
that stack; on any other stack the test skips and names it.
"""

import hashlib
import json

import numpy as np
import pytest

from lexivis.cli import EXIT_OK, main
from tests.conftest import FIXTURES

WK = str(FIXTURES / "wiktionary.jsonl")
CLASSES = ["boxer", "crowd", "fireplug"]
TINY = ["--embed-dim", "8", "--hidden-dim", "16", "--vocab-size", "64",
        "--adapter-bottleneck", "2", "--max-tokens", "16"]


def _stack() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}; SIMD {simd}"


GOLDEN = {
    "numpy 2.4.6; scipy-openblas 0.3.31.188.0; SIMD X86_V3,X86_V4,AVX512_ICL,AVX512_SPR": {
        "ground.json": "2952cb4212f8903d82054726c2466cfb78bd5713d7442f9fed678a8c35d88a69",
        "ground.csv": "bcae089d8f3c6f7b6196b744c6ebfe3081449399ab6bb0db0539a5672db915fd",
        "caption.json": "c2b5894e39416288013bb1f909851f4a31b1d2b1d53a3db0bccc9eeef02980f5",
        "predictions.json": "4beb9ad085d2e9152540e22b14ec609a5b3117732b78e59742f0ba21c4d29915",
        "adapters.json": "05f3fa946102cc133c1cdf4b7315e2631e9e926c15a44a9a9211f82c4811f0fc",
        "adapters.csv": "f6bc174ba0b37a9692b51ea3fd70fb4589f8095602b112eca5ad86d61f270777",
        "sgd.json": "e581d5bf42d9249f2fda09079bf8396abdd800a69748f8d536520f4773e87ea9",
        "momentum.json": "103679f6ec1712e21e7d9f2ff31385b21233cdcb7a615d00c6157bea16cebf9b",
    },
}


OUTPUTS = ("ground.json", "ground.csv", "caption.json", "predictions.json",
           "adapters.json", "adapters.csv", "sgd.json", "momentum.json")


def _write_inputs(tmp_path):
    rng = np.random.default_rng(0)
    (tmp_path / "classes.json").write_text(json.dumps(CLASSES))
    rows = [
        {"image_id": f"im{i}", "features": np.round(rng.normal(size=(3, 8)), 3).tolist(),
         "targets": np.eye(3)[rng.permutation(3)].tolist()}
        for i in range(4)
    ]
    (tmp_path / "regions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    rows = []
    for label, name in enumerate(CLASSES):
        for i in range(3):
            augmented = i == 2
            rows.append({
                "image": np.round(np.eye(4)[label] + 0.1 * rng.normal(size=4), 3).tolist(),
                "text": f"{name}, a thing seen in photos" if augmented else f"a photo of a {name}",
                "label": label, "augmented": augmented,
            })
    (tmp_path / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    # One row without a label: train relabels every row by its grouped text.
    del rows[-1]["label"]
    (tmp_path / "partial.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))


def _outputs(tmp_path) -> dict:
    _write_inputs(tmp_path)
    inputs = ("classes.json", "regions.jsonl", "dataset.jsonl", "partial.jsonl")
    p = {name: str(tmp_path / name) for name in inputs + OUTPUTS}
    knowledge = ["--with-knowledge", "--wiktionary", WK]
    commands = [
        ["ground-train", "--regions", p["regions.jsonl"], "--classes", p["classes.json"],
         "--out-checkpoint", p["ground.json"], "--trace", p["ground.csv"], "--epochs", "2",
         *TINY, *knowledge],
        ["ground-eval", "--checkpoint", p["ground.json"], "--regions", p["regions.jsonl"],
         "--classes", p["classes.json"], "--out", p["predictions.json"], *knowledge],
        ["train", "--mode", "scratch_2branch", "--dataset", p["dataset.jsonl"],
         "--out-checkpoint", p["caption.json"], "--epochs", "3", "--batch-size", "4", *TINY],
        ["train", "--mode", "continual_adapters", "--base-checkpoint", p["caption.json"],
         "--dataset", p["dataset.jsonl"], "--out-checkpoint", p["adapters.json"],
         "--trace", p["adapters.csv"], "--epochs", "2", "--batch-size", "4"],
        *(
            ["train", "--optimizer", opt, "--dataset", p["partial.jsonl"],
             "--out-checkpoint", p[f"{opt}.json"], "--epochs", "2", "--batch-size", "3", *TINY]
            for opt in ("sgd", "momentum")
        ),
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv[0]
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in OUTPUTS
    }


def test_output_bytes_match_golden_digests(tmp_path):
    stack = _stack()
    if stack not in GOLDEN:
        pytest.skip(f"no golden digests for this stack: {stack}")
    assert _outputs(tmp_path) == GOLDEN[stack]
