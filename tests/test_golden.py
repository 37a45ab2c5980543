"""Golden bytes: the sha256 of deterministic CLI outputs on a tiny seeded fixture.

A change that alters one bit of a checkpoint, a loss trace, the grounding
predictions, the zero-shot report and breakdown, the augmented dataset and
its statistics, or one seed of the synthetic benchmark fails here. At
workload scale, each benchmark workload's output digest over one pass of its
seed-0 inputs is pinned too. Float results depend on the numpy build, its
BLAS, the BLAS kernel (core) it dispatches to on this CPU and numpy's SIMD
paths, so the digests are keyed to that stack; on any other stack the test
skips and names it. On the SkylakeX stack one more test runs this file again
under the emulated Haswell stack.

``python -m tests.test_golden`` (from the repository root, with ``src`` on
``PYTHONPATH``) prints this stack's key and its two tables as Python literals,
to paste in when a stack is added or ``perfbench/gen.py`` changes its inputs.
"""

import contextlib
import ctypes
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lexivis import synth
from lexivis.cli import EXIT_OK, main
from tests.conftest import FIXTURES, ROOT

WK = str(FIXTURES / "wiktionary.jsonl")
WN = str(FIXTURES / "wordnet.jsonl")
LEX = str(FIXTURES / "lexicon.tsv")
TEMPLATES = str(FIXTURES / "templates.txt")
CLASSES = ["boxer", "crowd", "fireplug"]
TINY = ["--embed-dim", "8", "--hidden-dim", "16", "--vocab-size", "64",
        "--adapter-bottleneck", "2", "--max-tokens", "16"]


def _blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs on this CPU (OPENBLAS_CORETYPE can set it)."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _stack() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return (f"numpy {np.__version__}; {blas['name']} {blas['version']} core {_blas_core()}; "
            f"SIMD {simd}")


SKYLAKEX = ("numpy 2.4.6; scipy-openblas 0.3.31.188.0 core SkylakeX; "
            "SIMD X86_V3,X86_V4,AVX512_ICL,AVX512_SPR")
# The same build under HASWELL_ENV: an AVX2 machine's BLAS kernel and SIMD paths, emulated
# on an AVX-512 CPU.
HASWELL = "numpy 2.4.6; scipy-openblas 0.3.31.188.0 core Haswell; SIMD X86_V3"
HASWELL_ENV = {"OPENBLAS_CORETYPE": "Haswell",
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

GOLDEN = {
    SKYLAKEX: {
        "ground.json": "2952cb4212f8903d82054726c2466cfb78bd5713d7442f9fed678a8c35d88a69",
        "ground.csv": "bcae089d8f3c6f7b6196b744c6ebfe3081449399ab6bb0db0539a5672db915fd",
        "caption.json": "2b12960ced10618d171e83ae4b2de7263133d042bc2cfd4f66244faf83a646a8",
        "predictions.json": "4beb9ad085d2e9152540e22b14ec609a5b3117732b78e59742f0ba21c4d29915",
        "adapters.json": "58f5e86b4f201ea3b92e9d495942618c853c8c2e04eb89f925fcf52f71ef49a7",
        "adapters.csv": "f6bc174ba0b37a9692b51ea3fd70fb4589f8095602b112eca5ad86d61f270777",
        "sgd.json": "e2e95c2be9e2e61c573b44bcf70597f57ccb89dff7f598f8527022a7df52f177",
        "momentum.json": "948f1a8eb35f291b8f74204b71647224a8c10f0b44e1e9a1d05b0668bad51f40",
        "sgd_adapters.json": "38ea9c08948872bf1f30e001f2919f91ceb4e30579c462fd2999c3dee6a34a6a",
        "zeroshot.json": "dfe28a8a4257912b8986b3b2459929da4630722fe5051877e653fe474ace32c4",
        "breakdown.csv": "69cef17b11140dc53546ef18f10dc469bbb744e635fb0941b2203b7b1e41e911",
        "combine.jsonl": "478926f3b73affa10f83b821e5acff1f64d1f120dc6b9afb9093642f4cf1ce11",
        "concat.jsonl": "97dbd668258ae9e3181c19d51fbbe13d351d38e989c506ad0ebd43d3e71b84b7",
        "stats.json": "1dfaa447ad9cbfb17b0468c6b98c7e34b50fe626b8dcd1ed45d72abc4d2e3174",
        "run_seed0.json": "4ec388ffd55840d2d1e7d2a47432946109a9e9d1d5fc4757188589339c7dfa91",
    },
    HASWELL: {
        "ground.json": "7cc2f91cc99d578ba2c1058dbba1adcef3591d5fcf0efd2278123548cc39a74e",
        "ground.csv": "a25c328b2a8df2ce56bd935541bdbe38b580627a7db222589085fbab1c93cba6",
        "caption.json": "e02bbf3826c72e8402bc9de3e119ae3c50715fff81bca5382db160007e9a4124",
        "predictions.json": "44896adf39d90c09f25ee44641e014eed299869126703cd98cd9ec839505c895",
        "adapters.json": "475cbbd336fd8fe7fca8595c68100811de5bc31169f18ebc3f476afec5eb5725",
        "adapters.csv": "43c6e34fe89f9792782b257c080513924cdaa83569bac42b33d30690e77e94bf",
        "sgd.json": "9c559048779eb9e7b27d2757ab060aa664d0b8dcbdd318f82cc09f46045f4342",
        "momentum.json": "a3fe0af94f80ec19f151c54e6c442ffd8ff3797b2b24b3258e7ffdb57f69889e",
        "sgd_adapters.json": "4ce3c6e15ed89647e75d92292db38b2c76c88c5cc196d3fd7b127b196710d663",
        "zeroshot.json": "dfe28a8a4257912b8986b3b2459929da4630722fe5051877e653fe474ace32c4",
        "breakdown.csv": "69cef17b11140dc53546ef18f10dc469bbb744e635fb0941b2203b7b1e41e911",
        "combine.jsonl": "478926f3b73affa10f83b821e5acff1f64d1f120dc6b9afb9093642f4cf1ce11",
        "concat.jsonl": "97dbd668258ae9e3181c19d51fbbe13d351d38e989c506ad0ebd43d3e71b84b7",
        "stats.json": "1dfaa447ad9cbfb17b0468c6b98c7e34b50fe626b8dcd1ed45d72abc4d2e3174",
        "run_seed0.json": "4ec388ffd55840d2d1e7d2a47432946109a9e9d1d5fc4757188589339c7dfa91",
    },
}


# Each perfbench workload's ``run.workload_digest`` over one untraced pass of each of its
# seed-0 inputs. Its inputs come from perfbench/gen.py: a change there is a re-pin.
WORKLOAD_DIGESTS = {
    SKYLAKEX: {
        "synth_rare": "0f84290928906ce8735fdb25c692fc4505c1c4780a22b64d1d0c9ef5bc53202e",
        "caption_2branch": "b56bfff17432ef878adf8135af30d6070a083da84c9888126eb660ad53920716",
        "grounding": "67fe4a972488903160ca26a69531a7251798f874c7e3216c7f9474325f1d3753",
        "lexical_prep": "a550d1ccee3bfedc876df15b3de154ef26ac5e44ec20b69e7279ebcbad00ca06",
    },
    HASWELL: {
        "synth_rare": "0f84290928906ce8735fdb25c692fc4505c1c4780a22b64d1d0c9ef5bc53202e",
        "caption_2branch": "2011256b40d55f6e82aae7e1ca6873a97fb50780423dacc4069f9cb97da5c457",
        "grounding": "acfd81bb012c836f67b1b1d6e2d391f67d981684c660f3ae7c3147fcf50ad120",
        "lexical_prep": "a550d1ccee3bfedc876df15b3de154ef26ac5e44ec20b69e7279ebcbad00ca06",
    },
}


OUTPUTS = ("ground.json", "ground.csv", "caption.json", "predictions.json",
           "adapters.json", "adapters.csv", "sgd.json", "momentum.json", "sgd_adapters.json",
           "zeroshot.json", "breakdown.csv", "combine.jsonl", "concat.jsonl", "stats.json")


def _write_inputs(tmp_path):
    rng = np.random.default_rng(0)
    (tmp_path / "classes.json").write_text(json.dumps(CLASSES))
    (tmp_path / "pretrain.txt").write_text("boxer\ntench\n")
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
    rows = [
        {"image": [float(i), 1.0], "text": text, "kind": kind}
        for i, (text, kind) in enumerate([
            ("a professional boxer is introduced to the crowd", "caption"),
            ("the crowd in the street", "caption"),
            ("a small tench swimming in the freshwater", "caption"),
            ("two red fireplug on the old street", "caption"),
            ("is to of", "caption"),
            ("a person with a dog and a cat", "caption"),
            ("Tench", "category"),
            ("boxer", "category"),
            ("a professional boxer is introduced to the crowd", "caption"),
        ])
    ]
    (tmp_path / "lexical.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))


def _outputs(tmp_path) -> dict:
    _write_inputs(tmp_path)
    inputs = ("classes.json", "pretrain.txt", "regions.jsonl", "dataset.jsonl", "partial.jsonl",
              "lexical.jsonl")
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
        # Adapters attached to a one-branch base.
        ["train", "--mode", "continual_adapters", "--base-checkpoint", p["sgd.json"],
         "--dataset", p["dataset.jsonl"], "--out-checkpoint", p["sgd_adapters.json"],
         "--epochs", "2", "--batch-size", "4"],
        # The dataset rows double as labeled eval images.
        ["eval-zeroshot", "--checkpoint", p["adapters.json"], "--images", p["dataset.jsonl"],
         "--classes", p["classes.json"], "--templates", TEMPLATES,
         "--pretrain-concepts", p["pretrain.txt"], "--out", p["zeroshot.json"],
         "--breakdown-csv", p["breakdown.csv"], *knowledge],
        # Captions and category names through the lexicon's noun-phrase queries.
        ["augment", "--dataset", p["lexical.jsonl"], "--out", p["combine.jsonl"],
         "--wiktionary", WK, "--source", "wiki_def", "--scheme", "combine", "--lexicon", LEX],
        ["augment", "--dataset", p["lexical.jsonl"], "--out", p["concat.jsonl"],
         "--wordnet", WN, "--source", "wn_hier", "--scheme", "concat", "--lexicon", LEX],
        ["stats", "--dataset", p["lexical.jsonl"], "--lexicon", LEX, "--min-freq", "1",
         "--out", p["stats.json"]],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv[0]
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in OUTPUTS
    }


def _seed_digest() -> str:
    result = json.dumps(synth.run_seed(0, synth.SynthConfig()), sort_keys=True)
    return hashlib.sha256(result.encode()).hexdigest()


def _workload_digests(work: Path) -> dict:
    """Every workload's digest, its inputs generated in and its passes run from ``work``,
    by ``perfbench/workloads.py`` and ``run.py`` as they are."""
    digests = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        workloads, run = (importlib.import_module(name) for name in ("workloads", "run"))
        patch.chdir(work)
        for name, workload in workloads.WORKLOADS.items():
            workload.generate(work, 0)
            passes = [run.run_pass(workload, key, 0, i, None)
                      for i, key in enumerate(workload.keys(0))]
            errors = [op.error for p in passes for op in p.ops if op.error]
            assert errors == [], name
            digests[name] = run.workload_digest(passes)
    return digests


def _golden(table: dict = GOLDEN) -> dict:
    stack = _stack()
    if stack not in table:
        pytest.skip(f"no golden digests for this stack: {stack}")
    return table[stack]


def test_output_bytes_match_golden_digests(tmp_path):
    golden = _golden()
    assert _outputs(tmp_path) == {name: golden[name] for name in OUTPUTS}


def test_synth_seed_matches_golden_digest():
    # The default synth model has more values than one Adam block: multi-block updates end to end.
    assert _seed_digest() == _golden()["run_seed0.json"]


def test_workload_outputs_match_golden_digests(tmp_path):
    # Eval row blocks, eval-probe, coverage, a K=40 bank and a 4,400-row corpus: sizes the
    # fixture above never reaches.
    golden = _golden(WORKLOAD_DIGESTS)
    assert _workload_digests(tmp_path) == golden


def test_haswell_stack_matches_its_golden_digests(tmp_path):
    # Both variables act only when numpy and its OpenBLAS load: the other stack needs a
    # fresh process, where this test skips itself.
    if _stack() != SKYLAKEX:
        pytest.skip("the Haswell stack is emulated from a SkylakeX host only")
    env = {**os.environ, **HASWELL_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         f"--basetemp={tmp_path / 'haswell'}", __file__],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    passed = set(re.findall(r"^PASSED \S+::(\w+)", result.stdout, re.MULTILINE))
    assert passed == {"test_output_bytes_match_golden_digests",
                      "test_synth_seed_matches_golden_digest",
                      "test_workload_outputs_match_golden_digests"}, result.stdout + result.stderr
    assert result.returncode == 0, result.stdout + result.stderr


def _literal(table: dict) -> str:
    entries = "".join(f"    {json.dumps(k)}: {json.dumps(v)},\n" for k, v in table.items())
    return "{\n" + entries + "}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        (Path(tmp) / "cli").mkdir()
        (Path(tmp) / "workloads").mkdir()
        golden = {**_outputs(Path(tmp) / "cli"), "run_seed0.json": _seed_digest()}
        workload = _workload_digests(Path(tmp) / "workloads")
    print(f"STACK = {json.dumps(_stack())}")
    print(f"GOLDEN[STACK] = {_literal(golden)}")
    print(f"WORKLOAD_DIGESTS[STACK] = {_literal(workload)}")
