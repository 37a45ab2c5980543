"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q

The end-to-end tests run every workload once untraced and once traced with
``--seconds 0`` (the minimum: one pair of passes per input), about two minutes.
"""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from spans import Span, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

GENERATORS = {
    "caption": lambda d, seed: gen.caption_inputs(d, seed, 60, 6, 8),
    "grounding": lambda d, seed: gen.grounding_inputs(d, seed, 8, 3, 4, 3),
    "lexical": lambda d, seed: gen.lexical_inputs(d, seed, 80, 60, 6, 5),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generators_are_byte_identical_per_seed(tmp_path, kind):
    dirs = [tmp_path / name for name in ("a", "b", "other")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        GENERATORS[kind](d, seed)
    names = sorted(p.name for p in dirs[0].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert match == names and not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)
    assert differ, "another seed should give other inputs"


def test_self_time_on_hand_built_tree():
    # root 0..10 has children 1..4 and 3..6 (overlapping: together they cover
    # 1..6) and 8..12 (clipped to 8..10), so 7 of its 10 seconds are covered.
    # Child 1..4 has a grandchild 2..3, which covers nothing of the root twice.
    spans = [
        Span(0, None, "t", "cli.train", 0.0, 10.0),
        Span(1, 0, "t", "trainer.train", 1.0, 4.0),
        Span(2, 0, "t", "encoder.grads", 3.0, 6.0),
        Span(3, 0, "t", "encoder.grads", 8.0, 12.0),
        Span(4, 1, "t", "objective.loss", 2.0, 3.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def _run(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = _run(workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_benchmark_metric_is_printed(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        _, result = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values()
                   if v["unit"] not in ("count",))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_outputs_match_untraced(runs, workload):
    assert runs[workload, 0][0]["output_digest"] == runs[workload, 1][0]["output_digest"]


def test_traced_synth_quality_matches_direct_calls(runs):
    from lexivis import synth

    report = runs["synth_rare", 1][0]
    seeds = report["inputs"]["synth_seeds"]
    direct = [synth.run_seed(s, synth.SynthConfig()) for s in seeds]
    quality = report["end_to_end"]
    assert quality["rare_gain"]["value"] == sum(r["rare_gain"] for r in direct) / len(direct)
    assert quality["rare_win_frac"]["value"] == sum(r["rare_win"] for r in direct) / len(direct)
    assert quality["consistency_frac"]["value"] == (
        sum(r["consistency_holds"] for r in direct) / len(direct))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
