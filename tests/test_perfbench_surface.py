"""The library surface that the benchmark reads outside its traced spans.

``perfbench/workloads.py`` generates each workload's inputs, loads them and
measures their properties through the package's own functions and fields
(``KnowledgeItem.text``, the pair ``augment_dataset`` returns,
``SynthConfig().source``, ``len`` of a WordNet graph, ...). This runs those
set-up steps of every workload on its inputs for seed 0, so a change to that
surface fails here rather than only when the benchmark runs. ``perfbench/``
is imported as it is, never edited.
"""

import importlib

import pytest

from tests.conftest import ROOT

PERFBENCH = ROOT / "perfbench"
NAMES = ["synth_rare", "caption_2branch", "grounding", "lexical_prep"]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_set_up_runs_on_the_library(tmp_path, workloads, name):
    workload = workloads.WORKLOADS[name]
    workload.generate(tmp_path, 0)
    workload.load(tmp_path, 0)
    assert isinstance(workload.inputs(tmp_path, 0, []), dict)
    for key in workload.keys(0):
        ops = workload.ops(key, 0)
        assert ops and all(isinstance(op, workloads.Op) for op in ops)
