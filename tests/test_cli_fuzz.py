"""Hypothesis fuzz of corrupt CLI inputs: each defect is one data-error line, never a traceback."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexivis import encoder as enc
from lexivis.cli import EXIT_DATA, main
from tests.conftest import FIXTURES

CONFIG = enc.EncoderConfig(
    embed_dim=4, text_layers=1, num_heads=2, hidden_dim=8, vocab_size=16,
    max_tokens=8, adapter_bottleneck=2, image_input_dim=4,
)


def invalid_values(largest):
    """Values no stored encoder_config may hold for the checkpoint above.

    Each is rejected by EncoderConfig or contradicts the stored tensor shapes.
    """
    return st.one_of(
        st.integers(max_value=-1),
        st.just(0),
        st.integers(min_value=1000, max_value=largest),
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.text(max_size=8),
        st.none(),
    )


# Huge dimensions are rejected from the shapes alone. The layer count is capped
# so that a schema built in full would still finish instead of exhausting memory.
CONFIG_MUTATIONS = st.sampled_from(sorted(CONFIG.to_dict())).flatmap(
    lambda key: st.tuples(st.just(key), invalid_values(10**4 if key == "text_layers" else 10**18))
)

# Every character here is str.isspace, so the text strips to nothing.
BLANK_TEXT = st.text(
    alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000", max_size=6
)


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_data_error_line(code, err, needle):
    assert code == EXIT_DATA
    lines = err.splitlines()
    assert len(lines) == 1 and needle in lines[0], err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    enc.save_checkpoint(enc.init_params(CONFIG, seed=0), path / "model.json")
    rows = [{"image": np.eye(4)[i % 4].tolist(), "label": i % 4} for i in range(8)]
    (path / "images.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


@settings(max_examples=120, deadline=None)
@given(mutation=CONFIG_MUTATIONS)
def test_corrupt_config_value_is_one_data_error_line(workdir, mutation):
    key, value = mutation
    payload = json.loads((workdir / "model.json").read_text())
    payload["encoder_config"][key] = value
    corrupt = workdir / "corrupt.json"
    corrupt.write_text(json.dumps(payload))
    code, err = run_quiet(
        ["eval-probe", "--checkpoint", str(corrupt), "--images", str(workdir / "images.jsonl")]
    )
    assert_one_data_error_line(code, err, str(corrupt))


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["augment", "stats", "train"]),
    text=BLANK_TEXT,
    kind=st.sampled_from(["category", "caption"]),
    position=st.integers(min_value=0, max_value=4),
)
def test_blank_dataset_text_is_one_data_error_line(workdir, command, text, kind, position):
    rows = [
        {"image": np.eye(4)[i].tolist(), "text": name, "kind": "category"}
        for i, name in enumerate(["boxer", "tench", "crowd", "fireplug"])
    ]
    rows.insert(position, {"image": [0.0, 0.0, 0.0, 1.0], "text": text, "kind": kind})
    dataset = workdir / "blank.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = workdir / "blank_out"
    argv = {
        "augment": ["augment", "--dataset", str(dataset), "--out", str(out),
                    "--wiktionary", str(FIXTURES / "wiktionary.jsonl")],
        "stats": ["stats", "--dataset", str(dataset), "--out", str(out)],
        "train": ["train", "--dataset", str(dataset), "--out-checkpoint", str(out),
                  "--embed-dim", "4", "--hidden-dim", "8", "--vocab-size", "16",
                  "--adapter-bottleneck", "2", "--epochs", "1"],
    }[command]
    code, err = run_quiet(argv)
    assert_one_data_error_line(code, err, f"{dataset}:{position + 1}: text is blank")
    assert not out.exists()
