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


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def corrupt_features(valid):
    """Values that break a feature field: a non-finite or non-numeric entry, or the wrong shape."""
    array = np.asarray(valid, dtype=np.float64)

    def put(index, value):
        out = array.tolist()
        row = out if array.ndim == 1 else out[index // array.shape[1]]
        row[index % array.shape[-1]] = value
        return out

    entry = st.integers(min_value=0, max_value=array.size - 1)
    return st.one_of(
        st.tuples(entry, NON_FINITE).map(lambda a: put(*a)),
        st.tuples(entry, st.one_of(st.text(max_size=4), st.none(), st.just(10**400)))
        .map(lambda a: put(*a)),
        st.just([valid]),  # one axis too many
        st.just(valid[0]),  # one axis too few
        st.just([]),
        st.just([valid[0], [valid[1]]] if array.ndim == 1 else [valid[0], valid[1][:1]]),  # ragged
        st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=6)),
    )


IMAGE = np.eye(4)[3].tolist()
FEATURES = np.eye(2, 4).tolist()


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["augment", "stats", "train", "eval-probe"]),
    image=corrupt_features(IMAGE),
    position=st.integers(min_value=0, max_value=4),
)
def test_bad_dataset_image_is_one_data_error_line(workdir, command, image, position):
    rows = [
        {"image": np.eye(4)[i].tolist(), "text": name, "kind": "category", "label": i}
        for i, name in enumerate(["boxer", "tench", "crowd", "fireplug"])
    ]
    rows.insert(position, {"image": image, "text": "boxer", "kind": "category", "label": 0})
    dataset = workdir / "bad_image.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = workdir / "bad_image_out"
    argv = {
        "augment": ["augment", "--dataset", str(dataset), "--out", str(out),
                    "--wiktionary", str(FIXTURES / "wiktionary.jsonl")],
        "stats": ["stats", "--dataset", str(dataset), "--out", str(out)],
        "train": ["train", "--dataset", str(dataset), "--out-checkpoint", str(out),
                  "--embed-dim", "4", "--hidden-dim", "8", "--vocab-size", "16",
                  "--adapter-bottleneck", "2", "--epochs", "1"],
        "eval-probe": ["eval-probe", "--checkpoint", str(workdir / "model.json"),
                       "--images", str(dataset)],
    }[command]
    code, err = run_quiet(argv)
    assert_one_data_error_line(code, err, f"{dataset}:{position + 1}: image must be")
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["ground-train", "ground-eval"]),
    features=corrupt_features(FEATURES),
    position=st.integers(min_value=0, max_value=3),
)
def test_bad_region_features_are_one_data_error_line(workdir, command, features, position):
    rows = [
        {"image_id": f"im{i}", "features": FEATURES, "targets": np.eye(2).tolist()}
        for i in range(3)
    ]
    rows.insert(position, {"image_id": "bad", "features": features, "targets": np.eye(2).tolist()})
    regions = workdir / "bad_regions.jsonl"
    regions.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    classes = workdir / "classes.json"
    classes.write_text(json.dumps(["boxer", "crowd"]))
    out = workdir / "bad_regions_out"
    argv = {
        "ground-train": ["ground-train", "--regions", str(regions), "--classes", str(classes),
                         "--out-checkpoint", str(out), "--embed-dim", "4", "--hidden-dim", "8",
                         "--vocab-size", "16", "--adapter-bottleneck", "2", "--epochs", "1"],
        "ground-eval": ["ground-eval", "--checkpoint", str(workdir / "model.json"),
                        "--regions", str(regions), "--classes", str(classes), "--out", str(out)],
    }[command]
    code, err = run_quiet(argv)
    assert_one_data_error_line(code, err, f"{regions}:{position + 1}: features must be")
    assert not out.exists()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), truncate=st.booleans())
def test_corrupt_checkpoint_bytes_are_one_data_error_line(workdir, data, truncate):
    raw = (workdir / "model.json").read_bytes()
    if truncate:
        # Every proper prefix is invalid except the one that drops only the newline.
        raw = raw[: data.draw(st.integers(min_value=0, max_value=len(raw) - 2))]
    else:
        # An "x" anywhere from the tensors key on breaks the syntax, a tensor
        # name or a "data"/"shape" key (no stored name holds an "x"); 0xff is
        # never UTF-8.
        start = raw.index(b'"tensors"')
        offset = data.draw(st.integers(min_value=start, max_value=len(raw) - 1))
        raw = raw[:offset] + data.draw(st.sampled_from([b"x", b"\xff"])) + raw[offset + 1 :]
    corrupt = workdir / "corrupt.json"
    corrupt.write_bytes(raw)
    code, err = run_quiet(
        ["eval-probe", "--checkpoint", str(corrupt), "--images", str(workdir / "images.jsonl")]
    )
    assert_one_data_error_line(code, err, str(corrupt))
