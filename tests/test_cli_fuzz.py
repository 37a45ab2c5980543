"""Fuzz of corrupt CLI inputs: each defect is one error line naming its file, never a traceback."""

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
    # With adapter tensors, whose shapes a changed adapter_bottleneck contradicts too.
    enc.save_checkpoint(enc.init_params(CONFIG, seed=0, with_adapters=True),
                        path / "adapters.json")
    # The same tensors under the meta.task that ground-train writes, for ground-eval.
    enc.save_checkpoint(enc.init_params(CONFIG, seed=0), path / "ground.json",
                        meta={"task": "grounding"})
    rows = [{"image": np.eye(4)[i % 4].tolist(), "label": i % 4} for i in range(8)]
    (path / "images.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


@settings(max_examples=120, deadline=None)
@given(mutation=CONFIG_MUTATIONS)
def test_corrupt_config_value_is_one_data_error_line(workdir, mutation):
    key, value = mutation
    payload = json.loads((workdir / "adapters.json").read_text())
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


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["eval-zeroshot", "ground-train", "ground-eval"]),
    name=BLANK_TEXT,
    position=st.integers(min_value=0, max_value=2),
)
def test_blank_class_name_is_one_data_error_line(workdir, command, name, position):
    names = ["boxer", "crowd"]
    names.insert(position, name)
    classes = workdir / "blank_classes.json"
    classes.write_text(json.dumps(names))
    images = workdir / "blank_class_images.jsonl"
    rows = [{"image": np.eye(4)[i % 4].tolist(), "label": i % 3} for i in range(6)]
    images.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    regions = workdir / "blank_class_regions.jsonl"
    region = {"image_id": "im0", "features": np.eye(2, 4).tolist(), "targets": np.eye(2, 3).tolist()}
    regions.write_text(json.dumps(region) + "\n")
    out = workdir / "blank_class_out"
    model = str(workdir / "model.json")
    argv = {
        "eval-zeroshot": ["eval-zeroshot", "--checkpoint", model, "--images", str(images),
                          "--classes", str(classes), "--out", str(out)],
        "ground-train": ["ground-train", "--regions", str(regions), "--classes", str(classes),
                         "--out-checkpoint", str(out), "--embed-dim", "4", "--hidden-dim", "8",
                         "--vocab-size", "16", "--adapter-bottleneck", "2", "--epochs", "1"],
        "ground-eval": ["ground-eval", "--checkpoint", str(workdir / "ground.json"),
                        "--regions", str(regions), "--classes", str(classes), "--out", str(out)],
    }[command]
    code, err = run_quiet(argv)
    assert_one_data_error_line(code, err, f"{classes}: class {position} is blank")
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
        "ground-eval": ["ground-eval", "--checkpoint", str(workdir / "ground.json"),
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


# One slice per input reader: a valid row, the command that reads the file, and,
# per field, the JSON types the reader accepts there. The mutated row is line 2 of 3.
# No field accepts an integer beyond 64 bits ("bigint").
JSON_TYPES = {
    "null": None, "bool": True, "int": 1, "bigint": 2**64, "float": 0.5, "string": "x",
    "list": [], "object": {},
}
SLICES = {
    "dataset": (
        {"image": IMAGE, "text": "boxer", "kind": "category", "label": 0, "augmented": False,
         "origin_text": None, "query": None},
        {"image": set(), "text": {"string"}, "kind": set(), "label": {"null", "int"},
         "augmented": {"bool"}, "origin_text": {"null", "string"}, "query": {"null", "string"}},
    ),
    "eval_images": ({"image": IMAGE, "label": 0}, {"image": set(), "label": {"int"}}),
    "regions": (
        {"image_id": "im0", "features": FEATURES, "targets": np.eye(2).tolist()},
        {"image_id": {"string"}, "features": set(), "targets": {"null"}},
    ),
    "wordnet": (
        {"id": "n1", "lemmas": ["boxer"], "definition": "a fighter", "hypernym_ids": ["n0"]},
        {"id": {"string"}, "lemmas": set(), "definition": {"string"}, "hypernym_ids": {"list"}},
    ),
    "wiktionary": (
        {"term": "boxer", "senses": ["a fighter"]}, {"term": {"string"}, "senses": set()},
    ),
}


@pytest.fixture(scope="module")
def slice_inputs(workdir):
    """Valid companions of each slice's file: class list, queries and regions."""
    (workdir / "slice_classes.json").write_text(json.dumps(["boxer", "crowd"]))
    (workdir / "slice_queries.txt").write_text("boxer\ncrowd\n")
    regions = "\n".join(json.dumps(r) for r in slice_rows("regions"))
    (workdir / "slice_class_regions.jsonl").write_text(regions + "\n")
    return workdir


def slice_argv(reader, path, workdir):
    out = str(workdir / "slice_out.json")
    model, classes = str(workdir / "model.json"), str(workdir / "slice_classes.json")
    ground_model = str(workdir / "ground.json")
    queries = str(workdir / "slice_queries.txt")
    return {
        "dataset": ["stats", "--dataset", str(path), "--out", out],
        "eval_images": ["eval-probe", "--checkpoint", model, "--images", str(path),
                        "--shots", "1"],
        "regions": ["ground-eval", "--checkpoint", ground_model, "--regions", str(path),
                    "--classes", classes, "--out", out],
        "wordnet": ["coverage", "--source", "wn_hier", "--wordnet", str(path),
                    "--queries", queries],
        "wiktionary": ["coverage", "--source", "wiki_def", "--wiktionary", str(path),
                       "--queries", queries],
        "classes": ["ground-eval", "--checkpoint", ground_model, "--regions",
                    str(workdir / "slice_class_regions.jsonl"), "--classes", str(path)],
    }[reader]


def slice_rows(reader):
    """Three valid rows of a slice's file; line 2 is the one a test mutates."""
    row = dict(SLICES[reader][0])
    if reader == "wordnet":
        root = {"id": "n0", "lemmas": ["entity"], "definition": "that which exists",
                "hypernym_ids": []}
        return [root, row, dict(row, id="n2", lemmas=["crowd"])]
    if reader == "wiktionary":
        return [dict(row, term="crowd"), row, dict(row, term="tench")]
    if reader == "eval_images":
        # Two labels with three rows each leave a held-out remainder for one shot.
        return [dict(row, label=i % 2) for i in range(6)]
    return [row, dict(row), dict(row)]


def assert_one_error_line_naming(code, err, path):
    assert code in (1, 2), err
    lines = err.splitlines()
    assert len(lines) == 1 and str(path) in lines[0], err
    assert "Traceback" not in err


@pytest.mark.parametrize("json_type", sorted(JSON_TYPES))
@pytest.mark.parametrize(
    "reader, field", [(reader, field) for reader, (row, _) in SLICES.items() for field in row]
)
def test_row_field_of_each_json_type(slice_inputs, reader, field, json_type):
    rows = slice_rows(reader)
    rows[1][field] = JSON_TYPES[json_type]
    path = slice_inputs / f"slice_{reader}.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, err = run_quiet(slice_argv(reader, path, slice_inputs))
    if json_type in SLICES[reader][1][field]:
        assert code == 0, err
    elif (reader, field, json_type) == ("eval_images", "label", "null"):
        # Unlabeled rows are valid; eval-probe rejects the file for having one.
        assert_one_error_line_naming(code, err, path)
    else:
        assert_one_error_line_naming(code, err, f"{path}:2")


@pytest.mark.parametrize("json_type", sorted(JSON_TYPES))
@pytest.mark.parametrize(
    "reader, field", [("wordnet", "lemmas"), ("wordnet", "hypernym_ids"), ("wiktionary", "senses"),
                      ("classes", "classes")]
)
def test_list_entry_of_each_json_type(slice_inputs, reader, field, json_type):
    # Entries are strings only; the slice row's own entry stands for a string.
    if reader == "classes":  # one JSON list, not rows: its second entry is mutated
        path = slice_inputs / "slice_entry_classes.json"
        where = path
        path.write_text(json.dumps(["boxer", JSON_TYPES[json_type]]))
    else:
        rows = slice_rows(reader)
        if json_type != "string":
            rows[1][field] = [JSON_TYPES[json_type]]
        path = slice_inputs / f"slice_{reader}.jsonl"
        where = f"{path}:2"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, err = run_quiet(slice_argv(reader, path, slice_inputs))
    if json_type == "string":
        assert code == 0, err
    else:
        assert_one_error_line_naming(code, err, where)
        assert f"{field} must be" in err


DEEP_LIST = "[" * 100_000 + "]" * 100_000
LONG_INT = "9" * 5000
NOT_UTF8 = b'"\xff"'
FILE_DEFECTS = ["deep_list", "long_int", "not_utf8", "empty"]


@pytest.mark.parametrize("defect", FILE_DEFECTS)
@pytest.mark.parametrize("reader", [*SLICES, "classes"])
def test_corrupt_input_file_is_one_error_line(slice_inputs, reader, defect):
    if reader == "classes":
        path = slice_inputs / "slice_bad_classes.json"
        value = {"deep_list": DEEP_LIST.encode(), "long_int": f"[{LONG_INT}]".encode(),
                 "not_utf8": b"[" + NOT_UTF8 + b"]", "empty": b""}[defect]
        path.write_bytes(value)
        where = path
    else:
        path = slice_inputs / f"slice_bad_{reader}.jsonl"
        first = json.dumps(slice_rows(reader)[0]).encode()
        field = next(iter(SLICES[reader][0]))
        value = {"deep_list": DEEP_LIST.encode(), "long_int": LONG_INT.encode(),
                 "not_utf8": NOT_UTF8}.get(defect)
        bad = b"" if value is None else b'{"%s": %s}' % (field.encode(), value)
        path.write_bytes(b"" if defect == "empty" else first + b"\n" + bad + b"\n")
        where = path if defect in ("not_utf8", "empty") else f"{path}:2"
    code, err = run_quiet(slice_argv(reader, path, slice_inputs))
    assert_one_error_line_naming(code, err, where)
