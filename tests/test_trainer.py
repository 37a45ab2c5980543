import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lexivis import encoder as enc, trainer
from lexivis.compose import PromptTemplate
from lexivis.encoder import EncoderConfig
from lexivis.errors import ConfigError, DataError, NumericsError
from lexivis.knowledge import Dictionary, DictionaryEntry, KnowledgeStore
from lexivis.trainer import (
    TrainConfig,
    Triplet,
    assign_labels,
    augment_dataset,
    load_dataset_jsonl,
    save_dataset_jsonl,
    save_trace_csv,
    train,
)

WIKI_BOXER = "a participant (fighter) in a boxing match"


def _triplet(text, kind="category", dim=4, value=0.5):
    return Triplet(image=np.full(dim, value), text=text, kind=kind)


def _toy_store():
    entries = [
        DictionaryEntry("boxer", (WIKI_BOXER,)),
        DictionaryEntry("dog", ("a domesticated canine",)),
    ]
    return KnowledgeStore(wiktionary=Dictionary(entries))


class TestAssignLabels:
    def test_grouping(self):
        labeled = assign_labels([_triplet("a"), _triplet("a"), _triplet("b")])
        assert [t.label for t in labeled] == [0, 0, 1]

    def test_all_distinct(self):
        labeled = assign_labels([_triplet(t) for t in ("x", "y", "z")])
        assert [t.label for t in labeled] == [0, 1, 2]

    def test_normalization_merges_case_and_spacing(self):
        labeled = assign_labels([_triplet("A  Dog"), _triplet("a dog")])
        assert labeled[0].label == labeled[1].label


class TestAugment:
    def test_category_replaced_by_composition(self):
        out, audit = augment_dataset(
            [_triplet("boxer")], _toy_store(), source="wiki_def",
            template=PromptTemplate("a photo of a {}"),
        )
        assert out[0].text == f"a photo of a boxer, boxer, {WIKI_BOXER}"
        assert out[0].augmented and out[0].origin_text == "boxer"
        assert (audit["hits"], audit["misses"], audit["emitted"]) == (1, 0, 1)

    def test_miss_leaves_text_unchanged(self):
        out, audit = augment_dataset([_triplet("zzgib")], _toy_store(), source="wiki_def")
        # A missed class carries the vanilla prompt that eval encodes for it.
        assert out[0].text == "a photo of a zzgib" and not out[0].augmented
        assert audit["misses"] == 1

    def test_combine_emits_pair_with_shared_label(self):
        lexicon = {"a": "DET", "the": "DET", "walks": "OTHER", "boxer": "NOUN", "dog": "NOUN"}
        caption = _triplet("a boxer walks a dog", kind="caption")
        out, audit = augment_dataset(
            [caption, _triplet("boxer")], _toy_store(), source="wiki_def",
            scheme="combine", lexicon=lexicon,
        )
        members = [t for t in out if t.kind == "caption"]
        assert len(members) == 2
        assert members[0].label == members[1].label
        assert audit["emitted"] == 3

    def test_labels_reassigned_dense(self):
        lexicon = {"a": "DET", "walks": "OTHER", "boxer": "NOUN"}
        out, _ = augment_dataset(
            [_triplet("boxer"), _triplet("zz1"), _triplet("Boxer"),
             _triplet("a boxer walks", kind="caption")],
            _toy_store(), source="wiki_def", scheme="combine", lexicon=lexicon,
        )
        assert [t.label for t in out] == [0, 1, 0, 2, 2]
        assert [t.label for t in assign_labels(out)] == [0, 1, 0, 2, 2]


def _synthetic_dataset(n_classes=8, per_class=4, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    protos = np.linalg.qr(rng.normal(size=(dim, n_classes)))[0].T
    out = []
    for i in range(n_classes):
        for _ in range(per_class):
            out.append(
                Triplet(image=protos[i] + 0.05 * rng.normal(size=dim), text=f"class{i}")
            )
    return assign_labels(out)


def _train_config(**overrides):
    base = dict(
        batch_size=8,
        epochs=8,
        learning_rate=1e-3,
        optimizer="adam",
        seed=0,
        mode="scratch_1branch",
        encoder=EncoderConfig(
            embed_dim=8, text_layers=1, num_heads=2, hidden_dim=12,
            vocab_size=64, max_tokens=8, adapter_bottleneck=3, image_input_dim=8,
        ),
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_loss_decreases(self):
        result = train(_train_config(epochs=10), _synthetic_dataset())
        assert len(result.trace) >= 40
        assert result.trace[-1][3] < result.trace[0][3]

    def test_fixed_seed_gives_identical_traces(self):
        data = _synthetic_dataset()
        a = train(_train_config(), data)
        b = train(_train_config(), data)
        assert a.trace == b.trace
        for key in a.params.tensors:
            assert np.array_equal(a.params.tensors[key], b.params.tensors[key])

    def test_different_seed_changes_trace(self):
        data = _synthetic_dataset()
        a = train(_train_config(seed=0), data)
        b = train(_train_config(seed=1), data)
        assert a.trace != b.trace

    def test_continual_freezes_base_tensors(self):
        data = _synthetic_dataset()
        base = train(_train_config(epochs=2), data)
        with_adapters = enc.add_adapters(base.params, seed=5)
        before = {k: v.copy() for k, v in with_adapters.tensors.items()}
        cfg = _train_config(mode="continual_adapters", epochs=6)
        result = train(cfg, data, with_adapters)
        for key, val in result.params.tensors.items():
            if enc.is_adapter_key(key):
                continue
            assert np.array_equal(val, before[key]), key
        # adapters must actually have moved
        moved = [
            key for key in result.params.tensors
            if enc.is_adapter_key(key) and not np.array_equal(result.params.tensors[key], before[key])
        ]
        assert moved
        assert result.trace[-1][3] < result.trace[0][3]

    @pytest.mark.parametrize("optimizer", trainer.OPTIMIZERS)
    def test_continual_optimizer_holds_only_the_adapters(self, optimizer, monkeypatch):
        data = _synthetic_dataset()
        base = train(_train_config(epochs=1), data).params
        before = {k: v.tobytes() for k, v in base.tensors.items()}
        adapters = sum(v.size for k, v in enc.add_adapters(base, seed=5).tensors.items()
                       if enc.is_adapter_key(k))
        optimizers = []

        class Recording(trainer._Optimizer):
            def __init__(self, *args):
                super().__init__(*args)
                optimizers.append(self)

        monkeypatch.setattr(trainer, "_Optimizer", Recording)
        cfg = _train_config(mode="continual_adapters", epochs=2, optimizer=optimizer)
        result = train(cfg, data, base)
        (opt,) = optimizers
        assert opt.t == len(result.trace) > 0
        held = [a.size for a in (opt.m, getattr(opt, "v", None)) if a is not None]
        assert held == {"sgd": [], "momentum": [adapters], "adam": [adapters] * 2}[optimizer]
        for key, value in before.items():
            assert result.params.tensors[key].tobytes() == value, key

    def test_two_branch_routes_by_augmentation(self):
        data = _synthetic_dataset(n_classes=4, per_class=4)
        # mark half the samples as knowledge hits
        for i, t in enumerate(data):
            data[i] = trainer.Triplet(
                image=t.image, text=t.text, kind=t.kind, label=t.label,
                augmented=(t.label % 2 == 0), origin_text=t.text,
            )
        cfg = _train_config(mode="scratch_2branch", epochs=3, batch_size=4)
        result = train(cfg, data)
        total = result.branch_counts["base"] + result.branch_counts["adapter"]
        assert total == len(result.trace) * 4
        assert result.branch_counts["base"] > 0
        assert result.branch_counts["adapter"] > 0

    def test_tau_clamped(self, monkeypatch):
        real_grads = enc.grads

        def rising_tau(params, batch, spec):  # the real gradients, but d loss / d log_tau = -1
            losses, g = real_grads(params, batch, spec)
            g["log_tau"][...] = -1.0
            return losses, g

        monkeypatch.setattr(enc, "grads", rising_tau)
        data = _synthetic_dataset(n_classes=2, per_class=3)
        cfg = _train_config(epochs=3, batch_size=6, learning_rate=1.0, optimizer="sgd")
        result = train(cfg, data)
        # SGD at rate 1 lifts log_tau by 1 a step: exp(1) * TAU_INIT, then past the cap.
        taus = [row[4] for row in result.trace]
        assert taus[0] == pytest.approx(math.e * enc.TAU_INIT, rel=1e-12)
        assert taus[1:] == [99.99999999999996] * 2
        assert result.params.tau <= enc.TAU_MAX

    def test_log_tau_above_the_cap_is_clamped_after_one_step(self):
        cfg = _train_config().encoder
        data = _synthetic_dataset(n_classes=2, per_class=2)
        params = enc.init_params(cfg, seed=0)
        params.tensors["log_tau"][...] = np.log(10 * enc.TAU_MAX)
        batch = enc.TrainBatch(
            images=np.stack([t.image for t in data]),
            token_ids=[enc.text_to_ids(t.text, cfg) for t in data],
            labels=np.array([t.label for t in data]),
        )
        trace, _ = trainer.fit(params, enc.LossSpec(), range(len(data)), lambda _: batch,
                               epochs=1, batch_size=len(data), optimizer="adam",
                               learning_rate=1e-3, seed=0)
        assert len(trace) == 1
        # exp(log(100.0)) rounds to 100.00000000000004, so the clamp is one ulp below log(100.0).
        assert params.tensors["log_tau"] == np.nextafter(np.log(enc.TAU_MAX), -np.inf)  # bitwise
        assert trace[0][4] == params.tau == 99.99999999999996
        assert params.tau == pytest.approx(enc.TAU_MAX, rel=1e-15, abs=0)

    def test_batch_size_one_rejected(self):
        with pytest.raises(ConfigError):
            _train_config(batch_size=1)

    def test_continual_requires_base(self):
        with pytest.raises(ConfigError, match="mode requires a base checkpoint"):
            train(_train_config(mode="continual_adapters"), _synthetic_dataset())

    @pytest.mark.parametrize("mode", ["scratch_1branch", "scratch_2branch"])
    def test_scratch_mode_takes_no_base(self, mode):
        base = enc.init_params(_train_config().encoder, seed=0, with_adapters=True)
        with pytest.raises(ConfigError, match="takes no base model"):
            train(_train_config(mode=mode), _synthetic_dataset(), base)

    def test_continual_keeps_the_frozen_base_arrays_in_their_order(self):
        base = enc.init_params(_train_config().encoder, seed=0, with_adapters=True)
        order, frozen = list(base.tensors), {
            k: v for k, v in base.tensors.items() if not enc.is_adapter_key(k)}
        result = train(_train_config(mode="continual_adapters", epochs=1), _synthetic_dataset(),
                       base)
        assert list(result.params.tensors) == order
        for key, value in frozen.items():
            assert result.params.tensors[key] is value, key

    def test_continual_consumes_an_adapter_base(self):
        data = _synthetic_dataset()
        base = enc.init_params(_train_config().encoder, seed=0, with_adapters=True)
        result = train(_train_config(mode="continual_adapters", epochs=1), data, base)
        assert result.params is base

    def test_zero_image_is_a_numerics_error_naming_its_batch_row_and_step(self):
        data = _synthetic_dataset(n_classes=4, per_class=2)
        data[5] = replace(data[5], image=np.zeros(8))
        message = r"^cannot normalize a near-zero row: batch rows \[\d\]$"
        with pytest.raises(NumericsError, match=message) as raised:
            train(_train_config(epochs=1), data)
        diagnostics = raised.value.diagnostics
        assert diagnostics["step"] == 0
        (row,) = diagnostics["rows"]
        assert diagnostics["batch"][row] == 5

    def test_wrong_image_dim_rejected(self):
        data = [Triplet(image=np.zeros(3), text="a", label=0),
                Triplet(image=np.zeros(3), text="b", label=1)]
        with pytest.raises(DataError):
            train(_train_config(), data)

    @pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
    def test_all_optimizers_step(self, optimizer):
        data = _synthetic_dataset(n_classes=4, per_class=3)
        lr = {"sgd": 0.05, "momentum": 0.01, "adam": 1e-3}[optimizer]
        result = train(_train_config(optimizer=optimizer, learning_rate=lr, epochs=6), data)
        assert result.trace[-1][3] < result.trace[0][3]

    def test_reads_a_one_shot_iterator_and_relabels_like_assign_labels(self):
        # Labels that disagree with the texts' groups, and one row without a label.
        data = [replace(t, label=i % 2) for i, t in enumerate(_synthetic_dataset(3, 3))]
        data[4] = replace(data[4], text=data[4].text.upper(), label=None)
        expected = train(_train_config(epochs=2), assign_labels(data))
        streamed = train(_train_config(epochs=2), iter(data))
        assert streamed.trace == expected.trace
        for key, value in expected.params.tensors.items():
            assert streamed.params.tensors[key].tobytes() == value.tobytes(), key


def _reference_steps(kind, lr, tensors, grad_steps):
    """The per-tensor updates the flat optimizer must match bit for bit."""
    m = {k: np.zeros_like(v) for k, v in tensors.items()}
    v2 = {k: np.zeros_like(v) for k, v in tensors.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t, grads in enumerate(grad_steps, start=1):
        for k in tensors:
            if kind == "sgd":
                tensors[k] -= lr * grads[k]
            elif kind == "momentum":
                m[k] = 0.9 * m[k] + grads[k]
                tensors[k] -= lr * m[k]
            else:
                m[k] = b1 * m[k] + (1 - b1) * grads[k]
                v2[k] = b2 * v2[k] + (1 - b2) * grads[k] ** 2
                mhat = m[k] / (1 - b1**t)
                vhat = v2[k] / (1 - b2**t)
                tensors[k] -= lr * mhat / (np.sqrt(vhat) + eps)


def _check_against_reference(kind, tensors):
    """Five flat optimizer steps over ``tensors`` give the bits of ``_reference_steps``."""
    tensors = enc.FlatTensors(tensors)
    assert all(np.shares_memory(value, tensors.flat) for value in tensors.values())
    reference = {k: v.copy() for k, v in tensors.items()}
    rng = np.random.default_rng(0)
    grad_steps = []
    for _ in range(5):
        grads = enc.FlatTensors(tensors, copy=False)
        grads.flat[:] = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=grads.flat.size)
        grad_steps.append({k: v.copy() for k, v in grads.items()})
    _reference_steps(kind, 1e-2, reference, grad_steps)
    opt = trainer._Optimizer(kind, 1e-2, tensors.flat.size)
    for grads in grad_steps:
        opt.step(tensors.flat, enc.FlatTensors(grads).flat)
    for key, value in reference.items():
        assert tensors[key].tobytes() == np.asarray(value).tobytes(), key


class TestFlatOptimizer:
    @pytest.mark.parametrize("kind", trainer.OPTIMIZERS)
    def test_step_matches_per_tensor_reference(self, kind):
        params = enc.init_params(_train_config().encoder, seed=3, with_adapters=True)
        assert params.tensors["log_tau"].ndim == 0
        _check_against_reference(kind, params.tensors)

    @pytest.mark.parametrize("kind", trainer.OPTIMIZERS)
    def test_steps_across_blocks_match_per_tensor_reference(self, kind):
        # Two whole blocks and a partial one, split across tensors off the block boundaries.
        block = trainer._ADAM_BLOCK
        rng = np.random.default_rng(4)
        tensors = {"w": rng.normal(size=(2, block - 3)), "b": rng.normal(size=22),
                   "log_tau": np.array(0.5)}
        assert sum(v.size for v in tensors.values()) == 2 * block + 17
        _check_against_reference(kind, tensors)

    def test_adam_holds_no_full_size_vector_but_its_moments(self):
        size = 2 * trainer._ADAM_BLOCK + 17
        opt = trainer._Optimizer("adam", 1e-2, size)
        w, g = np.zeros(size), np.ones(size)
        opt.step(w, g.copy())  # warm-up: lazily built module state
        tracemalloc.start()
        try:
            opt.step(w, g)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [k for k, v in vars(opt).items() if isinstance(v, np.ndarray) and v.size >= size]
        assert sorted(held) == ["m", "v"]
        assert opt.scratch.size == trainer._ADAM_BLOCK
        assert step_peak < 8 * size / 2

    def test_fit_rejects_an_unknown_optimizer_before_the_first_step(self, monkeypatch):
        params = enc.init_params(_train_config().encoder, seed=3)
        before = {k: v.copy() for k, v in params.tensors.items()}
        steps = []
        monkeypatch.setattr(enc, "grads", lambda *args: steps.append(args))
        with pytest.raises(ConfigError, match="unknown optimizer 'adamw'"):
            trainer.fit(params, enc.LossSpec(), range(4), steps.append, 1, 2, "adamw", 0.1, 0)
        assert steps == []
        assert all(params.tensors[k].tobytes() == v.tobytes() for k, v in before.items())


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        data = [
            Triplet(image=np.array([0.5, -1.25]), text="boxer", kind="category", label=0),
            Triplet(image=np.array([1.0, 2.0]), text="a dog", kind="caption", label=1,
                    augmented=True, origin_text="a dog", query="dog"),
        ]
        path = tmp_path / "ds.jsonl"
        save_dataset_jsonl(data, path)
        loaded = load_dataset_jsonl(path)
        assert [t.text for t in loaded] == ["boxer", "a dog"]
        assert loaded[1].augmented and loaded[1].query == "dog"
        assert np.array_equal(loaded[0].image, data[0].image)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset_jsonl(path)

    def test_bad_kind_errors(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"image": [1.0], "text": "x", "kind": "tag"}\n')
        with pytest.raises(DataError):
            load_dataset_jsonl(path)

    @pytest.mark.parametrize("text", ["", "   ", "\t\n", "\u00a0\u3000"])
    def test_blank_text_errors_with_location(self, tmp_path, text):
        path = tmp_path / "ds.jsonl"
        rows = [{"image": [1.0], "text": "boxer"}, {"image": [1.0], "text": text}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(DataError, match=f"{path}:2: text is blank"):
            load_dataset_jsonl(path)

    # origin_text 5 raised AttributeError in train, label [1, 2] an unlocated
    # batch error, and augmented "false" routed the row through the adapters.
    @pytest.mark.parametrize("field, value", [
        ("label", [1, 2]), ("label", True), ("label", 1.0), ("label", "0"),
        ("label", 2**63), ("label", -(2**63) - 1),
        ("augmented", "false"), ("augmented", 0), ("augmented", None),
        ("origin_text", 5), ("origin_text", ["a"]), ("query", 5), ("query", {}),
    ])
    def test_optional_field_types_are_checked_with_location(self, tmp_path, field, value):
        path = tmp_path / "ds.jsonl"
        rows = [{"image": [1.0], "text": "boxer"}, {"image": [1.0], "text": "dog", field: value}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(DataError, match=f"{path}:2: {field}"):
            load_dataset_jsonl(path)

    def test_optional_fields_accept_their_types(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        rows = [
            {"image": [1.0], "text": "a", "label": None, "origin_text": None, "query": None},
            {"image": [1.0], "text": "b", "label": -3, "augmented": True, "origin_text": "B",
             "query": "b"},
            {"image": [1.0], "text": "c", "label": 2**63 - 1},
            {"image": [1.0], "text": "d", "label": -(2**63)},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        first, second, *extremes = load_dataset_jsonl(path)
        assert (first.label, first.augmented, first.origin_text) == (None, False, None)
        assert (second.label, second.augmented, second.query) == (-3, True, "b")
        assert [t.label for t in extremes] == [2**63 - 1, -(2**63)]

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv([(1, 0.5, 0.25, 0.75, 14.29)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,l_i2t,l_t2i,l_ic,tau"
        assert lines[1].startswith("1,0.5,0.25,0.75,")
