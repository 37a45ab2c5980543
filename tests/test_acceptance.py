"""Acceptance suite: the eight release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout; each criterion also enforces its wall-clock budget.
"""

import json
import math
import time

import numpy as np
import pytest

from lexivis import encoder as enc, synth, trainer
from lexivis.cli import EXIT_OK, main
from lexivis.grounding import (
    FocalParams,
    RegionSet,
    encode_phrases_parallel,
    focal_loss,
    region_accuracy,
    zero_shot_region_classify,
)
from lexivis.knowledge import KnowledgeStore
from lexivis.objective import normalize_rows, grouped_contrastive_loss
from lexivis.evaluation import concept_overlap, dataset_stats
from tests.conftest import FIXTURES
from tests.test_evaluation import stats_oracle
from tests.test_objective import oracle_grouped_contrastive, oracle_infonce


def _report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_boxer_end_to_end(wordnet_graph, wiktionary):
    start = time.monotonic()
    store = KnowledgeStore(wordnet=wordnet_graph, wiktionary=wiktionary)
    ok = (
        store.retrieve("boxer", "wn_hier").text
        == "boxer, combatant, person, causal_agent, physical_entity, entity"
        and store.retrieve("boxer", "wn_def").text
        == "someone who fights with his fists for sport"
        and store.retrieve("boxer", "wiki_def").text
        == "a participant (fighter) in a boxing match"
    )
    _report("criterion 1: boxer retrieval end-to-end", ok, time.monotonic() - start, 1.0)


def test_criterion_2_contrastive_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    ok = True
    for _ in range(100):
        b = int(rng.integers(1, 9))
        p = int(rng.integers(2, 17))
        u = normalize_rows(rng.normal(size=(b, p)))
        v = normalize_rows(rng.normal(size=(b, p)))
        sim = u @ v.T
        labels = rng.integers(0, max(1, b // 2 + 1), size=b)
        tau = float(rng.uniform(0.3, 30.0))
        loss = grouped_contrastive_loss(sim, labels, tau)
        oi2t, ot2i, oic = oracle_grouped_contrastive(sim.tolist(), labels.tolist(), tau)
        ok &= abs(loss.l_i2t - oi2t) <= 1e-9 * max(1.0, abs(oi2t))
        ok &= abs(loss.l_t2i - ot2i) <= 1e-9 * max(1.0, abs(ot2i))
        ok &= abs(loss.l_ic - oic) <= 1e-9 * max(1.0, abs(oic))
        unique = np.arange(b)
        clip = grouped_contrastive_loss(sim, unique, tau)
        expected = oracle_infonce(sim, tau)
        ok &= abs(clip.l_ic - expected) <= 1e-9 * max(1.0, abs(expected))
    distinct = grouped_contrastive_loss(np.eye(2), [0, 1], 1.0)
    grouped = grouped_contrastive_loss(np.eye(2), [0, 0], 1.0)
    ok &= abs(distinct.l_ic - 1.25305) < 5e-6
    ok &= abs(distinct.l_i2t - 0.62652) < 5e-6
    ok &= abs(grouped.l_i2t - 1.62652) < 5e-6
    _report("criterion 2: contrastive loss vs scalar oracles (100 batches, InfoNCE reduction)", ok,
            time.monotonic() - start, 10.0)


def _sample_fd_coordinates(params, loss_fn, grads_dict, rng, n_coords, h=1e-4):
    keys = [k for k in params.tensors if params.tensors[k].size > 0]
    worst = 0.0
    for _ in range(n_coords):
        key = keys[int(rng.integers(len(keys)))]
        flat = params.tensors[key].ravel()
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        fd = (up - down) / (2 * h)
        an = grads_dict[key].ravel()[idx]
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    return worst


def test_criterion_3_gradient_correctness(toy_config):
    start = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for point in range(3):
        params = enc.init_params(toy_config, seed=100 + point, with_adapters=True)
        batch = enc.TrainBatch(
            images=rng.normal(size=(4, toy_config.image_input_dim)),
            token_ids=[
                enc.text_to_ids(t, toy_config)
                for t in ("red fox jumps", "blue bird", "red fox jumps", "tall green tree")
            ],
            labels=np.array([0, 1, 0, 2]),
        )
        spec = enc.LossSpec(loss="contrastive", use_adapters=True)
        _, g = enc.grads(params, batch, spec)
        worst = max(
            worst,
            _sample_fd_coordinates(
                params, lambda: enc.grads(params, batch, spec)[0]["loss"], g, rng, 72
            ),
        )

        fbatch = enc.TrainBatch(
            token_ids=[
                enc.text_to_ids(t, toy_config, pooling="cls")
                for t in ("red fox", "blue bird", "green frog")
            ],
            region_features=rng.normal(size=(5, toy_config.embed_dim)),
            targets=(rng.random((5, 3)) < 0.4).astype(float),
        )
        fspec = enc.LossSpec(loss="ground_focal", use_adapters=True)
        _, fg = enc.grads(params, fbatch, fspec)
        worst = max(
            worst,
            _sample_fd_coordinates(
                params, lambda: enc.grads(params, fbatch, fspec)[0]["loss"], fg, rng, 72
            ),
        )
    _report(
        f"criterion 3: gradient checks, 432 coordinates, max rel err {worst:.2e}",
        worst < 1e-4,
        time.monotonic() - start,
        60.0,
    )


def test_criterion_4_adapter_identity_and_freeze(toy_config):
    start = time.monotonic()
    params = enc.init_params(toy_config, seed=7, with_adapters=True)
    identity = all(
        np.array_equal(
            enc.encode_text(params, enc.text_to_ids(t, toy_config), use_adapters=True),
            enc.encode_text(params, enc.text_to_ids(t, toy_config), use_adapters=False),
        )
        for t in ("one", "two words", "three little words", "a much longer sample text")
    )

    rng = np.random.default_rng(0)
    protos = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    data = trainer.assign_labels(
        [
            trainer.Triplet(image=protos[i] + 0.05 * rng.normal(size=8), text=f"class{i}")
            for i in range(8)
            for _ in range(8)
        ]
    )
    encoder_cfg = enc.EncoderConfig(
        embed_dim=8, text_layers=1, num_heads=2, hidden_dim=12,
        vocab_size=64, max_tokens=8, adapter_bottleneck=3, image_input_dim=8,
    )
    base = trainer.train(
        trainer.TrainConfig(batch_size=8, epochs=2, seed=0, encoder=encoder_cfg), data
    ).params
    base = enc.add_adapters(base, seed=1)
    before = {k: v.copy() for k, v in base.tensors.items()}
    result = trainer.train(
        trainer.TrainConfig(
            batch_size=8, epochs=25, seed=0, mode="continual_adapters", encoder=encoder_cfg,
        ),
        data,
        base,
    )
    frozen = all(
        np.array_equal(result.params.tensors[k], before[k])
        for k in before
        if not enc.is_adapter_key(k)
    )
    steps_ok = len(result.trace) == 200
    decreased = result.trace[-1][3] < result.trace[0][3]
    _report(
        "criterion 4: adapter identity bitwise + 200-step continual freeze",
        identity and frozen and steps_ok and decreased,
        time.monotonic() - start,
        60.0,
    )


def test_criterion_5_synthetic_rare_concept_transfer():
    start = time.monotonic()
    report = synth.run_bench(synth.SynthConfig())
    coverage_ok = all(r["rare_coverage"] == 1.0 for r in report["per_seed"])
    ok = (
        report["rare_wins"] >= 4
        and report["consistency_wins"] >= 4
        and coverage_ok
        and report["n_seeds"] == 5
    )
    _report(
        "criterion 5: rare-concept transfer "
        f"(rare wins {report['rare_wins']}/5, consistency {report['consistency_wins']}/5, "
        f"mean gain {report['mean_rare_gain']:.3f})",
        ok,
        time.monotonic() - start,
        600.0,
    )


def test_criterion_6_grounding_suite(toy_config):
    start = time.monotonic()
    params = enc.init_params(toy_config, seed=5)
    texts = ["red fox", "blue bird", "green frog"]
    bank = encode_phrases_parallel(params, texts)
    changed = encode_phrases_parallel(params, ["red fox", "purple lizard", "green frog"])
    independence = (
        np.array_equal(changed.matrix[:, 0], bank.matrix[:, 0])
        and np.array_equal(changed.matrix[:, 2], bank.matrix[:, 2])
        and not np.allclose(changed.matrix[:, 1], bank.matrix[:, 1])
    )

    hand = focal_loss(np.array([[0.0]]), np.array([[1.0]]), FocalParams(0.25, 2.0))
    hand_ok = abs(hand - 0.043322) <= 1e-6

    rng = np.random.default_rng(3)
    s = rng.normal(size=(6, 4)) * 3.0
    t = (rng.random((6, 4)) < 0.5).astype(float)
    got = focal_loss(s, t, FocalParams(alpha=0.5, gamma=0.0))
    p = 1.0 / (1.0 + np.exp(-s))
    bce = float(-np.sum(t * np.log(p) + (1 - t) * np.log(1 - p)))
    bce_ok = abs(got - 0.5 * bce) <= 1e-9 * max(1.0, abs(got))

    features = bank.matrix.T * 5.0
    regions = RegionSet("im", features, targets=np.eye(3))
    preds = zero_shot_region_classify(params, regions, texts)
    separable_ok = region_accuracy(preds, regions.targets) == 1.0

    _report(
        "criterion 6: grounding suite (independence, focal values, separable fixture)",
        independence and hand_ok and bce_ok and separable_ok,
        time.monotonic() - start,
        30.0,
    )


def test_criterion_7_statistics_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    pool = ["ant", "bee fly", "cat", "dog", "emu bird", "fox", "gnu"]
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 50))
        concepts = [pool[i] for i in rng.integers(0, len(pool), size=n)]
        min_freq = int(rng.integers(0, 7))
        triplets = [trainer.Triplet(image=np.zeros(2), text=c) for c in concepts]
        got = dataset_stats(triplets, min_freq=min_freq)
        expected = stats_oracle(concepts, min_freq)
        ok &= all(math.isclose(got[k], expected[k], abs_tol=1e-12) for k in expected)

        pre = {pool[i] for i in rng.integers(0, len(pool), size=max(1, int(rng.integers(1, 6))))}
        down = {pool[i] for i in rng.integers(0, len(pool), size=max(1, int(rng.integers(1, 6))))}
        brute = 100.0 * len({d for d in down if d in pre}) / len(down)
        ok &= concept_overlap(pre, down) == brute

    fixture = dataset_stats(
        [trainer.Triplet(image=np.zeros(2), text=t) for t in ["a"] * 6 + ["b"] * 2]
    )
    ok &= fixture["mean_ins_per_concept"] == 4.0
    ok &= fixture["std_ins_per_concept"] == 2.0
    ok &= fixture["concepts_minfreq"] == 1
    _report("criterion 7: statistics vs brute-force oracles (50 fixtures)", ok,
            time.monotonic() - start, 5.0)


def _run_cli(*args):
    assert main(list(args)) == EXIT_OK, f"cli failed: {args}"


def test_criterion_8_cli_determinism(tmp_path, capsys):
    start = time.monotonic()
    wn = str(FIXTURES / "wordnet.jsonl")
    wk = str(FIXTURES / "wiktionary.jsonl")
    lex = str(FIXTURES / "lexicon.tsv")
    queries = str(FIXTURES / "queries.txt")

    rng = np.random.default_rng(0)
    dataset = tmp_path / "ds.jsonl"
    protos = np.eye(4)
    rows = []
    for i, name in enumerate(["boxer", "tench", "crowd", "fireplug"]):
        for _ in range(5):
            rows.append(
                {"image": (protos[i] + 0.05 * rng.normal(size=4)).tolist(),
                 "text": name, "kind": "category"}
            )
    dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    images = tmp_path / "eval.jsonl"
    images.write_text(
        "\n".join(
            json.dumps({"image": protos[i % 4].tolist(), "label": i % 4}) for i in range(12)
        )
        + "\n"
    )
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["boxer", "tench", "crowd", "fireplug"]))
    regions = tmp_path / "regions.jsonl"
    feats = rng.normal(size=(3, 8))
    regions.write_text(
        json.dumps(
            {"image_id": "im0", "features": feats.tolist(), "targets": np.eye(3).astype(int).tolist()}
        )
        + "\n"
    )
    ground_classes = tmp_path / "ground_classes.json"
    ground_classes.write_text(json.dumps(["boxer", "tench", "crowd"]))
    enc_flags = ["--embed-dim", "8", "--hidden-dim", "16", "--vocab-size", "64",
                 "--max-tokens", "16", "--adapter-bottleneck", "2"]

    def artifacts(tag):
        d = tmp_path / tag
        d.mkdir()
        aug = d / "aug.jsonl"
        _run_cli("augment", "--dataset", str(dataset), "--out", str(aug),
                 "--wiktionary", wk, "--source", "wiki_def", "--lexicon", lex)
        stats_out = d / "stats.json"
        _run_cli("stats", "--dataset", str(dataset), "--lexicon", lex, "--out", str(stats_out))
        _run_cli("coverage", "--source", "wn_hier", "--wordnet", wn, "--queries", queries)
        ckpt, trace = d / "model.json", d / "trace.csv"
        _run_cli("train", "--dataset", str(aug), "--out-checkpoint", str(ckpt),
                 "--trace", str(trace), "--epochs", "3", "--batch-size", "8",
                 "--seed", "5", *enc_flags)
        zs = d / "zeroshot.json"
        _run_cli("eval-zeroshot", "--checkpoint", str(ckpt), "--images", str(images),
                 "--classes", str(classes), "--with-knowledge", "--wiktionary", wk,
                 "--out", str(zs))
        _run_cli("eval-probe", "--checkpoint", str(ckpt), "--images", str(images),
                 "--shots", "2")
        gck, gtrace = d / "ground.json", d / "gtrace.csv"
        _run_cli("ground-train", "--regions", str(regions), "--classes", str(ground_classes),
                 "--out-checkpoint", str(gck), "--trace", str(gtrace), "--epochs", "3",
                 "--seed", "5", *enc_flags)
        geval = d / "geval.json"
        _run_cli("ground-eval", "--checkpoint", str(gck), "--regions", str(regions),
                 "--classes", str(ground_classes), "--out", str(geval))
        bench = d / "bench.json"
        _run_cli("bench-synth", "--n-seeds", "1", "--epochs", "2", "--common-classes", "4",
                 "--rare-classes", "4", "--train-per-class", "4", "--eval-per-class", "2",
                 "--out", str(bench))
        return {
            "aug": aug.read_bytes(),
            "stats": stats_out.read_bytes(),
            "trace": trace.read_bytes(),
            "gtrace": gtrace.read_bytes(),
            "zeroshot": zs.read_bytes(),
            "geval": geval.read_bytes(),
            "bench": bench.read_bytes(),
            "ckpt_fields": json.loads(ckpt.read_text()),
            "ground_fields": json.loads(gck.read_text()),
        }

    first = artifacts("run1")
    second = artifacts("run2")
    capsys.readouterr()  # swallow the CLI summary lines
    byte_keys = ["aug", "stats", "trace", "gtrace", "zeroshot", "geval", "bench"]
    ok = all(first[k] == second[k] for k in byte_keys)
    ok &= first["ckpt_fields"] == second["ckpt_fields"]
    ok &= first["ground_fields"] == second["ground_fields"]
    _report("criterion 8: CLI determinism (byte-wise artifacts, field-wise checkpoints)",
            ok, time.monotonic() - start, 120.0)
