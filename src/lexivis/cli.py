"""Command-line pipeline with hermetic, file-based stages.

Subcommands: augment, stats, coverage, train, eval-zeroshot, eval-probe,
ground-train, ground-eval, bench-synth. Every stage reads declared inputs,
writes declared outputs, and prints a one-line JSON summary to stdout.
Exit codes: 0 success, 1 usage/config error, 2 data error.

Flag values may come from a flat ``key=value`` config file (``--config``) and
from environment variables with the ``LEXIVIS_`` prefix; explicit flags win
over the environment, which wins over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import compose, encoder as enc, evaluation, grounding, queries, synth, trainer
from .errors import ConfigError, DataError, LexivisError, SnapshotError
from .knowledge import (
    SOURCES,
    KnowledgeStore,
    atomic_open,
    finite_array,
    iter_jsonl,
    knowledge_coverage,
    load_wiktionary_snapshot,
    load_wordnet_snapshot,
    read_lines,
)

ENV_PREFIX = "LEXIVIS_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the pipeline contract is 1.
    def error(self, message):
        raise _UsageError(message)


def _load_store(args) -> KnowledgeStore:
    """The given snapshots; a ``--source`` without its snapshot is a config error."""
    if args.source in ("wn_hier", "wn_def") and not args.wordnet:
        raise ConfigError(f"source {args.source} needs --wordnet")
    if args.source == "wiki_def" and not args.wiktionary:
        raise ConfigError("source wiki_def needs --wiktionary")
    return KnowledgeStore(
        wordnet=load_wordnet_snapshot(args.wordnet) if args.wordnet else None,
        wiktionary=load_wiktionary_snapshot(args.wiktionary) if args.wiktionary else None,
    )


def _load_lexicon(args) -> dict:
    return queries.load_lexicon(args.lexicon) if args.lexicon else {}


def _template(args) -> compose.PromptTemplate:
    return compose.PromptTemplate(args.template or compose.DEFAULT_TEMPLATE)


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


def _write_json(path, obj) -> None:
    """An indented JSON output file, written atomically."""
    with atomic_open(path) as handle:
        handle.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_class_names(path) -> list[str]:
    """The class list of the eval and grounding commands: a non-empty JSON array."""
    try:
        with open(path, encoding="utf-8") as handle:
            names = json.load(handle)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise DataError(f"{path}: classes must be a non-empty JSON list of strings")
    return names


def _load_labeled_images(path, width: int):
    """JSONL rows {image: [``width`` finite floats], label: int} used by the eval commands."""
    images, labels = [], []
    for where, obj in iter_jsonl(path, DataError, ("image",)):
        image = finite_array(obj["image"], 1, where, "image", width)
        label = obj.get("label")
        if label is not None and type(label) is not int:
            raise DataError(f"{where}: label must be an integer")
        images.append(image)
        labels.append(label)
    has_labels = all(l is not None for l in labels)
    return np.stack(images), (np.asarray(labels) if has_labels else None)


def _encoder_config(args, image_dim: int) -> enc.EncoderConfig:
    return enc.EncoderConfig(
        embed_dim=args.embed_dim,
        text_layers=args.layers,
        num_heads=args.heads,
        hidden_dim=args.hidden_dim,
        vocab_size=args.vocab_size,
        max_tokens=args.max_tokens,
        adapter_bottleneck=args.adapter_bottleneck,
        image_input_dim=image_dim,
    )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_augment(args) -> dict:
    store = _load_store(args)
    lexicon = _load_lexicon(args)
    dataset = trainer.DatasetFile(Path(args.dataset))
    audit = trainer.AugmentAudit()
    rows = trainer.iter_augmented(
        dataset,
        audit,
        store,
        source=args.source,
        scheme=args.scheme,
        template=_template(args),
        max_tokens=args.max_tokens,
        lexicon=lexicon,
    )
    trainer.save_dataset_jsonl(rows, args.out)
    return {"command": "augment", "out": str(args.out), **audit.to_dict()}


def _cmd_stats(args) -> dict:
    lexicon = _load_lexicon(args)
    dataset = trainer.DatasetFile(Path(args.dataset))
    stats = evaluation.dataset_stats(dataset, lexicon=lexicon, min_freq=args.min_freq)
    if args.out:
        _write_json(args.out, stats)
    return {"command": "stats", **stats}


def _cmd_coverage(args) -> dict:
    store = _load_store(args)
    query_list = [query for _, query in read_lines(args.queries)]
    cov = knowledge_coverage(query_list, store, args.source)
    return {"command": "coverage", "source": args.source, "queries": len(query_list), "coverage": cov}


def _cmd_train(args) -> dict:
    continual = args.mode == "continual_adapters"
    if continual != (args.base_checkpoint is not None):  # checked before any input is read
        raise ConfigError("continual_adapters mode requires a base checkpoint" if continual else
                          f"--base-checkpoint needs --mode continual_adapters, not {args.mode}")
    if continual:
        base, _ = enc.load_checkpoint(args.base_checkpoint)
        encoder_cfg = base.config
    else:
        base = None
        first = next(trainer.iter_dataset_jsonl(args.dataset))  # it fixes the image width
        encoder_cfg = _encoder_config(args, first.image.size)
    config = trainer.TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        optimizer=args.optimizer,
        seed=args.seed,
        mode=args.mode,
        encoder=encoder_cfg,
    )
    rows = trainer.iter_dataset_jsonl(args.dataset, encoder_cfg.image_input_dim)
    result = trainer.train(config, rows, base)
    enc.save_checkpoint(
        result.params,
        args.out_checkpoint,
        meta={"mode": args.mode, "seed": args.seed, "source": args.source},
    )
    if args.trace:
        trainer.save_trace_csv(result.trace, args.trace)
    final = result.trace[-1] if result.trace else (0, 0.0, 0.0, 0.0, result.params.tau)
    return {
        "command": "train",
        "checkpoint": str(args.out_checkpoint),
        "steps": len(result.trace),
        "final_l_ic": final[3],
        "branch_counts": result.branch_counts,
    }


def _cmd_eval_zeroshot(args) -> dict:
    params, _ = enc.load_checkpoint(args.checkpoint)
    store = _load_store(args) if args.with_knowledge else None
    class_names = _load_class_names(args.classes)
    images, labels = _load_labeled_images(args.images, params.config.image_input_dim)
    if labels is not None and not ((labels >= 0) & (labels < len(class_names))).all():
        raise DataError(f"{args.images}: labels must index the {len(class_names)} classes")
    templates = compose.load_templates(args.templates) if args.templates else [_template(args)]
    bank = evaluation.build_class_embeddings(
        params,
        class_names,
        store=store,
        source=args.source,
        branch_mode=args.branch_mode,
        templates=templates,
    )
    preds, accuracy = evaluation.zero_shot_classify(params, images, bank, labels)
    report = {
        "command": "eval-zeroshot",
        "n_images": int(len(images)),
        "n_classes": len(class_names),
        "with_knowledge": bool(args.with_knowledge),
        "branch_mode": args.branch_mode,
        "accuracy": accuracy,
        "knowledge_hits": sum(1 for p in bank.provenance if p["hit"]),
    }
    full_report = None
    if labels is not None:
        pretrain = None
        if args.pretrain_concepts:
            pretrain = [concept for _, concept in read_lines(args.pretrain_concepts)]
        full_report = evaluation.make_eval_report(
            params,
            preds,
            labels,
            bank,
            eval_options={
                "with_knowledge": bool(args.with_knowledge),
                "branch_mode": args.branch_mode,
                "source": args.source,
            },
            pretrain_concepts=pretrain,
            with_knowledge=args.with_knowledge,
        )
        report["concept_overlap_pct"] = full_report.concept_overlap_pct
        report["knowledge_coverage_pct"] = full_report.knowledge_coverage_pct
    if args.out:
        payload = dict(report)
        payload["predictions"] = [int(p) for p in preds]
        payload["provenance"] = bank.provenance
        if full_report is not None:
            payload["report"] = full_report.to_dict()
        _write_json(args.out, payload)
    if args.breakdown_csv and full_report is not None:
        evaluation.write_breakdown_csv(
            [
                {
                    "dataset": args.dataset_name,
                    "score": full_report.top1_accuracy,
                    "concept_overlap": full_report.concept_overlap_pct,
                    "knowledge_coverage": full_report.knowledge_coverage_pct,
                }
            ],
            args.breakdown_csv,
        )
    return report


def _cmd_eval_probe(args) -> dict:
    if args.shots < 1 or args.probe_seeds < 1:
        raise ConfigError("--shots and --probe-seeds must be >= 1")
    params, _ = enc.load_checkpoint(args.checkpoint)
    images, labels = _load_labeled_images(args.images, params.config.image_input_dim)
    if labels is None:
        raise DataError(f"{args.images}: eval-probe needs labeled images")
    feats = evaluation.unit_image_features(params, images)
    try:
        result = evaluation.linear_probe(
            feats, labels, shots_per_class=args.shots, seeds=tuple(range(args.probe_seeds))
        )
    except DataError as exc:  # a class too small to leave a held-out remainder
        raise DataError(f"{args.images}: {exc}") from exc
    return {
        "command": "eval-probe",
        "shots": args.shots,
        "accuracy": result.accuracy,
        "per_seed": result.per_seed,
    }


def _cmd_ground_train(args) -> dict:
    cfg = _encoder_config(args, image_dim=args.embed_dim)
    focal = grounding.FocalParams(args.focal_alpha, args.focal_gamma)
    class_names = _load_class_names(args.classes)
    regions = grounding.load_regions_jsonl(args.regions, len(class_names), cfg.embed_dim)
    unlabeled = next((r.image_id for r in regions if r.targets is None), None)
    if unlabeled is not None:
        raise DataError(f"{args.regions}: image_id {unlabeled!r} has no targets; "
                        "ground-train needs targets on every region row")
    store = _load_store(args) if args.with_knowledge else None
    texts = grounding.category_texts(class_names, store, args.source, cfg.max_tokens)
    params = enc.init_params(cfg, seed=args.seed)
    token_ids = [enc.text_to_ids(t, cfg, pooling="cls") for t in texts]
    spec = enc.LossSpec(loss="ground_focal", pooling="cls", focal=focal)

    def make_batch(batch: list[grounding.RegionSet]) -> enc.TrainBatch:
        (region,) = batch
        return enc.TrainBatch(
            token_ids=token_ids, region_features=region.features, targets=region.targets
        )

    trace, _ = trainer.fit(
        params, spec, regions, make_batch, args.epochs, 1,
        args.optimizer, args.learning_rate, args.seed,
    )
    enc.save_checkpoint(
        params,
        args.out_checkpoint,
        meta={"task": "grounding", "seed": args.seed, "classes": class_names},
    )
    if args.trace:
        trainer.save_trace_csv(trace, args.trace, header="step,focal_loss")
    return {
        "command": "ground-train",
        "checkpoint": str(args.out_checkpoint),
        "steps": len(trace),
        "final_loss": trace[-1][1] if trace else None,
    }


def _cmd_ground_eval(args) -> dict:
    params, _ = enc.load_checkpoint(args.checkpoint)
    class_names = _load_class_names(args.classes)
    regions = grounding.load_regions_jsonl(args.regions, len(class_names), params.config.embed_dim)
    store = _load_store(args) if args.with_knowledge else None
    texts = grounding.category_texts(class_names, store, args.source, params.config.max_tokens)
    bank = grounding.encode_phrases_parallel(params, texts)
    rows = []
    accuracies = []
    for region in regions:
        preds = grounding.classify_regions(region, bank)
        rows.append(
            {
                "image_id": region.image_id,
                "predictions": [
                    {"category": int(k), "score": s} for k, s in preds
                ],
            }
        )
        if region.targets is not None:
            acc = grounding.region_accuracy(preds, region.targets)
            if acc is not None:
                accuracies.append(acc)
    if args.out:
        _write_json(args.out, rows)
    return {
        "command": "ground-eval",
        "n_images": len(regions),
        "accuracy": float(np.mean(accuracies)) if accuracies else None,
        "with_knowledge": bool(args.with_knowledge),
    }


def _cmd_bench_synth(args) -> dict:
    cfg = synth.SynthConfig(
        n_common=args.common_classes,
        n_rare=args.rare_classes,
        train_per_class=args.train_per_class,
        eval_per_class=args.eval_per_class,
        noise=args.noise,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seeds=tuple(range(args.n_seeds)),
        empty_knowledge=args.empty_knowledge,
    )
    report = synth.run_bench(cfg)
    if args.out:
        _write_json(args.out, report)
    return {
        "command": "bench-synth",
        "n_seeds": report["n_seeds"],
        "rare_wins": report["rare_wins"],
        "consistency_wins": report["consistency_wins"],
        "mean_rare_gain": report["mean_rare_gain"],
        "mean_cells": report["mean_cells"],
    }


# ---------------------------------------------------------------------------
# Parser assembly


def _add_store_flags(p):
    p.add_argument("--wordnet", help="WordNet snapshot JSONL")
    p.add_argument("--wiktionary", help="Wiktionary snapshot JSONL")
    p.add_argument("--source", default="wiki_def", choices=SOURCES)


def _add_encoder_flags(p):
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--vocab-size", type=int, default=512)
    p.add_argument("--max-tokens", type=int, default=64)
    p.add_argument("--adapter-bottleneck", type=int, default=8)


def build_parser() -> _Parser:
    parser = _Parser(prog="lexivis", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("augment", help="knowledge-augment a triplet dataset")
    _add_store_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", default="concat", choices=("concat", "combine"))
    p.add_argument("--lexicon")
    p.add_argument("--template", default=compose.DEFAULT_TEMPLATE)
    p.add_argument("--max-tokens", type=int, default=compose.DEFAULT_MAX_TOKENS)
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("stats", help="dataset concept/vocabulary statistics")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--min-freq", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("coverage", help="knowledge coverage for a query list")
    _add_store_flags(p)
    p.add_argument("--queries", required=True)
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("train", help="contrastive pretraining on a triplet dataset")
    p.add_argument("--source", default="wiki_def", choices=SOURCES)
    _add_encoder_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--trace")
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--optimizer", default="adam", choices=trainer.OPTIMIZERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="scratch_1branch", choices=trainer.TRAIN_MODES)
    p.add_argument("--base-checkpoint")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval-zeroshot", help="zero-shot classification from a checkpoint")
    _add_store_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--with-knowledge", action="store_true")
    p.add_argument("--branch-mode", default="one_branch", choices=evaluation.BRANCH_MODES)
    p.add_argument("--template", default=compose.DEFAULT_TEMPLATE)
    p.add_argument("--templates", help="file with one template per line (ensemble)")
    p.add_argument("--pretrain-concepts", help="file of pretraining concepts for overlap")
    p.add_argument("--breakdown-csv", help="write a one-row per-dataset breakdown CSV")
    p.add_argument("--dataset-name", default="eval")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval_zeroshot)

    p = sub.add_parser("eval-probe", help="few-shot linear probe on frozen features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--shots", type=int, default=5)
    p.add_argument("--probe-seeds", type=int, default=3)
    p.set_defaults(fn=_cmd_eval_probe)

    p = sub.add_parser("ground-train", help="train the grounding text encoder")
    _add_store_flags(p)
    _add_encoder_flags(p)
    p.add_argument("--regions", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--trace")
    p.add_argument("--with-knowledge", action="store_true")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--optimizer", default="adam", choices=trainer.OPTIMIZERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--focal-alpha", type=float, default=0.25)
    p.add_argument("--focal-gamma", type=float, default=2.0)
    p.set_defaults(fn=_cmd_ground_train)

    p = sub.add_parser("ground-eval", help="zero-shot region classification")
    _add_store_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--with-knowledge", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_ground_eval)

    p = sub.add_parser("bench-synth", help="synthetic rare-concept transfer benchmark")
    p.add_argument("--n-seeds", type=int, default=5)
    p.add_argument("--common-classes", type=int, default=8)
    p.add_argument("--rare-classes", type=int, default=8)
    p.add_argument("--train-per-class", type=int, default=16)
    p.add_argument("--eval-per-class", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--empty-knowledge", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench_synth)

    return parser


def _flag_key(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _apply_overrides(parser: _Parser, argv: list[str]) -> list[str]:
    """Fold config-file and environment values in as lowest-priority flags."""
    if not argv:
        return argv
    sub_index = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            i += 2
            continue
        if arg.startswith("-"):
            i += 1
            continue
        sub_index = i
        break
    if sub_index is None:
        return argv
    subcommand = argv[sub_index]
    sub_parser = None
    for action in parser._subparsers._group_actions:
        sub_parser = action.choices.get(subcommand)
        if sub_parser is not None:
            break
    if sub_parser is None:
        return argv

    known = {}
    store_true = set()
    for action in sub_parser._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                known[_flag_key(opt)] = opt
                if isinstance(action, argparse._StoreTrueAction):
                    store_true.add(_flag_key(opt))

    overrides: dict[str, str] = {}
    config_path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif a.startswith("--config="):
            config_path = a.split("=", 1)[1]
    if config_path:
        path = Path(config_path)
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = value
    for key in known:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            overrides[key] = env

    given = {_flag_key(a.split("=", 1)[0]) for a in argv if a.startswith("--")}
    extra: list[str] = []
    for key, value in overrides.items():
        if key in given:
            continue
        if key in store_true:
            if value.lower() in ("1", "true", "yes"):
                extra.append(known[key])
        else:
            extra.extend([known[key], value])
    return argv[: sub_index + 1] + extra + argv[sub_index + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_overrides(parser, argv)
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        summary = args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, SnapshotError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LexivisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    _emit(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
