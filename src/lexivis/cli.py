"""Command-line pipeline with hermetic, file-based stages.

Subcommands: augment, stats, coverage, train, eval-zeroshot, eval-probe,
ground-train, ground-eval, bench-synth. Every stage reads declared inputs,
writes declared outputs, and prints a one-line JSON summary to stdout.
Exit codes: 0 success, 1 usage/config error, 2 data error.

Flags may also come from a flat ``key=value`` file given as ``--config FILE``
before the subcommand, keyed by the flag's dest (``min_freq``), and from
variables named ``LEXIVIS_`` plus the upper-cased dest. Each value is checked
like the flag (an error names ``path:lineno`` or the variable) and may supply
a required flag; ``1``, ``true`` or ``yes`` (any case) sets a ``store_true``
flag, any other value clears it. Precedence: explicit flag, environment, file.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import itertools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import compose, encoder as enc, evaluation, grounding, queries, synth, trainer
from .errors import ConfigError, DataError, LexivisError, NumericsError
from .knowledge import (
    SNAPSHOT_OF,
    SOURCES,
    KnowledgeStore,
    atomic_open,
    finite_array,
    iter_jsonl,
    knowledge_coverage,
    label_field,
    load_wiktionary_snapshot,
    load_wordnet_snapshot,
    read_lines,
)

ENV_PREFIX = "LEXIVIS_"
_OUTPUTS = ("out", "out_checkpoint", "trace", "breakdown_csv")  # the dests of written files

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Keeps each flag's action by dest, for the config file and the environment.
    def __init__(self, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(**kwargs)
        self.flags.pop("help", None)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    # argparse exits with code 2 on usage errors; the pipeline contract is 1.
    def error(self, message):
        raise _UsageError(message)


def _load_store(args) -> KnowledgeStore | None:
    """The one snapshot ``--source`` reads; without its flag that is a config error. None,
    reading nothing, where ``--with-knowledge`` gates the snapshot flags and is unset."""
    if not getattr(args, "with_knowledge", True):
        return None
    snapshot = SNAPSHOT_OF[args.source]
    path = getattr(args, snapshot)
    if not path:
        raise ConfigError(f"source {args.source} needs --{snapshot}")
    load = load_wordnet_snapshot if snapshot == "wordnet" else load_wiktionary_snapshot
    return KnowledgeStore(**{snapshot: load(path)})


def _load_lexicon(args) -> dict:
    return queries.load_lexicon(args.lexicon) if args.lexicon else {}


def _write_json(path, obj) -> None:
    """An indented JSON output file, streamed and written atomically."""
    with atomic_open(path) as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_class_names(path) -> list[str]:
    """The class list of the eval and grounding commands: a non-empty JSON array."""
    try:
        names = json.loads("\n".join(line for _, line in read_lines(path)))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise DataError(f"{path}: classes must be a non-empty JSON list of strings")
    first: dict[str, int] = {}  # each normalized name's first index
    for i, name in enumerate(names):
        if not name.strip():
            raise DataError(f"{path}: class {i} is blank")
        earlier = first.setdefault(queries.normalize_text(name), i)
        if earlier != i:  # the two would encode the same texts: the later one never wins
            raise DataError(f"{path}: class {i} {name!r} repeats class {earlier}")
    return names


def _load_labeled_images(path, width: int, n_classes: int | None = None):
    """JSONL rows {image: [``width`` finite floats], label: int} used by the eval commands.

    Either every row has a label or none does (the labels are then None).
    With ``n_classes``, a label must index one of that many classes.
    """
    images, labels = [], []
    for where, obj in iter_jsonl(path, ("image",)):
        image = finite_array(obj["image"], 1, where, "image", width)
        label = label_field(obj, where)
        if label is not None and n_classes is not None and not 0 <= label < n_classes:
            raise DataError(f"{where}: label {label} must index the {n_classes} classes")
        if labels and (label is None) != (labels[0] is None):
            raise DataError(f"{where}: either every row has a label or none does")
        images.append(image)
        labels.append(label)
    return np.stack(images), (None if labels[0] is None else np.asarray(labels))


# Each flag that fills a config field or a library parameter, by dest: the name it fills. The
# flag takes that name's type and default (_add_fields); a command builds a config from the
# same pairs (_fill).
_ENCODER_FLAGS = {  # read None until set, so continual training can check only the set ones
    "embed_dim": "embed_dim", "layers": "text_layers", "heads": "num_heads",
    "hidden_dim": "hidden_dim", "vocab_size": "vocab_size", "max_tokens": "max_tokens",
    "adapter_bottleneck": "adapter_bottleneck",
}
# RunConfig: ground-train reads the run flags, train also TrainConfig's own two.
_RUN_FLAGS = {name: name for name in ("epochs", "learning_rate", "optimizer", "seed")}
_TRAIN_FLAGS = {name: name for name in ("batch_size", "mode")}
_FOCAL_FLAGS = {"focal_alpha": "alpha", "focal_gamma": "gamma"}
_AUGMENT_FLAGS = {name: name for name in ("scheme", "template", "max_tokens")}
_PROBE_FLAGS = {"shots": "shots_per_class", "probe_seeds": "n_seeds"}
_SYNTH_FLAGS = {
    "n_seeds": "n_seeds", "common_classes": "n_common", "rare_classes": "n_rare",
    "train_per_class": "train_per_class", "eval_per_class": "eval_per_class", "noise": "noise",
    "epochs": "epochs", "batch_size": "batch_size", "learning_rate": "learning_rate",
    "empty_knowledge": "empty_knowledge",
}


def _add_fields(p, owner, pairs: dict, unset: bool = False, **choices) -> None:
    """A flag per ``pairs`` dest, typed and defaulted by the field of config class ``owner``,
    or the parameter of library function ``owner``, that it fills (None with ``unset``)."""
    params = inspect.signature(owner).parameters
    for dest, name in pairs.items():
        flag, default = "--" + dest.replace("_", "-"), params[name].default
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true", default=default)
        else:
            p.add_argument(flag, type=type(default), default=None if unset else default,
                           choices=choices.get(dest))


def _fill(args, cls, pairs: dict):
    """``cls`` built from the set flags of ``pairs``; its other fields keep their defaults."""
    values = {name: getattr(args, dest) for dest, name in pairs.items()}
    return cls(**{name: value for name, value in values.items() if value is not None})


def _check_outputs(args) -> None:
    """Refuse before the work an output ``atomic_open`` refuses after it, or two naming one file."""
    flags: dict[Path, str] = {}  # each resolved path's first output flag; an input may share it
    for dest in filter(lambda dest: getattr(args, dest, None), _OUTPUTS):
        path, flag = Path(getattr(args, dest)), "--" + dest.replace("_", "-")
        if not path.parent.is_dir():
            os.stat(str(path))  # raises as opening it would: its directory is missing or a file
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if flags.setdefault(path.resolve(), flag) != flag:
            raise ConfigError(f"{flags[path.resolve()]} and {flag} name one file: {path}")


@contextmanager
def _stage(name: str):
    """Name ``name`` in a floating-point fault of the block, which ``main``'s rule raises."""
    try:
        yield
    except FloatingPointError as exc:
        raise NumericsError(f"{exc} ({name})") from exc


def _load_checkpoint(path, command: str) -> enc.ModelParams:
    """A checkpoint's params, if it was made for ``command``'s task: ground-eval reads the
    ``meta.task`` "grounding" that ground-train writes, and the other commands refuse it."""
    params, meta = enc.load_checkpoint(path)
    task = meta.get("task") if isinstance(meta, dict) else None
    grounding = command == "ground-eval"
    if (task == "grounding") != grounding:
        kind = "a grounding" if grounding else "a contrastive"
        raise DataError(f"{path}: meta.task is {task!r}; {command} needs {kind} checkpoint")
    return params


def _save_run(args, params: enc.ModelParams, meta: dict, trace: list, **header) -> dict:
    """The end of ``train`` and ``ground-train``: the checkpoint, the trace, the summary's start."""
    enc.save_checkpoint(params, args.out_checkpoint, meta=meta)
    if args.trace:
        trainer.save_trace_csv(trace, args.trace, **header)
    return {"checkpoint": str(args.out_checkpoint), "steps": len(trace)}


def _check_base_flags(args, base: enc.EncoderConfig) -> None:
    """Continual training keeps the base's encoder: an encoder flag that is set must agree."""
    for dest, name in _ENCODER_FLAGS.items():
        value, kept = getattr(args, dest), getattr(base, name)
        if value is not None and value != kept:
            raise ConfigError(f"--{dest.replace('_', '-')} {value} differs from the base "
                              f"checkpoint's {kept}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_augment(args) -> dict:
    if args.max_tokens < 1:
        raise ConfigError(f"--max-tokens must be >= 1, got {args.max_tokens}")
    store = _load_store(args)
    lexicon = _load_lexicon(args)
    dataset = trainer.DatasetFile(Path(args.dataset))
    audit: dict[str, int] = {}
    rows = trainer.iter_augmented(dataset, audit, store, args.source, scheme=args.scheme,
                                  template=args.template, max_tokens=args.max_tokens,
                                  lexicon=lexicon)
    trainer.save_dataset_jsonl(rows, args.out)
    return {"out": str(args.out), **audit}


def _cmd_stats(args) -> dict:
    lexicon = _load_lexicon(args)
    dataset = trainer.DatasetFile(Path(args.dataset))
    stats = evaluation.dataset_stats(dataset, lexicon=lexicon, min_freq=args.min_freq)
    if args.out:
        _write_json(args.out, stats)
    return stats


def _cmd_coverage(args) -> dict:
    store = _load_store(args)
    query_list = [query for _, query in read_lines(args.queries)]
    cov = knowledge_coverage(query_list, store, args.source)
    return {"source": args.source, "queries": len(query_list), "coverage": cov}


def _cmd_train(args) -> dict:
    continual = args.mode == "continual_adapters"
    if continual != (args.base_checkpoint is not None):  # checked before any input is read
        raise ConfigError("continual_adapters mode requires a base checkpoint" if continual else
                          f"--base-checkpoint needs --mode continual_adapters, not {args.mode}")
    config = _fill(args, trainer.TrainConfig, {**_RUN_FLAGS, **_TRAIN_FLAGS})
    base = None
    if continual:  # the base's encoder: only the flags that are set are checked against it
        base = _load_checkpoint(args.base_checkpoint, args.subcommand)
        _check_base_flags(args, base.config)
        config = replace(config, encoder=base.config)
    else:  # the dataset's first row sets the width
        config = replace(config, encoder=_fill(args, enc.EncoderConfig, _ENCODER_FLAGS))
    rows = trainer.iter_dataset_jsonl(args.dataset, base.config.image_input_dim if base else None)
    first = next(rows)
    config = replace(config, encoder=replace(config.encoder, image_input_dim=first.image.size))
    result = trainer.train(config, itertools.chain([first], rows), base)
    cut, distinct, longest = result.cut
    if cut:  # stderr only: the summary and checkpoint stay as they are without a cut
        print(f"train: {cut} of {distinct} distinct texts cut to max_tokens "
              f"{result.params.config.max_tokens} (longest {longest} words)", file=sys.stderr)
    return {
        **_save_run(args, result.params, {"mode": args.mode, "seed": args.seed}, result.trace),
        "final_l_ic": result.trace[-1][3] if result.trace else None,
        "branch_counts": result.branch_counts,
    }


def _cmd_eval_zeroshot(args) -> dict:
    if args.templates and args.template:
        raise ConfigError("give --templates or --template, not both")
    store = _load_store(args)
    params = _load_checkpoint(args.checkpoint, args.subcommand)
    class_names = _load_class_names(args.classes)
    images, labels = _load_labeled_images(
        args.images, params.config.image_input_dim, len(class_names)
    )
    if labels is None and (args.breakdown_csv or args.pretrain_concepts):
        flag = "--breakdown-csv" if args.breakdown_csv else "--pretrain-concepts"
        raise DataError(f"{args.images}: {flag} needs labeled images")
    templates = (compose.load_templates(args.templates) if args.templates
                 else args.template and [args.template])  # None: the library's default prompt
    with _stage("encoding class texts"):
        bank = evaluation.build_class_embeddings(params, class_names, store, args.source,
                                                 args.branch_mode, templates)
    with _stage("encoding eval images"):
        preds, _ = evaluation.zero_shot_classify(params, images, bank)
    summary = {
        "n_images": int(len(images)),
        "n_classes": len(class_names),
        "with_knowledge": bool(args.with_knowledge),
        "branch_mode": args.branch_mode,
        "accuracy": None,
        "knowledge_hits": sum(1 for p in bank.provenance if p["hit"]),
    }
    payload = {"predictions": [int(p) for p in preds], "provenance": bank.provenance}
    if labels is not None:
        pretrain = None
        if args.pretrain_concepts:
            pretrain = [concept for _, concept in read_lines(args.pretrain_concepts)]
        options = {"with_knowledge": summary["with_knowledge"], "branch_mode": args.branch_mode,
                   "source": args.source}
        report = evaluation.make_eval_report(
            params, preds, labels, bank, eval_options=options, pretrain_concepts=pretrain
        )
        summary["accuracy"] = report["top1_accuracy"]
        summary["concept_overlap_pct"] = report["concept_overlap_pct"]
        summary["knowledge_coverage_pct"] = report["knowledge_coverage_pct"]
        payload["report"] = report
    if args.out:
        _write_json(args.out, {"command": args.subcommand, **summary, **payload})
    if args.breakdown_csv:  # the images are labeled, as checked above
        evaluation.write_breakdown_csv([(args.dataset_name, payload["report"])], args.breakdown_csv)
    return summary


def _cmd_eval_probe(args) -> dict:
    if args.shots < 1 or args.probe_seeds < 1:
        raise ConfigError("--shots and --probe-seeds must be >= 1")
    params = _load_checkpoint(args.checkpoint, args.subcommand)
    images, labels = _load_labeled_images(args.images, params.config.image_input_dim)
    if labels is None:
        raise DataError(f"{args.images}: eval-probe needs labeled images")
    with _stage("encoding eval images"):
        feats = evaluation.unit_image_features(params, images)
    try:
        result = evaluation.linear_probe(feats, labels, args.shots, n_seeds=args.probe_seeds)
    except DataError as exc:  # a class too small to leave a held-out remainder
        raise DataError(f"{args.images}: {exc}") from exc
    return {"shots": args.shots, **result}


def _cmd_ground_train(args) -> dict:
    cfg = _fill(args, enc.EncoderConfig, _ENCODER_FLAGS)
    cfg = replace(cfg, image_input_dim=cfg.embed_dim)  # as wide as the region features
    focal = _fill(args, grounding.FocalParams, _FOCAL_FLAGS)
    run = _fill(args, trainer.RunConfig, _RUN_FLAGS)
    store = _load_store(args)
    class_names = _load_class_names(args.classes)
    regions = grounding.load_regions_jsonl(args.regions, len(class_names), cfg.embed_dim)
    unlabeled = next((r.image_id for r in regions if r.targets is None), None)
    if unlabeled is not None:
        raise DataError(f"{args.regions}: image_id {unlabeled!r} has no targets; "
                        "ground-train needs targets on every region row")
    texts = grounding.category_texts(class_names, store, args.source, cfg.max_tokens)
    params = enc.init_params(cfg, seed=run.seed)
    token_ids = [enc.text_to_ids(t, cfg, grounding.POOLING) for t in texts]
    spec = enc.LossSpec(loss="ground_focal", focal=focal)

    def make_batch(batch: list[grounding.RegionSet]) -> enc.TrainBatch:
        (region,) = batch
        return enc.TrainBatch(
            token_ids=token_ids, region_features=region.features, targets=region.targets
        )

    trace, _ = trainer.fit(params, spec, regions, make_batch, run, 1)
    meta = {"task": "grounding", "seed": run.seed, "classes": class_names}
    return {
        **_save_run(args, params, meta, trace, header="step,focal_loss"),
        "final_loss": trace[-1][1] if trace else None,
    }


def _cmd_ground_eval(args) -> dict:
    store = _load_store(args)
    params = _load_checkpoint(args.checkpoint, args.subcommand)
    class_names = _load_class_names(args.classes)
    regions = grounding.load_regions_jsonl(args.regions, len(class_names), params.config.embed_dim)
    texts = grounding.category_texts(class_names, store, args.source, params.config.max_tokens)
    with _stage("encoding the phrase bank"):
        bank = grounding.encode_phrases_parallel(params, texts)
    rows, accuracies = [], []
    for region in regions:
        preds = grounding.classify_regions(region, bank)
        rows.append({"image_id": region.image_id,
                     "predictions": [{"category": int(k), "score": s} for k, s in preds]})
        if region.targets is not None:
            acc = grounding.region_accuracy(preds, region.targets)
            if acc is not None:
                accuracies.append(acc)
    if args.out:
        _write_json(args.out, rows)
    return {
        "n_images": len(regions),
        "accuracy": float(np.mean(accuracies)) if accuracies else None,
        "with_knowledge": bool(args.with_knowledge),
    }


def _cmd_bench_synth(args) -> dict:
    report = synth.run_bench(_fill(args, synth.SynthConfig, _SYNTH_FLAGS))
    if args.out:
        _write_json(args.out, report)
    return {
        "n_seeds": report["n_seeds"],
        "rare_wins": report["rare_wins"],
        "consistency_wins": report["consistency_wins"],
        "mean_rare_gain": report["mean_rare_gain"],
        "mean_cells": report["mean_cells"],
    }


# ---------------------------------------------------------------------------
# Parser assembly


def _add_store_flags(p, gated: bool = False):
    """The flags ``_load_store`` reads; ``gated`` adds ``--with-knowledge``, which reads them."""
    p.add_argument("--wordnet", help="WordNet snapshot JSONL")
    p.add_argument("--wiktionary", help="Wiktionary snapshot JSONL")
    _add_fields(p, evaluation.build_class_embeddings, {"source": "source"}, source=SOURCES)
    if gated:
        p.add_argument("--with-knowledge", action="store_true")


def _add_run_flags(p):
    """The run settings ``train`` and ``ground-train`` share."""
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--trace")
    _add_fields(p, trainer.RunConfig, _RUN_FLAGS, optimizer=trainer.OPTIMIZERS)


def build_parser() -> _Parser:
    parser = _Parser(prog="lexivis", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    parser.subcommands = sub.choices  # the subparser of each name

    p = sub.add_parser("augment", help="knowledge-augment a triplet dataset")
    _add_store_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lexicon")
    _add_fields(p, trainer.iter_augmented, _AUGMENT_FLAGS, scheme=compose.CAPTION_SCHEMES)
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("stats", help="dataset concept/vocabulary statistics")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lexicon")
    _add_fields(p, evaluation.dataset_stats, {"min_freq": "min_freq"})
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("coverage", help="knowledge coverage for a query list")
    _add_store_flags(p)
    p.add_argument("--queries", required=True)
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("train", help="contrastive pretraining on a triplet dataset")
    _add_fields(p, enc.EncoderConfig, _ENCODER_FLAGS, unset=True)
    _add_run_flags(p)
    p.add_argument("--dataset", required=True)
    _add_fields(p, trainer.TrainConfig, _TRAIN_FLAGS, mode=trainer.TRAIN_MODES)
    p.add_argument("--base-checkpoint")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval-zeroshot", help="zero-shot classification from a checkpoint")
    _add_store_flags(p, gated=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--classes", required=True)
    _add_fields(p, evaluation.build_class_embeddings, {"branch_mode": "branch_mode"},
                branch_mode=evaluation.BRANCH_MODES)
    p.add_argument("--template", type=compose.PromptTemplate, help="not with --templates")
    p.add_argument("--templates", help="file with one template per line (ensemble)")
    p.add_argument("--pretrain-concepts", help="file of pretraining concepts for overlap")
    p.add_argument("--breakdown-csv", help="write a one-row per-dataset breakdown CSV")
    p.add_argument("--dataset-name", default="eval")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval_zeroshot)

    p = sub.add_parser("eval-probe", help="few-shot linear probe on frozen features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True)
    _add_fields(p, evaluation.linear_probe, _PROBE_FLAGS)
    p.set_defaults(fn=_cmd_eval_probe)

    p = sub.add_parser("ground-train", help="train the grounding text encoder")
    _add_store_flags(p, gated=True)
    _add_fields(p, enc.EncoderConfig, _ENCODER_FLAGS, unset=True)
    _add_run_flags(p)
    p.add_argument("--regions", required=True)
    p.add_argument("--classes", required=True)
    _add_fields(p, grounding.FocalParams, _FOCAL_FLAGS)
    p.set_defaults(fn=_cmd_ground_train)

    p = sub.add_parser("ground-eval", help="zero-shot region classification")
    _add_store_flags(p, gated=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_ground_eval)

    p = sub.add_parser("bench-synth", help="synthetic rare-concept transfer benchmark")
    _add_fields(p, synth.SynthConfig, _SYNTH_FLAGS)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench_synth)

    return parser


def _set_default(action: argparse.Action, where: str, value: str) -> None:
    """Make a config or environment string the flag's default, checked like the flag."""
    action.required = False
    if action.nargs == 0:  # store_true
        action.default = value.lower() in ("1", "true", "yes")
        return
    try:  # argparse checks neither type nor choices on a default
        action.default = action.type(value) if action.type else value
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if action.choices is not None and action.default not in action.choices:
        raise ConfigError(f"{where} must be one of {', '.join(action.choices)}")


def _set_flag_defaults(parser: _Parser, argv: list[str]) -> None:
    """Fold the ``--config`` file, then ``LEXIVIS_*`` variables, into the subcommand's defaults."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("subcommand", nargs="?")
    pre.add_argument("rest", nargs=argparse.REMAINDER)  # the subcommand's own flags
    known = pre.parse_known_args(argv)[0]
    sub = parser.subcommands.get(known.subcommand)
    if sub is None:
        return
    for where, line in read_lines(known.config) if known.config else ():
        if line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{where}: expected key=value")
        if key not in sub.flags:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        _set_default(sub.flags[key], f"{where}: {key}", value)
    for key, action in sub.flags.items():
        name = ENV_PREFIX + key.upper()
        if name in os.environ:
            _set_default(action, name, os.environ[name])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _set_flag_defaults(parser, argv)
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        _check_outputs(args)
        with np.errstate(**trainer.FLOAT_RULE):
            summary = args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, ValueError) as exc:  # before LexivisError, DataError's base
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LexivisError, FloatingPointError) as exc:
        step = getattr(exc, "diagnostics", {}).get("step")  # set by trainer.fit
        print(f"error: {exc}" + (f" (training step {step})" if step is not None else ""),
              file=sys.stderr)
        return EXIT_DATA
    print(json.dumps({"command": args.subcommand, **summary}, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
