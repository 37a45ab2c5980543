"""The lexivis benchmark: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload synth_rare --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` under ``.perfbench_tmp/``,
measures set-up in fresh interpreters, then runs passes of the workload's
operations in-process for about ``--seconds`` seconds and checks every
output. Passes come in pairs on the same input so each output digest is
compared with a repetition; with ``--trace 1`` the second pass of each pair
runs traced, which yields the per-layer metrics and the tracing overhead.

Standard output ends with a human-readable table, one JSON report line
(environment, measured input properties, digests, every stage metric with
median, tail and sample count) and, last, one JSON line with ``correct``,
``attempted``, ``failed`` and the metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class OpResult:
    label: str
    seconds: float = 0.0
    summary: Optional[dict] = None
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class PassResult:
    key: object
    traced: bool
    ops: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def digest(self) -> str:
        return _sha256(*(op.digest or "" for op in self.ops))


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def measure_setup(workload: str, work: Path, seed: int) -> list[float]:
    """Fresh-interpreter set-up times, one probe after another."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(PERFBENCH / "probe.py"), workload, str(work), str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=work,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def run_op(op, trace_id: str, tracer) -> OpResult:
    from workloads import is_finite

    result = OpResult(op.label)
    try:
        with tracer.operation(trace_id, op.span) if tracer else nullcontext():
            result.seconds, result.summary = op.call()
    except Exception as exc:  # any failure of the program counts against error_rate
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    bad = [k for k in op.finite if not is_finite(result.summary.get(k))]
    if bad:
        result.error = f"non-finite {bad}"
    elif op.check and (problem := op.check(result.summary)):
        result.error = problem
    parts = [json.dumps(result.summary, sort_keys=True)]
    for name in op.outputs:
        path = Path(name)
        parts.append(path.read_bytes() if path.exists() else b"<missing>")
    result.digest = _sha256(*parts)
    return result


def run_pass(workload, key, seed: int, index: int, tracer) -> PassResult:
    ops = workload.ops(key, seed)
    for op in ops:
        for name in op.outputs:
            Path(name).unlink(missing_ok=True)
    result = PassResult(key, tracer is not None)
    for i, op in enumerate(ops):
        if result.ops and result.ops[-1].error:
            result.ops.append(OpResult(op.label, error="skipped after an earlier failure"))
            continue
        result.ops.append(run_op(op, f"{index}:{i}", tracer))
    return result


def measure(workload, seed: int, seconds: float, traced: bool):
    """Pairs of passes on each input in turn until the time is used up.

    Every input is run at least once as a pair. Another pair starts only if
    the median pair so far still fits in the remaining time.
    """
    from spans import Tracer

    tracer = Tracer() if traced else None
    keys = workload.keys(seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    pair = 0
    while True:
        key = keys[pair % len(keys)]
        for rep in range(2):
            gc.collect()  # so one pass's garbage is not collected inside the next
            if traced and rep == 1:
                with tracer.installed():
                    passes.append(run_pass(workload, key, seed, len(passes), tracer))
            else:
                passes.append(run_pass(workload, key, seed, len(passes), None))
        pair += 1
        pair_s = median(passes[i].seconds + passes[i + 1].seconds for i in range(0, len(passes), 2))
        if pair >= len(keys) and time.perf_counter() - start + pair_s > seconds:
            break
    return passes, tracer


def check_repeats(passes: list[PassResult]) -> None:
    """Fail every operation whose digest differs from the first run on the same input."""
    first: dict = {}
    for p in passes:
        for i, op in enumerate(p.ops):
            if op.error:
                continue
            ref = first.setdefault((p.key, i), op.digest)
            if op.digest != ref:
                op.error = "output digest differs from the first repetition on this input"


def workload_digest(passes: list[PassResult]) -> str:
    by_key = {}
    for p in passes:
        if all(op.error is None for op in p.ops):
            by_key.setdefault(str(p.key), p.digest)
    return _sha256(*(f"{k}={v}" for k, v in sorted(by_key.items())))


def stage_metrics(workload, passes: list[PassResult]) -> dict:
    from metrics import timing

    out = {}
    for name, (labels, unit, work) in workload.stages.items():
        values = []
        for p in passes:
            ops = [op for op in p.ops if op.label in labels and op.error is None]
            if not ops:
                continue
            spent = sum(op.seconds for op in ops)
            values.append(sum(work(op.summary) for op in ops) / spent if work else spent)
        out[name] = timing(values, unit, higher_is_worse=work is None)
    return out


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, m in rows.items():
        if "median" in m:
            tail = f"{m['tail']['pct']} {m['tail']['value']:.6g}" if m["tail"] else "no tail (n < 11)"
            med = "n/a" if m["median"] is None else f"{m['median']:.6g}"
            print(f"  {name:<34} {med:>12} {m['unit']:<11} median of n={m['n']}; {tail}")
        else:
            print(f"  {name:<34} {m['value']:>12.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lexivis" / "__init__.py").is_file():
        print(f"perfbench: lexivis sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from metrics import count_unit, layer_metrics, share_name, timing
    from workloads import WORKLOADS, synth_quality

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    tmp = ROOT / ".perfbench_tmp"
    work = tmp / f"{workload.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        workload.generate(work, args.seed)
        setup = None if traced else measure_setup(workload.name, work, args.seed)
        os.chdir(work)
        passes, tracer = measure(workload, args.seed, args.seconds, traced)
        check_repeats(passes)
        inputs = workload.inputs(work, args.seed, passes)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp.rmdir()
        except OSError:
            pass

    ops = [op for p in passes for op in p.ops]
    failed = sum(op.error is not None for op in ops)
    for op in ops:
        if op.error:
            print(f"perfbench: {op.label} failed: {op.error}", file=sys.stderr)
    plain = [p for p in passes if not p.traced]
    e2e = {
        "wall_s": timing([p.seconds for p in plain], "s"),
        **stage_metrics(workload, plain),
        "error_rate": {"value": failed / len(ops), "unit": "failed/attempted"},
    }
    if workload.name == "synth_rare":
        # From the traced passes when there are any: their digests were checked
        # against the untraced repetitions, and these are the figures to compare
        # with direct calls.
        quality = synth_quality([p for p in passes if p.traced] or passes)
        e2e.update(quality)
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "why": workload.why,
        "load": "closed loop, one client, in-process, no threads or processes while measuring",
        "environment": environment(),
        "inputs": inputs,
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "pass_seconds": [[str(p.key), p.traced, p.seconds] for p in passes],
        "attempted": len(ops), "failed": failed,
        "output_digest": workload_digest(passes),
    }
    if traced:
        traced_passes = [p for p in passes if p.traced]
        seconds, counts, dists = layer_metrics(tracer.spans, len(traced_passes))
        overhead = median(p.seconds for p in traced_passes) / median(p.seconds for p in plain) - 1.0
        metrics = {share_name(k): {"value": v / seconds["wall_s"], "unit": "fraction"}
                   for k, v in seconds.items() if k != "wall_s"}
        metrics.update({k: {"value": v, "unit": count_unit(k)} for k, v in counts.items()})
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "fraction"}
        report["per_layer_seconds_per_pass"] = seconds
        report["per_layer_distributions"] = dists
        report["patch_sites"] = tracer.patch_sites
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e["setup_s"] = timing(setup, "s")
        e2e["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        metrics = {
            "setup_s": {"value": e2e["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    report["end_to_end"] = e2e

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={len(ops)} failed={failed} digest={report['output_digest'][:16]}")
    print_table("end-to-end (untraced passes):", e2e)
    if traced:
        print_table("per-layer (traced passes):", metrics)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
