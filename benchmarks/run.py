"""Run one wlann benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train_8s --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory and nowhere else, and the run exits with code 2 when it is
missing. BLAS threads are pinned to one in this process's environment
before NumPy loads.

With `--trace 0` the run sets up its inputs five times (the median is
`setup_s`), runs one untimed warm-up op, then runs ops back to back for
`--seconds` and prints the end-to-end metrics. With `--trace 1` it sets
up once under the tracer, then for `--seconds` alternates untraced ops
with ops under the tracer, and prints the per-layer metrics. Either way
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The environment record, every
op's time and (with tracing) every span go to `.bench_results/` in the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

BLAS_THREADS = "1"
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
# peak_rss_mb is read after this many timed ops, so that it covers the
# same work in every run: the heap can keep growing op by op, and a run
# on a faster machine makes more ops.
RSS_OPS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# Functions whose self time is reported per op, and per set-up.
OP_SELF = (
    "dsp.resample", "dsp.apply_filter", "dsp.log_mel", "dsp.spec_augment",
    "ndiff.conv1d", "ndiff.conv1d_vjp",
    "ndiff.multi_head_self_attention", "ndiff.multi_head_self_attention_vjp",
    "ndiff.softmax", "ndiff.softmax_vjp", "ndiff.layer_norm", "ndiff.layer_norm_vjp",
    "ndiff.gelu", "ndiff.gelu_vjp", "ndiff.linear", "ndiff.linear_vjp",
    "ndiff.bigru", "ndiff.bigru_vjp",
    "model.waveform_branch", "model.waveform_branch_vjp", "model.ast_branch",
    "model.ast_branch_vjp", "model.classify_head", "model.classify_head_vjp",
    "model.prepare_input",
    "train.focal_loss", "train.adam.step", "train.adam.zero_grads", "train.save_checkpoint",
    "train.load_checkpoint", "train.prepare_split",
    "dataio.load_wav", "dataio.event_clip",
    "scoring.score", "scoring.render_report",
)
OP_CALLS = ("dsp.resample",) + tuple(name for name in OP_SELF if name.startswith("ndiff."))
OP_COUNTS = (
    ("dsp.resample", "samples_out", "1/op"),
    ("dataio.load_wav", "bytes", "B/op"),
    ("train.save_checkpoint", "bytes", "B/op"),
)
SETUP_SELF = (
    "dataio.generate_synthetic_corpus", "dataio.write_wav", "dataio.load_corpus_splits",
    "dataio.load_wav", "dataio.event_clip", "train.prepare_split", "model.prepare_input",
    "dsp.resample", "dsp.apply_filter", "dsp.log_mel",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny geometry and one set-up, for the smoke test")
    return parser.parse_args(argv)


class OpRecord:
    __slots__ = ("seconds", "items", "failures")

    def __init__(self, seconds, items, failures):
        self.seconds, self.items, self.failures = seconds, items, failures


def run_op(workload, tracer=None, index=0) -> OpRecord:
    """Time one op, then check its outputs with the clock stopped.

    An op that raises counts as failed; the run goes on.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.op()
        else:
            with tracer.root("op", index):
                result = workload.op()
        seconds = time.perf_counter() - start
        return OpRecord(seconds, result.items, result.check())
    except Exception:
        seconds = time.perf_counter() - start
        return OpRecord(seconds, 0.0, [traceback.format_exc(limit=3)])


# ---------------------------------------------------------------------------
# Environment record


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(workload, seed) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256_16": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ[var] for var in THREAD_VARIABLES},
        "workers": workload.workers,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config": workload.cfg.to_dict(),
    }


# ---------------------------------------------------------------------------
# Metrics


def tail(latencies: list[float]):
    """(value, percentile rank) of the highest percentile with ten samples beyond it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, records, setup_times, peak_mb) -> tuple[dict, dict]:
    """(gated metrics, named metrics) from an untraced run's timed ops."""
    ok = [r for r in records if not r.failures]
    busy = sum(r.seconds for r in records)
    rate = sum(r.items for r in ok) / busy
    latencies = [r.seconds for r in records]
    gated = {
        "items_per_s": (rate, "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    rate_name, rate_unit = workload.rate_metric
    named = {
        "setup_s": gated["setup_s"],
        rate_name: (rate, rate_unit),
        "op_s_p50": gated["op_s_p50"],
        "peak_rss_mb": gated["peak_rss_mb"],
        "error_rate": (sum(1 for r in records if r.failures) / len(records), "share"),
    }
    high = tail(latencies)
    if high is not None:
        named["op_s_tail"] = (high[0], "s")
        named["op_s_tail_rank"] = (high[1], "%")
        named["op_s_tail_samples"] = (len(latencies), "count")
    final_loss = workload.details().get("final_loss")
    if final_loss is not None:
        named["final_loss"] = (final_loss, "loss")
    return gated, named


def per_layer(workload, summary, untraced) -> dict:
    """Per-layer metrics from a traced run's span summary."""
    from counts import attention_forward_flops, cache_bytes, conv_forward_flops
    from wlann.model import network

    n = summary["ops"]
    op, setup = summary["op"], summary["setup"]

    def per_op(name, key):
        return op.get(name, {}).get(key, 0.0) / n

    metrics = {}
    for name in OP_SELF:
        metrics[f"{name}.self_s"] = (per_op(name, "self_s"), "s/op")
    for name in OP_CALLS:
        metrics[f"{name}.calls"] = (per_op(name, "calls"), "1/op")
    for name, counter, unit in OP_COUNTS:
        metrics[f"{name}.{counter}"] = (per_op(name, "count"), unit)
    for name in SETUP_SELF:
        metrics[f"setup.{name}.self_s"] = (setup.get(name, {}).get("self_s", 0.0), "s")
    metrics["setup.dataio.load_wav.bytes"] = (setup.get("dataio.load_wav", {}).get("count", 0.0), "B")

    cfg = workload.cfg
    # Computed from the config geometry, not measured: forward GEMM flops
    # times the forward passes an op makes.
    metrics["ndiff.conv1d.gflop"] = (
        conv_forward_flops(cfg) * per_op("model.waveform_branch", "calls") / 1e9, "GFLOP/op")
    metrics["ndiff.attention.gflop"] = (
        attention_forward_flops(cfg) * per_op("model.ast_branch", "calls") / 1e9, "GFLOP/op")
    total = f64 = 0
    sample = workload.forward_input()
    if sample is not None:
        waveform, spec, params = sample
        _, cache = network.forward(waveform, spec, params, cfg)
        total, f64 = cache_bytes(cache)
        del cache
    metrics["model.forward.cache_mb"] = (total / 2**20, "MB")
    metrics["model.forward.cache_f64_share"] = (f64 / total if total else 0.0, "share")

    wall = summary["evaluate_wall_s"]
    metrics["scoring.evaluate.worker_busy_share"] = (
        summary["worker_busy_s"] / (workload.workers * wall) if wall else 0.0, "share")
    untraced_op = statistics.fmean(r.seconds for r in untraced)
    metrics["trace.overhead_share"] = (statistics.fmean(summary["op_s"]) / untraced_op - 1.0, "share")
    metrics["trace.self_share"] = (
        summary["layer_self_s"] / n / (untraced_op * workload.workers), "share")
    return metrics


# ---------------------------------------------------------------------------
# Runs


def measure(workload, seconds, repeats):
    """Set up `repeats` times, warm up with one op, run ops for `seconds`.

    Returns (set-up times, records with the warm-up first, peak RSS in MB).
    """
    setup_times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    records = [run_op(workload)]
    peak_mb = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(run_op(workload))
        if len(records) == 1 + RSS_OPS:
            peak_mb = peak_rss_mb()
    return setup_times, records, peak_mb if peak_mb is not None else peak_rss_mb()


def traced_run(workload, seconds):
    """Set up under the tracer, then alternate untraced and traced ops.

    Alternating puts both halves of the overhead ratio in the same
    stretch of machine time, so slow drift in the machine's speed does
    not show up as tracing overhead.
    """
    from tracer import SETUP, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("setup", SETUP):
            workload.setup()
    finally:
        tracer.uninstall()
    records = [run_op(workload)]  # warm-up
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_op(workload))
        tracer.install()
        try:
            traced.append(run_op(workload, tracer, index=len(traced)))
        finally:
            tracer.uninstall()
    return tracer, records + untraced + traced, untraced


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    if not (SRC / "wlann" / "__init__.py").is_file():
        print(f"error: the wlann package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wlann

    if Path(wlann.__file__).resolve().parent != (SRC / "wlann").resolve():
        print(f"error: imported wlann from {wlann.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    try:
        if args.trace:
            from tracer import summarize

            tracer, records, untraced = traced_run(workload, args.seconds)
            metrics = per_layer(workload, summarize(tracer.spans), untraced)
            named = {}
        else:
            setup_times, records, peak_mb = measure(
                workload, args.seconds, 1 if args.tiny else SETUP_REPEATS)
            metrics, named = end_to_end(workload, records[1:], setup_times, peak_mb)
        final_failures = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(workload, args.seed)
    failed = sum(1 for r in records if r.failures)
    correct = failed == 0 and not final_failures
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    document = {
        "workload": args.workload, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **named}.items()},
        "details": workload.details(),
        "op_seconds": [r.seconds for r in records],
        "failures": [f for r in records for f in r.failures] + final_failures,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(document, indent=1))
    if args.trace:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(
            json.dumps([span.to_dict() for span in tracer.spans]))

    print("environment " + json.dumps(env, sort_keys=True))
    for message in document["failures"]:
        print("failure " + message.strip().replace("\n", " | "))
    for name, (value, unit) in (named or metrics).items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
