"""gcproto benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload eval-5k --seed 0 --seconds 36 --trace 0

Pipeline iterations run back to back for ``--seconds``; each is checked
by the correctness gate outside the timed region.  An untraced iteration is
one whole experiment without IO, as ``harness.run_experiment`` does it:
set-up (``resolve_data``), training a fresh model for the learned
generator (``obtain_model``), then the pipeline (select -> protocol ->
evaluate).  Each part is timed on its own and the medians over the run
are reported, so set-up and training are sampled across the whole run.
``--trace 1`` sets up and trains once before the loop, alternates untraced
and traced pipelines, reports the per-layer metrics and writes the spans
to ``.bench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP threads are fixed before numpy loads; one thread is the
# steadiest on a shared machine and never exceeds nproc.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np  # noqa: E402
    import scipy  # noqa: E402

    from gcproto import harness  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import the program under test ({exc})")

import pipeline  # noqa: E402
import spans  # noqa: E402

OUT_DIR = ROOT / ".bench_out"


def git_sha(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` without running git; None when
    the tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_sha": git_sha(ROOT),
    }


def _summary(values: list[float]) -> dict | None:
    if not values:
        return None
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": len(values),
        "values": values,
    }


def measure(
    workload, seed: int, seconds: float, trace: bool, reference=None, spans_path=None
) -> dict:
    """Run one workload; returns the result fields plus run details.

    ``reference`` is the committed output fingerprint to check against;
    ``spans_path``, for a traced run, where to write the spans.
    """
    cfg = workload.config(seed)
    tracer = spans.Tracer() if trace else None

    def phase(iteration, traced=True):
        if tracer is None or not traced:
            return contextlib.nullcontext()
        return tracer.phase(iteration)

    trains = cfg.selector.method == "gcp"
    gallery = queries = model = None
    if trace:
        with phase("setup"):
            gallery, queries = harness.resolve_data(cfg)
        if trains:
            with phase("train"):
                model, _ = harness.obtain_model(cfg, gallery)

    timed = {False: [], True: []}  # traced -> pipeline seconds
    setup_times = []
    train_times = []
    experiment_times = []  # set-up, training (if any) and pipeline, per iteration
    gate_times = []
    attempted = failed = 0
    first = outputs = peak_rss = None
    deadline = time.perf_counter() + seconds
    while attempted < (2 if trace else 1) or time.perf_counter() < deadline:
        # the traced run alternates, starting untraced
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            spent = 0.0  # set-up and training time of this iteration
            if not trace:
                gallery = queries = model = None  # free the previous copies first
                gc.collect()
                t0 = time.perf_counter()
                gallery, queries = harness.resolve_data(cfg)
                setup_times.append(time.perf_counter() - t0)
                spent += setup_times[-1]
                if trains:
                    t0 = time.perf_counter()
                    model, _ = harness.obtain_model(cfg, gallery)
                    train_times.append(time.perf_counter() - t0)
                    spent += train_times[-1]
            gc.collect()  # every pipeline starts from the same collector state
            with phase(attempted, traced):
                t0 = time.perf_counter()
                it = pipeline.run_iteration(cfg, gallery, queries, model)
                timed[traced].append(time.perf_counter() - t0)
            if not trace:
                experiment_times.append(spent + timed[False][-1])
            if peak_rss is None:
                # before any gate runs, so the gate's copies never count
                peak_rss = peak_rss_mb()
            t0 = time.perf_counter()
            failures, outputs = pipeline.check_iteration(it, queries, first, reference)
            gate_times.append(time.perf_counter() - t0)
            first = first or outputs
            del it
        except Exception:
            traceback.print_exc()
            failures = ["iteration raised"]
        if failures:
            failed += 1
            print(f"iteration {attempted} failed: {failures[:5]}", file=sys.stderr)
    if not timed[False] or (trace and not timed[True]):
        raise SystemExit("bench: no pipeline iteration completed")

    pipeline_s = statistics.median(timed[False])
    details = {
        "workload": workload.name,
        "seed": seed,
        "setup": _summary(setup_times),
        "pipeline": _summary(timed[False]),
        "train": _summary(train_times),
        "gate": _summary(gate_times),
        "end_rss_mb": peak_rss_mb(),
        "outputs": outputs,
    }
    if trace:
        traced_ids = [i for i in range(1, attempted + 1) if i % 2 == 0]
        metrics = spans.layer_metrics(tracer, traced_ids)
        traced_pipeline = statistics.median(timed[True])
        metrics["trace.pipeline_s"] = {"value": traced_pipeline, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_pipeline - pipeline_s, "unit": "s"}
        details["traced_pipeline"] = _summary(timed[True])
        details["counts_repeat"] = spans.counts_repeat(tracer, traced_ids)
        if spans_path is not None:
            write_spans(spans_path, environment(), details, tracer)
            details["spans_file"] = str(spans_path)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pipeline_s": {"value": pipeline_s, "unit": "s"},
            "experiment_s": {"value": statistics.median(experiment_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(path: Path, env: dict, details: dict, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "env": env,
        "workload": details["workload"],
        "seed": details["seed"],
        "span_fields": ["name", "start", "end", "parent", "iteration"],
        "spans": tracer.spans,
        "counts": [[name, inner, it, n] for (name, inner, it), n in tracer.counts.items()],
    }
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, default=pipeline.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = pipeline.WORKLOADS[args.workload]
    env = environment()
    result = measure(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        reference=pipeline.load_reference(workload, args.seed),
        spans_path=OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json",
    )
    details = result.pop("details")
    print(json.dumps({"env": env}))
    print(json.dumps({"details": details}))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
