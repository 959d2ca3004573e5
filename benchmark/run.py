"""Benchmark of the lqrec pipeline, measured from outside the package.

    python3 benchmark/run.py --workload pipeline-250 --seed 1 --seconds 15 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
checkout: set-up, dataset build, training, evaluation and the ``answer``
REPL, each checked for correct outputs. The human-readable lines name every
metric with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run. Exits 1 when any output is wrong, 2 when the program is missing.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

if not os.path.isfile(os.path.join(SRC, "lqrec", "__init__.py")):
    print(f"error: no lqrec package under {SRC}; run from a repository checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import phases  # noqa: E402
from tracing import SpanMapError, Tracer  # noqa: E402
from workloads import HELD_OUT_SEED, REFERENCE_SECONDS, WORKLOADS  # noqa: E402

PHASES = ("setup", "build", "train", "eval", "answer")

E2E_UNITS = {
    "setup_s": "s",
    "build_records_per_s": "records/s",
    "train_inst_per_s": "instances/s",
    "eval_queries_per_s": "queries/s",
    "answer_p50_ms": "ms",
    "answer_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer self seconds (``_s``) and call counts (``_calls``), by span name.
SELF_SECONDS = (
    "setup.synth.clustered_world", "setup.kg.split_edges", "setup.kg.load_split",
    "setup.model.load_checkpoint",
    "build.dataset.sample_requirement", "build.oracle.answer_requirement",
    "build.oracle.answer_preference", "build.kg.sorted_items",
    "build.dataset.write_dataset", "build.dataset.verify_dataset",
    "train.training.compute_loss", "train.model.embed_instance",
    "train.model.score_items", "train.autodiff.backward",
    "train.training.sample_negatives", "train.autodiff.adam_step",
    "eval.model.embed_instance", "eval.model.catalog_scores",
    "eval.evaluation.filtered_rank",
    "answer.query.parse_query", "answer.oracle.answer_joint",
    "answer.model.embed_instance", "answer.evaluation.rank_items",
    "answer.model.catalog_scores",
)
CALLS = (
    "build.dataset.sample_requirement", "build.oracle.answer_requirement",
    "build.oracle.answer_preference", "build.kg.sorted_items",
    "train.training.sample_negatives", "train.kg.sorted_items",
    "eval.evaluation.filtered_rank",
    "answer.model.catalog_scores", "answer.kg.sorted_items",
)


def _median(xs):
    return statistics.median(xs) if xs else None


def _ratio(num, den):
    return num / den if num is not None and den else None


def _rate(work_per_sample, seconds):
    """Work completed per second over all samples of the run."""
    return _ratio(work_per_sample * len(seconds), sum(seconds))


def run_metadata(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_workload(wl, seed: int, work_dir: str, tracer: Tracer | None):
    phase = tracer.phase if tracer else (lambda name: nullcontext())
    res = {name: phases.PhaseResult() for name in PHASES}
    fingerprints, records = [], 0
    for r in range(wl.rounds):
        with phase("setup"):
            world = phases.setup(wl, seed, work_dir, res["setup"])
        if r == 0:
            lines = phases.answer_lines(wl, seed, world)
            sent = [line for _ in range(wl.answer_passes) for line in lines]
            params = phases.new_model(seed, world.split.train)
        with phase("build"):
            built = phases.build(seed, r, world, work_dir, res["build"])
        fingerprints.append(built.fingerprint)
        records += built.records
        if r == 0:
            first = built
        with phase("train"):
            phases.train(wl, seed, r, world, first, params, res["train"])
        with phase("eval"):
            for _ in range(wl.evals_per_round):
                hit20 = phases.evaluate(world, first, params, res["eval"])
        with phase("answer"):
            chunk = sent[r * len(sent) // wl.rounds:(r + 1) * len(sent) // wl.rounds]
            phases.answer(world, chunk, res["answer"])

    latencies = res["answer"].seconds
    n_train = len(first.datasets["train"])
    n_test = len(first.datasets["test"])
    e2e = {
        "setup_s": _median(res["setup"].seconds),
        "build_records_per_s": _ratio(records, sum(res["build"].seconds)),
        "train_inst_per_s": _rate(wl.epochs_per_call * n_train,
                                  res["train"].seconds),
        "eval_queries_per_s": _rate(n_test, res["eval"].seconds),
        "answer_p50_ms": _ratio(_median(latencies), 1e-3),
        "answer_p99_ms": (statistics.quantiles(latencies, n=100)[98] * 1e3
                          if len(latencies) >= 100 else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "work": (f"{wl.rounds} rounds of: setup, build {first.records} "
                 "records (a dataset seed per round; train and eval use the "
                 "first), "
                 f"train {wl.epochs_per_call} epochs x {n_train} instances, eval "
                 f"{wl.evals_per_round}x {n_test} records, answer "
                 f"{len(sent) // wl.rounds} lines ({len(lines)} distinct lines x "
                 f"{wl.answer_passes} passes in all)"),
        "dataset_sha256": hashlib.sha256("".join(fingerprints).encode()).hexdigest(),
        "model_params_hash": params.params_hash(),
        "hit20_hard": hit20,
        "latency_samples": len(latencies),
        "records": records,
    }
    return res, e2e, info


def layer_metrics(tracer: Tracer, e2e: dict, info: dict, wl) -> dict:
    stats = tracer.stats()
    tracer.check_calls(stats)
    metrics = {}
    for name in PHASES:
        metrics[f"{name}.wall_s"] = (stats[name].total_s, "s")
    for name in SELF_SECONDS:
        metrics[f"{name}_s"] = (stats[name].self_s, "s")
    for name in CALLS:
        metrics[f"{name}_calls"] = (stats[name].calls, "count")
    sampled = stats["build.dataset.sample_requirement"].calls
    metrics["build.dataset.sample_requirement_failed"] = (
        tracer.errors[("build.dataset.sample_requirement", "SamplingError")],
        "count")
    metrics["build.dataset.accept_ratio"] = (
        info["records"] / sampled, "ratio")
    metrics["train.autodiff.tape_nodes_per_instance"] = (
        tracer.counters["tape_nodes"] / tracer.counters["tape_instances"],
        "nodes/instance")
    metrics["eval.evaluation.hit20_hard"] = (info["hit20_hard"], "ratio")
    for name in ("build_records_per_s", "train_inst_per_s", "eval_queries_per_s",
                 "answer_p50_ms"):
        metrics[f"traced.{name}"] = (e2e[name], E2E_UNITS[name])
    return metrics


def print_shares(metrics: dict) -> None:
    """The contrasts the workloads were chosen for (README.md, predictions)."""
    def v(name):
        return metrics[name][0]

    forward = (v("train.training.compute_loss_s") + v("train.model.embed_instance_s")
               + v("train.model.score_items_s"))
    shares = {
        "train forward": forward / v("train.wall_s"),
        "train backward": v("train.autodiff.backward_s") / v("train.wall_s"),
        "train sample_negatives": (v("train.training.sample_negatives_s")
                                   / v("train.wall_s")),
        "train adam_step": v("train.autodiff.adam_step_s") / v("train.wall_s"),
        "eval embed_instance": v("eval.model.embed_instance_s") / v("eval.wall_s"),
        "eval catalog_scores": v("eval.model.catalog_scores_s") / v("eval.wall_s"),
        "eval filtered_rank": (v("eval.evaluation.filtered_rank_s")
                               / v("eval.wall_s")),
    }
    for name, share in shares.items():
        print(f"share  {name:<24} {share:6.1%} of its phase")


def declared_metrics(trace: bool) -> list[str] | None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    wl = WORKLOADS[args.workload].scaled(args.seconds)
    meta = run_metadata(args.seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=WORK_ROOT)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        res, e2e, info = run_workload(wl, args.seed, work_dir, tracer)
    except SpanMapError as exc:
        print(f"error: span map: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in res.values())
    failed = sum(r.failed for r in res.values())
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"work {info['work']}")
    print(f"fingerprint dataset_sha256 {info['dataset_sha256']}")
    print(f"fingerprint model_params_hash {info['model_params_hash']}")
    print(f"quality hit20_hard {info['hit20_hard']:.6f} (trained in this run)")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} "
          "operations)")
    for name, r in res.items():
        for problem in r.problems:
            print(f"FAILED {name}: {problem}")

    if tracer:
        try:
            metrics = layer_metrics(tracer, e2e, info, wl)
        except SpanMapError as exc:
            print(f"error: span map: {exc}", file=sys.stderr)
            return 1
        trace_path = os.path.join(WORK_ROOT, f"trace-{wl.name}.npz")
        tracer.write(trace_path)
        print(f"spans {len(tracer.start)} written to "
              f"{os.path.relpath(trace_path, ROOT)}")
        print_shares(metrics)
    else:
        metrics = {name: (value, E2E_UNITS[name]) for name, value in e2e.items()}
        print(f"latency samples {info['latency_samples']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:<44} {value!r:>24} {unit}")

    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(metrics):
        print("error: BENCHMARK.json declares other metrics than this run "
              f"reports: {sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
