"""seqtag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (train-paper, tag-bulk, selfcheck-grad; "all", the
default, runs each in its own process) in-process against the seqtag
sources in src/ of the checkout, repeating a checked operation for S
seconds. The last line of stdout is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones
(op_s, setup_s, peak_rss_mb); with --trace 1 untraced and traced
operations alternate and the metrics are per-layer self times and counts
plus the tracing overhead. Full results, and the spans of a traced run,
are written under .perfbench/ in the checkout. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

# one BLAS thread for every workload; OpenBLAS reads this when numpy loads it
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-paper", "tag-bulk", "selfcheck-grad")
# interpreter start plus the imports a run needs, timed in a fresh process
IMPORT_PROBE = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
                f"{str(HERE)!r}]; import workloads, tracing")

SPANS = ("corpus.read_conll", "corpus.repair_iob", "features.assemble",
         "model.forward.infer", "model.forward.train", "model.backward",
         "model.sentence_loss", "model.save", "model.load",
         "train.clip_gradients", "train.sgd_other", "train.evaluate_tagger",
         "eval.score", "numerics.finite_diff_grad", "selfcheck.check_gradients",
         "selfcheck.check_scorer", "cli.tag")
COUNTS = ("corpus.read_conll.tokens", "features.assemble.tokens",
          "features.oov_draws", "model.forward.calls", "model.forward.tokens",
          "model.sentence_loss.calls", "model.save.bytes", "train.steps",
          "eval.score.tokens", "numerics.finite_diff_grad.evals")
COUNT_UNITS = {"model.save.bytes": "bytes"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
        env["blas_config"] = blas.get("openblas configuration", "")
    except (KeyError, TypeError):  # numpy without the dict form of show_config
        env["blas"] = "unknown"
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(per_op, plain, traced):
    """Per-layer metrics from the traced operations: median self seconds
    per span, counts of the first traced operation, and the overhead."""
    out = {f"{span}.s": (median([times[span] for times, _ in per_op]), "s")
           for span in SPANS}
    counts = per_op[0][1]
    for name in COUNTS:
        out[name] = (counts[name], COUNT_UNITS.get(name, "count"))
    out["corpus.repair_iob.changed_ratio"] = (
        ratio(counts["corpus.repair_iob.changed"], counts["corpus.repair_iob.labels"]),
        "ratio")
    out["features.cache_hit_ratio"] = (
        ratio(counts["features.assemble.tokens"] - counts["features.oov_draws"],
              counts["features.assemble.tokens"]), "ratio")
    out["train.clip_gradients.clipped_ratio"] = (
        ratio(counts["train.clip_gradients.clipped"], counts["train.steps"]), "ratio")
    untraced = median([r.seconds for r in plain])
    overhead = median([r.seconds for r in traced]) - untraced
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_ratio"] = (ratio(overhead, untraced), "ratio")
    return out


def run_workload(args):
    if not (ROOT / "src" / "seqtag" / "__init__.py").is_file():
        print(f"error: no seqtag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT_DIR, prefix="work-")
    tempfile.tempdir = work_dir  # training checkpoints stay in the checkout
    setup_times, import_times = [], []

    def timed_setup():
        started = perf_counter()
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, tempfile.mkdtemp(dir=work_dir))
        setup_times.append(perf_counter() - started)
        return workload

    def timed_import():
        started = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
        import_times.append(perf_counter() - started)

    try:
        workload = timed_setup()
        timed_import()
        plain, traced, per_op = [], [], []
        tracer = Tracer()
        started = perf_counter()
        # Set-up is repeated after every operation, so that its samples
        # spread over the run like the operation's own do. Another round
        # starts only if it should end within the budget.
        while not plain or (perf_counter() - started
                            + plain[-1].seconds * (1 + args.trace)
                            + setup_times[-1] + import_times[-1] <= args.seconds):
            kinds = [False]
            if args.trace:  # alternate which of the pair runs first
                kinds = [False, True] if len(traced) % 2 == 0 else [True, False]
            for is_traced in kinds:
                if is_traced:
                    first, before = len(tracer.spans), Counter(tracer.counts)
                    with tracer.patched():
                        result = workload.run_op()
                    per_op.append((tracer.self_times(first), tracer.counts - before))
                else:
                    result = workload.run_op()
                result.failed += workload.check_output()
                (traced if is_traced else plain).append(result)
            timed_setup()
            timed_import()
        setup_s = median(import_times) + median(setup_times)
        results = plain + traced
        attempted = sum(r.attempted for r in results)
        failed = min(attempted, sum(r.failed for r in results))
        # counts must repeat exactly: every traced operation does the same work
        correct = failed == 0 and all(c == per_op[0][1] for _, c in per_op)

        samples = [s for r in plain for s in r.samples]
        op_s = median(samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        env = environment()
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": env, "unit": workload.unit,
            "operations": len(plain), "samples": samples,
            "setup_runs_s": setup_times, "import_runs_s": import_times,
            "inputs": workload.describe(),
        }
        if args.trace:
            metrics = layer_metrics(per_op, plain, traced)
            report["traced_operations"] = len(traced)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, handle)
        else:
            metrics = {"op_s": (op_s, "s"), "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}

        print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
        print(f"workload {args.workload} seed {args.seed}: {len(plain)} operations"
              f" ({workload.unit}), {len(samples)} timed samples")
        if not args.trace:
            name, value, unit = workload.headline(op_s)
            print(f"  {name} = {value:.6g} {unit}")
            report[name] = value
        print(f"  error_rate = {ratio(failed, attempted):.6g} ratio "
              f"({failed} failed of {attempted} attempted)")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        for key, value in workload.describe().items():
            print(f"  {key}: {json.dumps(value)}")
        report.update(correct=correct, attempted=attempted, failed=failed,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(json.dumps({key: report[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
