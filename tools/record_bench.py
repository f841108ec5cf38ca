"""Record paired benchmark numbers for a change against its base revision.

    python3 tools/record_bench.py --out BENCH_<n>.json [--base REV] [--rounds 10]

The base revision (default HEAD) is exported with `git archive` into a
temporary directory, and the working tree's files (tracked and untracked,
not ignored) are copied into a second one, so that neither side runs beside
caches or earlier results.
Round r runs every workload once on each side with
`perfbench/run.py --seed r --trace 0` at run.py's own run length, the side
that goes first alternating from round to round, so that a drift in the
host's speed falls on both sides alike. Unpaired runs on a host whose speed
drifts mislead. Each run also yields its workload's headline figure
(`train_tok_per_s`, `tag_tok_per_s`), read from the run's result file under
.perfbench/. After the rounds, every workload runs once more on each side
with `--seed 0 --trace 1`, for its per-layer self times and counts. The
tier-1 suite is then timed once on each side, and the lines of the Python
files under src/, tests/, demos/ and tools/ are counted on each side.

The output JSON holds every run's metrics, the per-side medians and
quartiles (`statistics.quantiles(n=4)`, as in perfbench/baseline.json) and,
per metric, the number of rounds in which the head was lower (all three
end-to-end metrics are better lower) and the base median minus the head
median, set against the base's interquartile range. Per side it also holds
the operations attempted and failed over all rounds, the failed share, and
the runs that were not `correct` (a run that crashed counts here, and
attempts nothing).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-paper", "tag-bulk", "selfcheck-grad")
# the headline figures run.py adds to a --trace 0 result file
HEADLINES = ("train_tok_per_s", "tag_tok_per_s")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev, into):
    """The committed files of `rev` under `into`; returns its full hash."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def copy_worktree(into):
    """The working tree's tracked and untracked, not ignored, files under
    `into`; a tracked file deleted from the tree is left out."""
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_workload(tree, workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"returncode": proc.returncode, "correct": False}
    result = json.loads(lines[-1])
    run = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
    report = tree / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(report, encoding="utf-8") as handle:
        run["headline"] = {k: v for k, v in json.load(handle).items()
                           if k in HEADLINES}
    return run


def time_tier1(tree):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"seconds": round(perf_counter() - started, 2),
            "returncode": proc.returncode, "summary": lines[-1] if lines else ""}


def line_counts(tree):
    """Lines (as `wc -l` counts them) of the Python files under src/,
    tests/, demos/ and tools/ of `tree`."""
    return {part: sum(path.read_bytes().count(b"\n")
                      for path in (tree / part).rglob("*.py"))
            for part in ("src", "tests", "demos", "tools")}


def summarize(runs):
    """Per-side medians and quartiles, failed operations and runs not
    `correct` and, per metric, the rounds the head was lower in and the gap
    between the medians against the base's interquartile range."""
    by_side = {"base": {}, "head": {}}
    failures = {side: {"attempted": 0, "failed": 0, "runs_not_correct": 0}
                for side in by_side}
    for run in runs:
        for name, value in run.get("metrics", {}).items():
            by_side[run["side"]].setdefault(name, []).append(value)
        counts = failures[run["side"]]
        counts["attempted"] += run.get("attempted", 0)
        counts["failed"] += run.get("failed", 0)
        counts["runs_not_correct"] += not run["correct"]
    for counts in failures.values():
        counts["failed_share"] = (counts["failed"] / counts["attempted"]
                                  if counts["attempted"] else None)
    medians = {side: {name: statistics.median(values)
                      for name, values in metrics.items()}
               for side, metrics in by_side.items()}
    # statistics.quantiles(n=4), as perfbench/baseline.json gives them;
    # it needs two values
    quartiles = {side: {name: statistics.quantiles(values, n=4)
                        for name, values in metrics.items() if len(values) > 1}
                 for side, metrics in by_side.items()}
    pairs = {}
    for run in runs:
        pairs.setdefault(run["round"], {})[run["side"]] = run.get("metrics", {})
    head_lower, gaps = {}, {}
    for name in medians["base"]:
        head_lower[name] = sum(
            p["head"][name] < p["base"][name] for p in pairs.values()
            if name in p.get("base", {}) and name in p.get("head", {}))
        if name in medians["head"] and name in quartiles["base"]:
            q1, _, q3 = quartiles["base"][name]
            gap = medians["base"][name] - medians["head"][name]
            gaps[name] = {"base_minus_head": gap, "base_iqr": q3 - q1,
                          "exceeds_base_iqr": abs(gap) > q3 - q1}
    return {"medians": medians, "quartiles": quartiles,
            "head_lower_rounds": head_lower, "median_gap": gaps,
            "failures": failures}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory(prefix="record-bench-") as scratch:
        trees = {"base": Path(scratch) / "base", "head": Path(scratch) / "head"}
        copy_worktree(trees["head"])
        record = {"base": export(args.base, trees["base"]),
                  "head": "working tree at " + git("rev-parse", "HEAD"),
                  "rounds": args.rounds,
                  "nproc": len(os.sched_getaffinity(0)), "workloads": {}}

        for name in WORKLOADS:
            runs = []
            for r in range(args.rounds):
                order = ("base", "head") if r % 2 == 0 else ("head", "base")
                for side in order:
                    run = run_workload(trees[side], name, r)
                    run.update(round=r, seed=r, side=side)
                    runs.append(run)
                    print(f"{name} round {r} {side}: "
                          + ", ".join(f"{k} {v:.4g}" for k, v in
                                      run.get("metrics", {}).items()),
                          flush=True)
            record["workloads"][name] = {"runs": runs, **summarize(runs)}
            print(f"{name} failed: " + ", ".join(
                f"{side} {c['failed']} of {c['attempted']} operations, "
                f"{c['runs_not_correct']} runs not correct"
                for side, c in record["workloads"][name]["failures"].items()),
                flush=True)

        for name in WORKLOADS:
            record["workloads"][name]["trace"] = {
                side: run_workload(trees[side], name, 0, trace=1)
                for side in ("base", "head")}
            print(f"{name} traced: " + ", ".join(
                f"{side} correct {t['correct']}"
                for side, t in record["workloads"][name]["trace"].items()),
                flush=True)

        record["tier1"] = {side: time_tier1(trees[side])
                           for side in ("base", "head")}
        print("tier-1: " + ", ".join(
            f"{side} {t['seconds']} s ({t['summary']})"
            for side, t in record["tier1"].items()), flush=True)
        record["lines"] = {side: line_counts(trees[side])
                           for side in ("base", "head")}
        print("lines: " + ", ".join(
            side + "".join(f" {part} {n}" for part, n in counts.items())
            for side, counts in record["lines"].items()), flush=True)

    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
