"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload tag-bulk --seeds 0-9 [--seconds 40]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each metric the median, the quartiles (`statistics.quantiles(n=4)`) and
the spread: the distance between the quartiles as a share of the median.
The full summary is written to .perfbench/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": vals}
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%}")
    out = HERE.parent / ".perfbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seeds": args.seeds,
                   "seconds": args.seconds, "metrics": summary}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
