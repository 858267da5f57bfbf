"""Run one workload of the sevolve benchmark and print its metrics.

    python3 perfbench/run.py --workload train-g16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics from a traced run with `--trace 1`.
`--workload all` runs every workload in turn, each in its own process, and
ends with their metrics merged under `<workload>/<metric>` names.

Inputs are generated from the seed into a temporary directory under
`.bench_out/`; results (and, with tracing, the spans) are written there too.
"""

import os

# one process, one thread: pinned before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# the keys of workloads.WORKLOADS, known here before the package is importable
WORKLOAD_NAMES = ("train-g16", "predict-g32", "train-pyramid-g32")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sevolve" / "__init__.py").is_file():
        print(f"error: no sevolve package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    env = workloads.environment()
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}-spans.npz" if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result, details = workloads.run_workload(
            args.workload, args.seed, args.seconds, Path(tmp), spans_path)
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print("details " + json.dumps(details))
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "args": vars(args), "result": result, "details": details},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
