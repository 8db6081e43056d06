"""Alternating benchmark pairs of two commits, appended to a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent <sha> --change <sha> --workload <name> \
        --seeds 9701-9710 --scratch <dir> --out BENCH_portrait.json

Each commit is extracted with `git archive` into <scratch>/<sha>, so both sides
run their own committed `bench/` and package.  Pair i runs `bench/run.py
--trace 0` for BENCHMARK.json's run_seconds on seed i of --seeds once per side,
the parent first for even i and the change first for odd i, since the host's
speed drifts over minutes.  Then
one row per (commit, end-to-end metric of BENCHMARK.json) is appended to the
output's "rows": median, inclusive quartiles q1 and q3, IQR, n, every run, the
seeds and the host line the benchmark printed; one record per call is appended
to its "pairs": the pairs the change won on each metric, ties counting for
neither side, the median ratio of ops_per_s, and the failed operations of every
run.  The output is read first, so a missing or malformed file stops the script
before any run, as does a seed range of fewer than two seeds (argparse exits 2);
a pair whose run fails its correctness check stops it too.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(sha: str, scratch: Path) -> Path:
    """The tree of commit `sha`, extracted once into scratch/sha."""
    tree = scratch / sha
    if not (tree / "bench" / "run.py").exists():
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
    return tree


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run in `tree`: its result line, with the host line added."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {tree.name} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["host"] = json.loads(next(line for line in lines if line.startswith("workload "))
                                .split(" host ", 1)[1])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive quartiles."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def parse_seeds(text: str) -> list[int]:
    """The seeds of "9701-9710", both ends included: at least two, since the
    quartiles of each side's runs need two of them."""
    lo, hi = map(int, text.split("-"))
    if hi <= lo:
        raise argparse.ArgumentTypeError(f"{text!r} holds fewer than 2 seeds")
    return list(range(lo, hi + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    out = json.loads(args.out.read_text(encoding="utf-8"))   # a bad --out fails before any run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    shas = {side: subprocess.run(["git", "rev-parse", "--short", getattr(args, side)], cwd=ROOT,
                                 check=True, capture_output=True, text=True).stdout.strip()
            for side in ("parent", "change")}
    trees = {side: extract(sha, args.scratch.resolve()) for side, sha in shas.items()}
    results = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], spec["command"], args.workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"bench_pairs: {side} {shas[side]} seed {seed}: a check failed")
            results[side].append(result)
        print(f"pair {i} seed {seed}: " + " ".join(
            f"{side} {results[side][-1]['metrics']['ops_per_s']['value']:.4f}" for side in results),
            flush=True)

    record = {"parent": shas["parent"], "change": shas["change"], "workload": args.workload,
              "seconds": seconds, "seeds": args.seeds,
              "order": "pair i runs the parent first for even i and the change first for odd i",
              "failed_ops": {side: [r["failed"] for r in runs] for side, runs in results.items()},
              "change_better": {}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        runs = {side: [round(r["metrics"][name]["value"], 4) for r in results[side]] for side in results}
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(runs[side])
            out["rows"].append({
                "commit": shas[side], "workload": args.workload, "metric": name,
                "unit": metric["unit"], "better": metric["better"], "median": round(median, 4),
                "iqr": round(q3 - q1, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                "n": len(runs[side]), "runs": runs[side], "seeds": args.seeds,
                "seconds": seconds, "host": results[side][0]["host"]})
        wins = sum((c > p) if higher else (c < p) for p, c in zip(runs["parent"], runs["change"]))
        record["change_better"][name] = wins
        print(f"{name}: parent median {out['rows'][-2]['median']:.4f} IQR {out['rows'][-2]['iqr']:.4f}, "
              f"change median {out['rows'][-1]['median']:.4f}; "
              f"change better in {wins} of {len(args.seeds)} pairs")
    record["pairs"] = len(args.seeds)
    record["ops_per_s_median_ratio"] = round(statistics.median(
        c["metrics"]["ops_per_s"]["value"] / p["metrics"]["ops_per_s"]["value"]
        for p, c in zip(results["parent"], results["change"])), 4)
    out.setdefault("pairs", []).append(record)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
