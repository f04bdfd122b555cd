"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints for every
end-to-end metric its median and its interquartile distance as a share of
the median, next to the bound in BENCHMARK.json.  A spread above a third of
its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, spread


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        s = spread(vs)
        flag = "" if s < bounds[k] / 3 else "  <-- above a third of the bound"
        print(f"{k:<14} median {median(vs):12.4f}  spread {s:.4f}  bound {bounds[k]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
