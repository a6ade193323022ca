"""Steadiness mode: run workloads repeatedly and show each metric's
spread next to its bound.

    python3 perfbench/steady.py adhoc firehose

Each run is ``run.py`` in a fresh process with its own seed, measuring
BENCHMARK.json's ``run_seconds``. Each workload runs two sets of RUNS
runs. For every end-to-end metric the table shows the first set's
median and quartiles (as ``statistics.quantiles(n=4)`` gives them), the
spread of each set — inter-quartile distance as a share of the median —
the drift of the second set's median against the first, and the
metric's bound from BENCHMARK.json. A spread or a drift above its bound
is flagged ``WIDE``, ``setup_s`` included. Raw values, with the host
contention each run saw, go to ``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import spread, work_dir  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RUNS = 10
SETS = 2
SEED0 = 1000


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    result["contention"] = next(
        (line.split(": ", 1)[1] for line in lines if line.startswith("host contention")),
        "",
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    raw = {}
    flagged = 0
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            values = {}
            for r in range(RUNS):
                seed = SEED0 + s * RUNS + r
                result = one_run(workload, seed, seconds)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: incorrect")
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                values.setdefault("contention", []).append(result["contention"])
                print(f"  {workload} set {s} run {r} seed {seed} done "
                      f"({result['contention']})", file=sys.stderr, flush=True)
            sets.append(values)
        raw[workload] = sets
        print(f"{workload}:")
        print(f"  {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'spread2':>7} {'bound':>6} {'drift':>7}")
        for name, meta in bounds.items():
            first, second = (spread(values[name]) for values in sets)
            worse = (second["median"] - first["median"]) / abs(first["median"])
            if meta["better"] == "higher":
                worse = -worse
            wide = max(first["spread"], second["spread"], worse) > meta["bound"]
            flagged += wide
            print(f"  {name:<18} {first['median']:>11.4f} {first['q1']:>11.4f} "
                  f"{first['q3']:>11.4f} {first['spread']:>7.3f} "
                  f"{second['spread']:>7.3f} {meta['bound']:>6.2f} "
                  f"{worse:>+7.3f}{'  WIDE' if wide else ''}")
        sys.stdout.flush()
    with open(os.path.join(work_dir(), "steady.json"), "w") as handle:
        json.dump(raw, handle, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
