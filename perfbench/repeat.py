#!/usr/bin/env python3
"""Benchmark self-check: do two sets of runs of one commit agree?

    python3 perfbench/repeat.py

Runs ``run.py`` on every workload of ``BENCHMARK.json`` with ten seeds in
each of two sets, each run its own seed and ``run_seconds`` long, and
prints per workload and end-to-end metric: each set's median, its spread
(inter-quartile distance over the median), and whether both spreads and
the drift of the second median from the first stay within the metric's
bound.  Exits 1 when any metric disagrees or any run fails.  Raw results
go to ``.perfbench-out/repeat.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def drift(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    worse = later - first if better == "lower" else first - later
    return worse / first if first else 0.0


def judge(spec: dict, sets: list[list[dict]]) -> list[dict]:
    """One row per metric: medians, spreads and the verdict."""
    rows = []
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        series = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        medians = [statistics.median(v) for v in series]
        spreads = [spread(v) for v in series]
        drifts = [drift(medians[0], med, m["better"]) for med in medians[1:]]
        ok = all(d <= bound for d in drifts + spreads)
        rows.append({"metric": name, "bound": bound, "medians": medians, "spreads": spreads,
                     "drifts": drifts, "ok": ok})
    return rows


def run_once(workload: str, seed: int, seconds: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    raw: dict[str, list[list[dict]]] = {w: [] for w in names}
    all_ok = True
    for s in range(SETS):
        for w in names:
            runs = []
            for i in range(SEEDS):
                r = run_once(w, 1000 * s + i + 1, spec["run_seconds"])
                all_ok &= r["correct"]
                runs.append(r)
                print(f"set {s + 1} {w} seed {1000 * s + i + 1}: correct={r['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
            raw[w].append(runs)
    print(f"\n{'workload':14} {'metric':14} {'bound':>6} {'medians':>24} {'spreads':>16} {'drift':>8}  verdict")
    for w in names:
        for row in judge(spec, raw[w]):
            all_ok &= row["ok"]
            print(
                f"{w:14} {row['metric']:14} {row['bound']:6.2f} "
                f"{' '.join(f'{v:.4g}' for v in row['medians']):>24} "
                f"{' '.join(f'{v:.3f}' for v in row['spreads']):>16} "
                f"{max(row['drifts'], default=0):8.3f}  {'agree' if row['ok'] else 'DISAGREE'}"
            )
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(raw, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
