#!/usr/bin/env python3
"""The smachine benchmark: one workload per run, from the repository root.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for sizes and pinned expectations):

- ``sweep``: lr-bound, chi-occurrences and no-return level sweeps, disk
  words, and seeded replay round trips, serial and in-process;
- ``compile``: main machines, presentations, exports, machine files,
  audits and trapezia at several sizes;
- ``verify-jobs2``: ``smachine verify --suite all --jobs 2`` through the
  CLI and its process pool, byte-compared with the serial output.

Every run starts a fresh interpreter for the workload, so lazy caches,
set-up time and peak memory start the same way each time.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the untraced run is followed by a second
fresh interpreter that sets up and runs one traced pass, and the line
carries its per-layer metrics, including the tracing overhead.  The line
before it records the source version, Python version, CPU count and load.

End-to-end metrics (times in reference seconds: measured seconds scaled
by the speed of a fixed loop timed between the operations, because the
host's speed drifts more within minutes than a change should be allowed
to; see ``worker.py``.  The measured times are on the line before the
result):

- ``setup_s``: from starting the workload's interpreter to the end of
  its set-up (imports, machines, bundles, seeded inputs), the median of
  ``SETUPS`` cold starts, scaled by the median of the passes' scales;
- ``wall_s`` / ``cpu_s``: wall and user+system CPU time (children
  included) of one pass of the workload, the median over the run's passes;
- ``peak_rss_mib``: the largest peak resident set of any process of the
  run's tree;
- ``ok_share``: operations whose verdict, count or bytes matched the
  pinned expectation, over operations attempted (the complement of the
  failed share, which reads 0 when all is well);
- ``parallel_eff``: ``cpu_s / (jobs * wall_s)`` of a pass (scaled
  times), the median over the run's passes; jobs is 2 on
  ``verify-jobs2`` and 1 elsewhere.

Exits 2 without a result when the package source is not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import HERE, ROOT, SRC, WORKLOADS, run_tree  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
# Cold set-ups per run: the measuring worker's and SETUPS - 1 more in
# fresh interpreters that stop after set-up; setup_s is their median.
SETUPS = 5


def run_worker(args: list[str], deadline: float) -> dict | None:
    """Run worker.py in a fresh interpreter with the package on its path;
    returns its result, or None when it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code, out = run_tree(
        [sys.executable, str(HERE / "worker.py"), *args], deadline - time.monotonic(),
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    if code != 0 or not out.strip():
        sys.stderr.write(f"error: worker {' '.join(args[:2])} exited with code {code}\n")
        return None
    return json.loads(out.strip().splitlines()[-1])


def source_version() -> dict[str, str | None]:
    """The git sha when the checkout is a repository, and a hash of
    ``src`` either way (benchmark checkouts are not repositories)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def environment() -> dict:
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {**source_version(), "python": platform.python_version(), "nproc": os.cpu_count(), "loadavg": load}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "smachine" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'smachine'}; run from a full checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    r = run_worker(common + ["--seconds", str(args.seconds), "--launched", repr(time.monotonic())], deadline)
    if r is None:
        return 1
    failures, attempted = r["failures"], r["attempted"]
    if args.trace:
        untraced = json.dumps({"wall_s": r["wall_s"], "ok": r["ok"]})
        t = run_worker(common + ["--traced", untraced], deadline)
        if t is None:
            return 1
        failures, attempted = failures + t["failures"], attempted + t["attempted"]
        metrics = t["layers"]
    else:
        setups = r["measured"]["setups"] = [r["measured"]["setup_s"]]
        for _ in range(SETUPS - 1):
            s = run_worker(common + ["--setup-only", "--launched", repr(time.monotonic())], deadline)
            if s is None:
                return 1
            setups.append(s["setup_s"])
        peak = max(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        values = {
            "setup_s": (statistics.median(setups) * r["measured"]["setup_scale"], "s"),
            "wall_s": (r["wall_s"], "s"),
            "cpu_s": (r["cpu_s"], "s"),
            "peak_rss_mib": (peak / 1024, "MiB"),
            "ok_share": ((attempted - len(failures)) / attempted, "ratio"),
            "parallel_eff": (r["parallel_eff"], "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for line in failures:
        sys.stderr.write(f"FAILED {line}\n")
    env.update(workload=args.workload, seed=args.seed, measured=r["measured"])
    print(json.dumps({"env": env}, sort_keys=True))
    failed = len(failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
