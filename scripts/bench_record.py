#!/usr/bin/env python3
"""Record one benchmark file: the three perfbench workloads and the
acceptance-size end-to-end runs, each repeated, with the environment.

    python3 scripts/bench_record.py [--deep] --out BENCH_<n>.json

For each perfbench workload, ``perfbench/run.py --seed 1 --seconds 40
--trace 0`` runs ``RUNS`` times in a fresh interpreter, and each
end-to-end metric keeps its raw values and their minimum.  Then
``smachine verify --suite all`` (serial and ``--jobs 2``),
``scripts/run_verification.py`` (writing to a temporary directory) and
the Tier-1 pytest command run ``RUNS`` times each; a run keeps its wall
time, the peak resident set of its process tree and, for the runs that
verify, the sha256 of their report file.  The file also carries the git
sha (and whether ``src`` or ``perfbench`` differ from it), perfbench's
hash of the package source, the Python version and ``nproc``.

With ``--deep`` the file also records the deep sweep points under
``deep``, before anything else runs: chi-occurrences at depth 11 three
times and at depth 12 once (m = 2, L = 12, the suite's two starts), one
child process at a time, each capping its own address space at
``DEEP_CAP_GIB`` GiB with ``resource.setrlimit(RLIMIT_AS)``.  A
run keeps its state count; the digest of the states the sweep reaches
(sha256 over one line per state, ``t``, end word, last rule and extra
separated by tabs, level by level in the sweep's own order, as
``tests/test_pins.py::test_sweep_states_pinned`` hashes them) and the
time taken by hashing them (``digest_s``); the wall time of the sweep
alone, without the bundle, built first, or the hashing; its peak RSS
and its bytes per state (the growth of the peak RSS over the sweep, per
state).  A run that hits the cap is recorded as ``"capped"``.  A state
count or a digest other than the one in ``DEEP`` is a failure: the
script exits without writing the file.  Each child has its own hash
seed unless ``PYTHONHASHSEED`` is set, so equal digests also show that
the sweep's order does not depend on it.  Stdlib only; run from
anywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "compile", "verify-jobs2")
RUNS = 3  # the host's run-to-run noise is about 25%, so keep the best of three
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
# (depth, chi-occurrences states at m = 2 and L = 12, their digest, runs)
DEEP = (
    (11, 761_657, "92362f45306ebf9bfa55e7661edd9b42313a5729d59d85428758a86d92bb53b1", 3),
    (12, 2_284_933, "28f4707c665af93a28d52bc68f65b615413934724b9a5504e691615f5efc383e", 1),
)
DEEP_CAP_GIB = 3

# One deep run, in a child that caps its own address space first:
# ``python -c _DEEP_CHILD DEPTH CAP_BYTES`` prints one JSON line, or ends
# in a ``MemoryError`` at the cap.
_DEEP_CHILD = """
import hashlib, json, resource, sys, time
depth, cap = int(sys.argv[1]), int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from smachine import checks
checks.bundle_cached(2, 12)
digest, digest_s, sweep = hashlib.sha256(), 0.0, checks.reach_levels

def hashed_levels(*args, **kwargs):
    global digest_s
    for t, states in sweep(*args, **kwargs):
        t1 = time.perf_counter()
        for s in states:
            digest.update(f"{t}\\t{s.end}\\t{s.last}\\t{s.extra}\\n".encode())
        digest_s += time.perf_counter() - t1
        yield t, states

checks.reach_levels = hashed_levels
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
[report] = checks.run_one_suite("chi-occurrences", {"m": 2, "L": 12, "depth": depth})
wall = time.perf_counter() - t0 - digest_s
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
states = report.counts["states"]
print(json.dumps({
    "status": report.status,
    "states": states,
    "digest": digest.hexdigest(),
    "wall_s": round(wall, 3),
    "digest_s": round(digest_s, 3),
    "peak_rss_mib": round(peak / 1024, 1),
    "bytes_per_state": round((peak - before) * 1024 / states, 1),
}))
"""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _timed(argv: list[str]) -> dict:
    """Run ``argv`` from the repository root with its output discarded;
    its wall time, exit code and peak RSS (MiB, largest process of its
    tree)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": round(time.perf_counter() - t0, 3),
        "exit": proc.returncode,
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
    }


def _perfbench(workload: str) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for _ in range(RUNS):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "40", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        *_, env_line, result_line = out.stdout.strip().splitlines()
        src_sha = json.loads(env_line)["env"]["src_sha256"]
        result = json.loads(result_line)
        if not result["correct"]:
            raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    metrics = {name: {"unit": units[name], "min": min(v), "runs": v} for name, v in values.items()}
    return {"src_sha256": src_sha, "metrics": metrics}


def _verify(jobs: int) -> dict:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "reports.json"
        for _ in range(RUNS):
            row = _timed([sys.executable, "-m", "smachine.cli", "verify", "--suite", "all", "--jobs", str(jobs), "-o", str(report)])
            row["sha256"] = hashlib.sha256(report.read_bytes()).hexdigest()
            rows.append(row)
    return _summary(rows)


def _run_verification() -> dict:
    rows = []
    for _ in range(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            row = _timed([sys.executable, "scripts/run_verification.py", "--out", tmp])
            row["sha256"] = hashlib.sha256((Path(tmp) / "reports.json").read_bytes()).hexdigest()
            rows.append(row)
    return _summary(rows)


def _deep() -> dict:
    """The deep chi-occurrences points, one capped child at a time."""
    cap = DEEP_CAP_GIB << 30
    doc: dict = {"suite": "chi-occurrences", "m": 2, "L": 12, "cap_gib": DEEP_CAP_GIB}
    for depth, states, digest, runs in DEEP:
        rows = []
        for _ in range(runs):
            out = subprocess.run([sys.executable, "-c", _DEEP_CHILD, str(depth), str(cap)],
                                 cwd=ROOT, env=_env(), capture_output=True, text=True)
            if out.returncode == 0:
                row = json.loads(out.stdout.strip().splitlines()[-1])
            elif out.stderr.rstrip().endswith("MemoryError"):
                row = "capped"
            else:
                raise SystemExit(f"deep run at depth {depth} exited {out.returncode}:\n{out.stderr[-2000:]}")
            if row != "capped" and (row["status"], row["states"], row["digest"]) != ("pass", states, digest):
                raise SystemExit(f"deep run at depth {depth}: {row['status']} with {row['states']} states "
                                 f"(digest {row['digest']}), expected pass with {states} ({digest})")
            rows.append(row)
        doc[f"depth {depth}"] = rows
    return doc


def _summary(rows: list[dict]) -> dict:
    return {"min_wall_s": min(r["wall_s"] for r in rows), "runs": rows}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--deep", action="store_true", help="also record the deep chi-occurrences sweep points")
    args = ap.parse_args()
    deep = _deep() if args.deep else None

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip())
    doc = {
        "env": {"git_sha": sha, "src_dirty": dirty, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
        "perfbench": {w: _perfbench(w) for w in WORKLOADS},
        "end_to_end": {
            "verify-all serial": _verify(1),
            "verify-all --jobs 2": _verify(2),
            "run_verification.py": _run_verification(),
            "tier-1 pytest": _summary([_timed([sys.executable, *TIER1]) for _ in range(RUNS)]),
        },
    }
    if deep is not None:
        doc["deep"] = deep
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
