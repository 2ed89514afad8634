"""One workload run in a fresh interpreter; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --launched T
    python3 perfbench/worker.py --workload NAME --seed N --setup-only --launched T
    python3 perfbench/worker.py --workload NAME --seed N --traced UNTRACED_JSON

Untraced, it sets up, then repeats the workload's pass for ``--seconds``
(at least three times), checking every operation.  ``setup_s`` is the
time from ``--launched`` (``time.monotonic()`` in the parent just before
it started this interpreter) to the end of the set-up; with
``--setup-only`` it stops there.  Wall and CPU time are the medians of
the passes' times.

Every time is reported twice: as measured, and scaled to a host of fixed
speed.  On a shared host (measured on a 2-CPU VM) the speed drifts by up
to 1.5x over tens of seconds, longer than a run; a median over one
run's passes cannot remove that.  So the worker also times a fixed
pure-Python loop that uses no package code (``reference()``), in short
chunks after each operation and in as many processes as the workload
runs at once.  The chunks sample the host's speed over the pass in
proportion to time; each pass's wall time is scaled by ``REF_S`` over
their mean wall time, its CPU time by ``REF_S`` over their mean CPU time,
and set-up by the median of the passes' wall scales.  A change to the
package moves the operations' times, not the loop's.

With ``--traced`` it installs the layer wrappers, sets up and runs
exactly one pass, so the per-layer figures start from a cold heap.
``UNTRACED_JSON`` is ``{"wall_s": ..., "ok": [...]}`` from an untraced
worker of the same workload: the tracing overhead is measured against
its scaled wall time, and the operations it saw succeed name the
counters that must not read 0.

Prints one JSON line: operation tallies, and either the times or the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

MIN_PASSES = 3
# The reference loop's chunk time on the host the benchmark was defined
# on (a 2-CPU Xeon VM, Python 3.11); it sets the scale of every time.
REF_S = 0.0145
# Reference time run after an operation, as a share of that operation's
# time.
REF_SHARE = 0.15


def reference() -> float:
    """Seconds for one chunk of a fixed loop over tuples, dicts, sets and
    small objects, the package's own mix, with the cyclic collector off
    so that the package's heap does not weigh on it."""
    on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    seen: dict = {}
    acc = 0
    for i in range(9000):
        key = (i % 97, (i * 31) % 101, "ab"[i & 1])
        obj = _Ref(key, i % 7)
        if (obj.key, obj.n) not in seen:
            seen[obj.key, obj.n] = obj
        acc += len(key) + hash(key) % 3
    acc += len({k[0] for k in seen}) + len(",".join(map(str, range(800))))
    t = time.perf_counter() - t0
    if on:
        gc.enable()
    return t


class _Ref:
    __slots__ = ("key", "n")

    def __init__(self, key: tuple, n: int) -> None:
        self.key, self.n = key, n


def reference_block(n: int, jobs: int = 1) -> tuple[float, float]:
    """Run ``n`` chunks in each of ``jobs`` processes at once (this one
    and forked children); returns the block's wall time per chunk and
    its CPU time per chunk and process.  The worker starts no threads,
    so forking it is safe."""
    t0, c0 = time.perf_counter(), _cpu()
    pids = []
    for _ in range(jobs - 1):
        pid = os.fork()
        if pid == 0:
            try:
                for _ in range(n):
                    reference()
            finally:
                os._exit(0)
        pids.append(pid)
    for _ in range(n):
        reference()
    for pid in pids:
        os.waitpid(pid, 0)
    return (time.perf_counter() - t0) / n, (_cpu() - c0) / (n * jobs)


def ref_scale(blocks: list[tuple[int, float]]) -> float:
    """Factor from measured to reference seconds, given (chunks, seconds
    per chunk) of each block."""
    return REF_S * sum(n for n, _ in blocks) / sum(n * t for n, t in blocks)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, ops: list[workloads.Op], jobs: int = 1) -> tuple[float, float, float, float, set[str]]:
        """Run every operation once, each followed by a block of reference
        chunks, in as many processes as the operation uses, lasting about
        REF_SHARE of its time; returns (wall s, cpu s, their scales to
        reference seconds, names of the operations that succeeded).  Wall
        and cpu leave the chunks out.  Wall is scaled by the chunks' wall
        time and cpu by their CPU time: time the host gives to other
        machines' CPUs (steal) is in the first and not in the second."""
        ok: set[str] = set()
        wall = cpu = 0.0
        blocks: list[tuple[int, float, float]] = []
        for op in ops:
            self.attempted += 1
            failure = None
            t0, c0 = time.perf_counter(), _cpu()
            try:
                got = op.run()
            except Exception as e:  # a failed operation, not an abort
                traceback.print_exc()
                failure = f"{op.name}: raised {type(e).__name__}: {e}"
            op_wall = time.perf_counter() - t0
            cpu += _cpu() - c0
            wall += op_wall
            n = max(1, round(REF_SHARE * op_wall / REF_S))
            blocks.append((n, *reference_block(n, jobs)))
            if failure is None and got != op.expect:
                failure = f"{op.name}: got {got!r}, expected {op.expect!r}"
            if failure is None:
                ok.add(op.name)
            else:
                self.failures.append(failure)
        wall_scale = ref_scale([(n, w) for n, w, _ in blocks])
        cpu_scale = ref_scale([(n, c) for n, _, c in blocks])
        return wall, cpu, wall_scale, cpu_scale, ok


def _cpu() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def set_up(name: str, seed: int, launched: float | None, expect: dict) -> tuple[workloads.Plan, float]:
    """Build the workload; returns (plan, seconds since ``launched`` or
    since this call)."""
    launched = time.monotonic() if launched is None else launched
    plan = workloads.WORKLOADS[name](seed, expect, None)
    return plan, time.monotonic() - launched


def run(name: str, seed: int, seconds: float, launched: float | None = None, expect: dict | None = None) -> dict:
    """Set up, then repeat passes for ``seconds``; ``setup_s`` counts from
    ``launched`` (``time.monotonic()``), or from this call without it."""
    expect = workloads.EXPECTED[name] if expect is None else expect
    plan, setup_s = set_up(name, seed, launched, expect)
    tally = Tally()
    walls, cpus, scales, cpu_scales = [], [], [], []
    start = time.perf_counter()
    ok: set[str] = set()
    # at least MIN_PASSES; then stop before the next pass would overrun
    while len(walls) < MIN_PASSES or (time.perf_counter() - start) * (1 + 1 / len(walls)) <= seconds:
        wall, cpu, scale, cpu_scale, ok_now = tally.run_pass(plan.ops, plan.jobs)
        walls.append(wall)
        cpus.append(cpu)
        scales.append(scale)
        cpu_scales.append(cpu_scale)
        ok |= ok_now
    return {
        "attempted": tally.attempted,
        "failures": tally.failures,
        "ok": sorted(ok),
        # medians over the run's passes: a pass slowed by the host weighs
        # no more than any other
        "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "cpu_s": statistics.median(c * k for c, k in zip(cpus, cpu_scales)),
        "parallel_eff": statistics.median(
            c * kc / (plan.jobs * w * k) for w, k, c, kc in zip(walls, scales, cpus, cpu_scales)
        ),
        "measured": {
            "setup_s": setup_s,
            "setup_scale": statistics.median(scales),
            "walls": walls,
            "cpus": cpus,
            "scales": scales,
            "cpu_scales": cpu_scales,
        },
    }


def traced(name: str, seed: int, untraced: dict) -> dict:
    """Set up and run one pass with the layer wrappers installed."""
    import tracing

    expect = workloads.EXPECTED[name]
    workloads.OUT_DIR.mkdir(exist_ok=True)
    trace_dir = workloads.OUT_DIR / f"trace-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    tally = Tally()
    rec = tracing.install()
    try:
        plan = workloads.WORKLOADS[name](seed, expect, str(trace_dir))
        wall, _, scale, _, _ = tally.run_pass(plan.ops, plan.jobs)
        tracing.load_dumps(rec, str(trace_dir))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    # counters the untraced run showed work for
    expected = set(plan.setup_layers)
    for op in plan.ops:
        if op.name in untraced["ok"]:
            expected.update(op.layers)
    with open(workloads.OUT_DIR / f"spans-{name}.jsonl", "w") as f:
        for span in rec.spans:
            f.write(json.dumps(span, sort_keys=True) + "\n")
    return {
        "attempted": tally.attempted,
        "failures": tally.failures,
        "layers": tracing.layer_metrics(rec, wall, wall * scale - untraced["wall_s"], plan.jobs, expected),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--launched", type=float)
    ap.add_argument("--traced", type=json.loads)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.traced is not None:
        result = traced(args.workload, args.seed, args.traced)
    elif args.setup_only:
        result = {"setup_s": set_up(args.workload, args.seed, args.launched, workloads.EXPECTED[args.workload])[1]}
    else:
        result = run(args.workload, args.seed, args.seconds, args.launched)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
