"""The benchmark's workloads and their pinned expectations.

Each workload is a function ``build(seed, expect, trace_dir)`` that does
the set-up (imports, machines, bundles, seeded inputs) and returns a
``Plan``: the operations of one pass plus the per-layer counters the
set-up must show in a traced run.  An operation returns an observation
that is compared with its expectation; a mismatch or an exception is a
failed operation, not an abort.

Sizes are chosen so that one pass takes 2-9 s on a 2-CPU VM and a 40 s
run repeats it at least three times: the figures are medians over the
run's passes.  The acceptance sizes (chi depth 10, no-return depth 8,
budgets 20k/10k) take about 30 s for a single pass, too long to repeat
within a run; they are left to the test suite.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

CHI_DEPTH = 8
NOREP_DEPTH = 6
DISK_BUDGET = 3_000
WALK_LENGTH = 30
COMPILE_SIZES = ((2, 12), (2, 16), (2, 20))
VERIFY_ARGS = ("verify", "--suite", "all", "--depth", "6", "--budget", "2000")

# Counters a traced run must see when an operation of that kind succeeded.
RULES = ("machine.apply_rule_calls", "machine.is_applicable_calls", "words.admissible_new")
SWEEP = ("checks.sweep_states",) + RULES
SUITE_LAYERS = tuple(f"checks.suite_s.{s}" for s in SUITES)

# Pinned observations at the commit that defined the benchmark.  Every
# verdict, count and byte hash here must stay the same.
GBAR_AUDIT = (
    "pass",
    {"relators": 1590, "mu_checked": 1590, "nu_killed": 364, "theta_q_balanced": 1225, "theta_t_disciplined": 0, "hubs": 1},
)
MACHINE_FILE = ("90de020493be501cb5ac247d308b821bbf4d9e051d591015338102e27714fea3", True)
EXPECTED: dict[str, dict[str, object]] = {
    "sweep": {
        "lr-bound": ("pass", {"start_words": 1730, "states": 2292}),
        "chi-occurrences": ("pass", {"states": 28218}),
        "no-return k=0": ("pass", {"states": 4952}),
        "no-return k=2": ("pass", {"states": 4952}),
        "disk k=0": ("yes", "from-start", 5),
        "disk k=1": ("yes", "from-start", 10),
        "disk k=2": ("unknown", None, None),
        "disk k=3": ("unknown", None, None),
    },
    "compile": {
        "build (2,12)": (25, 60),
        "compile (2,12)": (5227, 1590, 5228, 5228),
        "export (2,12)": (
            "7b26e7951a800a418a8e7693961e878f964db1d6248ededb371046263c382ef7",
            True,
            "31d2cb4008931f08e6fed6306bf6380d23630d915e3a8163684646d01d9fa42a",
        ),
        "machine file (2,12)": MACHINE_FILE,
        "audit (2,12)": (
            ("pass", {"relators": 5227, "mu_checked": 5227, "nu_killed": 700, "theta_q_balanced": 4525, "theta_t_disciplined": 132, "hubs": 2}),
            GBAR_AUDIT,
        ),
        "witness trapezia (2,12)": (5950, 0),
        "build (2,16)": (25, 60),
        "compile (2,16)": (6439, 1590, 6440, 6440),
        "export (2,16)": (
            "4b3a893db842df02cc731628e4c3c4f08461b39b108d3e04df980664bec8f106",
            True,
            "d455f9b669d57c62e6bd7d44da11c5fe38b389c03adeedb6150accd143f4ee4b",
        ),
        "machine file (2,16)": MACHINE_FILE,
        "audit (2,16)": (
            ("pass", {"relators": 6439, "mu_checked": 6439, "nu_killed": 812, "theta_q_balanced": 5625, "theta_t_disciplined": 176, "hubs": 2}),
            GBAR_AUDIT,
        ),
        "witness trapezia (2,16)": (5950, 0),
        "build (2,20)": (25, 60),
        "compile (2,20)": (7651, 1590, 7652, 7652),
        "export (2,20)": (
            "545bc544f57aaf9e0900781087bacfb0e6da7cf7dfb27bbcc8ddfe1df1393b2d",
            True,
            "f8ef588cbe6949ba95a1d6551c4b814797ace318890688904b108f3143e9e245",
        ),
        "machine file (2,20)": MACHINE_FILE,
        "audit (2,20)": (
            ("pass", {"relators": 7651, "mu_checked": 7651, "nu_killed": 924, "theta_q_balanced": 6725, "theta_t_disciplined": 220, "hubs": 2}),
            GBAR_AUDIT,
        ),
        "witness trapezia (2,20)": (5950, 0),
    },
    # exit code and sha256 of the serial `verify` output at VERIFY_ARGS
    "verify-jobs2": {
        "verify --jobs 2": (0, "d174353bddcafb7c4c66860c77b05c917b0056cea445918309e5f13bab1b4760"),
    },
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    expect: object
    layers: tuple[str, ...] = ()


@dataclass
class Plan:
    ops: list[Op]
    jobs: int = 1
    setup_layers: tuple[str, ...] = ()


def run_tree(cmd: list[str], timeout: float, **popen) -> tuple[int, str | None]:
    """Run ``cmd`` in its own process group and return (exit code, stdout
    if piped); on timeout or interrupt kill the whole group (pool workers
    included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **popen)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def random_walk(machine, start, length: int, rng: random.Random):
    """A seeded reduced history from ``start``; returns (history, end)."""
    from smachine.machine import apply_rule, is_applicable

    hist: list[tuple[str, int]] = []
    cur = start
    for _ in range(length):
        last = hist[-1] if hist else None
        cands = [
            r
            for r in machine.candidate_rules(cur.q[0])
            if not (last and r.label == last[0] and r.sign == -last[1])
            and is_applicable(machine, cur, r)
        ]
        if not cands:
            break
        r = rng.choice(cands)
        cur = apply_rule(machine, cur, r)
        hist.append(r.signed_label)
    return tuple(hist), cur


def _replay_op(name: str, machine, start, hist, end) -> Op:
    """Replay a walk, then its inverse back to the start."""
    from smachine.machine import invert_history, run_history

    def run():
        there = run_history(machine, start, hist)
        back = run_history(machine, there.end, invert_history(hist))
        return (there.end == end, back.end == start)

    return Op(name, run, (True, True), ("machine.run_history_s",) + RULES)


def _verdict(report) -> tuple:
    return (report.status, report.counts)


def sweep(seed: int, expect: dict, trace_dir: str | None = None) -> Plan:
    """Serial in-process frontier searches: the lr-bound, chi-occurrences and
    no-return level sweeps from their acceptance starts, disk words W(k,k)^L,
    and seeded replay round trips on M3 and the main machine."""
    from smachine.checks import check_chi_occurrences, check_lr_bound, check_norep
    from smachine.compose import (
        add_control_letters,
        add_history_sectors,
        compose_m3,
        start_configuration_m3,
    )
    from smachine.main_machine import build_main_machine
    from smachine.toy import toy_even_recognizer
    from smachine.trapezia import PermissibleWord, is_disk_word, power_word

    toy = toy_even_recognizer()
    m3 = compose_m3(add_control_letters(add_history_sectors(toy.machine)), 2)
    bundle = build_main_machine(toy, m=2, L=12)
    starts = [
        start_configuration_m3(m3, 0, ["fin"]),
        start_configuration_m3(m3, 2, ["del2", "fin"]),
    ]
    disks = {}
    for k in range(4):
        big = power_word(bundle.w_word(k, k), bundle.L)
        disks[k] = PermissibleWord(big, (None,) * len(big.q), tuple((None,) * len(u) for u in big.u))

    def disk(k):
        v = is_disk_word(disks[k], bundle, budget=DISK_BUDGET)
        return (v.verdict, v.direction, None if v.witness is None else len(v.witness))

    ops = [
        Op("lr-bound", lambda: _verdict(check_lr_bound(max_tape=4)), expect.get("lr-bound"), SWEEP),
        Op(
            "chi-occurrences",
            lambda: _verdict(check_chi_occurrences(m3, starts, depth=CHI_DEPTH)),
            expect.get("chi-occurrences"),
            SWEEP,
        ),
    ]
    for k in (0, 2):
        ops.append(
            Op(
                f"no-return k={k}",
                lambda k=k: _verdict(check_norep(bundle, k, depth=NOREP_DEPTH)),
                expect.get(f"no-return k={k}"),
                SWEEP,
            )
        )
    for k in range(4):
        ops.append(
            Op(f"disk k={k}", lambda k=k: disk(k), expect.get(f"disk k={k}"), ("trapezia.disk_expansions",) + RULES)
        )
    rng = random.Random(seed)
    k = rng.randrange(4)
    hist, end = random_walk(bundle.machine, bundle.w_word(k, k), WALK_LENGTH, rng)
    ops.append(_replay_op(f"replay main W({k},{k})", bundle.machine, bundle.w_word(k, k), hist, end))
    start = start_configuration_m3(m3, rng.choice((0, 2)), ["del2", "fin"])
    hist, end = random_walk(m3.machine, start, WALK_LENGTH, rng)
    ops.append(_replay_op("replay M3", m3.machine, start, hist, end))
    return Plan(ops, setup_layers=("main_machine.build_s", "compose.m3_s"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _compile_ops(m: int, L: int, expect: dict, walks, st: dict) -> list[Op]:
    """Build, compile, round-trip, audit and realize trapezia at (m, L),
    keeping the size's machine and groups in ``st``."""
    from smachine.checks import presentation_audit
    from smachine.machine import run_history
    from smachine.main_machine import build_main_machine
    from smachine.presentation import (
        compile_group_G,
        compile_trimmed,
        export,
        hnn_Gbar,
        hnn_Gk,
        parse_presentation,
    )
    from smachine.serialize import parse_machine, print_machine
    from smachine.toy import toy_even_recognizer
    from smachine.trapezia import computation_to_trapezium, lift_kind

    tag = f"({m},{L})"
    def build():
        # drop the previous size's objects, so every pass starts alike
        st.clear()
        b = st["b"] = build_main_machine(toy_even_recognizer(), m=m, L=L)
        return (b.N, len(b.machine.positive_rules))

    def compile_():
        b = st["b"]
        st["G"] = compile_group_G(b)
        st["Gbar"] = compile_trimmed(b)[1]
        groups = (st["G"], st["Gbar"], hnn_Gk(st["G"], b, 0), hnn_Gbar(st["G"], b))
        return tuple(len(g.relators) for g in groups)

    def export_round_trip():
        text = export(st["G"], "plain")
        back = export(parse_presentation(text), "plain")
        return (_sha(text), back == text, _sha(export(st["Gbar"], "gap-style")))

    def machine_round_trip():
        text = print_machine(st["b"].machine)
        return (_sha(text), print_machine(parse_machine(text)) == text)

    def audit():
        return tuple(_verdict(presentation_audit(st[g], st["b"])) for g in ("G", "Gbar"))

    def realize(comps):
        """Realize computations as trapezia; count cells and non-relator cells."""
        b, G = st["b"], st["G"]
        cells = bad = 0
        for comp in comps:
            first = b.machine.rule(comp.history[0])
            trap = computation_to_trapezium(b, comp, first_sup=1 if lift_kind(first) == "sup" else None)
            if trap.bottom.erase() != comp.start or trap.top.erase() != comp.end:
                bad += 1
            for band in trap.bands:
                for cell in band.cells:
                    cells += 1
                    bad += not G.has_relator(cell)
        return cells, bad

    def witnesses():
        """The accepting computations W_st -> W(k,k) -> W_ac."""
        b = st["b"]
        return realize(run_history(b.machine, b.w_st, b.witness_wst_to_wac(k)) for k in (0, 2, 4))

    def seeded():
        b = st["b"]
        cells, bad = realize(run_history(b.machine, b.w_word(k, k), h) for k, h in walks)
        return (cells > 0, bad)

    ops = [
        Op(f"build {tag}", build, expect.get(f"build {tag}"), ("main_machine.build_s",)),
        Op(f"compile {tag}", compile_, expect.get(f"compile {tag}"), ("presentation.relators",)),
        Op(
            f"export {tag}",
            export_round_trip,
            expect.get(f"export {tag}"),
            ("presentation.export_s", "presentation.parse_s"),
        ),
        Op(
            f"machine file {tag}",
            machine_round_trip,
            expect.get(f"machine file {tag}"),
            ("serialize.print_s", "serialize.parse_s"),
        ),
        Op(f"audit {tag}", audit, expect.get(f"audit {tag}"), ("checks.audit_s",)),
        Op(f"witness trapezia {tag}", witnesses, expect.get(f"witness trapezia {tag}"), ("trapezia.cells",)),
    ]
    if walks:
        ops.append(Op(f"seeded trapezia {tag}", seeded, (True, 0), ("trapezia.cells",)))
    return ops


def compile_workload(seed: int, expect: dict, trace_dir: str | None = None) -> Plan:
    """Compilation, serialization, audits and trapezia at several sizes."""
    from smachine.main_machine import build_main_machine
    from smachine.toy import toy_even_recognizer

    ref = build_main_machine(toy_even_recognizer(), m=2, L=12)
    rng = random.Random(seed)
    walks = []
    for _ in range(3):
        k = rng.randrange(4)
        hist, _ = random_walk(ref.machine, ref.w_word(k, k), 12, rng)
        if hist:
            walks.append((k, hist))
    ops: list[Op] = []
    st: dict = {}
    for i, (m, L) in enumerate(COMPILE_SIZES):
        ops += _compile_ops(m, L, expect, walks if i == 0 else (), st)
    return Plan(ops)


def verify_jobs2(seed: int, expect: dict, trace_dir: str | None = None) -> Plan:
    """``smachine verify --suite all --jobs 2`` through the CLI and its pool;
    the report bytes must equal the serial run's.  The seed is unused."""
    import smachine.cli  # noqa: F401  (the CLI's import is part of set-up)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"reports-{os.getpid()}.json"
    if trace_dir is None:
        cmd = [sys.executable, "-m", "smachine.cli"]
    else:
        cmd = [sys.executable, str(HERE / "tracedcli.py"), trace_dir]
    cmd += [*VERIFY_ARGS, "--jobs", "2", "-o", str(out)]

    def run():
        code, _ = run_tree(cmd, timeout=150, stdout=subprocess.DEVNULL)
        try:
            data = out.read_bytes()
        finally:
            out.unlink(missing_ok=True)
        return (code, hashlib.sha256(data).hexdigest())

    layers = SUITE_LAYERS + SWEEP + ("enumerate.computations", "checks.search_expansions", "checks.audit_s")
    return Plan([Op("verify --jobs 2", run, expect.get("verify --jobs 2"), layers)], jobs=2)


WORKLOADS: dict[str, Callable[[int, dict, str | None], Plan]] = {
    "sweep": sweep,
    "compile": compile_workload,
    "verify-jobs2": verify_jobs2,
}
