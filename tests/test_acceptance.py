"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line; tolerances and depths are pinned
here, not deferred.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import pytest

from conftest import random_words_for
from smachine.checks import (
    accepted_language_experiment,
    check_chi_occurrences,
    check_lr_bound,
    check_norep,
    check_wi_bound,
    presentation_audit,
    run_suites,
    write_reports,
)
from smachine.compose import start_configuration_m3
from smachine.enumerate import enumerate_computations
from smachine.lr import build_lr
from smachine.machine import apply_rule, is_applicable, run_history
from smachine.presentation import compile_group_G, compile_trimmed, export
from smachine.trapezia import computation_to_trapezium, disk_diagram_cells, lift_kind, trapezium_area
from smachine.words import AdmissibleWord, QLetter, YLetter


def _verdict(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} [{name}]: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def test_criterion_1_round_trip(shipped):
    """(W·theta)·theta^-1 == W exactly, >= 10^3 words per machine, < 1 min."""
    t0 = time.time()
    total_words = 0
    total_apps = 0
    for idx, machine in enumerate(shipped):
        words = random_words_for(machine, 1000, seed=1000 + idx)
        total_words += len(words)
        for w in words:
            for r in machine.candidate_rules(w.q[0]):
                if not is_applicable(machine, w, r):
                    continue
                out = apply_rule(machine, w, r)
                back = apply_rule(machine, out, machine.rule((r.label, -r.sign)))
                total_apps += 1
                if back != w:
                    _verdict(1, "round-trip", False, f"{machine.name}: {w} via {r.label}")
    elapsed = time.time() - t0
    _verdict(
        1,
        "round-trip",
        total_words >= 1000 * len(shipped) and total_apps > 0 and elapsed < 60,
        f"{total_words} words, {total_apps} applications, {elapsed:.1f}s",
    )


def test_criterion_2_lr_bound():
    """Exhaustive within tape length 4, zero violations, < 5 min."""
    t0 = time.time()
    rep = check_lr_bound(max_tape=4)
    elapsed = time.time() - t0
    _verdict(
        2,
        "lr-bound",
        rep.status == "pass" and elapsed < 300,
        f"min slack {rep.stats['min_slack']}, {rep.counts['states']} states, {elapsed:.1f}s",
    )


def test_criterion_3_wi_bound(session_bundle):
    """Depth 8 on the sweep machine and a tower fragment, zero violations, < 10 min."""
    t0 = time.time()
    lr = build_lr(["a"])
    starts = [
        AdmissibleWord((QLetter(0, "q1", 1), QLetter(1, "p1", 1)), ((),)),
        AdmissibleWord((QLetter(0, "q1", 1), QLetter(1, "p1", 1)), ((YLetter("a", 1), YLetter("a", 1)),)),
        AdmissibleWord((QLetter(1, "p2", 1), QLetter(2, "q2", 1)), ((YLetter("a'", 1),),)),
    ]
    rep1 = check_wi_bound(lr, starts, depth=8)
    m3 = session_bundle.m5.m4.m3
    cfg = start_configuration_m3(m3, 0, ["del2", "fin"])
    i = m3.history[0].r_part
    frag = AdmissibleWord((cfg.q[i], cfg.q[i + 1]), (cfg.u[i],))
    rep2 = check_wi_bound(m3.machine, [frag], depth=8)
    elapsed = time.time() - t0
    ok = rep1.status == "pass" and rep2.status == "pass" and elapsed < 600
    _verdict(
        3,
        "wi-bound",
        ok,
        f"{rep1.counts['computations']}+{rep2.counts['computations']} computations, {elapsed:.1f}s",
    )


def test_criterion_4_chi_occurrences(session_bundle):
    """Reduced standard-base tower computations: <= 1 of each transition."""
    m3 = session_bundle.m5.m4.m3
    starts = [
        start_configuration_m3(m3, 0, ["fin"]),
        start_configuration_m3(m3, 2, ["del2", "fin"]),
    ]
    rep = check_chi_occurrences(m3, starts, depth=10)
    _verdict(
        4,
        "chi-occurrences",
        rep.status == "pass" and rep.stats["max_occurrences"] == 1,
        f"{rep.counts['states']} states, max occurrences {rep.stats['max_occurrences']}",
    )


def test_criterion_5_accepted_language(session_bundle):
    """Verdicts agree with the reference for 0 <= k <= 3; yes ships a witness."""
    t0 = time.time()
    rep = accepted_language_experiment(session_bundle, ks=(0, 1, 2, 3), budget=20_000)
    elapsed = time.time() - t0
    table = rep.stats["table"]
    definite = [row for row in table if row["verdict"] != "unknown"]
    ok = (
        rep.status == "pass"
        and elapsed < 900
        and all(row["verdict"] == "yes" and row["witness_length"] for row in definite)
        and all(row["expected"] for row in definite)
        and all(row["verdict"] == "unknown" for row in table if not row["expected"])
        and rep.depth_exhausted  # unknowns carry the exhaustion flag
    )
    _verdict(5, "accepted-language", ok, f"{table}, {elapsed:.1f}s")


def test_criterion_6_no_return(session_bundle):
    """Depth-8 reduced enumeration from W(0,0) and W(2,2): no return."""
    reps = [check_norep(session_bundle, k, depth=8) for k in (0, 2)]
    ok = all(r.status == "pass" for r in reps)
    _verdict(6, "no-return", ok, f"states {[r.counts['states'] for r in reps]}")


def test_criterion_7_presentation_audits(session_bundle):
    """mu, nu, superscript discipline, hub lengths: 100% each."""
    pres = compile_group_G(session_bundle)
    rep = presentation_audit(pres, session_bundle)
    counts = rep.counts
    n_theta_a = sum(1 for r in pres.relators if r.tag == "theta-a")
    n_theta_q = sum(1 for r in pres.relators if r.tag == "theta-q")
    n_t_sup = sum(
        1
        for r in pres.relators
        if r.tag == "theta-q" and r.part == 0 and r.sup is not None
    )
    ok = (
        rep.status == "pass"
        and counts["mu_checked"] == len(pres.relators)
        and counts["nu_killed"] == n_theta_a
        and counts["theta_q_balanced"] == n_theta_q
        and counts["theta_t_disciplined"] == n_t_sup
        and counts["hubs"] == 2
    )
    _verdict(7, "presentation-audit", ok, f"{counts}")


def test_criterion_8_trapezium_correspondence(session_bundle):
    """200 eligible computations realize as trapezia with relator cells."""
    bundle = session_bundle
    pres = compile_group_G(bundle)
    comps = []
    for start, sup in (
        (bundle.w_word(0, 0), None),
        (bundle.w_st, 1),
        (run_history(bundle.machine, bundle.w_st, bundle.witness_wst_to_wkk(1)[:-1]).end, 2),
    ):
        for comp in enumerate_computations(
            bundle.machine, start, 4, "eligible", eligible_label="tr_23"
        ):
            if len(comp) >= 1:
                comps.append((comp, sup))
            if len(comps) >= 200:
                break
        if len(comps) >= 200:
            break
    assert len(comps) >= 200, "fixture should yield 200 eligible computations"
    checked_cells = 0
    for comp, sup in comps[:200]:
        first = bundle.machine.rule(comp.history[0])
        first_sup = sup if lift_kind(first) == "sup" else None
        trap = computation_to_trapezium(bundle, comp, first_sup=first_sup)
        assert trap.height == len(comp.history)
        assert trap.bottom.erase() == comp.start
        assert trap.top.erase() == comp.end
        for band in trap.bands:
            for cell in band.cells:
                checked_cells += 1
                if not pres.has_relator(cell):
                    _verdict(8, "trapezia", False, f"cell not a relator in {comp.history}")
    _verdict(8, "trapezia", True, f"200 computations, {checked_cells} cells checked")


def test_criterion_9_disk_cells(session_bundle):
    """Disk cell count >= N·L·d for each accepted input, exact arithmetic."""
    bundle = session_bundle
    details = []
    for k in (0, 2):
        if not bundle.toy.accepts(k):
            continue
        w = bundle.w_word(k, k)
        comp = run_history(bundle.machine, w, bundle.witness_wkk_to_wac(k))
        cells = disk_diagram_cells(w, comp, bundle)
        d = len(comp)
        trap = computation_to_trapezium(bundle, comp)
        assert cells == 1 + bundle.L * trapezium_area(trap)
        if cells < bundle.N * bundle.L * d:
            _verdict(9, "disk-cells", False, f"k={k}: {cells} < N·L·d = {bundle.N * bundle.L * d}")
        details.append(f"k={k}: {cells} >= {bundle.N * bundle.L * d}")
    _verdict(9, "disk-cells", True, "; ".join(details))


def test_criterion_10_determinism(session_bundle):
    """Two runs of the full reporting path give byte-identical output."""
    outs = []
    for _ in range(2):
        reports = []
        reports.extend(run_suites("periodic"))
        reports.append(check_lr_bound(max_tape=2))
        reports.append(presentation_audit(compile_group_G(session_bundle), session_bundle))
        outs.append(write_reports(reports))
    exports = [export(compile_trimmed(session_bundle)[1], "plain") for _ in range(2)]
    ok = outs[0] == outs[1] and exports[0] == exports[1]
    _verdict(10, "determinism", ok, f"{len(outs[0])} report bytes, {len(exports[0])} export bytes")
