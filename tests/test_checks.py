"""The verification suites themselves: pass on the real machines, fail on
seeded defects, and report replayable counterexamples."""

import dataclasses
import gc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from smachine import checks
from smachine import enumerate as engine
from smachine.checks import (
    _best_periodic_gain,
    check_chi_occurrences,
    check_lr_bound,
    check_norep,
    check_periodic_distinctness,
    check_wi_bound,
    presentation_audit,
    run_one_suite,
    run_suites,
)
from smachine.compose import start_configuration_m3
from smachine.enumerate import search
from smachine.lr import build_lr
from smachine.machine import Hardware, Rule, RulePart, SMachine, UnknownRule, history, run_history
from smachine.presentation import Generator, Relator, compile_group_G, factory_for
from smachine.trapezia import is_disk_word, plain_lift, power_word
from smachine.words import AdmissibleWord, QLetter, YLetter


def test_periodic_gain_table():
    h = history("x", "x", "x")
    # period 1 repeated thrice: gain (2*3-3)*1 = 3
    assert _best_periodic_gain(h) == 3
    assert _best_periodic_gain(history("x", "y")) == 0
    assert _best_periodic_gain(history("x", "y", "x", "y")) == 2


def _periodic_gain_oracle(hist):
    """The double loop the fold replaced: for every period p and start i,
    the most repeats k of hist[i:i+p] from i, worth (2k-3)p when k >= 2."""
    t = len(hist)
    best = 0
    for p in range(1, t // 2 + 1):
        for i in range(0, t - 2 * p + 1):
            k = 1
            while i + (k + 1) * p <= t and hist[i + k * p : i + (k + 1) * p] == hist[i : i + p]:
                k += 1
            if k >= 2:
                best = max(best, (2 * k - 3) * p)
    return best


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(history("x", "x^-1", "y")), max_size=12))
def test_periodic_gain_fold_matches_the_double_loop(hist):
    """Three labels make long periodic runs common."""
    assert _best_periodic_gain(tuple(hist)) == _periodic_gain_oracle(tuple(hist))


def test_lr_bound_small_matches_exhaustive():
    rep = check_lr_bound(max_tape=2)
    assert rep.status == "pass"
    # frozen from the naive path-enumeration oracle (see suite design)
    assert rep.stats["min_slack"] == 3


def test_wi_bound_lr():
    lr = build_lr(["a"])
    start = AdmissibleWord((QLetter(0, "q1", 1), QLetter(1, "p1", 1)), ((YLetter("a", 1),),))
    rep = check_wi_bound(lr, [start], depth=5)
    assert rep.status == "pass"
    assert rep.counts["computations"] > 100


def test_wi_bound_carries_each_paths_statistics(monkeypatch):
    """On wi-bound's LR run at depth 6, every computation's carried length,
    peak and gain are what its whole trace and history give."""
    real = checks.enumerate_computations
    seen = []

    def recording(*args, **kwargs):
        for comp in real(*args, **kwargs):
            seen.append(comp)
            yield comp

    monkeypatch.setattr(checks, "enumerate_computations", recording)
    lr, starts = checks._wi_lr_starts()
    assert check_wi_bound(lr, starts, depth=6).counts == {"computations": 1866} and len(seen) == 1866
    for comp in seen:
        t, peak, gain, _ = comp.extra
        steps = comp.steps()
        assert peak == max(s.end.length() for s in steps)
        assert (t, gain) == (len(steps) - 1, _periodic_gain_oracle(comp.history))


def _growing_machine():
    """One rule that puts aa beside both state letters, and its start q p."""
    aa = (YLetter("a", 1),) * 2
    hw = Hardware(parts=(("q",), ("p",)), sector_alphabets=(frozenset("a"),))
    z = Rule("z", (RulePart("q", (), "q", aa), RulePart("p", aa, "p", ())), (frozenset("a"),))
    return SMachine(hardware=hw, positive_rules=(z,), name="grow"), hw.word(["q", "p"])


def _seeded_wi_bound():
    machine, start = _growing_machine()
    return check_wi_bound(machine, [start], depth=6)


def test_wi_bound_fails_on_a_growing_rule():
    """One rule that puts aa beside both state letters grows the word by
    4 a step; z^3 z^-3 peaks above its bound, whose periodic discount is
    only 3, and the reported path replays to that peak."""
    machine, start = _growing_machine()
    assert check_wi_bound(machine, [start], depth=5).status == "pass"
    rep = _seeded_wi_bound()
    assert rep.status == "fail"
    assert rep.counterexample == {"start": "q p", "history": ["z"] * 3 + ["z^-1"] * 3}
    comp = run_history(machine, start, rep.counterexample["history"])
    peak = max(w.length() for w in comp.trace)
    bound = start.length() + comp.end.length() + 2 * len(comp) - _best_periodic_gain(comp.history)
    assert (peak, bound) == (14, 13)


def test_wi_bound_rejects_bad_base():
    lr = build_lr(["a"])
    with pytest.raises(ValueError):
        check_wi_bound(lr, [lr.start_configuration()], depth=2)


def test_chi_occurrences_with_witness(session_bundle):
    m3 = session_bundle.m5.m4.m3
    rep = check_chi_occurrences(m3, [start_configuration_m3(m3, 0, ["fin"])], depth=7)
    assert rep.status == "pass"
    # non-vacuous: some transition was crossed within the sweep
    assert rep.stats["max_occurrences"] == 1


def test_chi_positive_control(session_bundle):
    """The straight-line stage sweep crosses each transition exactly once."""
    from smachine.compose import stage_sweep_history

    m3 = session_bundle.m5.m4.m3
    full = stage_sweep_history(m3, ["fin"])
    comp = run_history(m3.machine, start_configuration_m3(m3, 0, ["fin"]), full)
    for lbl in m3.chi_labels:
        assert sum(1 for s in comp.history if s[0] == lbl) == 1


def test_norep_depth1_audit(session_bundle):
    rep = check_norep(session_bundle, 0, depth=1)
    assert rep.status == "pass"


def test_periodic_distinctness_boundary_movement():
    lr = build_lr(["a"])
    w = lr.hardware.word(["q1", "a", "a", "p1", "q2"])
    rep = check_periodic_distinctness(lr, w, ["z1_a"], max_reps=2)
    assert rep.status == "pass" and rep.counts["boundaries"] == 3


@pytest.mark.parametrize(
    "tokens, period, status, reps",
    [
        (["q1", "p2", "q2"], ["z1_a"], "skip", None),
        (["q1", "p1", "q2"], ["z12"], "pass", 1),
        (["q1", "a", "p1", "q2"], ["z1_a", "z12", "z12^-1"], "pass", 1),
    ],
    ids=["never-applicable", "state-letter-gone", "locked-sector-filled"],
)
def test_periodic_distinctness_runs_the_period_while_it_applies(tokens, period, status, reps):
    """The check keeps the reps that applied.  z1_a needs p1; z12 takes
    p1 to p2 once; and z12 needs an empty left tape, which the second
    z1_a fills with a^-1."""
    lr = build_lr(["a"])
    rep = check_periodic_distinctness(lr, lr.hardware.word(tokens), period, max_reps=3)
    assert rep.status == status
    if reps is None:
        assert rep.notes == ("period never applicable from the start word",)
    else:
        assert (rep.params["reps"], rep.counts) == (reps, {"boundaries": reps + 1})


def test_periodic_distinctness_raises_on_unknown_rule():
    """A bad period label is a bug to report, not a skip."""
    lr = build_lr(["a"])
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    with pytest.raises(UnknownRule):
        check_periodic_distinctness(lr, w, ["no_such_rule"])


def test_presentation_audit_passes(session_bundle):
    pres = compile_group_G(session_bundle)
    rep = presentation_audit(pres, session_bundle)
    assert rep.status == "pass"
    assert rep.counts["mu_checked"] == len(pres.relators)
    assert rep.counts["hubs"] == 2
    assert rep.counts["theta_t_disciplined"] > 0


def test_presentation_audit_catches_seeded_defect(session_bundle):
    """A relator with a lone t-letter breaks the mu audit."""
    pres = compile_group_G(session_bundle)
    fac = factory_for(session_bundle)
    bad_word = ((fac.q_gen("t_w3", None), 1),)
    bad = dataclasses.replace(pres, relators=pres.relators + (Relator(bad_word, "theta-q", "seeded"),))
    rep = presentation_audit(bad, session_bundle)
    assert rep.status == "fail"
    assert any("mu != 0" in f for f in rep.counterexample["failures"])


def _audit_seeded(bundle, seed):
    """The audit of G with one more relator, ``seed(G)``; returns its failures."""
    pres = compile_group_G(bundle)
    bad = dataclasses.replace(pres, relators=pres.relators + (seed(pres),))
    rep = presentation_audit(bad, bundle)
    assert rep.status == "fail"
    return rep.counterexample["failures"]


def _any_theta(pres):
    return next(g for r in pres.relators for g, _ in r.word if g.kind == "th")


def _t_discipline_broken(pres):
    """θ_1 and θ_N of a (θ,t)-relator's rule at one superscript: their
    levels differ by 0, not by 1."""
    r = next(r for r in pres.relators if r.tag == "theta-q" and r.part == 0 and r.sup is not None)
    word = ((Generator("th", r.rule, 1, r.sup), 1), (Generator("th", r.rule, pres.N, r.sup), -1))
    return Relator(word, "theta-q", r.rule, part=0, sup=r.sup)


@pytest.mark.parametrize(
    "seed, failure",
    [
        (lambda pres: Relator(((_any_theta(pres), 1),), "theta-a", "seeded"), "nu does not kill a (theta,a)-relator of seeded"),
        (lambda pres: Relator(((_any_theta(pres), 1),), "theta-q", "seeded"), "theta exponent sum nonzero in relator of seeded"),
        (_t_discipline_broken, "superscript discipline broken in (theta,t)-relator of "),
        (lambda pres: Relator(((_any_theta(pres), 1), (_any_theta(pres), -1)), "hub", "seeded"), "hub seeded has length 2 != L*N"),
    ],
    ids=["nu-keeps-a-theta", "theta-sum-nonzero", "t-superscripts-equal", "short-hub"],
)
def test_presentation_audit_catches_seeded_relator(session_bundle, seed, failure):
    """Each audit of a relator's shape fails on a hand-built bad relator."""
    assert any(f.startswith(failure) for f in _audit_seeded(session_bundle, seed))


def test_presentation_audit_suite_fails_on_superscripted_trimmed_group(session_bundle, monkeypatch):
    """The suite's second report fails when the trimmed presentation has
    a superscripted generator, even though its relators audit clean."""
    monkeypatch.setattr(checks, "bundle_cached", lambda m, L: session_bundle)
    monkeypatch.setattr(checks, "compile_trimmed", lambda bundle: (None, compile_group_G(bundle)))
    g, gbar = run_one_suite("presentation-audit", {})
    assert (g.status, g.notes) == ("pass", ())
    assert (gbar.status, gbar.notes, gbar.counterexample) == ("fail", ("trimmed presentation carries superscripts",), None)


def test_run_one_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_one_suite("nope", {})


def test_counterexamples_replay(session_bundle):
    """The real machines pass; a period that undoes itself is a skip."""
    lr = build_lr(["a"])
    # control: at a small tape cap the real sweep machine has no counterexample
    rep = check_lr_bound(max_tape=1)
    assert rep.status == "pass"
    # z12 z12^-1 returns to its start, so the distinctness hypothesis fails
    w = lr.hardware.word(["q1", "p1", "q2"])
    rep2 = check_periodic_distinctness(lr, w, ["z12", "z12^-1"], max_reps=2)
    assert rep2.status == "skip"


def _identity_rule(machine, label, state):
    """A rule fixing ``state`` (and the first letter of every other part)
    that leaves the tape alone."""
    hw = machine.hardware
    letters = [state if state in names else names[0] for names in hw.parts]
    return Rule(label, tuple(RulePart(x, (), x, ()) for x in letters), hw.sector_alphabets)


def _with_rules(machine, *rules):
    return dataclasses.replace(machine, positive_rules=machine.positive_rules + rules)


def test_lr_bound_fails_on_seeded_identity_rule(monkeypatch):
    """An identity rule keeps the length fixed while t grows, so the
    length bound must break; the reported path replays to a violation."""
    real = checks.build_lr
    seeded = {}

    def build_lr_seeded(alphabet):
        lr = real(alphabet)
        seeded["machine"] = _with_rules(lr, _identity_rule(lr, "id", "p1"))
        return seeded["machine"]

    monkeypatch.setattr(checks, "build_lr", build_lr_seeded)
    rep = check_lr_bound(max_tape=1)
    assert rep.to_dict() == LR_SEEDED
    lr = seeded["machine"]
    start = lr.hardware.word(rep.counterexample["start"].split())
    comp = run_history(lr, start, rep.counterexample["history"])
    assert len(comp) == 5
    assert start.length() + comp.end.length() - 2 < len(comp)


def test_chi_occurrences_passes_vacuously_with_no_starts(session_bundle):
    """No start word is an empty sweep, as lr-bound and wi-bound treat
    empty input: a pass over 0 states."""
    rep = check_chi_occurrences(session_bundle.m5.m4.m3, [], depth=3)
    assert (rep.status, rep.counts, rep.stats) == ("pass", {"states": 0}, {"max_occurrences": 0})


def test_chi_occurrences_fails_on_repeated_rule(session_bundle):
    """Naming a rule the sweep repeats as a transition is caught at the
    first level where it occurs twice."""
    m3 = session_bundle.m5.m4.m3
    seeded = dataclasses.replace(m3, chi_labels=m3.chi_labels + ("s1_r2_fin",))
    rep = check_chi_occurrences(seeded, [start_configuration_m3(m3, 0, ["fin"])], depth=6)
    assert rep.to_dict() == CHI_SEEDED


def _seeded_norep():
    lr = build_lr(["a"])
    machine = _with_rules(lr, _identity_rule(lr, "id", "p2"))
    target = machine.hardware.word(["q1", "a", "p1", "q2"])
    bundle = SimpleNamespace(without_first_two_sets=machine, w_word=lambda k, k2: target)
    return check_norep(bundle, 0, depth=6)


def test_norep_fails_on_seeded_identity_rule():
    """An identity rule at p2 turns a sweep back on itself."""
    assert _seeded_norep().to_dict() == NOREP_SEEDED


def test_meet_in_the_middle_ends_when_a_frontier_empties():
    """No rule applies at q1 a' p1 q2, so a frontier grown from it closes
    after one layer: a definite no, where the forward side alone grows
    without end and can only run out of budget."""
    lr = build_lr(["a"])
    live = lr.hardware.word(["q1", "a", "p1", "q2"])
    dead = lr.hardware.word(["q1", "a'", "p1", "q2"])
    assert search(lr, live, [dead], 1000, bidirectional=True) == (None, False)
    assert search(lr, dead, [live], 1000, bidirectional=True) == (None, False)
    assert search(lr, live, [dead], 1000) == (None, True)


def test_run_suites_registry_and_json(session_bundle):
    reports = run_suites("periodic")
    assert all(r.suite == "periodic-distinctness" for r in reports)
    text = checks.write_reports(reports)
    assert '"suite"' in text
    with pytest.raises(ValueError):
        run_suites("no-such-suite")


def test_run_suites_jobs_2_matches_serial():
    """A 2-worker pool gives the serial report bytes."""
    serial = checks.write_reports(run_suites("lr-bound,periodic"))
    assert checks.write_reports(run_suites("lr-bound,periodic", jobs=2)) == serial


def test_run_suites_pool_has_at_most_one_worker_per_suite(monkeypatch):
    """The pool forks every worker at its first submit, so ``jobs`` beyond
    the number of suites would fork idle processes.  A stand-in pool
    records its size and maps in this process."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = run_suites("lr-bound,periodic")
    assert run_suites("lr-bound,periodic", jobs=64) == serial
    assert run_suites("lr-bound,periodic", jobs=2) == serial
    run_suites("periodic", jobs=64)  # one suite runs in this process, with no pool
    assert sizes == [2, 2]


def test_accepted_language_small(session_bundle):
    from smachine.checks import accepted_language_experiment

    rep = accepted_language_experiment(session_bundle, ks=(0, 2), budget=2000)
    assert rep.status == "pass"
    table = rep.stats["table"]
    assert [row["verdict"] for row in table] == ["yes", "yes"]
    # positive verdicts ship replayable witnesses
    assert all(row["witness_length"] for row in table)


def _lr_stand_in(accepts, start, witness=()):
    """A bundle on the LR machine for the accepted-language experiment:
    W(k,k) is ``start`` for every k, W_ac is where z1_a z12 takes
    q1 a p1 q2, and the acceptor answers ``accepts``."""
    lr = build_lr(["a"])
    w = lr.hardware.word(start.split())
    return SimpleNamespace(
        trimmed=lr,
        toy=SimpleNamespace(accepts=lambda k: accepts),
        w_word=lambda k, k2: w,
        w_ac=run_history(lr, lr.hardware.word(["q1", "a", "p1", "q2"]), history("z1_a", "z12")).end,
        witness_wkk_to_wac=lambda k: history(*witness),
    )


LIVE, DEAD = "q1 a p1 q2", "q1 a' p1 q2"  # no rule applies at q1 a' p1 q2


@pytest.mark.parametrize(
    "bundle, found, row, failures",
    [
        (_lr_stand_in(True, LIVE, ["z1_a"]), None, ("yes", "constructed", 1), ["constructed witness does not reach the accept word"]),
        (_lr_stand_in(False, LIVE), history("z1_a"), ("yes", "search", 1), ["search witness fails to replay", "reached but rejected by the reference acceptor"]),
        (_lr_stand_in(False, LIVE), None, ("yes", "search", 2), ["reached but rejected by the reference acceptor"]),
        (_lr_stand_in(False, DEAD), None, ("no", "search", None), []),
    ],
    ids=["constructed-witness-misses", "search-witness-fails-to-replay", "reached-but-rejected", "closed-search-says-no"],
)
def test_accepted_language_on_seeded_bundles(monkeypatch, bundle, found, row, failures):
    """Each verdict and failure of the experiment, on stand-in bundles;
    ``found`` replaces the search's witness, else the real search runs
    (it meets W_ac from q1 a p1 q2, and closes at once from q1 a' p1 q2)."""
    if found is not None:
        monkeypatch.setattr(checks, "search", lambda *args, **kw: (found, False))
    rep = checks.accepted_language_experiment(bundle, ks=(1,), budget=1000)
    assert rep.status == ("fail" if failures else "pass")
    (got,) = rep.stats["table"]
    assert (got["verdict"], got["via"], got["witness_length"]) == row
    assert rep.counterexample == ({"failures": [f"k=1: {f}" for f in failures]} if failures else None)
    assert (rep.counts, rep.depth_exhausted) == ({"definite": 1}, False)


def _chi(bundle, depth):
    m3 = bundle.m5.m4.m3
    starts = [start_configuration_m3(m3, 0, ["fin"]), start_configuration_m3(m3, 2, ["del2", "fin"])]
    return check_chi_occurrences(m3, starts, depth=depth)


def _disk_out_of_budget(bundle):
    return is_disk_word(plain_lift(power_word(bundle.w_word(2, 2), bundle.L)), bundle, budget=300)


def _search_with_witness():
    lr = build_lr(["a"])
    live = lr.hardware.word(["q1", "a", "p1", "q2"])
    target = run_history(lr, live, history("z1_a", "z12")).end
    wit, _ = search(lr, live, [target], 1000)
    assert wit == history("z1_a", "z12")


@pytest.fixture(params=(True, False), ids=("collector-on", "collector-off"))
def collector_was_on(request):
    """The collector as the caller left it before a run, restored after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize(
    "run",
    (
        lambda b: check_lr_bound(max_tape=2),
        lambda b: _chi(b, 4),
        lambda b: _seeded_norep(),
        lambda b: _search_with_witness(),
        lambda b: _disk_out_of_budget(b),
        lambda b: check_wi_bound(*checks._wi_lr_starts(), depth=3),
        lambda b: _seeded_wi_bound(),
    ),
    ids=("lr-bound", "chi", "norep-seeded-fail", "search-witness", "search-out-of-budget", "wi-bound",
         "wi-bound-seeded-fail"),
)
def test_paused_collector_is_restored(session_bundle, collector_was_on, run):
    """A sweep or search leaves the collector as its caller had it: on
    again after a pause, off if it was off, also on an early fail."""
    run(session_bundle)
    assert gc.isenabled() is collector_was_on


def test_paused_collector_is_restored_when_expansion_raises(session_bundle, collector_was_on, monkeypatch):
    """An exception part-way through a sweep, a search or wi-bound's
    enumeration still restores the collector, which was off while the
    engine expanded."""
    real = engine.successors
    seen = []

    def failing(machine, word, last=None):
        seen.append(gc.isenabled())
        if len(seen) % 5 == 0:
            raise RuntimeError("seeded expansion failure")
        return real(machine, word, last)

    monkeypatch.setattr(engine, "successors", failing)
    with pytest.raises(RuntimeError):
        check_lr_bound(max_tape=2)
    assert gc.isenabled() is collector_was_on
    with pytest.raises(RuntimeError):
        _disk_out_of_budget(session_bundle)
    assert gc.isenabled() is collector_was_on
    with pytest.raises(RuntimeError):
        check_wi_bound(*checks._wi_lr_starts(), depth=3)
    assert gc.isenabled() is collector_was_on
    assert len(seen) == 15 and not any(seen)


def test_engine_states_hold_no_reference_cycles(session_bundle):
    """The premise of the pause: with the collector off, the sweeps, a
    disk search and wi-bound's enumeration leave nothing that only the
    collector could free."""
    bundle = session_bundle
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        check_lr_bound(max_tape=2)
        _chi(bundle, 5)
        for k in (0, 2):
            check_norep(bundle, k, depth=4)
        _seeded_norep()
        _disk_out_of_budget(bundle)
        check_wi_bound(*checks._wi_lr_starts(), depth=4)
        assert gc.collect() == 0
    finally:
        if was_on:
            gc.enable()


# Whole reports of the three seeded sweeps above: they pin the first
# offending application and the state count of the levels before it.
LR_SEEDED = {
    "suite": "lr-bound",
    "status": "fail",
    "params": {"max_tape": 1, "alphabet": ["a"]},
    "counts": {"start_words": 18, "states": 133},
    "stats": {"violation_at": 5},
    "counterexample": {"start": "q1 p1 q2", "history": ["id"] * 5},
    "depth_exhausted": False,
    "notes": [],
}

CHI_SEEDED = {
    "suite": "chi-occurrences",
    "status": "fail",
    "params": {"depth": 6},
    "counts": {"states": 58},
    "stats": {"chi_rule": "s1_r2_fin"},
    "counterexample": {
        "start": "cp0_s1 q0s_r_s1 cr0_s1 cp1_s1 q1s_l_s1 cr1a_s1 fin_l1 cp2_s1 q1s_r_s1 cr2_s1 cp3_s1 q2s_l_s1 cr3_s1",
        "history": ["s1_r1_fin", "s1_rt", "s1_r2_fin", "s1_r2_fin"],
    },
    "depth_exhausted": False,
    "notes": [],
}

NOREP_SEEDED = {
    "suite": "no-return",
    "status": "fail",
    "params": {"k": 0, "depth": 6},
    "counts": {"states": 25},
    "stats": {"return_at": 5},
    "counterexample": {"start": "q1 a p1 q2", "history": ["z1_a", "z12", "id", "z12^-1", "z1_a^-1"]},
    "depth_exhausted": False,
    "notes": [],
}
