"""Permissible lifts, band stacking, disk words."""

import pytest

from smachine import trapezia
from smachine.machine import run_history
from smachine.main_machine import build_main_machine
from smachine.presentation import compile_group_G, factory_for
from smachine.toy import toy_even_recognizer
from smachine.trapezia import (
    DiskVerdict,
    EmptyHistory,
    IneligibleHistory,
    SuperscriptForbidden,
    SuperscriptRequired,
    Trapezium,
    WitnessInvalid,
    computation_to_trapezium,
    disk_diagram_cells,
    is_disk_word,
    make_permissible,
    plain_lift,
    power_word,
    trapezium_area,
)
from smachine.words import AdmissibleWord, YLetter, invert_word


@pytest.fixture(scope="module")
def bundle():
    return build_main_machine(toy_even_recognizer(), m=2, L=12)


@pytest.fixture(scope="module")
def pres_g(bundle):
    return compile_group_G(bundle)


def test_plain_family_lift_is_identity(bundle):
    w = bundle.w_word(1, 1)
    rule = bundle.machine.rule("w3_ins_fin")
    pw = make_permissible(bundle.machine, w, rule, None, modulus=bundle.L)
    assert pw.erase() == w and pw.plain


def test_plain_family_forbids_superscript(bundle):
    w = bundle.w_word(0, 0)
    rule = bundle.machine.rule("tr_34")
    with pytest.raises(SuperscriptForbidden):
        make_permissible(bundle.machine, w, rule, 3, modulus=bundle.L)


def test_sup_family_requires_superscript(bundle):
    rule = bundle.machine.rule("tr_st1")
    with pytest.raises(SuperscriptRequired):
        make_permissible(bundle.machine, bundle.w_st, rule, None, modulus=bundle.L)


def test_sup_lift_constant_within_standard_base(bundle):
    rule = bundle.machine.rule("tr_st1")
    pw = make_permissible(bundle.machine, bundle.w_st, rule, 7, modulus=bundle.L)
    assert set(pw.q_sups) == {7}
    assert pw.erase() == bundle.w_st


def test_sup_lift_bumps_at_t_junction(bundle):
    """A two-period word crosses the circular part once: levels i, i+1."""
    w = bundle.w_st
    two = power_word(w, 2)
    rule = bundle.machine.rule("tr_st1")
    pw = make_permissible(bundle.machine, two, rule, 4, modulus=bundle.L)
    assert pw.q_sups[: bundle.N] == (4,) * bundle.N
    assert pw.q_sups[bundle.N :] == (5,) * bundle.N
    # erasure is independent of the chosen level
    pw2 = make_permissible(bundle.machine, two, rule, 9, modulus=bundle.L)
    assert pw.erase() == pw2.erase()
    # the inverse word crosses the junction backwards, one level down: its
    # lift from the last level of the forward lift is that lift reversed
    for v, label in ((w, "tr_st1"), (bundle.s1(), "w1_ins_a")):
        rule = bundle.machine.rule(label)
        three = power_word(v, 3)
        for first in (5, 12):  # 12 wraps past L
            up = make_permissible(bundle.machine, three, rule, first, modulus=bundle.L)
            down = make_permissible(bundle.machine, three.inv(), rule, up.q_sups[-1], modulus=bundle.L)
            assert down.q_sups == up.q_sups[::-1]
            assert down.u_sups == up.u_sups[::-1]


def test_lift_normalizes_tape_superscripts(bundle):
    """A first level outside 1..L is taken mod L by the tape letters as
    well as by the state letters: every tape letter carries the level of
    the state letter on its left."""
    machine = bundle.machine
    rule = machine.rule("w1_ins_a")
    w = run_history(machine, bundle.s1(), ["w1_ins_a"]).end
    i = [x.part for x in w.q].index(machine.input_sector)
    frag = AdmissibleWord(w.q[i:], w.u[i:])
    for first_sup, level in ((13, 1), (0, 12), (25, 1)):
        pw = make_permissible(machine, frag, rule, first_sup, modulus=bundle.L)
        assert str(pw).startswith(f"r0_w1^({level}) a^({level}) p1_w1^({level})")
        assert pw == make_permissible(machine, frag, rule, level, modulus=bundle.L)
        for s, tape in zip(pw.q_sups, pw.u_sups):
            assert set(tape) <= {s}


def test_trapezium_of_witness(bundle, pres_g):
    k = 0
    hist = bundle.witness_wst_to_wac(k)
    comp = run_history(bundle.machine, bundle.w_st, hist)
    trap = computation_to_trapezium(bundle, comp, first_sup=1)
    assert trap.height == len(hist)
    assert trap.bottom.erase() == bundle.w_st
    assert trap.top.erase() == bundle.w_ac
    # every cell boundary is a relator of the compiled presentation
    for band in trap.bands:
        for cell in band.cells:
            assert pres_g.has_relator(cell)
    # one (theta,q)-cell per base letter: area at least N per band
    assert trapezium_area(trap) >= bundle.N * trap.height


def test_trapezium_errors(bundle):
    comp = run_history(bundle.machine, bundle.w_st, ())
    with pytest.raises(EmptyHistory):
        computation_to_trapezium(bundle, comp, first_sup=1)
    bad = run_history(bundle.machine, bundle.w_st, ["tr_st1", "tr_st1^-1"])
    with pytest.raises(IneligibleHistory):
        computation_to_trapezium(bundle, bad, first_sup=1)


def test_bands_that_do_not_stack_are_refused(bundle):
    """A band's top must be the next band's bottom."""
    comp = run_history(bundle.machine, bundle.w_word(0, 0), ["w3_ins_fin", "tr_34"])
    b1, b2 = computation_to_trapezium(bundle, comp).bands
    assert Trapezium((b1, b2)).height == 2
    with pytest.raises(WitnessInvalid, match="band labels do not stack"):
        Trapezium((b2, b1))


def test_eligible_pair_gets_distinct_lifts(bundle, pres_g):
    """theta(23)·theta(23)^-1 stacks only with a fresh superscript level."""
    pre = bundle.witness_wst_to_wkk(0)[:-1]
    w = run_history(bundle.machine, bundle.w_st, pre).end
    comp = run_history(bundle.machine, w, ["tr_23", "tr_23^-1"])
    trap = computation_to_trapezium(bundle, comp, first_sup=3)
    assert trap.height == 2
    b1, b2 = trap.bands
    assert b1.bottom.q_sups[0] == 3
    assert b1.top.plain and b2.bottom.plain
    assert b2.top.q_sups[0] == 4  # the default fresh level
    for band in trap.bands:
        for cell in band.cells:
            assert pres_g.has_relator(cell)


@pytest.mark.parametrize("first_sup", (0, 1, 11, 12, 13, -3))
def test_eligible_pair_never_mirrors(bundle, first_sup):
    """theta(23)^-1 re-enters the superscripted phase one level above
    the theta(23) band's bottom, mod L, so the pair's second top never
    equals its first bottom: no two adjacent bands mirror each other."""
    pre = bundle.witness_wst_to_wkk(0)[:-1]
    w = run_history(bundle.machine, bundle.w_st, pre).end
    comp = run_history(bundle.machine, w, ["tr_23", "tr_23^-1"])
    b1, b2 = computation_to_trapezium(bundle, comp, first_sup=first_sup).bands
    assert (b1.bottom.q_sups[0], b2.top.q_sups[0]) == ((first_sup - 1) % bundle.L + 1, first_sup % bundle.L + 1)
    assert b2.top != b1.bottom


def test_band_cell_counts_height_one(bundle):
    """Empty sectors: exactly one (theta,q)-cell per base letter."""
    comp = run_history(bundle.machine, bundle.w_st, ["tr_st1"])
    trap = computation_to_trapezium(bundle, comp, first_sup=1)
    assert trapezium_area(trap) == bundle.N


def test_area_additive_under_stacking(bundle):
    k = 2
    hist = bundle.witness_wst_to_wac(k)
    comp = run_history(bundle.machine, bundle.w_st, hist)
    trap = computation_to_trapezium(bundle, comp, first_sup=1)
    assert trapezium_area(trap) == sum(b.area() for b in trap.bands)
    # one (theta,q)-cell per state letter, one (theta,a)-cell per surviving
    # bottom tape letter: consumed input letters leave no cell behind
    consumed = 0
    for b in trap.bands:
        bot = b.bottom.erase()
        survivors = _survivors(bundle.machine.rule(b.rule_label), bot)
        q_cells = [c for c in b.cells if any(g.kind == "q" for g, _ in c)]
        assert len(q_cells) == len(bot.q)
        assert b.area() - len(q_cells) == survivors
        consumed += bot.y_length() - survivors
    assert consumed > 0


def _survivors(rule, w):
    """Bottom tape letters left after naively cancelling each sector
    against what the rule puts beside it, tracked by index."""
    count = 0
    for x, u, y in zip(w.q, w.u, w.q[1:]):
        px, py = rule.parts[x.part], rule.parts[y.part]
        after_x = px.b if x.sign > 0 else invert_word(px.a)
        before_y = py.a if y.sign > 0 else invert_word(py.b)
        tagged = [(z, None) for z in after_x] + [(z, j) for j, z in enumerate(u)] + [(z, None) for z in before_y]
        i = 0
        while i < len(tagged) - 1:
            a, c = tagged[i][0], tagged[i + 1][0]
            if a.name == c.name and a.sign == -c.sign:
                del tagged[i : i + 2]
                i = 0
            else:
                i += 1
        count += sum(j is not None for _, j in tagged)
    return count


def test_hub_words_are_disk_words(bundle):
    for w, sup in ((bundle.w_st, 1), (bundle.w_ac, None)):
        big = power_word(w, bundle.L)
        if sup is None:
            pw = plain_lift(big)
        else:
            pw = make_permissible(
                bundle.machine, big, bundle.machine.rule("tr_st1"), sup, modulus=bundle.L
            )
        verdict = is_disk_word(pw, bundle, budget=4000)
        assert verdict.verdict == "yes"
        assert verdict.witness is not None


def test_non_power_is_not_disk(bundle):
    pw = plain_lift(bundle.w_word(0, 0))
    assert is_disk_word(pw, bundle).verdict == "no"


def test_power_with_one_block_differing_is_not_disk(bundle):
    """W_st^(L-1) W_ac: every block has W_st's letter pattern, the last
    one other letters."""
    big = power_word(bundle.w_st, bundle.L - 1)
    w = AdmissibleWord(big.q + bundle.w_ac.q, big.u + ((),) + bundle.w_ac.u)
    assert is_disk_word(plain_lift(w), bundle).verdict == "no"


def test_power_with_a_tape_letter_on_a_join_is_not_disk(bundle):
    big = power_word(bundle.w_ac, bundle.L)
    join = bundle.N - 1  # the tape between the first block and the second
    assert big.u[join] == ()
    u = big.u[:join] + ((YLetter(bundle.toy.input_letter, 1),),) + big.u[join + 1 :]
    assert is_disk_word(plain_lift(AdmissibleWord(big.q, u)), bundle).verdict == "no"


def test_power_of_an_inverse_word_is_not_disk(bundle):
    """W_ac^-1 is a word of the hardware whose base is not W_st's."""
    big = power_word(bundle.w_ac.inv(), bundle.L)
    assert is_disk_word(plain_lift(big), bundle).verdict == "no"


def test_wkk_power_is_disk_with_witness(bundle):
    """W(0,0)^L: certified through the constructed accepting computation."""
    w = bundle.w_word(0, 0)
    comp = run_history(bundle.machine, w, bundle.witness_wkk_to_wac(0))
    cells = disk_diagram_cells(w, comp, bundle)
    trap = computation_to_trapezium(bundle, comp)
    assert cells == 1 + bundle.L * trapezium_area(trap)
    assert cells >= bundle.N * bundle.L * len(comp)


def test_disk_verdict_is_no_when_both_searches_close(bundle, monkeypatch):
    """Base to W_ac, then the start word to base: when both reachable
    sets close without a hit, the verdict is a definite no."""
    calls = []

    def closed(machine, source, targets, budget):
        calls.append((source, tuple(targets)))
        return None, False

    monkeypatch.setattr(trapezia, "search", closed)
    w = bundle.w_word(2, 2)
    assert is_disk_word(plain_lift(power_word(w, bundle.L)), bundle, budget=300) == DiskVerdict("no")
    assert calls == [(w, (bundle.w_ac,)), (bundle.s1(), (w,))]


def test_disk_cells_refuse_a_computation_that_is_no_witness(bundle):
    """The computation must start or end at the word, and run from it to
    W_ac or to it from a start word."""
    w = bundle.w_word(0, 0)
    step = run_history(bundle.machine, w, bundle.witness_wkk_to_wac(0)[:1])
    assert step.end != bundle.w_ac
    with pytest.raises(WitnessInvalid, match="does not involve the given word"):
        disk_diagram_cells(bundle.w_ac, step, bundle)
    with pytest.raises(WitnessInvalid, match="not an accessibility witness"):
        disk_diagram_cells(w, step, bundle)


def test_disk_cells_hub_only_edge_case(bundle):
    comp = run_history(bundle.machine, bundle.w_ac, ())
    assert disk_diagram_cells(bundle.w_ac, comp, bundle) == 1


def test_dump_golden(bundle):
    from pathlib import Path

    from smachine.machine import run_history

    comp = run_history(bundle.machine, bundle.w_word(0, 0), ["w3_ins_fin", "tr_34"])
    trap = computation_to_trapezium(bundle, comp)
    golden = Path(__file__).parent / "data" / "trapezium_w00_ins.golden"
    assert trap.dump() == golden.read_text()


def test_accepted_power_is_disk_word(bundle):
    big = power_word(bundle.w_word(0, 0), bundle.L)
    verdict = is_disk_word(plain_lift(big), bundle, budget=4000)
    assert verdict.verdict == "yes" and verdict.direction == "from-start"
    # the witness replays from the start configuration
    from smachine.machine import run_history

    comp = run_history(bundle.machine, bundle.s1(), verdict.witness)
    assert comp.end == bundle.w_word(0, 0)


@pytest.mark.parametrize("k", (2, 3))
def test_disk_verdict_is_unknown_when_the_budget_runs_out(bundle, k):
    """W(k,k)^L for k = 2, 3: neither search closes or meets its target
    within 300 rule applications, so the verdict is unknown, put down to
    the budget."""
    big = power_word(bundle.w_word(k, k), bundle.L)
    v = is_disk_word(plain_lift(big), bundle, budget=300)
    assert (v.verdict, v.witness, v.budget_exhausted) == ("unknown", None, True)
