"""The assembled main machine: phases, distinguished words, witnesses."""

import hashlib

import pytest

from smachine.checks import run_suites
from smachine.machine import (
    NotApplicable,
    apply_rule,
    format_slabel,
    is_applicable,
    is_eligible,
    run_history,
    step_history,
)
from smachine.main_machine import (
    BadParameters,
    build_main_machine,
    family,
    sup_sides,
)
from smachine.toy import toy_even_recognizer
from smachine.words import YLetter


def test_bad_parameters(session_bundle):
    with pytest.raises(BadParameters):
        build_main_machine(toy_even_recognizer(), m=0)
    with pytest.raises(BadParameters):
        build_main_machine(toy_even_recognizer(), L=4)
    # the reference acceptor answers for k >= 0 only
    with pytest.raises(BadParameters, match="only nonnegative inputs"):
        session_bundle.w_word(-1, 0)
    with pytest.raises(BadParameters, match="only nonnegative inputs"):
        session_bundle.w_word(0, -1)
    with pytest.raises(BadParameters, match="only nonnegative inputs"):
        run_suites("accepted-language", ks=(-2,))


# The superscripted (source, target) sides by family and sign, written
# out here so the table does not read the function it checks.
SUP_SIDES = {
    ("sup", 1): (True, True),
    ("sup", -1): (True, True),
    ("mixed", 1): (True, False),
    ("mixed", -1): (False, True),
    ("plain", 1): (False, False),
    ("plain", -1): (False, False),
}


def test_sup_sides_by_family_and_sign(session_bundle):
    """Every rule of the main machine and its inverse: both sides for the
    sup family, neither for the plain one, and theta(23)'s source side
    only, which is its inverse's target side."""
    seen = set()
    for rule in session_bundle.machine.rules:
        key = (family(rule), rule.sign)
        assert sup_sides(rule) == SUP_SIDES[key], format_slabel(rule.signed_label)
        seen.add(key)
    assert seen == set(SUP_SIDES)


def test_n_matches_derived_formula(session_bundle):
    # s+1 = parts of the scanned machine's base; N = 6s+7
    s1 = session_bundle.m5.m4.m3.m2bar.m2.machine.hardware.n_parts
    assert session_bundle.N == 6 * (s1 - 1) + 7
    assert session_bundle.N == session_bundle.machine.hardware.n_parts
    assert session_bundle.machine.hardware.circular


def test_w_st_shape(session_bundle):
    w = session_bundle.w_st
    assert w.y_length() == 0 and w.length() == session_bundle.N
    # starts with the t-part letter
    assert w.q[0].part == 0 and w.q[0].name == "t_st"


def test_w_ac_shape(session_bundle):
    w = session_bundle.w_ac
    assert w.y_length() == 0 and w.length() == session_bundle.N
    assert all(x.name.endswith("_ac") for x in w.q)


def test_w_word_shape(session_bundle):
    w = session_bundle.w_word(3, 2)
    assert w.u[session_bundle.machine.input_sector] == tuple(YLetter("a", 1) for _ in range(3))
    assert w.u[session_bundle.m5.mirror_sector[session_bundle.machine.input_sector]] == tuple(
        YLetter("a_m", -1) for _ in range(2)
    )
    assert w.base == session_bundle.w_st.base  # standard base of the machine
    # all other sectors empty
    sector = session_bundle.machine.input_sector
    others = sum(len(u) for i, u in enumerate(w.u) if i not in (sector, session_bundle.m5.mirror_sector[sector]))
    assert others == 0


def test_wkk_is_theta23_inverse_admissible(session_bundle):
    t23 = session_bundle.machine.rule("tr_23^-1")
    for k in (0, 1, 2):
        assert is_applicable(session_bundle.machine, session_bundle.w_word(k, k), t23)
    # a word with content in the sweep scratch sector is not of the W(k,k') form
    bad_tape = {session_bundle.lrm_scratch: (YLetter("a_c", 1),)}
    bad = session_bundle.machine.standard_base_word(
        [f"{g}_w3" for g in session_bundle.part_tags], bad_tape
    )
    assert not is_applicable(session_bundle.machine, bad, t23)


def test_wst_to_wkk_witness(session_bundle):
    for k in (0, 1, 3):
        comp = run_history(session_bundle.machine, session_bundle.w_st, session_bundle.witness_wst_to_wkk(k))
        assert comp.end == session_bundle.w_word(k, k)
    with pytest.raises(BadParameters, match="only nonnegative inputs"):
        session_bundle.witness_wst_to_wkk(-1)


def test_full_accepting_witness(session_bundle):
    for k in (0, 2):
        hist = session_bundle.witness_wst_to_wac(k)
        assert is_eligible(hist, allowed="tr_23")
        comp = run_history(session_bundle.machine, session_bundle.w_st, hist)
        assert comp.end == session_bundle.w_ac


# sha256 of the formatted W_st -> W_ac witness for sweep counts other than
# the bundle's m = 2, so a change to how set 2 or M3 name their sweep rules
# shows up as a changed history and not only as a run that stops replaying
WITNESS_PINS = {
    (1, 0): "aadc507681e34b2cf32050d9e118535f42b6a46bc86e2d2d418d26e9c65f35ed",
    (1, 2): "22544280c98373e1d22219621e38bc056b2f8a2ec9e84987655645a19d1fa489",
    (3, 0): "7c9a8b2685ceb5fb57b3f6561d08978df1c3dd12c97a949544b0064de641df1f",
    (3, 2): "8788b92feefed7d182f6c0c422832de2b780b1b14804fa0c74ee68c7ca55c304",
}


@pytest.mark.parametrize("m", [1, 3])
def test_accepting_witness_for_other_m(m):
    b = build_main_machine(toy_even_recognizer(), m=m, L=12)
    for k in (0, 2):
        hist = b.witness_wst_to_wac(k)
        assert run_history(b.machine, b.w_st, hist).end == b.w_ac
        assert hashlib.sha256(" ".join(map(format_slabel, hist)).encode()).hexdigest() == WITNESS_PINS[m, k]


def test_accepting_witness_rejects_odd(session_bundle):
    with pytest.raises(ValueError):
        session_bundle.witness_wkk_to_wac(1)


def test_step_history_of_witness(session_bundle):
    hist = session_bundle.witness_wst_to_wac(2)
    sh = step_history(hist, session_bundle.machine)
    assert sh == ("(01)", "(1)", "(12)", "(2)", "(23)", "(3)", "(34)", "(4)", "(45)", "(5)", "(50)")


def test_phase_letters_disjoint(session_bundle):
    # every part's letters are unique machine-wide (disjoint per set)
    names = [x for p in session_bundle.machine.hardware.parts for x in p]
    assert len(names) == len(set(names))


def test_accept_rule_needs_everything_empty(session_bundle):
    w = session_bundle.w_word(2, 2)
    t50 = session_bundle.machine.rule("tr_50")
    assert not is_applicable(session_bundle.machine, w, t50)


def test_theta1_locks_all_sectors(session_bundle):
    r = session_bundle.machine.rule("tr_st1")
    assert all(r.locks(s) for s in range(session_bundle.machine.hardware.n_sectors))


def test_insert_rule_mirror_symmetry(session_bundle):
    """One insertion adds a on the left half and a_m^-1 on the mirror."""
    w1 = apply_rule(session_bundle.machine, session_bundle.w_st, session_bundle.machine.rule("tr_st1"))
    w2 = apply_rule(session_bundle.machine, w1, session_bundle.machine.rule("w1_ins_a"))
    assert w2.u[session_bundle.machine.input_sector] == (YLetter("a", 1),)
    assert w2.u[session_bundle.m5.mirror_sector[session_bundle.machine.input_sector]] == (YLetter("a_m", -1),)


def test_erase_rules_pair_both_halves(session_bundle):
    # from W(1,1), one input-erasure step empties both input sectors
    w = session_bundle.machine.standard_base_word([f"{g}_w5" for g in session_bundle.part_tags], {
        session_bundle.machine.input_sector: (YLetter("a", 1),),
        session_bundle.m5.mirror_sector[session_bundle.machine.input_sector]: (YLetter("a_m", -1),),
    })
    out = apply_rule(session_bundle.machine, w, session_bundle.machine.rule("w5_er_inp_a"))
    assert out.u[session_bundle.machine.input_sector] == ()
    assert out.u[session_bundle.m5.mirror_sector[session_bundle.machine.input_sector]] == ()


def test_trimmed_machine(session_bundle):
    mbar = session_bundle.trimmed
    tags = {r.tag for r in mbar.positive_rules}
    assert tags == {"set3", "tr34", "set4", "tr45", "set5", "tr50"}
    # rule count: everything except sets 1-2 and the three early transitions
    full = session_bundle.machine.positive_rules
    expected = len([r for r in full if r.tag in tags])
    assert len(mbar.positive_rules) == expected
    # no sweep-phase letters survive
    for part in mbar.hardware.parts:
        for x in part:
            assert "_z" not in x and not x.endswith("_w1") and not x.endswith("_st")
    # W(k,k) runs to acceptance inside the trimmed machine
    for k in (0, 2):
        comp = run_history(mbar, session_bundle.w_word(k, k), session_bundle.witness_wkk_to_wac(k))
        assert comp.end == session_bundle.w_ac


def test_trimmed_start_configurations(session_bundle):
    for mbar in (session_bundle.trimmed, session_bundle.without_first_two_sets):
        assert mbar.start_configuration() == session_bundle.w_word(0, 0)


def test_no_return_machine_is_mbar_and_theta_23(session_bundle):
    """Mbar's rules and theta(23): the main machine's rule objects, in its order."""
    main = session_bundle.machine.positive_rules
    kept = session_bundle.without_first_two_sets.positive_rules
    at = [next(i for i, s in enumerate(main) if s is r) for r in kept]
    assert at == sorted(at)
    assert [r for r in kept if r.label != "tr_23"] == list(session_bundle.trimmed.positive_rules)
    assert len(kept) == len(session_bundle.trimmed.positive_rules) + 1
