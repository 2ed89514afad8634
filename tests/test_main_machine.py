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


@pytest.fixture(scope="session")
def bundle():
    return build_main_machine(toy_even_recognizer(), m=2, L=12)


def test_bad_parameters(bundle):
    with pytest.raises(BadParameters):
        build_main_machine(toy_even_recognizer(), m=0)
    with pytest.raises(BadParameters):
        build_main_machine(toy_even_recognizer(), L=4)
    # the reference acceptor answers for k >= 0 only
    with pytest.raises(BadParameters, match="only nonnegative inputs"):
        bundle.w_word(-1, 0)
    with pytest.raises(BadParameters, match="only nonnegative inputs"):
        bundle.w_word(0, -1)
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


def test_sup_sides_by_family_and_sign(bundle):
    """Every rule of the main machine and its inverse: both sides for the
    sup family, neither for the plain one, and theta(23)'s source side
    only, which is its inverse's target side."""
    seen = set()
    for rule in bundle.machine.rules:
        key = (family(rule), rule.sign)
        assert sup_sides(rule) == SUP_SIDES[key], format_slabel(rule.signed_label)
        seen.add(key)
    assert seen == set(SUP_SIDES)


def test_n_matches_derived_formula(bundle):
    # s+1 = parts of the scanned machine's base; N = 6s+7
    s1 = bundle.m5.m4.m3.m2bar.m2.machine.hardware.n_parts
    assert bundle.N == 6 * (s1 - 1) + 7
    assert bundle.N == bundle.machine.hardware.n_parts
    assert bundle.machine.hardware.circular


def test_w_st_shape(bundle):
    w = bundle.w_st
    assert w.y_length() == 0 and w.length() == bundle.N
    # starts with the t-part letter
    assert w.q[0].part == 0 and w.q[0].name == "t_st"


def test_w_ac_shape(bundle):
    w = bundle.w_ac
    assert w.y_length() == 0 and w.length() == bundle.N
    assert all(x.name.endswith("_ac") for x in w.q)


def test_w_word_shape(bundle):
    w = bundle.w_word(3, 2)
    assert w.u[bundle.machine.input_sector] == tuple(YLetter("a", 1) for _ in range(3))
    assert w.u[bundle.m5.mirror_sector[bundle.machine.input_sector]] == tuple(
        YLetter("a_m", -1) for _ in range(2)
    )
    assert w.base == bundle.w_st.base  # standard base of the machine
    # all other sectors empty
    others = sum(
        len(u)
        for i, u in enumerate(w.u)
        if i not in (bundle.machine.input_sector, bundle.m5.mirror_sector[bundle.machine.input_sector])
    )
    assert others == 0


def test_wkk_is_theta23_inverse_admissible(bundle):
    t23 = bundle.machine.rule("tr_23^-1")
    for k in (0, 1, 2):
        assert is_applicable(bundle.machine, bundle.w_word(k, k), t23)
    # a word with content in the sweep scratch sector is not of the W(k,k') form
    bad_tape = {bundle.lrm_scratch: (YLetter("a_c", 1),)}
    bad = bundle.machine.standard_base_word(
        [f"{g}_w3" for g in bundle.part_tags], bad_tape
    )
    assert not is_applicable(bundle.machine, bad, t23)


def test_wst_to_wkk_witness(bundle):
    for k in (0, 1, 3):
        comp = run_history(bundle.machine, bundle.w_st, bundle.witness_wst_to_wkk(k))
        assert comp.end == bundle.w_word(k, k)
    with pytest.raises(BadParameters, match="only nonnegative inputs"):
        bundle.witness_wst_to_wkk(-1)


def test_full_accepting_witness(bundle):
    for k in (0, 2):
        hist = bundle.witness_wst_to_wac(k)
        assert is_eligible(hist, allowed="tr_23")
        comp = run_history(bundle.machine, bundle.w_st, hist)
        assert comp.end == bundle.w_ac


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


def test_accepting_witness_rejects_odd(bundle):
    with pytest.raises(ValueError):
        bundle.witness_wkk_to_wac(1)


def test_step_history_of_witness(bundle):
    hist = bundle.witness_wst_to_wac(2)
    sh = step_history(hist, bundle.machine)
    assert sh == ("(01)", "(1)", "(12)", "(2)", "(23)", "(3)", "(34)", "(4)", "(45)", "(5)", "(50)")


def test_phase_letters_disjoint(bundle):
    # every part's letters are unique machine-wide (disjoint per set)
    names = [x for p in bundle.machine.hardware.parts for x in p]
    assert len(names) == len(set(names))


def test_accept_rule_needs_everything_empty(bundle):
    w = bundle.w_word(2, 2)
    t50 = bundle.machine.rule("tr_50")
    assert not is_applicable(bundle.machine, w, t50)


def test_theta1_locks_all_sectors(bundle):
    r = bundle.machine.rule("tr_st1")
    assert all(r.locks(s) for s in range(bundle.machine.hardware.n_sectors))


def test_insert_rule_mirror_symmetry(bundle):
    """One insertion adds a on the left half and a_m^-1 on the mirror."""
    w1 = apply_rule(bundle.machine, bundle.w_st, bundle.machine.rule("tr_st1"))
    w2 = apply_rule(bundle.machine, w1, bundle.machine.rule("w1_ins_a"))
    assert w2.u[bundle.machine.input_sector] == (YLetter("a", 1),)
    assert w2.u[bundle.m5.mirror_sector[bundle.machine.input_sector]] == (YLetter("a_m", -1),)


def test_erase_rules_pair_both_halves(bundle):
    # from W(1,1), one input-erasure step empties both input sectors
    w = bundle.machine.standard_base_word([f"{g}_w5" for g in bundle.part_tags], {
        bundle.machine.input_sector: (YLetter("a", 1),),
        bundle.m5.mirror_sector[bundle.machine.input_sector]: (YLetter("a_m", -1),),
    })
    out = apply_rule(bundle.machine, w, bundle.machine.rule("w5_er_inp_a"))
    assert out.u[bundle.machine.input_sector] == ()
    assert out.u[bundle.m5.mirror_sector[bundle.machine.input_sector]] == ()


def test_trimmed_machine(bundle):
    mbar = bundle.trimmed
    tags = {r.tag for r in mbar.positive_rules}
    assert tags == {"set3", "tr34", "set4", "tr45", "set5", "tr50"}
    # rule count: everything except sets 1-2 and the three early transitions
    full = bundle.machine.positive_rules
    expected = len([r for r in full if r.tag in tags])
    assert len(mbar.positive_rules) == expected
    # no sweep-phase letters survive
    for part in mbar.hardware.parts:
        for x in part:
            assert "_z" not in x and not x.endswith("_w1") and not x.endswith("_st")
    # W(k,k) runs to acceptance inside the trimmed machine
    for k in (0, 2):
        comp = run_history(mbar, bundle.w_word(k, k), bundle.witness_wkk_to_wac(k))
        assert comp.end == bundle.w_ac


def test_trimmed_start_configurations(bundle):
    for mbar in (bundle.trimmed, bundle.without_first_two_sets):
        assert mbar.start_configuration() == bundle.w_word(0, 0)


def test_no_return_machine_is_mbar_and_theta_23(bundle):
    """Mbar's rules and theta(23): the main machine's rule objects, in its order."""
    main = bundle.machine.positive_rules
    kept = bundle.without_first_two_sets.positive_rules
    at = [next(i for i, s in enumerate(main) if s is r) for r in kept]
    assert at == sorted(at)
    assert [r for r in kept if r.label != "tr_23"] == list(bundle.trimmed.positive_rules)
    assert len(kept) == len(bundle.trimmed.positive_rules) + 1
