"""Compilation to group presentations: relator shapes, counts, audits."""

import dataclasses

import pytest

from smachine.machine import run_history
from smachine.main_machine import BadParameters, build_main_machine, family
from smachine.presentation import (
    Generator,
    Presentation,
    QLetterPresent,
    Relator,
    RelatorFactory,
    SuperscriptMismatch,
    UnknownGenerator,
    _supped_letters,
    add_hub_relations,
    canonical_rotation,
    compile_group_M,
    compile_trimmed,
    export,
    factory_for,
    g_inv,
    hnn_Gbar,
    hnn_Gk,
    hub_relators,
    mu,
    nu,
    parse_presentation,
    word_to_gens,
)
from smachine.toy import toy_even_recognizer
from smachine.trapezia import computation_to_trapezium, make_band


@pytest.fixture(scope="module")
def bundle():
    return build_main_machine(toy_even_recognizer(), m=2, L=12)


@pytest.fixture(scope="module")
def pres_m(bundle):
    return compile_group_M(bundle)


@pytest.fixture(scope="module")
def pres_g(bundle, pres_m):
    return add_hub_relations(pres_m, bundle)


def test_relator_count_closed_form(bundle, pres_m):
    """N (theta,q)-relators per rule instance plus one per domain letter."""
    L, N = bundle.L, bundle.N
    expected = 0
    for rule in bundle.machine.positive_rules:
        instances = 1 if family(rule) == "plain" else L
        dom_letters = sum(len(d) for d in rule.domains)
        expected += instances * (N + dom_letters)
    assert len(pres_m.relators) == expected


def test_theta_generator_count(bundle, pres_m):
    L, N = bundle.L, bundle.N
    expected = sum(
        N * (1 if family(r) == "plain" else L)
        for r in bundle.machine.positive_rules
    )
    got = sum(1 for g in pres_m.generators if g.kind == "th")
    assert got == expected


def test_plain_rule_relator_shape(bundle, pres_m):
    """A fourth-set rule: U_j theta_{j+1} = theta_j V_j and a theta = theta a."""
    fac = factory_for(bundle)
    rule = bundle.machine.rule("w3_ins_del2")
    rel = fac.theta_q_relator(rule, bundle.m5.history[0].r_part, None)
    kinds = sorted(g.kind for g, _ in rel.word)
    assert kinds == ["a", "q", "q", "th", "th"]  # the insert letter rides in V
    rel0 = fac.theta_q_relator(rule, 2, None)
    assert sorted(g.kind for g, _ in rel0.word) == ["q", "q", "th", "th"]


def test_theta_a_commutation_shape(bundle):
    fac = factory_for(bundle)
    rule = bundle.machine.rule("w3_ins_del2")
    sector = bundle.machine.input_sector
    rel = fac.theta_a_relator(rule, sector, "a", None)
    assert len(rel.word) == 4
    names = {g.kind for g, _ in rel.word}
    assert names == {"a", "th"}
    assert nu(rel.word) == ()


def test_mixed_rule_erases_superscripts(bundle):
    """The 2-to-3 transition: U^(i) theta^(i) = theta^(i) V with V plain."""
    fac = factory_for(bundle)
    rule = bundle.machine.rule("tr_23")
    rel = fac.theta_q_relator(rule, bundle.lrm_part, 3)
    sups = {g.sup for g, _ in rel.word if g.kind == "q"}
    assert sups == {3, None}
    arel = fac.theta_a_relator(rule, bundle.machine.input_sector, "a", 3)
    asups = {g.sup for g, _ in arel.word if g.kind == "a"}
    assert asups == {3, None}


def test_superscript_discipline_at_t_part(bundle):
    """Only the (theta,t)-relators bridge superscript levels, by +-1 mod L."""
    fac = factory_for(bundle)
    rule = bundle.machine.rule("w1_ins_a")
    for i in (1, 5, 12):
        rel = fac.theta_q_relator(rule, 0, i)
        th_sups = sorted((g.idx, g.sup) for g, _ in rel.word if g.kind == "th")
        (i1, s1), (iN, sN) = th_sups
        assert (i1, iN) == (1, bundle.N)
        assert (s1 - sN) % bundle.L in (1, bundle.L - 1)
    # away from the t part the two theta letters stay on one level
    rel = fac.theta_q_relator(rule, 3, 5)
    assert {g.sup for g, _ in rel.word if g.kind == "th"} == {5}


def test_hub_lengths(bundle, pres_g):
    hubs = [r for r in pres_g.relators if r.tag == "hub"]
    assert len(hubs) == 2
    for h in hubs:
        assert len(h.word) == bundle.L * bundle.N


def test_mu_zero_on_all_relators(bundle, pres_g):
    assert all(mu(pres_g, r.word) == 0 for r in pres_g.relators)


def test_mu_values(bundle, pres_g):
    fac = factory_for(bundle)
    w = word_to_gens(fac, bundle.w_word(2, 2))
    assert mu(pres_g, w) == 1
    assert mu(pres_g, w * bundle.L) == 0


def test_nu_rejects_q_letters(bundle, pres_g):
    fac = factory_for(bundle)
    with pytest.raises(QLetterPresent):
        nu(word_to_gens(fac, bundle.w_ac))


def test_nu_on_theta_q_restriction(bundle):
    """Theta letters of a (theta,q)-relator have zero exponent sum per rule."""
    fac = factory_for(bundle)
    rule = bundle.machine.rule("w5_er_fin")
    for j in (0, 7, 19):
        rel = fac.theta_q_relator(rule, j, None)
        total = sum(s for g, s in rel.word if g.kind == "th")
        assert total == 0


def test_trimmed_presentations(bundle, pres_g):
    p_mbar, p_gbar = compile_trimmed(bundle)
    assert all(g.sup is None for g in p_mbar.generators)
    assert len(p_gbar.relators) == len(p_mbar.relators) + 1
    # generators embed into G's after forgetting superscripts
    plain_g = {(g.kind, g.name, g.idx) for g in pres_g.generators}
    for g in p_mbar.generators:
        assert (g.kind, g.name, g.idx) in plain_g
    # exactly the plain-family relators of M survive
    labels = {r.label for r in bundle.trimmed.positive_rules}
    plain_rels = [r for r in pres_g.relators if r.rule in labels]
    assert len(plain_rels) == len(p_mbar.relators)


def test_hnn_extensions(bundle, pres_g):
    gk = hnn_Gk(pres_g, bundle, 0)
    assert len(gk.relators) == len(pres_g.relators) + 1
    assert len(gk.generators) == len(pres_g.generators) + 1
    rel = gk.relators[-1]
    assert rel.tag == "hnn"
    assert mu(gk, rel.word) == 0
    gbar = hnn_Gbar(pres_g, bundle)
    rel = gbar.relators[-1]
    # y W_ac y^-1 W_ac^-1 has length 2 + 2N
    assert len(rel.word) == 2 + 2 * bundle.N
    with pytest.raises(BadParameters):
        hnn_Gk(pres_g, bundle, -1)


class _KeepsNothing(dict):
    """A relator table that stores nothing, so every lookup builds afresh."""

    def __setitem__(self, key, value):
        pass


def _fresh_factory(bundle):
    """A factory equal to the bundle's whose table stays empty."""
    fac = RelatorFactory(bundle.N, bundle.L, _supped_letters(bundle.machine))
    object.__setattr__(fac, "_table", _KeepsNothing())
    return fac


def _fresh_rule_relators(bundle, machine):
    """The rule relators of ``machine`` in compile order, each built afresh."""
    fac = _fresh_factory(bundle)
    out = []
    for rule in machine.positive_rules:
        for sup in (None,) if family(rule) == "plain" else range(1, bundle.L + 1):
            out.extend(fac.theta_q_relator(rule, j, sup) for j in range(bundle.N))
            for sector in range(machine.hardware.n_sectors):
                out.extend(fac.theta_a_relator(rule, sector, x, sup) for x in sorted(rule.domains[sector]))
    return out


def test_table_relators_equal_fresh_builds(bundle, pres_g):
    """G's and Gbar's rule relators, read from the bundle's one table,
    are those that a factory without a table builds."""
    gbar = compile_trimmed(bundle)[1]
    for pres, machine in ((pres_g, bundle.machine), (gbar, bundle.trimmed)):
        rule_relators = [r for r in pres.relators if r.tag in ("theta-q", "theta-a")]
        assert rule_relators == _fresh_rule_relators(bundle, machine)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_band_cells_equal_fresh_builds(bundle, pres_g, k):
    """Every cell of the witness trapezia W_st -> W_ac, at first levels 1,
    5 and L, read from the table G filled, is the cell that a factory
    without a table builds for the same band.  ``has_relator`` could not
    tell: a cell taken at the wrong level is a relator of G as well."""
    comp = run_history(bundle.machine, bundle.w_st, bundle.witness_wst_to_wac(k))
    fresh = _fresh_factory(bundle)
    for first in (1, 5, bundle.L):
        trap = computation_to_trapezium(bundle, comp, first_sup=first)
        for band in trap.bands:
            rule = bundle.machine.rule(band.rule_label)
            top_sup = band.top.q_sups[0] if family(rule) == "mixed" and rule.sign < 0 else None
            assert make_band(bundle.machine, fresh, band.bottom, rule, top_sup) == band
    other_level = computation_to_trapezium(bundle, comp, first_sup=2).bands[0].cells
    assert other_level != trap.bands[0].cells
    assert all(pres_g.has_relator(c) for c in other_level)


def test_factory_for_is_one_factory_per_bundle(bundle, pres_g):
    """The table stays out of the factory's value: the bundle's filled
    factory equals, hashes and prints as a fresh one."""
    fac = factory_for(bundle)
    assert fac is factory_for(bundle) and fac._table
    fresh = RelatorFactory(bundle.N, bundle.L, _supped_letters(bundle.machine))
    assert fac == fresh and hash(fac) == hash(fresh) and repr(fac) == repr(fresh)


def test_wrong_superscript_raises_after_the_right_one_is_built(bundle):
    fac = factory_for(bundle)
    sector = bundle.machine.input_sector
    for rule, right, wrong in ((bundle.machine.rule("w1_ins_a"), 3, None), (bundle.machine.rule("w3_ins_del2"), None, 3)):
        fac.theta_q_relator(rule, 0, right)
        fac.theta_a_relator(rule, sector, "a", right)
        with pytest.raises(SuperscriptMismatch):
            fac.theta_q_relator(rule, 0, wrong)
        with pytest.raises(SuperscriptMismatch):
            fac.theta_a_relator(rule, sector, "a", wrong)


def test_canonical_rotation_invariance():
    a = Generator("a", "a")
    b = Generator("a", "b")
    w = ((a, 1), (b, 1), (a, -1))
    rotated = ((b, 1), (a, -1), (a, 1))
    assert canonical_rotation(w) == canonical_rotation(rotated)
    # cyclic reduction strips the conjugating letter
    assert canonical_rotation(w) == ((b, 1),)
    # a word that reduces to nothing has the empty rotation
    assert canonical_rotation(((a, 1), (b, 1), (b, -1), (a, -1))) == ()


def test_q_gen_checks_the_superscript():
    """A superscript goes on exactly the state letters that own
    superscripted copies."""
    fac = RelatorFactory(3, 8, frozenset({"s"}))
    assert fac.q_gen("s", 2) == Generator("q", "s", None, 2)
    with pytest.raises(SuperscriptMismatch, match="p has no superscript copies"):
        fac.q_gen("p", 2)
    with pytest.raises(SuperscriptMismatch, match="s lacks superscript copies"):
        fac.q_gen("s", None)


def test_has_relator_up_to_rotation_and_inverse(bundle, pres_m):
    fac = factory_for(bundle)
    rule = bundle.machine.rule("w3_ins_fin")
    rel = fac.theta_q_relator(rule, 5, None)
    w = rel.word
    assert pres_m.has_relator(w)
    assert pres_m.has_relator(g_inv(w))
    assert pres_m.has_relator(w[2:] + w[:2])
    (g, sign), *rest = w
    assert not pres_m.has_relator(((g, -sign), *rest))


def test_has_relator_on_a_parsed_file_written_in_another_rotation(pres_g):
    """A parsed file keeps its relators as written: one ``theta-q`` line
    rotated by one letter still answers for the compiled word, each of
    its rotations and its inverse, and not for the word with one sign
    flipped."""
    lines = export(pres_g, "plain").splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("theta-q : "))
    tag, _, body = lines[i].partition(" : ")
    toks = body.split(".")
    lines[i] = f"{tag} : " + ".".join(toks[1:] + toks[:1])
    back = parse_presentation("\n".join(lines) + "\n")
    w = next(r.word for r in pres_g.relators if r.tag == "theta-q")
    assert w not in back.relator_set
    assert all(back.has_relator(w[j:] + w[:j]) for j in range(len(w)))
    assert back.has_relator(g_inv(w))
    (g, sign), *rest = w
    assert not back.has_relator(((g, -sign), *rest))


def test_export_parse_round_trip(bundle, pres_g):
    text = export(pres_g, "plain")
    back = parse_presentation(text)
    assert back.L == pres_g.L and back.N == pres_g.N
    assert back.generators == pres_g.generators
    assert [r.word for r in back.relators] == [r.word for r in pres_g.relators]
    assert export(back, "plain") == text


def test_export_deterministic(bundle):
    p1 = add_hub_relations(compile_group_M(bundle), bundle)
    p2 = add_hub_relations(compile_group_M(bundle), bundle)
    assert export(p1, "plain") == export(p2, "plain")


def test_gap_export_shape(bundle, pres_g):
    text = export(pres_g, "gap-style")
    assert text.startswith("# free presentation")
    assert "F := FreeGroup(" in text and "G := F / rels;;" in text


def test_hub2_expands_wac_L_times(bundle):
    hub1, hub2 = hub_relators(bundle)
    names = [g.name for g, _ in hub2.word]
    assert len(names) == bundle.L * bundle.N
    assert all(n.endswith("_ac") for n in names)


def test_mu_unknown_generator(bundle, pres_g):
    ghost = Generator("q", "no_such_letter")
    with pytest.raises(UnknownGenerator):
        mu(pres_g, ((ghost, 1),))


def test_nu_tape_only_word(bundle):
    fac = factory_for(bundle)
    w = ((fac.a_gen("a", None), 1), (fac.a_gen("a_m", None), -1))
    assert nu(w) == ()


def test_export_empty_relator_list():
    p = Presentation(
        "tiny", 8, 3, frozenset({Generator("q", "u")}), (), frozenset({"u"})
    )
    text = export(p, "plain")
    assert "RELATORS" in text and text.strip().endswith("RELATORS")
    assert parse_presentation(text).generators == p.generators


def test_relator_over_an_undeclared_generator_is_refused():
    u, v = Generator("q", "u"), Generator("q", "v")
    with pytest.raises(UnknownGenerator, match="v in relator but not declared"):
        Presentation("tiny", 8, 3, frozenset({u}), (Relator(((v, 1),), "hub"),), frozenset())


def test_export_refuses_an_unknown_format():
    p = Presentation("tiny", 8, 3, frozenset({Generator("q", "u")}), (), frozenset())
    with pytest.raises(ValueError, match="unknown format 'nope'"):
        export(p, "nope")


def test_gap_export_refuses_names_that_collide():
    """``a'`` and ``ap`` both sanitize to ``ap``."""
    gens = frozenset({Generator("a", "a'"), Generator("a", "ap")})
    p = Presentation("tiny", 8, 3, gens, (), frozenset())
    export(p, "plain")
    with pytest.raises(ValueError, match="collision"):
        export(p, "gap-style")


def test_gap_export_drops_an_empty_relator():
    """A parsed file may hold an empty relator: it stays in the plain
    export and is left out of the GAP one."""
    text = (
        "PRESENTATION tiny\nparam L 8\nparam N 3\ntletters u\nGENERATORS\nq u\n"
        "RELATORS\nhub : u.u\nhub : \n"
    )
    p = parse_presentation(text)
    assert [r.word for r in p.relators][1] == ()
    assert export(p, "plain") == text
    assert export(p, "gap-style") == export(dataclasses.replace(p, relators=p.relators[:1]), "gap-style")
