"""The composition tower over the toy recognizer, run end to end."""

import dataclasses

import pytest

from smachine.compose import (
    NoInputSector,
    StageMismatch,
    add_control_letters,
    add_history_sectors,
    circularize_m5,
    compose_m3,
    end_configuration_m2,
    mirror_m4,
    mirror_name,
    mirror_word,
    stage_sweep_history,
    start_configuration_m3,
)
from smachine.machine import Hardware, SMachine, run_history
from smachine.toy import toy_even_recognizer
from smachine.words import YLetter


@pytest.fixture(scope="module")
def toy():
    return toy_even_recognizer()


@pytest.fixture(scope="module")
def m2(toy):
    return add_history_sectors(toy.machine)


@pytest.fixture(scope="module")
def m2bar(m2):
    return add_control_letters(m2)


@pytest.fixture(scope="module")
def m3(m2bar):
    return compose_m3(m2bar, m=2)


def test_toy_accepting_run(toy):
    k = 4
    comp = run_history(toy.machine, toy.input_configuration(k), toy.accepting_history(k))
    assert comp.end == toy.accept_configuration()


def test_m2_part_count(toy, m2):
    n = toy.machine.hardware.n_parts - 1
    assert m2.machine.hardware.n_parts == 2 * n


def test_m2_lock_inheritance(toy, m2):
    # fin locks the input sector of M1; its image must lock the image sector
    fin2 = m2.machine.rule("fin")
    assert fin2.locks(m2.machine.input_sector)
    del2 = m2.machine.rule("del2")
    assert not del2.locks(m2.machine.input_sector)
    # history sectors are never locked by the lifted rules
    for hs in m2.history:
        assert not fin2.locks(hs.sector) and not del2.locks(hs.sector)


def test_m2_scan_simulates_m1(toy, m2):
    """Running the lifted history consumes the left copy, writes the right one."""
    k, hist = 2, ["del2", "fin"]
    w0 = start_configuration_m3(m2, k, hist)
    comp = run_history(m2.machine, w0, hist)
    assert comp.end == end_configuration_m2(m2, hist)
    # the working sectors replay the M1 computation: input empties
    assert comp.end.u[m2.machine.input_sector] == ()
    # the history sector ends holding the right-alphabet copy of H
    hs = m2.history[0]
    assert comp.trace[-1].u[hs.sector] == tuple(
        YLetter(hs.right_copy[lbl], 1) for lbl in hist
    )
    # mid-scan the sector holds a left suffix then right prefix
    assert comp.trace[1].u[hs.sector] == (
        YLetter(hs.left_copy["fin"], 1),
        YLetter(hs.right_copy["del2"], 1),
    )


def _two_parts():
    """A linear machine of two parts: its one sector is the input, and
    no interior boundary is left for a history sector."""
    return SMachine(Hardware((("s0",), ("s1",)), (frozenset("a"),)), (), input_sector=0, name="two-part")


def test_m2_needs_input_sector(toy, m3):
    """A linear machine of three or more parts with an input sector."""
    for machine, match in (
        (dataclasses.replace(toy.machine, input_sector=None), "has no input sector"),
        (circularize_m5(mirror_m4(m3)).machine, "non-circular"),
        (_two_parts(), "at least three parts"),
    ):
        with pytest.raises(NoInputSector, match=match):
            add_history_sectors(machine)


def test_m2bar_base_triples(m2, m2bar):
    assert m2bar.machine.hardware.n_parts == 3 * m2.machine.hardware.n_parts


def test_m2bar_input_sector_moved(m2bar):
    # input sector R_{i-1}P_i sits at flat index 3j+2
    assert m2bar.machine.input_sector == 3 * m2bar.m2.machine.input_sector + 2


def test_m2bar_pq_qr_always_locked(m2bar):
    s1 = m2bar.m2.machine.hardware.n_parts
    for rule in m2bar.machine.positive_rules:
        for j in range(s1):
            assert rule.locks(3 * j)
            assert rule.locks(3 * j + 1)


def test_m2bar_locked_count_increases_by_2s1(m2, m2bar):
    s1 = m2.machine.hardware.n_parts
    for rule in m2.machine.positive_rules:
        before = sum(1 for d in rule.domains if not d)
        lifted = m2bar.machine.rule(rule.label)
        after = sum(1 for d in lifted.domains if not d)
        assert after == before + 2 * s1


def test_m2bar_scan_still_works(m2bar):
    k, hist = 2, ["del2", "fin"]
    b = m2bar
    tape = {b.machine.input_sector: tuple(YLetter("a", 1) for _ in range(k))}
    for hs in b.history:
        tape[hs.sector] = tuple(YLetter(hs.left_copy[lbl], 1) for lbl in hist)
    w0 = b.machine.standard_base_word(b.machine.start_letters, tape)
    comp = run_history(b.machine, w0, hist)
    assert comp.end.u[b.machine.input_sector] == ()


def test_m3_stage_count(m3):
    assert len(m3.stages) == 4 * m3.m + 1
    assert len(m3.chi_labels) == 4 * m3.m


def test_m3_state_letters_disjoint_per_stage(m3):
    """Every state letter belongs to exactly one stage: the letters of a
    stage's ends and of its rules (labelled s{sigma}_...) meet no other
    stage's, and only the chi rules pass from one stage to the next."""
    letters = {st.index: set(st.start_letters + st.end_letters) for st in m3.stages}
    for rule in m3.machine.positive_rules:
        if rule.label not in m3.chi_labels:
            sigma = int(rule.label[1:].split("_", 1)[0])
            letters[sigma] |= {x for p in rule.parts for x in (p.src, p.dst)}
    owned = sorted(x for stage in letters.values() for x in stage)
    assert owned == sorted(x for p in m3.machine.hardware.parts for x in p)
    for lbl in m3.chi_labels:
        _, frm, to = lbl.split("_")
        parts = m3.machine.rule(lbl).parts
        assert {p.src for p in parts} <= letters[int(frm)]
        assert {p.dst for p in parts} <= letters[int(to)]


def test_m3_full_run(m3):
    """I3(a^k, H) sweeps through all 4m+1 stages back to left content."""
    k, hist = 2, ["del2", "fin"]
    w0 = start_configuration_m3(m3, k, hist)
    full = stage_sweep_history(m3, hist)
    comp = run_history(m3.machine, w0, full)
    end = comp.end
    # ends at the machine's end letters
    assert tuple(x.name for x in end.q) == m3.machine.end_letters
    # input restored, history content back in the left alphabets
    assert end.u[m3.machine.input_sector] == tuple(YLetter("a", 1) for _ in range(k))
    hs = m3.history[0]
    assert end.u[hs.sector] == tuple(YLetter(hs.left_copy[lbl], 1) for lbl in hist)


def test_m3_input_consumed_mid_run(m3):
    k, hist = 2, ["del2", "fin"]
    w0 = start_configuration_m3(m3, k, hist)
    full = stage_sweep_history(m3, hist)
    comp = run_history(m3.machine, w0, full)
    # right after chi_2_3 the input must be empty (the domain forces it)
    idx = [i for i, sl in enumerate(comp.history) if sl[0] == "chi_2_3"][0]
    assert comp.trace[idx + 1].u[m3.machine.input_sector] == ()


def test_m3_rejects_bad_m(m2bar):
    with pytest.raises(StageMismatch, match="m must be >= 1"):
        compose_m3(m2bar, 0)
    with pytest.raises(StageMismatch, match="no history sectors"):
        compose_m3(dataclasses.replace(m2bar, history=()), 1)


def test_m4_base_doubles(m3):
    m4 = mirror_m4(m3)
    assert m4.machine.hardware.n_parts == 2 * m3.machine.hardware.n_parts
    junction = m3.machine.hardware.n_sectors  # the first sector past M3's
    for rule in m4.machine.positive_rules:
        assert rule.locks(junction)


def test_m4_mirror_run_matches(m3):
    """The mirror half replays the original computation in primed letters."""
    m4 = mirror_m4(m3)
    k, hist = 0, ["fin"]
    tape = {}
    for hs in m3.history:
        tape[hs.sector] = tuple(YLetter(hs.left_copy[lbl], 1) for lbl in hist)
        tape[m4.mirror_sector[hs.sector]] = tuple(
            YLetter(hs.left_copy[lbl] + "_m", -1) for lbl in reversed(hist)
        )
    w0 = m4.machine.standard_base_word(m4.machine.start_letters, tape)
    full = stage_sweep_history(m3, hist)
    comp = run_history(m4.machine, w0, full)
    K = m3.machine.hardware.n_parts
    end = comp.end
    # restriction to the first half equals the M3 run
    m3_end = run_history(m3.machine, start_configuration_m3(m3, k, hist), full).end
    assert end.q[:K] == m3_end.q[:K]
    assert end.u[: K - 1] == m3_end.u[: K - 1]


def test_history_sector_positions_follow_from_the_sector(m2bar, m3):
    """A history sector lies between R_j and P_j+1: its R part, P part and
    scratch sectors are read off its index, in M2bar and in M5 alike."""
    m5 = circularize_m5(mirror_m4(m3))
    for build in (m2bar, m5):
        hw = build.machine.hardware
        for h in build.history:
            assert all(x.startswith("cr") for x in hw.parts[h.r_part])
            assert all(x.startswith("cp") for x in hw.parts[h.p_part])
            assert hw.sector_alphabets[h.sector] == h.alphabet
            assert hw.sector_alphabets[h.rl_scratch] == h.right_alphabet
            assert hw.sector_alphabets[h.lr_scratch] == h.left_alphabet
    assert [(h.sector, h.left_copy) for h in m5.history] == [(h.sector + 1, h.left_copy) for h in m3.history]


def test_m5_circular_and_t_locked(m3):
    m5 = circularize_m5(mirror_m4(m3))
    hw = m5.machine.hardware
    assert hw.circular
    assert hw.n_sectors == hw.n_parts
    for rule in m5.machine.positive_rules:
        assert rule.locks(0) and rule.locks(hw.n_sectors - 1)


def test_m5_run(m3):
    m5 = circularize_m5(mirror_m4(m3))
    m4 = m5.m4
    k, hist = 2, ["del2", "fin"]
    tape = {m3.machine.input_sector + 1: tuple(YLetter("a", 1) for _ in range(k))}
    mirror_in = m4.mirror_sector[m3.machine.input_sector] + 1
    tape[mirror_in] = tuple(YLetter("a_m", -1) for _ in range(k))
    for hs in m3.history:
        tape[hs.sector + 1] = tuple(YLetter(hs.left_copy[lbl], 1) for lbl in hist)
        tape[m4.mirror_sector[hs.sector] + 1] = tuple(
            YLetter(hs.left_copy[lbl] + "_m", -1) for lbl in reversed(hist)
        )
    w0 = m5.machine.standard_base_word(m5.machine.start_letters, tape)
    comp = run_history(m5.machine, w0, stage_sweep_history(m3, hist))
    assert tuple(x.name for x in comp.end.q) == m5.machine.end_letters


def _assert_mirror_transport(machine, mirror_part, mirror_sector):
    """Every mirror part inserts (mirror(b), mirror(a)) of its first-half
    part, and every mirror sector's domain is the primed first-half one."""
    for rule in machine.positive_rules:
        for j, mj in mirror_part.items():
            p, q = rule.parts[j], rule.parts[mj]
            assert (q.a, q.b) == (mirror_word(p.b), mirror_word(p.a)), (rule.label, j)
        for s, ms in mirror_sector.items():
            assert rule.domains[ms] == frozenset(mirror_name(y) for y in rule.domains[s]), (rule.label, s)


def test_mirror_transport_of_m4_and_main(m3, session_bundle):
    m4 = mirror_m4(m3)
    _assert_mirror_transport(m4.machine, m4.mirror_part, m4.mirror_sector)
    # the main machine's maps are M4's shifted by one past the t part
    m4 = session_bundle.m5.m4
    _assert_mirror_transport(
        session_bundle.machine,
        {j + 1: mj + 1 for j, mj in m4.mirror_part.items()},
        {s + 1: ms + 1 for s, ms in m4.mirror_sector.items()},
    )


def test_m5_maps_are_m4s_shifted_past_t(m3):
    m4 = mirror_m4(m3)
    m5 = circularize_m5(m4)
    assert m5.mirror_part == {j + 1: mj + 1 for j, mj in m4.mirror_part.items()}
    assert m5.mirror_sector == {s + 1: ms + 1 for s, ms in m4.mirror_sector.items()}
