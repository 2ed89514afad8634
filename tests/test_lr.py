"""The small sweep machines checked against hand computations."""

import dataclasses

import pytest

from conftest import random_words_for
from smachine.lr import Host, build_lr, build_lr_m, build_rl, place, sweep_run
from smachine.machine import (
    BadParameters,
    apply_rule,
    invert_rule,
    is_applicable,
    run_history,
)
from smachine.serialize import parse_machine, print_machine
from smachine.words import AdmissibleWord, QLetter, YLetter


@pytest.fixture(scope="module")
def lr():
    return build_lr(["a"])


def cfg(machine, tokens):
    return machine.hardware.word(tokens)


def test_lr_standard_base(lr):
    assert lr.hardware.parts == (("q1",), ("p1", "p2"), ("q2",))
    # base of the standard configuration = Q1 P Q2, all positive
    assert lr.start_configuration().base == ((0, 1), (1, 1), (2, 1))


def test_lr_positive_rule_count():
    # |Y| = 1 gives 2·1+1 = 3 positive rules
    assert len(build_lr(["a"]).positive_rules) == 3
    assert len(build_lr(["a", "b"]).positive_rules) == 5


def test_z1_part_shape(lr):
    z1 = lr.rule("z1_a")
    mid = z1.parts[1]
    assert (mid.src, mid.dst) == ("p1", "p1")
    assert mid.a == (YLetter("a", -1),) and mid.b == (YLetter("a'", 1),)


def test_invert_rule_formula(lr):
    z1 = lr.rule("z1_a")
    inv = invert_rule(z1)
    mid = inv.parts[1]
    # [q -> a q' b] inverts to [q' -> a^-1 q b^-1]
    assert mid.a == (YLetter("a", 1),) and mid.b == (YLetter("a'", -1),)
    assert inv.domains == z1.domains
    assert invert_rule(inv).parts == z1.parts


def test_identity_like_part_inversion(lr):
    z12 = lr.rule("z12")
    inv = invert_rule(z12)
    assert inv.parts[1].src == "p2" and inv.parts[1].dst == "p1"
    assert inv.parts[1].a == () and inv.parts[1].b == ()


def test_applicability_left_sector_domain(lr):
    w_ok = cfg(lr, ["q1", "a", "p1", "q2"])
    w_bad = cfg(lr, ["q1", "a'", "p1", "q2"])  # admissible but outside domain
    z1 = lr.rule("z1_a")
    assert is_applicable(lr, w_ok, z1)
    assert not is_applicable(lr, w_bad, z1)


def test_locked_sector_with_empty_word_is_fine(lr):
    w = cfg(lr, ["q1", "p1", "a'", "q2"])
    assert is_applicable(lr, w, lr.rule("z12"))
    w2 = cfg(lr, ["q1", "a", "p1", "q2"])
    assert not is_applicable(lr, w2, lr.rule("z12"))


def test_apply_hand_example(lr):
    w = cfg(lr, ["q1", "a", "p1", "q2"])
    out = apply_rule(lr, w, lr.rule("z1_a"))
    assert out == cfg(lr, ["q1", "p1", "a'", "q2"])


def test_apply_turn(lr):
    w = cfg(lr, ["q1", "p1", "q2"])
    assert apply_rule(lr, w, lr.rule("z12")) == cfg(lr, ["q1", "p2", "q2"])


def test_full_sweep_three_steps(lr):
    w = cfg(lr, ["q1", "a", "p1", "q2"])
    comp = run_history(lr, w, ["z1_a", "z12", "z2_a"])
    assert comp.end == cfg(lr, ["q1", "a", "p2", "q2"])
    assert [str(x) for x in comp.trace] == [
        "q1 a p1 q2",
        "q1 p1 a' q2",
        "q1 p2 a' q2",
        "q1 a p2 q2",
    ]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_sweep_length_2n_plus_1(lr, n):
    w = cfg(lr, ["q1"] + ["a"] * n + ["p1", "q2"])
    hist = ["z1_a"] * n + ["z12"] + ["z2_a"] * n
    comp = run_history(lr, w, hist)
    assert len(comp) == 2 * n + 1
    assert comp.end == cfg(lr, ["q1"] + ["a"] * n + ["p2", "q2"])


def test_rl_mirror_sweep():
    rl = build_rl(["a"])
    w = cfg(rl, ["q1", "r1", "a", "q2"])
    comp = run_history(rl, w, ["x1_a", "x12", "x2_a"])
    assert comp.end == cfg(rl, ["q1", "r2", "a", "q2"])
    # mid-sweep the content sits primed in the left (scratch) sector
    assert str(comp.trace[1]) == "q1 a' r1 q2"


def test_lr_m_phase_count():
    for m in (1, 2, 3):
        mach = build_lr_m(["a"], m)
        assert len(mach.hardware.parts[1]) == 2 * m
        # 2m·|Y| moving rules plus 2m-1 turning rules
        assert len(mach.positive_rules) == 2 * m + (2 * m - 1)


def test_lr_m_full_run():
    m = 2
    mach = build_lr_m(["a"], m)
    k = 3
    w = cfg(mach, ["q1"] + ["a"] * k + ["p1", "q2"])
    hist = []
    for i in range(1, 2 * m + 1):
        hist += [f"zm{i}_a"] * k
        if i < 2 * m:
            hist.append(f"zt{i}")
    comp = run_history(mach, w, hist)
    assert len(comp) == 2 * m * k + 2 * m - 1
    assert comp.end == cfg(mach, ["q1"] + ["a"] * k + [f"p{2*m}", "q2"])


CONTENTS = {"abb": ["a", "b", "b"], "ba": ["b", "a"], "empty": []}
# LRm's own rule and phase-letter names, and another placement's
LRM_NAMES = (lambda i, a: f"zt{i}" if a is None else f"zm{i}_{a}", lambda i: f"p{i}")
OTHER_NAMES = (lambda i, a: f"turn{i}" if a is None else f"y{i}{a}", lambda i: f"ph{i}")


@pytest.mark.parametrize(
    "content, m, names",
    [pytest.param(c, m, LRM_NAMES, id=f"{cid}-{m}") for cid, c in CONTENTS.items() for m in (1, 2, 3)]
    + [pytest.param(CONTENTS["abb"], 2, OTHER_NAMES, id="abb-2-other-names")],
)
def test_sweep_run_replays(content, m, names):
    """``sweep_run`` is the straight run that test_lr_m_full_run spells by
    hand, on a two-letter alphabet whose content order matters.  Under
    other names the sweep is LRm with its rules and phase letters renamed,
    in the same order, and ``sweep_run`` in those names replays on it."""
    label, phase = names
    lrm, mach = build_lr_m(["a", "b"], m), build_lr_m(["a", "b"], m, label, phase)
    letter = {f"p{i}": phase(i) for i in range(1, 2 * m + 1)}
    rename = {f"zm{i}_{a}": label(i, a) for i in range(1, 2 * m + 1) for a in "ab"}
    rename |= {f"zt{i}": label(i, None) for i in range(1, 2 * m)}

    def part(p):
        return dataclasses.replace(p, src=letter.get(p.src, p.src), dst=letter.get(p.dst, p.dst))

    assert mach.hardware.parts == (("q1",), tuple(letter.values()), ("q2",))
    assert list(mach.positive_rules) == [
        dataclasses.replace(r, label=rename[r.label], parts=tuple(map(part, r.parts))) for r in lrm.positive_rules
    ]
    hist = sweep_run(content, m, label)
    assert hist == tuple((rename[lbl], sign) for lbl, sign in sweep_run(content, m))
    comp = run_history(mach, cfg(mach, ["q1", *content, phase(1), "q2"]), hist)
    assert len(comp) == 2 * m * len(content) + 2 * m - 1
    assert comp.end == cfg(mach, ["q1", *content, phase(2 * m), "q2"])


def test_m1_structural_match():
    # m=1 has the same rule structure as a single LR pass pair
    one = build_lr_m(["a"], 1)
    lr = build_lr(["a"])
    assert len(one.positive_rules) == len(lr.positive_rules)
    assert len(one.hardware.parts[1]) == len(lr.hardware.parts[1])


def test_bad_parameters():
    with pytest.raises(BadParameters):
        build_lr([])
    with pytest.raises(BadParameters):
        build_lr_m(["a"], 0)


@pytest.mark.parametrize("build", [build_lr, build_rl, lambda ys: build_lr_m(ys, 2)], ids=["LR", "RL", "LRm2"])
def test_domain_separator_is_no_letter(build):
    """A rule line joins its domain chunks with ' ; ', so ';' alone is
    refused; a letter that only holds ';' prints and reads back."""
    with pytest.raises(BadParameters):
        build([";"])
    for letter in ("a;b", ";a", "a;", ";;"):
        text = print_machine(build([letter]))
        assert parse_machine(text) == build([letter])
        assert print_machine(parse_machine(text)) == text


# LR's state letters under the right-to-left reading, as RL names them
RL_NAMES = {"q1": "q2", "q2": "q1", "p1": "r1", "p2": "r2"}


def reverse(w):
    """An LR word read right to left, in RL's letters; no letter is inverted."""
    q = tuple(QLetter(2 - x.part, RL_NAMES[x.name], x.sign) for x in reversed(w.q))
    u = tuple(tuple(reversed(v)) for v in reversed(w.u))
    return AdmissibleWord(q, u)


@pytest.mark.parametrize("alphabet", [["a"], ["a", "b"]])
def test_rl_is_lr_read_right_to_left(alphabet):
    lr, rl = build_lr(alphabet), build_rl(alphabet)
    words = random_words_for(lr, 60, seed=11)
    applied = 0
    for w in words:
        rw = reverse(w)
        rl.hardware.validate(rw)
        for r in lr.rules:
            r2 = rl.rule(("x" + r.label[1:], r.sign))
            ok = is_applicable(lr, w, r)
            assert is_applicable(rl, rw, r2) == ok
            if ok:
                assert apply_rule(rl, rw, r2) == reverse(apply_rule(lr, w, r))
                applied += 1
    # about half the words are built from a rule, which then applies
    assert applied >= len(words) // 2


def test_place_puts_each_rule_on_every_host():
    """Placed on its own base, a sweep keeps its inserts and domains; a
    second host in lockstep takes the same ones in its own letters."""
    lrm = build_lr_m(["a", "b"], 2)
    own = {y: y for y in lrm.hardware.sector_alphabets[0]}
    upper = {y: y.upper() for y in own}
    placed = place(lrm, [Host(1, 0, 1, own), Host(4, 3, 5, upper)])
    assert [r for r, _, _ in placed] == list(lrm.positive_rules)
    for r, ins, doms in placed:
        p = r.parts[1]
        assert ins[1] == (p.a, p.b)
        assert ins[4] == tuple(tuple(YLetter(y.name.upper(), y.sign) for y in w) for w in (p.a, p.b))
        assert doms == {
            0: r.domains[0],
            1: r.domains[1],
            3: frozenset(y.upper() for y in r.domains[0]),
            5: frozenset(y.upper() for y in r.domains[1]),
        }
