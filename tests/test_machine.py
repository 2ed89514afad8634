import re

import pytest
from hypothesis import given, settings, strategies as st

from smachine.lr import build_lr
from smachine.machine import (
    Hardware,
    NotApplicable,
    NotApplicableAt,
    Rule,
    RulePart,
    SMachine,
    UnknownRule,
    UntaggedRule,
    apply_rule,
    history,
    is_applicable,
    is_eligible,
    run_history,
    step_history,
)
from smachine.enumerate import enumerate_computations, reach_levels, successors
from smachine.main_machine import THETA_23
from smachine.words import AdmissibleWord, MalformedWord, QLetter, YLetter

from conftest import random_words_for


@pytest.fixture(scope="module")
def lr():
    return build_lr(["a", "b"])


def random_lr_word(lr, draw_content, p_state):
    hw = lr.hardware
    return AdmissibleWord(
        (QLetter(0, "q1", 1), QLetter(1, p_state, 1), QLetter(2, "q2", 1)),
        draw_content,
    )


content = st.lists(
    st.tuples(st.sampled_from(["a", "b", "a'", "b'"]), st.sampled_from([1, -1])),
    max_size=5,
).map(lambda ls: tuple(YLetter(*t) for t in ls))


@st.composite
def lr_words(draw):
    from smachine.words import reduce_word

    u0 = reduce_word(draw(content))
    u1 = reduce_word(draw(content))
    p = draw(st.sampled_from(["p1", "p2"]))
    return AdmissibleWord(
        (QLetter(0, "q1", 1), QLetter(1, p, 1), QLetter(2, "q2", 1)),
        (u0, u1),
    )


@settings(max_examples=300)
@given(lr_words())
def test_round_trip_all_applicable_rules(lr_word):
    lr = build_lr(["a", "b"])
    for r in lr.rules:
        if is_applicable(lr, lr_word, r):
            out = apply_rule(lr, lr_word, r)
            back = apply_rule(lr, out, r.inv())
            assert back == lr_word
            # output is admissible with q-letters at the ends
            lr.hardware.validate(out)
            assert len(out.q) == len(lr_word.q)
            # Y-length bookkeeping
            assert out.length() <= lr_word.length() + r.growth()


@settings(max_examples=200)
@given(lr_words())
def test_base_preserved(lr_word):
    lr = build_lr(["a", "b"])
    for r in lr.rules:
        if is_applicable(lr, lr_word, r):
            assert apply_rule(lr, lr_word, r).base == lr_word.base


def whole_word_apply(machine, w, rule):
    """Reference W·theta, independent of apply_rule: substitute every part
    into one flat list, cancel adjacent inverse tape letters until none are
    left, drop the tape letters at both ends, then regroup."""
    flat = []
    for i, x in enumerate(w.q):
        p = rule.parts[x.part]
        if p.src != x.name:
            raise NotApplicable(x)
        a = [y.inv() for y in reversed(p.b)] if x.sign < 0 else list(p.a)
        b = [y.inv() for y in reversed(p.a)] if x.sign < 0 else list(p.b)
        flat += a + [QLetter(x.part, p.dst, x.sign)] + b
        if i < len(w.u):
            domain = rule.domains[machine.hardware.right_sector(x)]
            if any(y.name not in domain for y in w.u[i]):
                raise NotApplicable(w.u[i])
            flat += w.u[i]
    tape = lambda z: isinstance(z, YLetter)
    i = 0
    while i < len(flat) - 1:
        x, y = flat[i], flat[i + 1]
        if tape(x) and tape(y) and x.name == y.name and x.sign == -y.sign:
            del flat[i : i + 2]
            i = 0
        else:
            i += 1
    while tape(flat[0]):
        flat.pop(0)
    while tape(flat[-1]):
        flat.pop()
    qs, us = [], []
    for z in flat:
        if tape(z):
            us[-1].append(z)
        else:
            qs.append(z)
            us.append([])
    return AdmissibleWord(tuple(qs), tuple(tuple(u) for u in us[:-1]))


def test_apply_rule_matches_whole_word_oracle(shipped):
    """apply_rule agrees with the whole-word reference on every rule of
    the 11 shipped machines, including where it does not apply."""
    applied = 0
    for idx, machine in enumerate(shipped):
        for w in random_words_for(machine, 300, seed=2000 + idx):
            for rule in machine.rules:
                try:
                    want = whole_word_apply(machine, w, rule)
                except NotApplicable:
                    want = None
                try:
                    got = apply_rule(machine, w, rule)
                except NotApplicable:
                    got = None
                assert got == want, f"{machine.name}: {w} by {rule.label}^{rule.sign}"
                applied += got is not None
    assert applied > 5000


def test_inverted_word_application(lr):
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    wi = w.inv()
    lr.hardware.validate(wi)
    out = apply_rule(lr, wi, lr.rule("z1_a"))
    assert out == lr.hardware.word(["q2^-1", "a'^-1", "p1^-1", "q1^-1"])
    assert apply_rule(lr, out, lr.rule("z1_a").inv()) == wi


def test_run_history_empty(lr):
    w = lr.hardware.word(["q1", "p1", "q2"])
    comp = run_history(lr, w, [])
    assert comp.trace == (w,)


def test_run_history_inverse_pair(lr):
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    comp = run_history(lr, w, ["z1_a", "z1_a^-1"])
    assert comp.end == w


def test_rules_apply_blindly(lr):
    # no cancellation required: z1_b on a-content just deposits b^-1 / b'
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    out = apply_rule(lr, w, lr.rule("z1_b"))
    assert out == lr.hardware.word(["q1", "a", "b^-1", "p1", "b'", "q2"])


def test_run_history_failure_index(lr):
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    # after the turn the p-letter is p2, so z12 cannot fire again
    with pytest.raises(NotApplicableAt) as e:
        run_history(lr, w, ["z1_a", "z12", "z12"])
    assert e.value.index == 2 and e.value.label == "z12"


def test_eligibility_rules():
    h_ok = history("t23", "t23^-1")
    h_bad = history("t23^-1", "t23")
    assert is_eligible(h_ok, allowed="t23")
    assert not is_eligible(h_bad, allowed="t23")
    assert not is_eligible(history("x", "x^-1"), allowed="t23")
    # any reduced history is eligible
    assert is_eligible(history("x", "y", "x^-1"), allowed="t23")


def _tagged_machine():
    hw = Hardware(parts=(("u", "v"),), sector_alphabets=(), circular=False)
    r1 = Rule("f", (RulePart("u", (), "u", ()),), (), tag="set2")
    r2 = Rule("g", (RulePart("u", (), "v", ()),), (), tag="tr23")
    r3 = Rule("h", (RulePart("v", (), "v", ()),), (), tag="set3")
    r4 = Rule("k", (RulePart("u", (), "u", ()),), (), tag="")
    return SMachine(hardware=hw, positive_rules=(r1, r2, r3, r4), name="tagged")


def test_step_history_collapse():
    m = _tagged_machine()
    h = history("f", "f", "g", "h", "h", "h")
    assert step_history(h, m) == ("(2)", "(23)", "(3)")


def test_step_history_inverse_transition():
    m = _tagged_machine()
    assert step_history(history("g^-1",), m) == ("(32)",)
    assert step_history((), m) == ()


def test_step_history_untagged():
    m = _tagged_machine()
    with pytest.raises(UntaggedRule):
        step_history(history("k"), m)


@pytest.mark.parametrize(
    "h, error, message",
    [
        (history("f", "x"), UnknownRule, "x"),
        (history("f", "m"), UntaggedRule, "m: unrecognized tag foo"),
    ],
    ids=["label-not-in-machine", "unrecognized-tag"],
)
def test_step_history_rejects_a_label_it_cannot_name(h, error, message):
    """A label the machine lacks, and a tag that is neither ``setK`` nor
    ``trXY``, raise rather than collapse."""
    hw = Hardware(parts=(("u",),), sector_alphabets=(), circular=False)
    m = SMachine(
        hardware=hw,
        positive_rules=(
            Rule("f", (RulePart("u", (), "u", ()),), (), tag="set2"),
            Rule("m", (RulePart("u", (), "u", ()),), (), tag="foo"),
        ),
        name="tagged",
    )
    with pytest.raises(error) as e:
        step_history(h, m)
    assert str(e.value) == message


def test_enumerate_depth0(lr):
    w = lr.hardware.word(["q1", "p1", "q2"])
    comps = list(enumerate_computations(lr, w, 0))
    assert len(comps) == 1 and comps[0].history == ()


@pytest.mark.parametrize("depth, filt", [(-1, "reduced"), (2, "nope")], ids=["negative-depth", "unknown-filter"])
def test_enumerate_rejects_bad_arguments(lr, depth, filt):
    with pytest.raises(ValueError):
        next(enumerate_computations(lr, lr.hardware.word(["q1", "p1", "q2"]), depth, filt))


def test_enumerate_monotone_and_deterministic(lr):
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    runs = []
    for _ in range(2):
        runs.append([c.history for c in enumerate_computations(lr, w, 3, "reduced")])
    assert runs[0] == runs[1]
    by_depth = [sum(1 for h in runs[0] if len(h) <= d) for d in range(4)]
    assert by_depth == sorted(by_depth)


def test_enumerate_contains_full_sweep():
    lr = build_lr(["a"])
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    target = lr.hardware.word(["q1", "a", "p2", "q2"])
    hs = {
        c.history
        for c in enumerate_computations(lr, w, 3, "reduced")
        if c.end == target
    }
    assert history("z1_a", "z12", "z2_a") in hs


def test_enumerate_exactly_once(lr):
    w = lr.hardware.word(["q1", "a", "p1", "q2"])
    hs = [c.history for c in enumerate_computations(lr, w, 4, "all")]
    assert len(hs) == len(set(hs))


@pytest.mark.parametrize("filt", ["reduced", "eligible", "all"])
def test_enumerated_computations_replay(filt, shipped):
    """Every enumerated record's chain is a computation: it replays
    through ``run_history`` to the same trace, from its start to its end."""
    longest = 0
    for machine in shipped:
        for w in random_words_for(machine, 3, seed=7):
            for c in enumerate_computations(machine, w, 3, filt, THETA_23):
                trace = c.trace
                assert run_history(machine, c.start, c.history).trace == trace
                assert (trace[0], trace[-1]) == (c.start, c.end)
                assert len(c) == len(c.history)
                longest = max(longest, len(c))
    assert longest == 3


def _plain_enumeration(machine, start, depth, filt, eligible_label):
    """(history, end) of every computation in ``enumerate_computations``'
    order, each end expanded afresh: the enumeration without its memo."""
    level = [((), start)]
    out = [((), str(start))]
    for _ in range(depth):
        nxt = []
        for h, w in level:
            last = h[-1] if h else None
            if filt == "all" or (filt == "eligible" and last == (eligible_label, 1)):
                last = None
            nxt.extend((h + (r.signed_label,), w2) for r, w2 in successors(machine, w, last))
        out.extend((h, str(w)) for h, w in nxt)
        level = nxt
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    idx=st.integers(0, 10),
    seed=st.integers(0, 2**16),
    filt=st.sampled_from(["reduced", "all", "eligible"]),
)
def test_enumeration_memo_matches_the_plain_loop(shipped, idx, seed, filt):
    """Expanding each (end word, skipped label) once yields the same
    computations in the same order as expanding every computation; the
    eligible label is one of the machine's own."""
    machine = shipped[idx]
    label = machine.positive_rules[seed % len(machine.positive_rules)].label
    for w in random_words_for(machine, 3, seed):
        got = [(c.history, str(c.end)) for c in enumerate_computations(machine, w, 4, filt, label)]
        assert got == _plain_enumeration(machine, w, 4, filt, label), (machine.name, str(w), filt)


def _sweep_machines(bundle):
    return {
        "LR": build_lr(["a", "b"]),
        "M3": bundle.m5.m4.m3.machine,
        "main": bundle.machine,
    }


@pytest.mark.parametrize("name", ["LR", "M3", "main"])
def test_reach_levels_covers_enumeration(name, session_bundle):
    """Level states at depth t are exactly the (word, last) pairs of
    length-t reduced computations, and each replays from its start."""
    machine = _sweep_machines(session_bundle)[name]
    starts = random_words_for(machine, 6, seed=3)
    if name == "LR":
        starts.insert(0, machine.hardware.word(["q1", "a", "p1", "q2"]))
    deepest = 0
    for w in starts:
        by_depth = {}
        for c in enumerate_computations(machine, w, 3, "reduced"):
            key = (c.end, c.history[-1] if c.history else None)
            by_depth.setdefault(len(c), set()).add(key)
        levels = 0
        for t, states in reach_levels(machine, [w], 3):
            levels += 1
            got = [(s.end, s.last) for s in states]
            assert len(got) == len(set(got))
            assert set(got) == by_depth[t]
            for s in states:
                assert s.start == w
                assert run_history(machine, w, s.history).end == s.end
        assert levels == len(by_depth)
        deepest = max(deepest, levels - 1)
    assert deepest == 3  # non-vacuous: some start has computations of length 3


def test_reach_levels_first_start_wins():
    """A state reached from two starts keeps the path from the earlier
    one; check_lr_bound relies on this by sorting its starts by length."""
    lr = build_lr(["a"])
    u = lr.hardware.word(["q1", "p2", "a'", "q2"])
    v = lr.hardware.word(["q1", "a", "p1", "q2"])
    meet = lr.hardware.word(["q1", "a^-1", "p1", "a'", "a'", "q2"])
    for starts in ([u, v], [v, u]):
        level2 = dict(reach_levels(lr, starts, 2))[2]
        (s,) = [s for s in level2 if s.end == meet and s.last == ("z1_a", 1)]
        assert s.start == starts[0]
        assert run_history(lr, s.start, s.history).end == meet


def _closure_in_order(machine):
    """The rule closure by label, each positive rule before its inverse."""
    pos = sorted(machine.positive_rules, key=lambda r: r.label)
    return tuple(r for p in pos for r in (p, p.inv()))


def test_candidate_rules_in_label_then_sign_order(shipped):
    """``successors`` tries the candidates of a state letter in this
    order, and the first path into a state wins, so the order is part of
    every sweep's output."""
    for machine in shipped:
        closure = _closure_in_order(machine)
        for i, part in enumerate(machine.hardware.parts):
            for name in part:
                want = tuple(r for r in closure if r.parts[i].src == name)
                for sign in (1, -1):
                    assert machine.candidate_rules(QLetter(i, name, sign)) == want, (machine.name, name)


def test_rules_in_label_then_sign_order(shipped):
    for machine in shipped:
        assert machine.rules == _closure_in_order(machine), machine.name


def test_flanks_give_both_sector_lookups():
    """Each part's (left, right) sectors, None past a word end; a letter's
    right sector is its part's right flank, or its left one when inverted."""
    line = Hardware((("a",), ("b",), ("c",)), (frozenset("x"), frozenset("y")))
    circle = Hardware(line.parts, line.sector_alphabets + (frozenset("z"),), circular=True)
    assert line.flanks == ((None, 0), (0, 1), (1, None))
    assert circle.flanks == ((2, 0), (0, 1), (1, 2))
    for hw in (line, circle):
        for i, (left, right) in enumerate(hw.flanks):
            assert (hw.left_sector(QLetter(i, "", 1)), hw.right_sector(QLetter(i, "", 1))) == (left, right)
            assert (hw.left_sector(QLetter(i, "", -1)), hw.right_sector(QLetter(i, "", -1))) == (right, left)


@pytest.mark.parametrize("circular", [False, True])
def test_no_insert_beside_a_locked_sector(circular):
    """An insert must lie in the domain beside it, so a rule that puts a
    letter next to a locked sector, or beside no sector, is refused."""
    parts = (("a",), ("b",), ("c",))
    hw = Hardware(parts, (frozenset("x"),) * (3 if circular else 2), circular=circular)

    def machine(i, a, b, domains):
        rps = [RulePart(x, (), x, ()) for (x,) in parts]
        rps[i] = RulePart(parts[i][0], a, parts[i][0], b)
        return SMachine(hw, (Rule("t", tuple(rps), domains),))

    x = (YLetter("x", 1),)
    open_ = (frozenset("x"),) * hw.n_sectors
    locked = (frozenset(),) + open_[1:]
    machine(1, x, x, open_)
    with pytest.raises(ValueError, match=r"part 1: a-word letters \['x'\] outside domain"):
        machine(1, x, (), locked)
    with pytest.raises(ValueError, match=r"part 0: b-word letters \['x'\] outside domain"):
        machine(0, (), x, locked)
    if circular:
        machine(0, x, (), open_)
    else:
        with pytest.raises(ValueError, match="part 0: a-word beside no sector"):
            machine(0, x, (), open_)


@pytest.mark.parametrize(
    "tokens, message",
    [
        (["q2", "a", "q2^-1"], "illegal adjacency q2 q2^-1"),
        (["q1^-1", "a", "q1"], "illegal adjacency q1^-1 q1"),
        (["q1", "q2"], "illegal adjacency q1 q2"),
        (["a", "q1", "p1", "q2"], "word must start with a state letter"),
        (["q1", "p1", "q2", "a"], "word must end with a state letter"),
    ],
    ids=["tape-past-the-right-end", "tape-past-the-left-end", "parts-not-adjacent", "starts-with-tape", "ends-with-tape"],
)
def test_word_refuses_malformed_tokens(lr, tokens, message):
    """x·u·x^-1 is a word only where a sector lies to the right of x: not
    past either end of a linear machine."""
    with pytest.raises(MalformedWord, match=f"^{re.escape(message)}$"):
        lr.hardware.word(tokens)
    for inside in (["q1", "a", "q1^-1"], ["q2^-1", "a'", "q2"]):
        assert len(lr.hardware.word(inside).q) == 2


@pytest.mark.parametrize(
    "q, message",
    [(QLetter(3, "q1", 1), "part 3 out of range"), (QLetter(1, "q1", 1), "q1 is not a letter of part 1")],
    ids=["part-out-of-range", "letter-of-another-part"],
)
def test_validate_refuses_a_letter_outside_its_part(lr, q, message):
    with pytest.raises(MalformedWord, match=f"^{re.escape(message)}$"):
        lr.hardware.validate(AdmissibleWord((q,), ()))


LINE = Hardware((("a",), ("b",)), (frozenset("x"),))


def _rule(parts=(RulePart("a", (), "a", ()), RulePart("b", (), "b", ())), domains=(frozenset("x"),), sign=1):
    return Rule("t", parts, domains, sign=sign)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Hardware((("a",), ("b",)), ()), "2 parts need 1 sectors, got 0"),
        (lambda: Hardware((("a",), ("a",)), (frozenset("x"),)), "state letter a appears in two parts"),
        (lambda: SMachine(LINE, (_rule(sign=-1),)), "rule t stored with negative sign"),
        (lambda: SMachine(LINE, (_rule(), _rule())), "duplicate rule label t"),
        (lambda: SMachine(LINE, (_rule(parts=(RulePart("a", (), "a", ()),)),)), "rule t has 1 parts, hardware has 2"),
        (lambda: SMachine(LINE, (_rule(domains=()),)), "rule t has 0 domains, hardware has 1"),
        (lambda: SMachine(LINE, (_rule(domains=(frozenset("y"),)),)), "rule t: domain 0 not within sector alphabet"),
    ],
    ids=["sector-count", "letter-in-two-parts", "negative-sign", "duplicate-label", "part-count", "domain-count", "domain-outside-alphabet"],
)
def test_constructors_refuse_inconsistent_machines(build, message):
    """The checks of ``Hardware`` and ``SMachine`` that no other test
    reaches: a machine file with a rule letter in the wrong part, and
    ``test_no_insert_beside_a_locked_sector``, reach the rest."""
    assert SMachine(LINE, (_rule(),)).rules[0] == _rule()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
