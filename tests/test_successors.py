"""``successors``, the one expansion step, against simple references.

``successors`` tries only the rules whose moves are cached for the
word's state letters, and ``is_applicable`` and ``apply_rule`` read the
same moves; these tests compare them with the whole-word reference over
every rule of the machine, check the cache against a plain filter, show
that a rule the cache was not compiled from gets its own move, that no
tape's domain check is skipped, and that ``apply_rule`` reuses the move
``is_applicable`` just passed only for the same word and rule objects,
never after a refusal, and pin the seam through which every
application still passes (``is_applicable``, ``apply_rule`` and
``AdmissibleWord.__post_init__`` at their module names) so that a later
shortcut around it shows up here.
"""

import collections
import contextlib
import dataclasses
import itertools
import pickle
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from smachine import enumerate as engine
from smachine import machine as machine_module
from smachine.checks import check_lr_bound
from smachine.lr import build_lr, build_lr_m, build_rl
from smachine.machine import (
    Hardware,
    NotApplicable,
    Rule,
    RulePart,
    SMachine,
    apply_rule,
    inserts,
    is_applicable,
    run_history,
)
from smachine.toy import toy_even_recognizer
from smachine.words import AdmissibleWord, MalformedWord, QLetter, YLetter, reduce_word, y_word

from conftest import random_words_for
from test_machine import whole_word_apply

def _outcome(pairs):
    """The (signed label, word) pairs of an expansion, and whether it
    ended in ``MalformedWord``."""
    out = []
    try:
        for label, w in pairs:
            out.append((label, w))
    except MalformedWord:
        return out, True
    return out, False


def _reference(machine, w, last):
    """Every rule of the machine in order, applied by the whole-word
    reference, with the same skips as ``successors``."""
    for r in machine.rules:
        if last == (r.label, -r.sign):
            continue
        try:
            yield r.signed_label, whole_word_apply(machine, w, r)
        except NotApplicable:
            pass


def _fast(machine, w, last):
    for r, w2 in engine.successors(machine, w, last):
        yield r.signed_label, w2


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(0, 10),
    seed=st.integers(0, 2**16),
    last_pick=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_successors_match_the_whole_word_reference(shipped, idx, seed, last_pick):
    """Same (label, word) sequence, or the same ``MalformedWord``, with
    ``last`` unset, set to any rule, and set to the step just taken."""
    machine = shipped[idx]
    last = None if last_pick is None else machine.rules[last_pick % len(machine.rules)].signed_label
    for w in random_words_for(machine, 8, seed):
        want = _outcome(_reference(machine, w, last))
        assert _outcome(_fast(machine, w, last)) == want, (machine.name, str(w), last)
        for label, w2 in want[0][:2]:
            again = _outcome(_reference(machine, w2, label))
            assert _outcome(_fast(machine, w2, label)) == again, (machine.name, str(w2), label)


def test_moves_at_is_a_plain_filter_of_the_rules(shipped):
    """The cached moves of a state tuple are for the machine's rules whose
    sources match every state letter, in rule order, and a second call
    returns the same dict."""
    for idx, machine in enumerate(shipped):
        for w in random_words_for(machine, 200, seed=3000 + idx):
            want = [r for r in machine.rules if all(r.parts[x.part].src == x.name for x in w.q)]
            moves = machine.moves_at(w.q)
            assert [m.rule for m in moves.values()] == want, (machine.name, str(w))
            assert list(moves) == [r.signed_label for r in want]
            assert machine.moves_at(w.q) is moves


def _reference_refusal(machine, w, rule):
    """Why ``rule`` does not apply to ``w``, read off the whole word: the
    first state letter its source differs from, else the first tape
    letter outside the domain beside it; None when it applies."""
    for x in w.q:
        if rule.parts[x.part].src != x.name:
            return f"state letter {x} does not match rule {rule.label}"
    for x, u in zip(w.q, w.u):
        sec = machine.hardware.right_sector(x)
        for y in u:
            if y.name not in rule.domains[sec]:
                return f"letter {y.name} in sector {sec} outside domain of {rule.label}"
    return None


def _applied(fn):
    try:
        return "word", fn()
    except MalformedWord:
        return "malformed", None
    except NotApplicable as e:
        return "refused", str(e)


def _check_against_reference(machine, w, rule):
    """``is_applicable``, ``apply_rule`` and its ``NotApplicable`` message
    agree with the whole-word reference; returns the outcome."""
    reason = _reference_refusal(machine, w, rule)
    assert is_applicable(machine, w, rule) == (reason is None), (machine.name, str(w), rule.signed_label)
    want = ("refused", reason) if reason else _applied(lambda: whole_word_apply(machine, w, rule))
    got = _applied(lambda: apply_rule(machine, w, rule))
    assert got == want, (machine.name, str(w), rule.signed_label)
    return got


def _some_rules(machine, w):
    """The rules whose sources match ``w`` and every seventh other rule."""
    here = {m.rule.signed_label for m in machine.moves_at(w.q).values()}
    return [r for i, r in enumerate(machine.rules) if r.signed_label in here or i % 7 == 0]


def test_an_equal_rule_is_applied_as_the_shipped_one(shipped):
    """A rule equal to a shipped one but not the same object gets the same
    answers from both calls, and the same refusal message."""
    applied = 0
    for idx, machine in enumerate(shipped):
        for w in random_words_for(machine, 30, seed=4000 + idx):
            for rule in _some_rules(machine, w):
                twin = dataclasses.replace(rule)
                assert twin == rule and twin is not rule
                got = _check_against_reference(machine, w, twin)
                assert got == _applied(lambda: apply_rule(machine, w, rule))
                applied += got[0] == "word"
    assert applied > 500


def _other_inserts(machine, rule):
    """``rule`` under its own signed label with other inserts: none where
    it has some, else one domain letter right of the first part that
    has a domain there."""
    if rule.growth():
        parts = tuple(dataclasses.replace(p, a=(), b=()) for p in rule.parts)
        return dataclasses.replace(rule, parts=parts)
    for i, (_, right) in enumerate(machine.hardware.flanks):
        if right is not None and rule.domains[right]:
            parts = list(rule.parts)
            parts[i] = dataclasses.replace(parts[i], b=(YLetter(min(rule.domains[right]), 1),))
            return dataclasses.replace(rule, parts=tuple(parts))
    return None


def test_a_rule_with_a_shipped_label_and_other_inserts_gets_its_own_move(shipped):
    """A hand-built rule that shares a shipped rule's signed label but not
    its inserts is applied as written, not by the shipped rule's cached
    move."""
    differ = 0
    for idx, machine in enumerate(shipped):
        for w in random_words_for(machine, 30, seed=5000 + idx):
            for rule in _some_rules(machine, w):
                other = _other_inserts(machine, rule)
                if other is None:
                    continue
                shipped_out = _applied(lambda: apply_rule(machine, w, rule))
                got = _check_against_reference(machine, w, other)
                differ += got[0] == "word" and got != shipped_out
    assert differ > 100


def _stray_tapes(machine):
    """(rule, tape index, word, refusal) for each positive rule and each
    tape beside a domain equal to its sector's alphabet: the word has the
    rule's source letters and, on that tape only, a letter outside the
    alphabet, as a word built without ``validate`` may."""
    hw = machine.hardware
    for rule in machine.positive_rules:
        q = tuple(QLetter(i, p.src, 1) for i, p in enumerate(rule.parts))
        for i, x in enumerate(q[:-1]):
            sec = hw.right_sector(x)
            if rule.domains[sec] != hw.sector_alphabets[sec]:
                continue
            u = [()] * (len(q) - 1)
            u[i] = y_word("stray")
            yield rule, i, AdmissibleWord(q, tuple(u)), f"letter stray in sector {sec} outside domain of {rule.label}"


def test_no_domain_check_is_skipped(shipped):
    """A word built without ``validate`` may hold a tape letter outside
    its sector's alphabet; beside a domain equal to that alphabet both
    calls still refuse it, on every tape, the last one included."""
    last_tapes = 0
    for machine in shipped:
        for rule, i, w, message in _stray_tapes(machine):
            with pytest.raises(MalformedWord, match="not in alphabet"):
                machine.hardware.validate(w)
            assert not is_applicable(machine, w, rule)
            with pytest.raises(NotApplicable) as refused:
                apply_rule(machine, w, rule)
            assert str(refused.value) == message
            last_tapes += i == len(w.q) - 2
    assert last_tapes > 10


def test_a_passed_check_admits_no_other_word(shipped):
    """After ``is_applicable`` passes a rule at a word with empty tapes,
    ``apply_rule`` still refuses the rule at a word with the same state
    letters and a tape outside its domain, with the exact message."""
    refused = 0
    for machine in shipped:
        for rule, _, w, message in _stray_tapes(machine):
            clean = AdmissibleWord(w.q, tuple(() for _ in w.u))
            assert is_applicable(machine, clean, rule)
            with pytest.raises(NotApplicable) as e:
                apply_rule(machine, w, rule)
            assert str(e.value) == message
            refused += 1
    assert refused > 10


def test_a_passed_check_admits_no_other_rule(shipped):
    """After ``is_applicable`` passes one rule at a word, ``apply_rule``
    checks any other rule at that word itself: it answers as the
    whole-word reference does, refusals and their messages included."""
    tally = collections.Counter()
    for idx, machine in enumerate(shipped):
        for w in random_words_for(machine, 20, seed=6000 + idx):
            passed = next((r for r in machine.rules if is_applicable(machine, w, r)), None)
            if passed is None:
                continue
            for rule in _some_rules(machine, w):
                if rule is passed:
                    continue
                reason = _reference_refusal(machine, w, rule)
                want = ("refused", reason) if reason else _applied(lambda: whole_word_apply(machine, w, rule))
                assert is_applicable(machine, w, passed)
                assert _applied(lambda: apply_rule(machine, w, rule)) == want, (machine.name, str(w), rule.signed_label)
                tally[want[0]] += 1
    assert tally["refused"] > 100 and tally["word"] > 100, tally


def test_a_failed_check_is_not_remembered(shipped):
    """After ``is_applicable`` refuses a rule at a word, ``apply_rule`` on
    the same word and rule raises ``NotApplicable`` with the reference's
    message, for a state letter the rule does not match and for a tape
    outside its domain."""
    tally = collections.Counter()
    for idx, machine in enumerate(shipped):
        for w in random_words_for(machine, 20, seed=7000 + idx):
            for rule in _some_rules(machine, w):
                reason = _reference_refusal(machine, w, rule)
                if reason is None:
                    continue
                assert not is_applicable(machine, w, rule)
                with pytest.raises(NotApplicable) as e:
                    apply_rule(machine, w, rule)
                assert str(e.value) == reason, (machine.name, str(w), rule.signed_label)
                tally[reason.split()[0]] += 1
    assert tally["state"] > 100 and tally["letter"] > 10, tally


def test_apply_rule_reuses_the_move_only_for_the_same_objects(shipped, monkeypatch):
    """``apply_rule`` builds from the move ``is_applicable`` just passed
    only when it gets the same word and rule objects: a word equal to
    that one but built anew gets its own ``_move`` and the same result."""
    calls = collections.Counter()
    move = machine_module._move

    def counted(*args):
        calls["_move"] += 1
        return move(*args)

    monkeypatch.setattr(machine_module, "_move", counted)
    reused = 0
    for idx, machine in enumerate(shipped):
        for w in random_words_for(machine, 10, seed=8000 + idx):
            twin = AdmissibleWord(w.q, w.u)
            assert twin == w and twin is not w
            for rule in _some_rules(machine, w):
                calls.clear()
                if not is_applicable(machine, w, rule):
                    continue
                got_twin = _applied(lambda: apply_rule(machine, twin, rule))
                assert calls["_move"] == 2, (machine.name, str(w), rule.signed_label)
                assert _applied(lambda: apply_rule(machine, w, rule)) == got_twin
                assert calls["_move"] == 2, (machine.name, str(w), rule.signed_label)
                reused += 1
    assert reused > 100


def _unreduced_insert_machine():
    """One rule whose inserts ``a a^-1`` and ``b^-1 b a`` are not reduced."""
    hw = Hardware(
        parts=(("q1",), ("p1", "p2"), ("q2",)),
        sector_alphabets=(frozenset({"a", "b"}), frozenset({"a", "b"})),
    )
    rule = Rule(
        "t",
        (
            RulePart("q1", (), "q1", y_word("a", "a^-1")),
            RulePart("p1", y_word("b^-1", "b", "a"), "p2", y_word("a", "a^-1", "b")),
            RulePart("q2", y_word("b", "b^-1"), "q2", ()),
        ),
        (frozenset({"a", "b"}), frozenset({"a", "b"})),
    )
    return SMachine(hw, (rule,), name="unreduced")


def _reduced_words(length):
    letters = [y for name in "ab" for y in y_word(name, f"{name}^-1")]
    return {reduce_word(t) for n in range(length + 1) for t in itertools.product(letters, repeat=n)}


def test_inserts_reduced_once_give_the_whole_tape_reduction():
    """Reducing a rule's inserts when it is compiled, then joining at the
    junctions, gives what ``reduce_word`` gives on the whole tape."""
    machine = _unreduced_insert_machine()
    tapes = sorted(_reduced_words(3))
    checked = 0
    for rule in machine.rules:
        src = [QLetter(i, p.src, 1) for i, p in enumerate(rule.parts)]
        for u0, u1 in itertools.product(tapes, repeat=2):
            for w in (AdmissibleWord(tuple(src), (u0, u1)), AdmissibleWord(tuple(src), (u0, u1)).inv()):
                got = apply_rule(machine, w, rule)
                ins = [inserts(rule, x) for x in w.q]
                tape = tuple(reduce_word(ins[i][1] + u + ins[i + 1][0]) for i, u in enumerate(w.u))
                assert got.u == tape, (str(w), rule.signed_label)
                assert got == whole_word_apply(machine, w, rule)
                checked += 1
    assert checked > 2000


def test_a_word_the_constructor_rejects_is_raised_by_successors(monkeypatch):
    """Every word ``successors`` yields comes from ``AdmissibleWord(...)``,
    so a ``MalformedWord`` its checks raise reaches the caller."""
    lr = build_lr(["a"])
    # z1_a^-1 empties both tapes of w; no successor of v has empty tapes
    w = lr.hardware.word(["q1", "a^-1", "p1", "a'", "q2"])
    v = lr.hardware.word(["q1", "a", "p1", "q2"])
    want = list(engine.successors(lr, v))
    post_init = AdmissibleWord.__post_init__

    def reject_empty_tapes(self):
        post_init(self)
        if not any(self.u):
            raise MalformedWord("no tape")

    monkeypatch.setattr(AdmissibleWord, "__post_init__", reject_empty_tapes)
    with pytest.raises(MalformedWord, match="no tape"):
        list(engine.successors(lr, w))
    assert list(engine.successors(lr, v)) == want


def test_every_application_passes_the_counted_names(monkeypatch):
    """The engine calls ``is_applicable`` and ``apply_rule`` at their names
    in ``smachine.enumerate``, one application per yielded successor, and
    builds each word through ``AdmissibleWord.__post_init__``: the seam
    through which applications are counted from outside the package."""
    counts = dict.fromkeys(("is_applicable", "apply_rule", "post_init", "yielded"), 0)
    built = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def post_init(self):
        built.append(self)
        counts["post_init"] += 1
        checks(self)

    def counted_successors(*args, **kwargs):
        for pair in successors(*args, **kwargs):
            counts["yielded"] += 1
            assert pair[1] is built[-1], "a yielded word skipped the constructor's checks"
            yield pair

    successors, checks = engine.successors, AdmissibleWord.__post_init__
    monkeypatch.setattr(engine, "is_applicable", counted("is_applicable", engine.is_applicable))
    monkeypatch.setattr(engine, "apply_rule", counted("apply_rule", engine.apply_rule))
    monkeypatch.setattr(engine, "successors", counted_successors)
    monkeypatch.setattr(AdmissibleWord, "__post_init__", post_init)

    assert check_lr_bound(max_tape=2).status == "pass"
    lr = build_lr(["a"])
    live = lr.hardware.word(["q1", "a", "p1", "q2"])
    assert engine.search(lr, live, [lr.hardware.word(["q1", "p2", "a'", "q2"])], 1000) == (
        (("z1_a", 1), ("z12", 1)),
        False,
    )
    assert all(n > 0 for n in counts.values()), counts
    assert counts["apply_rule"] == counts["yielded"], counts
    assert counts["is_applicable"] >= counts["apply_rule"], counts


def test_a_letter_with_no_sector_on_its_right():
    """A word built without ``validate`` may put the last part before the
    first: with no tape letter between them a rule still applies, and a
    tape letter there is outside every domain."""
    lr = build_lr(["a"])
    q = (QLetter(2, "q2", 1), QLetter(0, "q1", 1))
    w = AdmissibleWord(q, ((),))
    assert apply_rule(lr, w, lr.rule("z12")) == w
    v = AdmissibleWord(q, (y_word("a"),))
    assert not is_applicable(lr, v, lr.rule("z12"))
    with pytest.raises(NotApplicable, match="^letter a in sector None outside domain of z12$"):
        apply_rule(lr, v, lr.rule("z12"))


def test_words_pickle_and_take_no_new_attributes():
    """Words carry slots: they pickle for the ``--jobs`` pool and refuse
    an attribute set on an instance."""
    w = build_lr(["a"]).hardware.word(["q1", "a", "p1", "q2"])
    assert pickle.loads(pickle.dumps(w)) == w
    assert not hasattr(w, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        w.extra = 1


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in the body once ``seconds`` have passed."""

    def expired(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_search_ends_when_a_frontier_closes():
    """No rule applies at q1 a' p1 q2, so a search stops once the side
    grown from it is closed: a definite no, in both modes, whatever the
    other side still holds."""
    lr = build_lr(["a"])
    live = lr.hardware.word(["q1", "a", "p1", "q2"])
    dead = lr.hardware.word(["q1", "a'", "p1", "q2"])
    with _deadline(10):
        assert engine.search(lr, dead, [live], 1000) == (None, False)
        assert engine.search(lr, live, [dead], 1000, bidirectional=True) == (None, False)
        assert engine.search(lr, dead, [live], 1000, bidirectional=True) == (None, False)


def _reference_search(machine, source, targets, budget):
    """Plain BFS: (witness, budget exhausted, applications spent).

    Every rule of the machine in order, through ``is_applicable`` and
    ``apply_rule``; each application is charged before its word is
    looked up, the first step to reach a word is kept, and the first
    new word that is a target ends the search."""
    targets = set(targets)
    if source in targets:
        return (), False, 0
    paths = {source: ()}
    queue = collections.deque([source])
    spent = 0
    while queue:
        w = queue.popleft()
        for r in machine.rules:
            if not is_applicable(machine, w, r):
                continue
            w2 = apply_rule(machine, w, r)
            spent += 1
            if spent > budget:
                return None, True, spent
            if w2 in paths:
                continue
            paths[w2] = paths[w] + (r.signed_label,)
            if w2 in targets:
                return paths[w2], False, spent
            queue.append(w2)
    return None, False, spent


def _walk(machine, w, steps, rng):
    """The end of a random walk of at most ``steps`` applications."""
    for _ in range(steps):
        rules = [r for r in machine.rules if is_applicable(machine, w, r)]
        if not rules:
            break
        try:
            w = apply_rule(machine, w, rng.choice(rules))
        except MalformedWord:
            break
    return w


def _raised(fn):
    """``fn()``, or ``MalformedWord`` when it raised one."""
    try:
        return fn()
    except MalformedWord:
        return MalformedWord


SEARCH_MACHINES = {
    "LR[a,b]": lambda: build_lr(["a", "b"]),
    "RL[a]": lambda: build_rl(["a"]),
    "LRm([a],2)": lambda: build_lr_m(["a"], 2),
    "toy": lambda: toy_even_recognizer().machine,
}


@pytest.mark.parametrize("name", sorted(SEARCH_MACHINES))
def test_search_against_a_plain_bfs(name):
    """One-directional ``search`` returns what the plain BFS returns, or
    raises what it raises; a bidirectional witness replays from the
    source to a target, a bidirectional definite no never meets a target
    the BFS reaches, and with neither out of budget the two modes agree.
    At the budget the BFS spent on a hit ``search`` finds it, and one
    application less runs out."""
    machine = SEARCH_MACHINES[name]()
    rng = random.Random(name)
    words = random_words_for(machine, 24, seed=len(name))
    tally = collections.Counter()
    for i, source in enumerate(words):
        targets = [words[(i + 7) % len(words)]]
        if i % 2:
            targets.append(_walk(machine, source, rng.randrange(1, 12), rng))
        for budget in (5, 40, 400):
            ref = _raised(lambda: _reference_search(machine, source, targets, budget))
            one = _raised(lambda: engine.search(machine, source, targets, budget))
            if ref is MalformedWord:
                assert one is MalformedWord, (name, str(source), budget)
                tally["malformed"] += 1
                continue
            wit, exhausted, spent = ref
            assert one == (wit, exhausted), (name, str(source), budget)
            two = engine.search(machine, source, targets, budget, bidirectional=True)
            if two[0] is not None:
                assert run_history(machine, source, two[0]).end in targets, (name, str(source), budget)
            if wit is not None:
                assert two != (None, False), (name, str(source), budget)
                if spent > 0:
                    assert engine.search(machine, source, targets, spent) == (wit, False)
                    assert engine.search(machine, source, targets, spent - 1) == (None, True)
            if not exhausted and not two[1]:
                assert (wit is None) == (two[0] is None), (name, str(source), budget)
            tally["hit" if wit is not None else "exhausted" if exhausted else "closed"] += 1
    assert all(tally[k] for k in ("hit", "exhausted", "closed")), tally
