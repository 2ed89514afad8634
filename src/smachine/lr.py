"""Running-state-letter machines.

``build_lr_m(Y, m)``: standard base Q1 P Q2; the middle letter sweeps
left through the left sector, replacing each letter a by its primed copy
a' deposited in the right sector, turns, and sweeps back, m times over
with 2m phase letters.  It is the one sweep written out, and this module
spells every name a sweep's rules and phase letters get: ``build_lr_m``
and ``sweep_run`` take them as ``label(i, a)`` and ``phase(i)``, LRm's
own being zm{i}_{a}, zt{i} and p{i}.  ``build_lr`` is ``build_lr_m(Y, 1)``
with the labels z1_a, z12, z2_a, and ``build_rl`` is that sweep read
right to left (content in the right sector, scratch on the left) with
the letters r1, r2 and the labels x1_a, x12, x2_a.  ``place`` puts a
sweep's rules on the parts of a larger machine: the main machine's set 2
is LRm placed on the input sector, and M3's history-sweep stages are LR
and RL placed on every history sector, each placement under its own names.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

from .machine import Hardware, History, Rule, RulePart, SMachine
from .words import Word, YLetter


class InvalidAlphabet(Exception):
    """Letters that are empty, repeated or another letter's primed copy,
    or none at all."""


class InvalidM(Exception):
    pass


def primed(name: str) -> str:
    return name + "'"


# A sweep's rule names: label(i, a) for phase i's rule on letter a, and
# label(i, None) for the turn after phase i; its phase letters: phase(i).
Label = Callable[[int, str | None], str]


def lrm_label(i: int, a: str | None) -> str:
    return f"zt{i}" if a is None else f"zm{i}_{a}"


def _renamed(machine: SMachine, name: str, tag: str, swap: Mapping[str, str]) -> SMachine:
    """``machine`` with its rules retagged and the state letters in ``swap`` renamed."""

    def state(x: str) -> str:
        return swap.get(x, x)

    hw = machine.hardware
    return SMachine(
        hardware=Hardware(tuple(tuple(map(state, p)) for p in hw.parts), hw.sector_alphabets, hw.circular),
        positive_rules=tuple(
            Rule(
                r.label,
                tuple(RulePart(state(p.src), p.a, state(p.dst), p.b) for p in r.parts),
                r.domains,
                tag=tag,
            )
            for r in machine.positive_rules
        ),
        start_letters=tuple(map(state, machine.start_letters)),
        end_letters=tuple(map(state, machine.end_letters)),
        input_sector=machine.input_sector,
        name=name,
    )


def read_right_to_left(machine: SMachine) -> SMachine:
    """``machine`` read right to left: parts, sectors and inserts reversed.

    A part ``q -> a q' b`` becomes ``q -> b^R q' a^R`` with no letter
    inverted, so a word W goes to W read backwards, and W·theta to the
    backwards W read under the reversed theta.
    """
    hw = machine.hardware
    return SMachine(
        hardware=Hardware(hw.parts[::-1], hw.sector_alphabets[::-1]),
        positive_rules=tuple(
            Rule(
                r.label,
                tuple(RulePart(p.src, p.b[::-1], p.dst, p.a[::-1]) for p in reversed(r.parts)),
                r.domains[::-1],
                tag=r.tag,
            )
            for r in machine.positive_rules
        ),
        start_letters=machine.start_letters[::-1],
        end_letters=machine.end_letters[::-1],
        input_sector=hw.n_sectors - 1 - machine.input_sector,
        name=machine.name,
    )


class Host(NamedTuple):
    """Where a sweep's middle part P runs inside a larger machine."""

    part: int  # the host part that plays P
    left: int  # the host sectors left and right of it
    right: int
    letters: Mapping[str, str]  # sweep tape letter -> host tape letter


def place(
    sweep: SMachine, hosts: Sequence[Host]
) -> list[tuple[Rule, dict[int, tuple[Word, Word]], dict[int, frozenset[str]]]]:
    """Each positive rule of ``sweep`` (base q1 P q2) with the inserts and
    domains it has where every host plays P: a host part takes P's
    inserts and its two sectors the domains beside P, in host letters.
    The caller names the rule and its state letters."""
    out = []
    for r in sweep.positive_rules:
        p = r.parts[1]
        ins, doms = {}, {}
        for h in hosts:
            ins[h.part] = tuple(tuple(YLetter(h.letters[y.name], y.sign) for y in w) for w in (p.a, p.b))
            for sector, dom in zip((h.left, h.right), r.domains):
                doms[sector] = frozenset(h.letters[y] for y in dom)
        out.append((r, ins, doms))
    return out


def build_lr(alphabet: Sequence[str]) -> SMachine:
    """Left-then-right sweep machine over ``alphabet``.

    Positive rules per letter a: z1_a (p1 -> a^-1 p1 a'), the turn z12
    locking the left sector, and z2_a (p2 -> a p2 a'^-1).
    """
    return _renamed(build_lr_m(alphabet, 1, lambda i, a: "z12" if a is None else f"z{i}_{a}"), "LR", "lr", {})


def build_rl(alphabet: Sequence[str]) -> SMachine:
    """Mirror of LR: content in the right sector, run right then left."""
    lr = build_lr_m(alphabet, 1, lambda i, a: "x12" if a is None else f"x{i}_{a}", lambda i: f"r{i}")
    return _renamed(read_right_to_left(lr), "RL", "rl", {"q1": "q2", "q2": "q1"})


def build_lr_m(
    alphabet: Sequence[str], m: int, label: Label = lrm_label, phase: Callable[[int], str] = lambda i: f"p{i}"
) -> SMachine:
    """Back-and-forth sweep repeated m times; P carries the phase letters
    ``phase(1..2m)``.

    Odd phases move left (consume the left sector), even phases move
    right.  Turning rules ``label(i, None)`` (i = 1..2m-1) bump the phase:
    odd turns lock the left sector, even turns lock the right one.
    """
    if m < 1:
        raise InvalidM(f"m must be >= 1, got {m}")
    ys = tuple(alphabet)
    ysp = tuple(primed(a) for a in ys)
    if not ys or "" in ys or len({*ys, *ysp}) < 2 * len(ys):
        raise InvalidAlphabet(
            f"alphabet {','.join(ys)!r}: need distinct nonempty letters, none another's primed copy"
        )
    both = frozenset(ys) | frozenset(ysp)
    p_letters = tuple(phase(i) for i in range(1, 2 * m + 1))
    hw = Hardware(
        parts=(("q1",), p_letters, ("q2",)),
        sector_alphabets=(both, both),
    )
    plain, prim = frozenset(ys), frozenset(ysp)
    rules = []
    for i, p in enumerate(p_letters, 1):
        for a in ys:
            if i % 2 == 1:
                mid = RulePart(p, (YLetter(a, -1),), p, (YLetter(primed(a), 1),))
            else:
                mid = RulePart(p, (YLetter(a, 1),), p, (YLetter(primed(a), -1),))
            rules.append(
                Rule(
                    label(i, a),
                    (RulePart("q1", (), "q1", ()), mid, RulePart("q2", (), "q2", ())),
                    (plain, prim),
                    tag="lrm",
                )
            )
        if i < 2 * m:
            rules.append(
                Rule(
                    label(i, None),
                    (
                        RulePart("q1", (), "q1", ()),
                        RulePart(p, (), p_letters[i], ()),
                        RulePart("q2", (), "q2", ()),
                    ),
                    (frozenset(), prim) if i % 2 == 1 else (plain, frozenset()),
                    tag="lrm",
                )
            )
    return SMachine(
        hardware=hw,
        positive_rules=tuple(rules),
        start_letters=("q1", p_letters[0], "q2"),
        end_letters=("q1", p_letters[-1], "q2"),
        input_sector=0,
        name="LRm",
    )


def sweep_run(content: Sequence[str], m: int, label: Label = lrm_label) -> History:
    """LRm's run from q1 <content> p1 q2 to q1 <content> p2m q2, in the
    rule names ``label`` gives: odd phases read the content right to left,
    even ones left to right."""
    run: list[tuple[str, int]] = []
    for i in range(1, 2 * m + 1):
        run += [(label(i, a), 1) for a in (content[::-1] if i % 2 == 1 else content)]
        if i < 2 * m:
            run.append((label(i, None), 1))
    return tuple(run)
