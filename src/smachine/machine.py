"""S-machine hardware, rules, rule application, computations, histories.

A rule is a tuple of per-part substitutions ``q_i -> a_i q_i' b_i``
together with one domain alphabet per sector; an empty domain locks the
sector.  Every rule stores only its positive form; the machine exposes
the symmetric closure.

Applying a rule works from a ``Move``, the rule compiled once for each
tuple of state letters it meets: the new state letters, each tape's
sector and domain, and the freely reduced inserts of the tapes that get
any.  A new tape word is the old one with those inserts joined on, and
since all three are reduced it is freely reduced at its two ends only;
every other tape is shared.  The machine caches, per tuple of state
letters, the moves of the rules whose sources match all of them, and
answers a lookup with the same tuple object as the last one without
hashing it again.  The domain check visits the non-empty tapes only.
``is_applicable`` hands the move it has just checked to ``apply_rule``:
given the same word and rule objects next, ``apply_rule`` builds the
word from that move without looking the state tuple up or checking the
domain again, so each rule tried looks the state tuple up once more
after ``successors``' own lookup, not twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

from .words import (
    AdmissibleWord, MalformedWord, QLetter, Word, YLetter, invert_word, junction_join, parse_signed, reduce_word,
    signed,
)


class NotApplicable(Exception):
    """The word is outside the rule's domain."""


class NotApplicableAt(Exception):
    """A history failed at step ``index`` (0-based)."""

    def __init__(self, index: int, label: str, message: str = ""):
        self.index = index
        self.label = label
        super().__init__(f"rule {label} not applicable at step {index}" + (f": {message}" if message else ""))


class UntaggedRule(Exception):
    """step_history needs every rule to carry a set tag."""


class UnknownRule(Exception):
    pass


class BadParameters(ValueError):
    """An argument that a builder or an experiment rejects."""


# A signed rule label; histories are sequences of these.
SignedLabel = tuple[str, int]


def format_slabel(s: SignedLabel) -> str:
    return signed(*s)


History = tuple[SignedLabel, ...]


def history(*tokens: str) -> History:
    return tuple(parse_signed(t) for t in tokens)


def invert_history(h: History) -> History:
    return tuple((lbl, -sg) for lbl, sg in reversed(h))


def is_eligible(h: History, allowed: str | None = None) -> bool:
    """True iff no adjacent inverse pair, except ``allowed``·``allowed``^-1.

    Only the positive-then-negative order of the special label passes;
    the reversed order is rejected.
    """
    for a, b in zip(h, h[1:]):
        if a[0] == b[0] and a[1] == -b[1]:
            if allowed is not None and a == (allowed, 1) and b == (allowed, -1):
                continue
            return False
    return True


@dataclass(frozen=True)
class Hardware:
    """Ordered parts of state letters plus per-sector tape alphabets.

    For a machine with P parts there are P-1 sectors (P when circular);
    sector i sits between part i and part i+1 (mod P when circular).
    """

    parts: tuple[tuple[str, ...], ...]
    sector_alphabets: tuple[frozenset[str], ...]
    circular: bool = False

    def __post_init__(self) -> None:
        expect = len(self.parts) if self.circular else len(self.parts) - 1
        if len(self.sector_alphabets) != expect:
            raise ValueError(
                f"{len(self.parts)} parts need {expect} sectors, got {len(self.sector_alphabets)}"
            )
        seen: set[str] = set()
        for p in self.parts:
            for name in p:
                if name in seen:
                    raise ValueError(f"state letter {name} appears in two parts")
                seen.add(name)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    @property
    def n_sectors(self) -> int:
        return len(self.sector_alphabets)

    @cached_property
    def _part_index(self) -> dict[str, int]:
        return {n: i for i, p in enumerate(self.parts) for n in p}

    @cached_property
    def flanks(self) -> tuple[tuple[int | None, int | None], ...]:
        """The (left, right) sector of each part, None past a word end."""
        n = self.n_parts
        if self.circular:
            return tuple(((i - 1) % n, i) for i in range(n))
        return tuple((i - 1 if i > 0 else None, i if i < n - 1 else None) for i in range(n))

    def right_sector(self, x: QLetter) -> int | None:
        """Sector index to the right of a signed state letter, None at a word end."""
        return self.flanks[x.part][x.sign > 0]  # an inverse letter reads its part backwards

    def left_sector(self, x: QLetter) -> int | None:
        return self.flanks[x.part][x.sign < 0]

    def validate(self, w: AdmissibleWord) -> None:
        """Check the two adjacency conditions and sector alphabets."""
        for x in w.q:
            if not 0 <= x.part < self.n_parts:
                raise MalformedWord(f"part {x.part} out of range")
            if x.name not in self.parts[x.part]:
                raise MalformedWord(f"{x.name} is not a letter of part {x.part}")
        for a, b, u in zip(w.q, w.q[1:], w.u):
            sec = self.right_sector(a)
            if a.part == b.part:
                # only x followed by its own inverse is allowed within a part
                legal = a.name == b.name and a.sign == -b.sign
            else:
                legal = sec == self.left_sector(b)
            # a tape beside no sector (x·u·x^-1 at a linear word end) is illegal too
            if sec is None or not legal:
                raise MalformedWord(f"illegal adjacency {a} {b}")
            alpha = self.sector_alphabets[sec]
            for y in u:
                if y.name not in alpha:
                    raise MalformedWord(
                        f"tape letter {y.name} not in alphabet of sector {sec}"
                    )

    def word(self, tokens: Sequence[str]) -> AdmissibleWord:
        """Assemble an admissible word from tokens like ``"q1"`` and
        ``"a^-1"`` (validated): a name in some part is a state letter,
        any other name a tape letter."""
        qs: list[QLetter] = []
        us: list[list[YLetter]] = []
        pidx = self._part_index
        for t in tokens:
            name, sign = parse_signed(t)
            if name in pidx:
                qs.append(QLetter(pidx[name], name, sign))
                us.append([])
            elif not qs:
                raise MalformedWord("word must start with a state letter")
            else:
                us[-1].append(YLetter(name, sign))
        if us and us[-1]:
            raise MalformedWord("word must end with a state letter")
        w = AdmissibleWord(tuple(qs), tuple(tuple(u) for u in us[:-1]))
        self.validate(w)
        return w


@dataclass(frozen=True)
class RulePart:
    src: str
    a: Word
    dst: str
    b: Word


@dataclass(frozen=True)
class Rule:
    """One substitution per part plus per-sector domain alphabets.

    ``sign=+1`` for positive rules; the inverse shares label and domains.
    ``tag`` names the rule family (machine set or transition).
    """

    label: str
    parts: tuple[RulePart, ...]
    domains: tuple[frozenset[str], ...]
    tag: str = ""
    sign: int = 1

    @cached_property
    def signed_label(self) -> SignedLabel:
        return (self.label, self.sign)

    def locks(self, sector: int) -> bool:
        return not self.domains[sector]

    def inv(self) -> "Rule":
        """theta^-1 = [q' -> a^-1 q b^-1, ...] with the same domains."""
        return Rule(
            self.label,
            tuple(
                RulePart(p.dst, invert_word(p.a), p.src, invert_word(p.b))
                for p in self.parts
            ),
            self.domains,
            self.tag,
            -self.sign,
        )

    def growth(self) -> int:
        """Max letters a single application can add: sum of |a_i|+|b_i|."""
        return sum(len(p.a) + len(p.b) for p in self.parts)


def invert_rule(rule: Rule) -> Rule:
    return rule.inv()


class Move(NamedTuple):
    """A rule compiled for one tuple of state letters: the new state
    letters, each tape's (sector, domain), and the (tape index, left
    insert, right insert) joins of the tapes that get inserts, each
    insert freely reduced."""

    rule: Rule
    q: tuple[QLetter, ...]
    tapes: tuple[tuple[int | None, frozenset[str]], ...]
    joins: tuple[tuple[int, Word, Word], ...]


@dataclass(frozen=True)
class SMachine:
    """Hardware plus a rule set closed under inversion.

    Only positive rules are stored; ``rules`` is the closure in the one
    deterministic order (label lexicographic, each positive rule before
    its inverse).  ``candidate_rules`` and ``rule`` read indexes built
    once from it.
    """

    hardware: Hardware
    positive_rules: tuple[Rule, ...]
    start_letters: tuple[str, ...] = ()
    end_letters: tuple[str, ...] = ()
    input_sector: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        hw = self.hardware
        seen: set[str] = set()
        for r in self.positive_rules:
            if r.sign != 1:
                raise ValueError(f"rule {r.label} stored with negative sign")
            if r.label in seen:
                raise ValueError(f"duplicate rule label {r.label}")
            seen.add(r.label)
            if len(r.parts) != hw.n_parts:
                raise ValueError(f"rule {r.label} has {len(r.parts)} parts, hardware has {hw.n_parts}")
            if len(r.domains) != hw.n_sectors:
                raise ValueError(f"rule {r.label} has {len(r.domains)} domains, hardware has {hw.n_sectors}")
            # every insert lies in the domain beside it, so none is beside a locked sector
            for i, (p, (left, right)) in enumerate(zip(r.parts, hw.flanks)):
                if p.src not in hw.parts[i] or p.dst not in hw.parts[i]:
                    raise ValueError(f"rule {r.label} part {i}: {p.src}->{p.dst} not in part")
                for side, w, sector in (("a", p.a, left), ("b", p.b, right)):
                    if sector is None:
                        if w:
                            raise ValueError(f"rule {r.label} part {i}: {side}-word beside no sector")
                        continue
                    bad = [y.name for y in w if y.name not in r.domains[sector]]
                    if bad:
                        raise ValueError(f"rule {r.label} part {i}: {side}-word letters {bad} outside domain")
            for i, dom in enumerate(r.domains):
                if not dom.issubset(hw.sector_alphabets[i]):
                    raise ValueError(f"rule {r.label}: domain {i} not within sector alphabet")

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(r for p in sorted(self.positive_rules, key=lambda r: r.label) for r in (p, p.inv()))

    @cached_property
    def _by_source(self) -> dict[tuple[int, str], tuple[Rule, ...]]:
        index: dict[tuple[int, str], list[Rule]] = {}
        for r in self.rules:
            for i, p in enumerate(r.parts):
                index.setdefault((i, p.src), []).append(r)
        return {key: tuple(rs) for key, rs in index.items()}

    @cached_property
    def _by_label(self) -> dict[SignedLabel, Rule]:
        return {r.signed_label: r for r in self.rules}

    def candidate_rules(self, x: QLetter) -> tuple[Rule, ...]:
        """Rules whose source letter at x's part matches x; sound prefilter."""
        return self._by_source.get((x.part, x.name), ())

    @cached_property
    def _moves(self) -> dict[tuple[QLetter, ...], dict[SignedLabel, Move]]:
        return {}

    # The latest (q, moves) pair moves_at returned, so that a repeated
    # lookup with the same tuple object skips hashing it: successors looks
    # a word's q up once, and each rule tried looks it up once more, in
    # is_applicable, whose checked move apply_rule then reuses.  A class
    # attribute, not a field; the instance's copy is set through
    # object.__setattr__ and replaced as one tuple.
    _last_moves = (None, None)
    # The latest (word, rule, move) that passed is_applicable, read and
    # replaced as one tuple like _last_moves.  apply_rule reuses the move
    # for the same word and rule objects only: both are frozen, and the
    # strong references keep their ids from being reused.
    _last_passed = (None, None, None)

    def moves_at(self, q: tuple[QLetter, ...]) -> dict[SignedLabel, Move]:
        """The rules whose sources match every state letter of ``q``, each
        compiled for ``q``, by signed label in rule order; cached per ``q``."""
        last = self._last_moves
        if last[0] is q:
            return last[1]
        try:
            moves = self._moves[q]
        except KeyError:
            compiled = (_compile(self, q, r) for r in self.candidate_rules(q[0]))
            moves = self._moves[q] = {m.rule.signed_label: m for m in compiled if not isinstance(m, str)}
        object.__setattr__(self, "_last_moves", (q, moves))
        return moves

    def rule(self, token: str | SignedLabel) -> Rule:
        lbl, sg = parse_signed(token) if isinstance(token, str) else token
        try:
            return self._by_label[(lbl, sg)]
        except KeyError:
            raise UnknownRule(f"no rule {format_slabel((lbl, sg))} in machine {self.name}")

    def tags(self) -> dict[str, str]:
        return {r.label: r.tag for r in self.positive_rules}

    # -- configurations -------------------------------------------------

    def standard_base_word(self, letters: Sequence[str], tape: Mapping[int, Word] | None = None) -> AdmissibleWord:
        """Configuration with one positive letter per part, in part order."""
        hw = self.hardware
        qs = [QLetter(i, letters[i], 1) for i in range(hw.n_parts)]
        us: list[Word] = []
        tape = tape or {}
        for i in range(hw.n_parts - 1):
            us.append(tuple(tape.get(i, ())))
        w = AdmissibleWord(tuple(qs), tuple(us))
        hw.validate(w)
        return w

    def start_configuration(self) -> AdmissibleWord:
        return self.standard_base_word(self.start_letters)

    def end_configuration(self) -> AdmissibleWord:
        return self.standard_base_word(self.end_letters)


# --------------------------------------------------------------------------
# rule application


def inserts(rule: Rule, x: QLetter) -> tuple[Word, Word]:
    """The tape words ``rule`` puts left and right of state letter ``x``,
    as written in the rule."""
    p = rule.parts[x.part]
    if x.sign > 0:
        return p.a, p.b
    return invert_word(p.b), invert_word(p.a)


def _compile(machine: SMachine, q: tuple[QLetter, ...], rule: Rule) -> Move | str:
    """``rule``'s move at the state letters ``q``, or why their sources differ."""
    qs, sides = [], []
    for x in q:
        p = rule.parts[x.part]
        if p.src != x.name:
            return f"state letter {x} does not match rule {rule.label}"
        qs.append(x if p.dst == x.name else QLetter(x.part, p.dst, x.sign))
        sides.append(tuple(map(reduce_word, inserts(rule, x))) if p.a or p.b else ((), ()))
    # a word built without ``validate`` may have no sector right of a letter
    secs = map(machine.hardware.right_sector, q[:-1])
    tapes = tuple((sec, rule.domains[sec] if sec is not None else frozenset()) for sec in secs)
    joins = tuple((i, x[1], y[0]) for i, (x, y) in enumerate(zip(sides, sides[1:])) if x[1] or y[0])
    return Move(rule, tuple(qs), tapes, joins)


def _move(machine: SMachine, w: AdmissibleWord, rule: Rule) -> Move | str:
    """``rule``'s move at ``w``, or why it does not apply.  The cached move
    serves only the rule it was compiled from; any other is compiled
    here and not kept."""
    m = machine.moves_at(w.q).get(rule.signed_label)
    if m is None or not (m.rule is rule or m.rule == rule):
        m = _compile(machine, w.q, rule)
        if isinstance(m, str):
            return m
    # the domain check, over the non-empty tapes only
    for (sec, dom), u in compress(zip(m.tapes, w.u), w.u):
        for name, _ in u:
            if name not in dom:
                return f"letter {name} in sector {sec} outside domain of {rule.label}"
    return m


def is_applicable(machine: SMachine, w: AdmissibleWord, rule: Rule) -> bool:
    m = _move(machine, w, rule)
    if isinstance(m, str):
        return False
    object.__setattr__(machine, "_last_passed", (w, rule, m))
    return True


def apply_rule(machine: SMachine, w: AdmissibleWord, rule: Rule) -> AdmissibleWord:
    """W·theta from the rule's move at ``w``'s state letters: each tape
    that gets inserts is joined to them and freely reduced at its two
    ends, and every other tape is shared; the inserts outside the end
    letters are never added.

    State letters never cancel, so this is the free reduction of the
    whole substituted word with its end tape letters trimmed.  The move
    ``is_applicable`` just checked for these word and rule objects is
    reused; any other call checks its own.
    """
    last_w, last_rule, m = machine._last_passed
    if last_w is not w or last_rule is not rule:
        m = _move(machine, w, rule)
        if isinstance(m, str):
            raise NotApplicable(m)
    u = list(w.u)
    for i, left, right in m.joins:
        u[i] = junction_join(left, u[i], right)
    return AdmissibleWord(m.q, tuple(u))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Computation:
    """One step of a computation: ``end`` is ``parent.end·last``, and the
    start has neither.  A computation is the chain of its steps, which
    ``steps()`` walks once; ``extra`` is the per-path value of a level
    sweep or an enumeration.  Records compare by identity."""

    end: AdmissibleWord
    last: SignedLabel | None = None
    parent: Computation | None = None
    extra: object = None

    def steps(self) -> list[Computation]:
        """The records from the start to this one."""
        node, out = self, []
        while node is not None:
            out.append(node)
            node = node.parent
        return out[::-1]

    @property
    def start(self) -> AdmissibleWord:
        return self.steps()[0].end

    @property
    def history(self) -> History:
        return tuple(s.last for s in self.steps()[1:])

    @property
    def trace(self) -> tuple[AdmissibleWord, ...]:
        """trace[k+1] = trace[k]·theta_{k+1}; trace[0] = start."""
        return tuple(s.end for s in self.steps())

    def __len__(self) -> int:
        return len(self.steps()) - 1


def run_history(machine: SMachine, w: AdmissibleWord, h: History | Iterable[str]) -> Computation:
    """Run a history; raises NotApplicableAt(k) at the first failure."""
    comp = Computation(w)
    for k, token in enumerate(h):
        rule = machine.rule(token)
        try:
            comp = Computation(apply_rule(machine, comp.end, rule), rule.signed_label, comp)
        except NotApplicable as e:
            raise NotApplicableAt(k, format_slabel(rule.signed_label), str(e)) from e
    return comp


def step_history(h: History, machine: SMachine) -> tuple[str, ...]:
    """Collapse maximal same-set runs; transitions become two-digit symbols.

    Rules tagged ``setK`` collapse to ``(K)``; a rule tagged ``trXY``
    yields ``(XY)`` when positive and ``(YX)`` when negative.
    """
    tags = machine.tags()
    out: list[str] = []
    for lbl, sg in h:
        if lbl not in tags:
            raise UnknownRule(lbl)
        tag = tags[lbl]
        if not tag:
            raise UntaggedRule(lbl)
        if tag.startswith("tr"):
            code = tag[2:]
            sym = f"({code})" if sg > 0 else f"({code[::-1]})"
            out.append(sym)
        elif tag.startswith("set"):
            sym = f"({tag[3:]})"
            if not out or out[-1] != sym:
                out.append(sym)
        else:
            raise UntaggedRule(f"{lbl}: unrecognized tag {tag}")
    return tuple(out)
