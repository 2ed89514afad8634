"""Permissible words, theta-bands, trapezia, and disk words.

A permissible word is an admissible word with superscripts that are
locally constant except at junctions with the distinguished circular
part, where they bump by one.  A trapezium is a stack of band records,
each realizing one rule application; every cell boundary is literally a
relator of the compiled presentation, which the harness verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumerate import search
from .machine import (
    Computation,
    History,
    Rule,
    SMachine,
    apply_rule,
    format_slabel,
    inserts,
    is_eligible,
)
from .main_machine import THETA_23, MainMachineBundle, sup_sides
from .presentation import GWord, RelatorFactory, factory_for
from .words import AdmissibleWord, MalformedWord, QLetter, Word, reduce_word, signed


class SuperscriptRequired(Exception):
    pass


class SuperscriptForbidden(Exception):
    pass


class IneligibleHistory(Exception):
    pass


class EmptyHistory(Exception):
    pass


class WitnessInvalid(Exception):
    pass


@dataclass(frozen=True)
class PermissibleWord:
    """An admissible word plus per-letter superscripts (None = plain)."""

    word: AdmissibleWord
    q_sups: tuple[int | None, ...]
    u_sups: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        shape = tuple(len(u) for u in self.word.u)
        if len(self.q_sups) != len(self.word.q) or tuple(len(s) for s in self.u_sups) != shape:
            raise MalformedWord(f"superscripts do not fit the letters of {self.word}")

    def erase(self) -> AdmissibleWord:
        return self.word

    @property
    def plain(self) -> bool:
        return all(s is None for s in self.q_sups)

    def __str__(self) -> str:
        toks = []
        for i, x in enumerate(self.word.q):
            s = self.q_sups[i]
            toks.append(str(x) if s is None else signed(f"{x.name}^({s})", x.sign))
            if i < len(self.word.u):
                for y, ys in zip(self.word.u[i], self.u_sups[i]):
                    toks.append(str(y) if ys is None else signed(f"{y.name}^({ys})", y.sign))
        return " ".join(toks)


def plain_lift(w: AdmissibleWord) -> PermissibleWord:
    """``w`` with no superscript on any letter."""
    return PermissibleWord(w, (None,) * len(w.q), tuple((None,) * len(u) for u in w.u))


def lift_kind(rule: Rule) -> str:
    """'sup' when the lift of a word ``rule`` applies to carries
    superscripts (its source side does), 'plain' when it must not."""
    return "sup" if sup_sides(rule)[0] else "plain"


def make_permissible(
    machine: SMachine,
    v: AdmissibleWord,
    rule: Rule,
    first_sup: int | None,
    modulus: int,
) -> PermissibleWord:
    """The unique permissible lift of a rule-admissible word.

    Rules of the early sets need a superscript for the first letter; the
    later sets forbid one (the lift is the word itself).  Superscripts
    propagate unchanged except across junctions with the circular part,
    where they bump by one (mod ``modulus``).
    """
    kind = lift_kind(rule)
    if kind == "plain":
        if first_sup is not None:
            raise SuperscriptForbidden(
                f"rule {format_slabel(rule.signed_label)} admits only the plain lift"
            )
        return plain_lift(v)
    if first_sup is None:
        raise SuperscriptRequired(
            f"rule {format_slabel(rule.signed_label)} needs a first-letter superscript"
        )
    n_last = machine.hardware.n_parts - 1

    def norm(s: int) -> int:
        return (s - 1) % modulus + 1

    q_sups: list[int] = [norm(first_sup)]
    for prev, nxt in zip(v.q, v.q[1:]):
        s = q_sups[-1]
        if prev.part == n_last and prev.sign > 0 and nxt.part == 0 and nxt.sign > 0:
            s += 1
        elif prev.part == 0 and prev.sign < 0 and nxt.part == n_last and nxt.sign < 0:
            s -= 1
        q_sups.append(norm(s))
    u_sups = tuple(tuple(q_sups[i] for _ in u) for i, u in enumerate(v.u))
    return PermissibleWord(v, tuple(q_sups), u_sups)


@dataclass(frozen=True)
class ThetaBandRecord:
    """One rule application as a band: trimmed bottom/top labels and cells."""

    rule_label: tuple[str, int]
    bottom: PermissibleWord
    top: PermissibleWord
    cells: tuple[GWord, ...]

    def area(self) -> int:
        return len(self.cells)


def _surviving(left: Word, u: Word, right: Word) -> tuple[int, ...]:
    """Indices of letters of ``u`` surviving reduction of left·u·right.

    Each letter is tagged (name, sign, index in ``u`` or None), which
    ``reduce_word`` carries along as it compares name and sign only.
    """
    tagged = [(*y, None) for y in left] + [(*y, i) for i, y in enumerate(u)] + [(*y, None) for y in right]
    return tuple(i for _, _, i in reduce_word(tagged) if i is not None)


def make_band(
    machine: SMachine,
    fac: RelatorFactory,
    bottom: PermissibleWord,
    rule: Rule,
    top_sup: int | None = None,
) -> ThetaBandRecord:
    """Apply a rule to a permissible bottom, producing band and cells.

    ``top_sup`` picks the lift level when the rule enters the
    superscripted phase (the inverse of the 2-to-3 transition).  The
    cells take the superscripts of the superscripted side.
    """
    w = bottom.word
    w2 = apply_rule(machine, w, rule)
    inv = machine.rule((rule.label, -rule.sign))
    pos = rule if rule.sign > 0 else inv
    # the top is the inverse rule's bottom: lifted as that rule requires,
    # at the bottom's level unless the band enters the superscripted phase
    bottom_sup, top_is_sup = sup_sides(rule)
    level = None
    if top_is_sup:
        level = bottom.q_sups[0] if bottom_sup else top_sup
    top = make_permissible(machine, w2, inv, level, modulus=fac.L)
    sups = (bottom if bottom_sup else top).q_sups

    cells = [fac.theta_q_relator(pos, x.part, sups[i]).word for i, x in enumerate(w.q)]
    hw = machine.hardware
    for i, u in enumerate(w.u):
        if not u:
            continue
        x, y = w.q[i], w.q[i + 1]
        sec = hw.right_sector(x)
        assert sec is not None
        for j in _surviving(inserts(rule, x)[1], u, inserts(rule, y)[0]):
            cells.append(fac.theta_a_relator(pos, sec, u[j].name, sups[i]).word)
    return ThetaBandRecord(rule.signed_label, bottom, top, tuple(cells))


@dataclass(frozen=True)
class Trapezium:
    bands: tuple[ThetaBandRecord, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.bands, self.bands[1:]):
            if a.top != b.bottom:
                raise WitnessInvalid("band labels do not stack")

    @property
    def height(self) -> int:
        return len(self.bands)

    @property
    def bottom(self) -> PermissibleWord:
        return self.bands[0].bottom

    @property
    def top(self) -> PermissibleWord:
        return self.bands[-1].top

    def dump(self) -> str:
        lines = []
        for b in self.bands:
            lines.append(
                f"band {format_slabel(b.rule_label)} | bottom: {b.bottom} | top: {b.top}"
            )
        return "\n".join(lines) + "\n"


def trapezium_area(t: Trapezium) -> int:
    return sum(b.area() for b in t.bands)


def computation_to_trapezium(
    bundle: MainMachineBundle,
    comp: Computation,
    first_sup: int | None = None,
) -> Trapezium:
    """Realize an eligible computation as a stack of theta-bands.

    ``first_sup`` lifts the bottom when the first rule is in the
    superscripted family; each inverse 2-to-3 transition re-enters it at
    the previous level plus one, which keeps adjacent mirror bands
    distinct.
    """
    machine = bundle.machine
    fac = factory_for(bundle)
    if not comp.history:
        raise EmptyHistory("a trapezium needs at least one band")
    if not is_eligible(comp.history, allowed=THETA_23):
        raise IneligibleHistory(" ".join(format_slabel(s) for s in comp.history))
    first_rule = machine.rule(comp.history[0])
    bottom = make_permissible(machine, comp.start, first_rule, first_sup, modulus=bundle.L)
    bands: list[ThetaBandRecord] = []
    level = first_sup
    for sl in comp.history:
        rule = machine.rule(sl)
        top_sup = None
        if sup_sides(rule) == (False, True):  # the band enters the superscripted phase
            top_sup = (level % bundle.L) + 1 if level is not None else 1
            level = top_sup
        # No band mirrors the one before it: an eligible history's only
        # adjacent inverse pair is theta(23)·theta(23)^-1, and the second
        # band's top (level % L + 1) differs from the first band's bottom
        # (level) mod L, as build_main_machine requires L >= 8.
        bands.append(make_band(machine, fac, bottom, rule, top_sup=top_sup))
        bottom = bands[-1].top
        if bottom.q_sups[0] is not None:
            level = bottom.q_sups[0]
    return Trapezium(tuple(bands))


# --------------------------------------------------------------------------
# disk words


@dataclass(frozen=True)
class DiskVerdict:
    verdict: str  # "yes" | "no" | "unknown"
    witness: History | None = None
    direction: str | None = None  # "accepting" | "from-start"
    budget_exhausted: bool = False


def is_disk_word(
    v: PermissibleWord, bundle: MainMachineBundle, budget: int = 10_000
) -> DiskVerdict:
    """Does the erasure factor as the L-th power of an accessible word?

    The power test is exact; accessibility is certified by two bounded
    one-directional searches (base to the accept word, then the start
    word to base), so "unknown" is a possible verdict.
    """
    w = v.erase()
    n, rem = divmod(len(w.q), bundle.L)
    if rem:
        return DiskVerdict("no")
    base = AdmissibleWord(w.q[:n], w.u[: n - 1])
    # W_st's letter pattern first: on it, power_word cannot raise
    if base.base != bundle.w_st.base or power_word(base, bundle.L) != w:
        return DiskVerdict("no")
    machine = bundle.machine
    wit, exhausted1 = search(machine, base, [bundle.w_ac], budget)
    if wit is not None:
        return DiskVerdict("yes", wit, "accepting")
    wit, exhausted2 = search(machine, bundle.s1(), [base], budget)
    if wit is not None:
        return DiskVerdict("yes", wit, "from-start")
    if exhausted1 or exhausted2:
        return DiskVerdict("unknown", budget_exhausted=True)
    return DiskVerdict("no")


def power_word(w: AdmissibleWord, L: int) -> AdmissibleWord:
    """W^L for a configuration (used to build disk boundaries)."""
    qs: list[QLetter] = []
    us: list[Word] = []
    for i in range(L):
        qs.extend(w.q)
        us.extend(w.u)
        if i < L - 1:
            us.append(())
    return AdmissibleWord(tuple(qs), tuple(us))


def disk_diagram_cells(
    w: AdmissibleWord, comp: Computation, bundle: MainMachineBundle
) -> int:
    """Cells of the disk with boundary W^L: one hub plus L trapezia."""
    if comp.start != w and comp.end != w:
        raise WitnessInvalid("computation does not involve the given word")
    is_accepting = comp.start == w and comp.end == bundle.w_ac
    is_access = comp.end == w and comp.start in (bundle.s1(), bundle.w_st)
    if not (is_accepting or is_access):
        raise WitnessInvalid("computation is not an accessibility witness")
    if len(comp) == 0:
        return 1
    trap = computation_to_trapezium(bundle, comp, first_sup=_needs_sup(bundle, comp))
    return 1 + bundle.L * trapezium_area(trap)


def _needs_sup(bundle: MainMachineBundle, comp: Computation) -> int | None:
    rule = bundle.machine.rule(comp.history[0])
    return 1 if lift_kind(rule) == "sup" else None
