"""Compile machines into group presentations.

Generator inventory: state letters occurring in the first two rule sets
(and the sources of the 2-to-3 transition) exist in L superscripted
copies; all other state letters are plain.  Every tape letter exists
plain and in L copies.  Each positive rule theta contributes N relation
letters theta_1..theta_N (superscripted L-fold for the early sets), with
the aliasing theta_0^(i) = theta_N^(i-1) closing the cycle at the t
part, so exactly the (theta,t)-relators bridge superscript levels.

Relators are stored cyclically reduced in their lexicographically least
rotation.  Compiling twice yields identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from .machine import BadParameters, Rule, SMachine
from .main_machine import MainMachineBundle, sup_sides
from .serialize import FormatError, Lines, format_names, names
from .words import AdmissibleWord, Word, parse_signed, reduce_word, signed


class SuperscriptMismatch(Exception):
    pass


class UnknownGenerator(Exception):
    pass


class QLetterPresent(Exception):
    pass


class Generator(NamedTuple):
    """kind 'q' | 'a' | 'th' | 'x'; idx is the 1..N relation-letter index."""

    kind: str
    name: str
    idx: int | None = None
    sup: int | None = None

    def display(self) -> str:
        base = self.name if self.idx is None else f"{self.name}_t{self.idx}"
        return base + (f"^({self.sup})" if self.sup is not None else "")


GLetter = tuple[Generator, int]
GWord = tuple[GLetter, ...]


def _sort_key(g: Generator):
    """The one generator order: exports list generators in it, and
    relators start at their least rotation under it."""
    return (g.kind, g.name, g.idx or 0, g.sup or 0)


def g_inv(w: GWord) -> GWord:
    return tuple((g, -s) for g, s in reversed(w))


def canonical_rotation(w: GWord) -> GWord:
    """Cyclically reduce, then pick the lexicographically least rotation."""
    w = reduce_word(w)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    if not w:
        return w
    keys = [(*_sort_key(g), s) for g, s in w]
    i = min(range(len(w)), key=lambda i: keys[i:] + keys[:i])
    return w[i:] + w[:i]


@dataclass(frozen=True)
class Relator:
    word: GWord
    tag: str  # theta-q | theta-a | hub | hnn
    rule: str | None = None
    part: int | None = None
    sector: int | None = None
    sup: int | None = None


@dataclass(frozen=True)
class Presentation:
    name: str
    L: int
    N: int
    generators: frozenset[Generator]
    relators: tuple[Relator, ...]
    t_letters: frozenset[str]

    def __post_init__(self) -> None:
        for r in self.relators:
            for g, _ in r.word:
                if g not in self.generators:
                    raise UnknownGenerator(f"{g.display()} in relator but not declared")

    @cached_property
    def relator_set(self) -> frozenset[GWord]:
        return frozenset(r.word for r in self.relators)

    @cached_property
    def _canonical_relators(self) -> frozenset[GWord]:
        """Every relator in canonical rotation: a parsed file keeps its
        relators as written, which need not be."""
        return frozenset(canonical_rotation(r.word) for r in self.relators)

    def has_relator(self, word: GWord) -> bool:
        """Membership up to rotation, inversion, and free/cyclic reduction;
        a stored relator is answered by one lookup."""
        if word in self.relator_set:
            return True
        canon = self._canonical_relators
        return canonical_rotation(word) in canon or canonical_rotation(g_inv(word)) in canon

    def with_relators(self, extra: Iterable[Relator], name: str) -> "Presentation":
        extra = tuple(extra)
        gens = set(self.generators)
        for r in extra:
            for g, _ in r.word:
                gens.add(g)
        return Presentation(
            name,
            self.L,
            self.N,
            frozenset(gens),
            self.relators + extra,
            self.t_letters,
        )


# --------------------------------------------------------------------------
# the compiler


@dataclass(frozen=True)
class RelatorFactory:
    """Builds single relator instances; shared by the compiler and trapezia.

    Each relator is built once and kept in a table keyed by (kind, rule
    label, sign, part or sector, letter, superscript), so one factory
    serves the rules of one machine (and of its trimmed machine): use
    ``factory_for``, which keeps one factory per bundle.  The table is
    not part of the factory's value.
    """

    N: int
    L: int
    supped: frozenset[str]  # state letters owning L superscripted copies
    _table: dict[tuple, Relator] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def q_gen(self, name: str, sup: int | None) -> Generator:
        if (sup is not None) != (name in self.supped):
            raise SuperscriptMismatch(
                f"state letter {name} {'lacks' if name in self.supped else 'has no'} superscript copies"
            )
        return Generator("q", name, None, sup)

    def a_gen(self, name: str, sup: int | None) -> Generator:
        return Generator("a", name, None, sup)

    def theta(self, rule: Rule, idx: int, sup: int | None) -> Generator:
        return Generator("th", rule.label, idx, sup)

    def _left_theta(self, rule: Rule, j: int, sup: int | None) -> Generator:
        if j == 0:
            prev = None if sup is None else (sup - 2) % self.L + 1
            return self.theta(rule, self.N, prev)
        return self.theta(rule, j, sup)

    def _word_gens(self, w: Word, sup: int | None) -> GWord:
        return tuple((self.a_gen(y.name, sup), y.sign) for y in w)

    def theta_q_relator(self, rule: Rule, j: int, sup: int | None) -> Relator:
        """U_j theta_{j+1} V_j^-1 theta_j^-1 with the t-part aliasing."""
        key = ("q", rule.label, rule.sign, j, None, sup)
        rel = self._table.get(key)
        return rel if rel is not None else self._miss(key, rule, sup, self._build_theta_q, j)

    def theta_a_relator(self, rule: Rule, sector: int, letter: str, sup: int | None) -> Relator:
        """Commutation of theta_{sector+1} with a domain letter of that sector."""
        key = ("a", rule.label, rule.sign, sector, letter, sup)
        rel = self._table.get(key)
        return rel if rel is not None else self._miss(key, rule, sup, self._build_theta_a, sector, letter)

    def _miss(self, key: tuple, rule: Rule, sup: int | None, build, *at) -> Relator:
        """Check ``sup`` against the rule's superscripted sides, then build
        the relator with each side's superscript and keep it under ``key``."""
        src, dst = sup_sides(rule)
        if (sup is None) == (src or dst):
            raise SuperscriptMismatch(f"rule {rule.label} takes {'a' if src or dst else 'no'} superscript, sup={sup}")
        rel = self._table[key] = build(rule, *at, sup, sup if src else None, sup if dst else None)
        return rel

    def _build_theta_q(
        self, rule: Rule, j: int, sup: int | None, u_sup: int | None, v_sup: int | None
    ) -> Relator:
        p = rule.parts[j]
        u: GWord = ((self.q_gen(p.src, u_sup), 1),)
        v: GWord = (
            self._word_gens(p.a, v_sup)
            + ((self.q_gen(p.dst, v_sup), 1),)
            + self._word_gens(p.b, v_sup)
        )
        right = (self.theta(rule, j + 1, sup), 1)
        left = (self._left_theta(rule, j, sup), -1)
        word = canonical_rotation(u + (right,) + g_inv(v) + (left,))
        return Relator(word, "theta-q", rule.label, part=j, sup=sup)

    def _build_theta_a(
        self, rule: Rule, sector: int, letter: str, sup: int | None, u_sup: int | None, v_sup: int | None
    ) -> Relator:
        th = self.theta(rule, sector + 1, sup)
        x, y = self.a_gen(letter, u_sup), self.a_gen(letter, v_sup)
        # x theta = theta y: written x theta y^-1 theta^-1 where the sides differ
        # (theta(23), superscripts erased on the right), else as [theta, x]
        word: GWord = ((x, 1), (th, 1), (y, -1), (th, -1)) if x != y else ((th, 1), (x, 1), (th, -1), (x, -1))
        return Relator(canonical_rotation(word), "theta-a", rule.label, sector=sector, sup=sup)


def _supped_letters(machine: SMachine) -> frozenset[str]:
    """The state letters on a superscripted side of some rule of ``machine``."""
    return frozenset(
        q for r in machine.positive_rules for p in r.parts for q, s in zip((p.src, p.dst), sup_sides(r)) if s
    )


def factory_for(bundle: MainMachineBundle) -> RelatorFactory:
    """The bundle's one relator factory: G, its trimmed and HNN
    presentations and every band cell read the same table, which the
    bundle frees with itself."""
    fac = bundle.derived.get("relator_factory")
    if fac is None:
        fac = bundle.derived["relator_factory"] = RelatorFactory(
            N=bundle.N, L=bundle.L, supped=_supped_letters(bundle.machine)
        )
    return fac


def _tape_letters(machine: SMachine) -> tuple[str, ...]:
    seen: set[str] = set()
    for alpha in machine.hardware.sector_alphabets:
        seen.update(alpha)
    return tuple(sorted(seen))


def _compile(name: str, machine: SMachine, fac: RelatorFactory) -> Presentation:
    """All rule relations of ``machine`` (no hubs); its t part is part 0.

    Tape letters get L superscripted copies iff some state letter does.
    """
    supped = _supped_letters(machine)
    sups_all = tuple(range(1, fac.L + 1))
    gens: set[Generator] = set()
    for part in machine.hardware.parts:
        for q in part:
            gens.update(Generator("q", q, None, s) for s in (sups_all if q in supped else (None,)))
    tape_sups = (None,) + sups_all if supped else (None,)
    for a in _tape_letters(machine):
        gens.update(Generator("a", a, None, s) for s in tape_sups)
    relators: list[Relator] = []
    for rule in machine.positive_rules:
        sups = sups_all if any(sup_sides(rule)) else (None,)
        gens.update(Generator("th", rule.label, idx, s) for idx in range(1, fac.N + 1) for s in sups)
        for sup in sups:
            for j in range(fac.N):
                relators.append(fac.theta_q_relator(rule, j, sup))
            for sector in range(machine.hardware.n_sectors):
                for letter in sorted(rule.domains[sector]):
                    relators.append(fac.theta_a_relator(rule, sector, letter, sup))
    return Presentation(
        name=name,
        L=fac.L,
        N=fac.N,
        generators=frozenset(gens),
        relators=tuple(relators),
        t_letters=frozenset(machine.hardware.parts[0]),
    )


def compile_group_M(bundle: MainMachineBundle) -> Presentation:
    """All rule relations of the main machine (no hubs)."""
    return _compile("M", bundle.machine, factory_for(bundle))


def word_to_gens(fac: RelatorFactory, w: AdmissibleWord, sup: int | None = None) -> GWord:
    """An admissible word as a generator word; ``sup`` lifts every letter."""
    out: list[GLetter] = []
    for i, x in enumerate(w.q):
        out.append((fac.q_gen(x.name, sup), x.sign))
        if i < len(w.u):
            for y in w.u[i]:
                out.append((fac.a_gen(y.name, sup), y.sign))
    return tuple(out)


def _hub_accept(fac: RelatorFactory, bundle: MainMachineBundle) -> Relator:
    """W_ac^L = 1."""
    word = word_to_gens(fac, bundle.w_ac) * bundle.L
    return Relator(canonical_rotation(word), "hub", rule="hub-accept")


def hub_relators(bundle: MainMachineBundle) -> tuple[Relator, Relator]:
    """W_st^(1)...W_st^(L) = 1 and W_ac^L = 1."""
    fac = factory_for(bundle)
    hub1: list[GLetter] = []
    for i in range(1, bundle.L + 1):
        hub1.extend(word_to_gens(fac, bundle.w_st, sup=i))
    return Relator(canonical_rotation(tuple(hub1)), "hub", rule="hub-start"), _hub_accept(fac, bundle)


def add_hub_relations(pres: Presentation, bundle: MainMachineBundle) -> Presentation:
    return pres.with_relators(hub_relators(bundle), name="G")


def compile_group_G(bundle: MainMachineBundle) -> Presentation:
    return add_hub_relations(compile_group_M(bundle), bundle)


def compile_trimmed(bundle: MainMachineBundle) -> tuple[Presentation, Presentation]:
    """Presentations of the trimmed machine group and its one-hub quotient."""
    fac = factory_for(bundle)
    p_mbar = _compile("Mbar", bundle.trimmed, fac)
    return p_mbar, p_mbar.with_relators([_hub_accept(fac, bundle)], name="Gbar")


def _hnn(pres: Presentation, bundle: MainMachineBundle, stable: str, w: AdmissibleWord, rule: str, name: str) -> Presentation:
    """Add a stable letter s and the relation s w s^-1 = W_ac."""
    fac = factory_for(bundle)
    s = Generator("x", stable)
    word = ((s, 1),) + word_to_gens(fac, w) + ((s, -1),) + g_inv(word_to_gens(fac, bundle.w_ac))
    return pres.with_relators([Relator(canonical_rotation(word), "hnn", rule=rule)], name=name)


def hnn_Gk(pres: Presentation, bundle: MainMachineBundle, k: int) -> Presentation:
    """Add a stable letter x and the relation x W(k,k) x^-1 = W_ac."""
    return _hnn(pres, bundle, "x", bundle.w_word(k, k), f"hnn-x-{k}", f"G_{k}")


def hnn_Gbar(pres: Presentation, bundle: MainMachineBundle) -> Presentation:
    """Add a stable letter y commuting with W_ac."""
    return _hnn(pres, bundle, "y", bundle.w_ac, "hnn-y", "Gbar-hnn")


# --------------------------------------------------------------------------
# homomorphisms


def mu(pres: Presentation, word: GWord) -> int:
    """Signed count of t-letters, mod L."""
    total = 0
    for g, s in word:
        if g not in pres.generators:
            raise UnknownGenerator(g.display())
        if g.kind == "q" and g.name in pres.t_letters:
            total += s
    return total % pres.L


def nu(word: GWord) -> GWord:
    """Delete tape letters, keep relation letters, freely reduce."""
    for g, _ in word:
        if g.kind == "q":
            raise QLetterPresent(g.display())
    return reduce_word(x for x in word if x[0].kind != "a")


# --------------------------------------------------------------------------
# export / parse


def _fmt_glet(x: GLetter) -> str:
    g, s = x
    return signed(g.display(), s)


def _gen_line(g: Generator) -> str:
    return f"{g.kind} {g.display()}"


def export(pres: Presentation, fmt: str = "plain") -> str:
    if fmt == "plain":
        return _export_plain(pres)
    if fmt == "gap-style":
        return _export_gap(pres)
    raise BadParameters(f"unknown format {fmt!r}")


def _export_plain(pres: Presentation) -> str:
    out = [f"PRESENTATION {pres.name}"]
    out.append(f"param L {pres.L}")
    out.append(f"param N {pres.N}")
    out.append(f"tletters {format_names(sorted(pres.t_letters))}")
    out.append("GENERATORS")
    for g in sorted(pres.generators, key=_sort_key):
        out.append(_gen_line(g))
    out.append("RELATORS")
    for r in pres.relators:
        out.append(f"{r.tag} : " + ".".join(_fmt_glet(x) for x in r.word))
    return "\n".join(out) + "\n"


def _parse_gen(kind: str, text: str) -> Generator:
    sup = None
    if text.endswith(")") and "^(" in text:
        text, _, sup_s = text.rpartition("^(")
        sup = int(sup_s[:-1])
    if kind == "th":
        name, _, idx_s = text.rpartition("_t")
        return Generator("th", name, int(idx_s), sup)
    return Generator(kind, text, None, sup)


def parse_presentation(text: str) -> Presentation:
    with Lines(text) as lines:
        name = lines.header("PRESENTATION")
        L = lines.header("param L", int)
        N = lines.header("param N", int)
        t_letters = frozenset(lines.header("tletters", names))
        lines.header("GENERATORS")
        gens: dict[str, Generator] = {}
        for ln in lines.section("RELATORS"):
            kind, disp = ln.split(None, 1)
            g = _parse_gen(kind, disp)
            gens[g.display()] = g
        relators: list[Relator] = []
        for ln in lines.section():
            tag, _, body = ln.partition(" :")
            toks = map(parse_signed, body[1:].split(".")) if body else ()
            relators.append(Relator(tuple([(gens[tok], sign) for tok, sign in toks]), tag))
        return Presentation(name, L, N, frozenset(gens.values()), tuple(relators), t_letters)


def _gap_name(g: Generator) -> str:
    s = g.display()
    for a, b in (("^(", "_c"), (")", ""), ("'", "p"), ("-", "_")):
        s = s.replace(a, b)
    return s


def _export_gap(pres: Presentation) -> str:
    gens = sorted(pres.generators, key=_sort_key)
    names = [_gap_name(g) for g in gens]
    first: dict[str, Generator] = {}
    for g, n in zip(gens, names):
        if first.setdefault(n, g) is not g:
            raise FormatError(f"generator name collision after sanitization: {first[n].display()} and {g.display()}")
    by_gen = dict(zip(gens, names))
    out = ["# free presentation, consumable by GAP-style systems"]
    quoted = ", ".join(f'"{n}"' for n in names)
    out.append(f"F := FreeGroup({quoted});;")
    for i, n in enumerate(names):
        out.append(f"{n} := F.{i+1};;")
    rel_strs = []
    for r in pres.relators:
        if not r.word:
            continue
        rel_strs.append("*".join(signed(by_gen[g], s) for g, s in r.word))
    out.append("rels := [")
    for rs in rel_strs:
        out.append(f"  {rs},")
    out.append("];;")
    out.append("G := F / rels;;")
    return "\n".join(out) + "\n"
