"""Machine compositions: history sectors, control letters, the 4m+1
stage concatenation, the mirror double, and the circular closure.

Letter naming is systematic so printed machines are diffable:
``_l``/``_r`` for the left/right copies made when history sectors are
added, ``cp{j}``/``cr{j}`` for control letters, ``_s{k}`` for stage
copies, ``_m`` for mirror copies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

from .lr import Host, Label, build_lr_m, place, primed, read_right_to_left, sweep_run
from .machine import BadParameters, Hardware, History, Rule, RulePart, SMachine
from .words import AdmissibleWord, Word, YLetter


# --------------------------------------------------------------------------
# history sectors


@dataclass(frozen=True)
class HistorySector:
    """One history sector: its flat index and the per-rule letter copies."""

    sector: int
    left_copy: Mapping[str, str]  # rule label -> X_{i,l} letter
    right_copy: Mapping[str, str]

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self.left_copy.values()) | frozenset(self.right_copy.values())

    @property
    def left_alphabet(self) -> frozenset[str]:
        return frozenset(self.left_copy.values())

    @property
    def right_alphabet(self) -> frozenset[str]:
        return frozenset(self.right_copy.values())


@dataclass(frozen=True)
class M2Build:
    machine: SMachine
    history: tuple[HistorySector, ...]
    rule_labels: tuple[str, ...]  # base machine positive labels, in order


def add_history_sectors(m1: SMachine) -> M2Build:
    """Split every interior part boundary of ``m1`` by a history sector.

    Part Q_i becomes Q_{i,l} Q_{i,r} (the outermost halves are dropped);
    each positive rule theta acquires, per history sector, an inverse
    left copy deposited by the left letter and a right copy deposited by
    the right one, so a run of the machine scans a prewritten history.
    A rule locking an old working sector locks its image.
    """
    if m1.hardware.circular:
        raise BadParameters("history sectors need a non-circular machine")
    if m1.input_sector is None:
        raise BadParameters(f"machine {m1.name} has no input sector")
    hw = m1.hardware
    n = hw.n_parts - 1
    if n < 2:
        raise BadParameters("need at least three parts so a history sector exists")

    parts: list[tuple[str, ...]] = []
    for i in range(hw.n_parts):
        if i > 0:
            parts.append(tuple(f"{q}_l" for q in hw.parts[i]))
        if i < n:
            parts.append(tuple(f"{q}_r" for q in hw.parts[i]))

    labels = tuple(r.label for r in sorted(m1.positive_rules, key=lambda r: r.label))
    hist_sectors: list[HistorySector] = []
    alphabets: list[frozenset[str]] = []
    sector_of_m1 = {}
    for i in range(n):  # m1 sector i -> between Q_{i,r} and Q_{i+1,l}
        sector_of_m1[i] = len(alphabets)
        alphabets.append(hw.sector_alphabets[i])
        if i + 1 <= n - 1:  # history sector inside part i+1
            hs = HistorySector(
                sector=len(alphabets),
                left_copy={lbl: f"{lbl}_l{i+1}" for lbl in labels},
                right_copy={lbl: f"{lbl}_r{i+1}" for lbl in labels},
            )
            hist_sectors.append(hs)
            alphabets.append(hs.alphabet)

    new_rules: list[Rule] = []
    for rule in m1.positive_rules:
        rps: list[RulePart] = []
        doms: list[frozenset[str]] = [frozenset()] * len(alphabets)
        for i in range(n + 1):
            p = rule.parts[i]
            # the history sector inside part i, if it has one
            hs = hist_sectors[i - 1] if 1 <= i <= len(hist_sectors) else None
            if i > 0:
                b_l: Word = (YLetter(hs.left_copy[rule.label], -1),) if hs else ()
                rps.append(RulePart(f"{p.src}_l", p.a, f"{p.dst}_l", b_l))
            if i < n:
                a_r: Word = (YLetter(hs.right_copy[rule.label], 1),) if hs else ()
                rps.append(RulePart(f"{p.src}_r", a_r, f"{p.dst}_r", p.b))
        for i in range(n):
            doms[sector_of_m1[i]] = rule.domains[i]
        for hs in hist_sectors:
            doms[hs.sector] = hs.alphabet
        new_rules.append(Rule(rule.label, tuple(rps), tuple(doms), tag=rule.tag))

    def split(letters: Sequence[str]) -> tuple[str, ...]:
        return tuple(
            f"{q}_{side}"
            for i, q in enumerate(letters)
            for side in (("r",) if i == 0 else ("l",) if i == n else ("l", "r"))
        )

    machine = SMachine(
        hardware=Hardware(tuple(parts), tuple(alphabets)),
        positive_rules=tuple(new_rules),
        start_letters=split(m1.start_letters),
        end_letters=split(m1.end_letters),
        input_sector=sector_of_m1[m1.input_sector],
        name="M2",
    )
    return M2Build(machine, tuple(hist_sectors), labels)


def end_configuration_m2(b: M2Build, hist: Sequence[str]) -> AdmissibleWord:
    """A2(H): end letters, right-alphabet copy of H per history sector."""
    tape: dict[int, Word] = {}
    for hs in b.history:
        tape[hs.sector] = tuple(YLetter(hs.right_copy[lbl], 1) for lbl in hist)
    return b.machine.standard_base_word(b.machine.end_letters, tape)


# --------------------------------------------------------------------------
# control letters


@dataclass(frozen=True)
class ControlledHistorySector(HistorySector):
    """A history sector of the controlled machine (``sector`` is its flat
    index there) with the parts and scratch sectors its sweeps use.

    In the P_j Q_j R_j layout a history sector lies between R_j and
    P_{j+1}, and sector i lies between parts i and i+1, so they follow
    from ``sector``: ``r_part`` on its left and ``p_part`` on its right
    hold the running letters of the right-left and left-right sweeps;
    ``rl_scratch`` is the QR sector left of ``r_part`` and ``lr_scratch``
    the PQ sector right of ``p_part``.
    """

    @property
    def r_part(self) -> int:
        return self.sector

    @property
    def p_part(self) -> int:
        return self.sector + 1

    @property
    def rl_scratch(self) -> int:
        return self.sector - 1

    @property
    def lr_scratch(self) -> int:
        return self.sector + 1


@dataclass(frozen=True)
class M2BarBuild:
    machine: SMachine
    m2: M2Build
    history: tuple[ControlledHistorySector, ...]
    part_tags: tuple[str, ...]


def add_control_letters(b: M2Build) -> M2BarBuild:
    """Replace every part Q_i by the triple P_i Q_i R_i.

    The new sectors P_iQ_i and Q_iR_i are locked by every rule; the old
    sector between Q_i and Q_{i+1} moves between R_i and P_{i+1}.
    """
    m2 = b.machine
    hw = m2.hardware
    s1 = hw.n_parts  # s+1 parts
    parts: list[tuple[str, ...]] = []
    tags: list[str] = []
    for j in range(s1):
        parts.append((f"cp{j}",))
        tags.append(f"p{j}")
        parts.append(hw.parts[j])
        tags.append(f"q{j}")
        parts.append((f"cr{j}",))
        tags.append(f"r{j}")
    # sectors of 3(s+1) parts: P_jQ_j at 3j, Q_jR_j at 3j+1, R_jP_{j+1} at 3j+2
    alphabets: list[frozenset[str]] = []
    for j in range(s1):
        alphabets.append(frozenset())
        alphabets.append(frozenset())
        if j < s1 - 1:
            alphabets.append(hw.sector_alphabets[j])
    # RL/LR scratch alphabets around each history sector
    hist = tuple(ControlledHistorySector(3 * hs.sector + 2, hs.left_copy, hs.right_copy) for hs in b.history)
    for h in hist:
        alphabets[h.rl_scratch] = h.right_alphabet
        alphabets[h.lr_scratch] = h.left_alphabet

    rules: list[Rule] = []
    for rule in m2.positive_rules:
        rps: list[RulePart] = []
        doms = [frozenset()] * len(alphabets)
        for j in range(s1):
            p = rule.parts[j]
            rps.append(RulePart(f"cp{j}", p.a, f"cp{j}", ()))
            rps.append(RulePart(p.src, (), p.dst, ()))
            rps.append(RulePart(f"cr{j}", (), f"cr{j}", p.b))
        for j in range(s1 - 1):
            doms[3 * j + 2] = rule.domains[j]
        rules.append(Rule(rule.label, tuple(rps), tuple(doms), tag=rule.tag))

    def lift(letters: Sequence[str]) -> tuple[str, ...]:
        out = []
        for j, q in enumerate(letters):
            out.extend((f"cp{j}", q, f"cr{j}"))
        return tuple(out)

    machine = SMachine(
        hardware=Hardware(tuple(parts), tuple(alphabets)),
        positive_rules=tuple(rules),
        start_letters=lift(m2.start_letters),
        end_letters=lift(m2.end_letters),
        input_sector=3 * m2.input_sector + 2,
        name="M2bar",
    )
    return M2BarBuild(machine, b, hist, tuple(tags))


# --------------------------------------------------------------------------
# the 4m+1 stage concatenation


@dataclass(frozen=True)
class Stage:
    index: int  # 1-based
    kind: str  # "rl" | "fwd" | "lr" | "bwd"
    start_letters: tuple[str, ...]
    end_letters: tuple[str, ...]


@dataclass(frozen=True)
class M3Build:
    machine: SMachine
    m2bar: M2BarBuild
    m: int
    stages: tuple[Stage, ...]
    chi_labels: tuple[str, ...]

    @property
    def history(self) -> tuple[ControlledHistorySector, ...]:
        return self.m2bar.history


def _stage_kind(sigma: int) -> str:
    r = sigma % 4
    return {1: "rl", 2: "fwd", 3: "lr", 0: "bwd"}[r]


def _stage_label(sigma: int, kind: str, label: str) -> str:
    """Stage ``sigma``'s name for base rule ``label``; ``_b`` marks a bwd stage."""
    return f"s{sigma}_{label}" + ("_b" if kind == "bwd" else "")


def _sweep_label(sigma: int, kind: str) -> Label:
    """Sweep stage ``sigma``'s rule names: s{sigma}_r1_x, s{sigma}_rt,
    s{sigma}_r2_x on RL, and the same with l on LR."""
    return lambda i, a: f"s{sigma}_{kind[0]}" + ("t" if a is None else f"{i}_{a}")


def compose_m3(m2bar: M2BarBuild, m: int) -> M3Build:
    """Concatenate 4m+1 stage machines over the controlled hardware.

    Odd stages sweep the history sectors (right-left on the R letters,
    left-right on the P letters, alternating), even stages run the
    scanning machine forwards/backwards; chi rules connect consecutive
    stages with the alphabet-purity domains that make each crossing
    one-shot.
    """
    if m < 1:
        raise BadParameters(f"m must be >= 1, got {m}")
    base = m2bar.machine
    hw = base.hardware
    hist = m2bar.history
    if not hist:
        raise BadParameters("controlled machine has no history sectors")
    n_stages = 4 * m + 1
    input_sector = base.input_sector
    input_dom = hw.sector_alphabets[input_sector]
    left = {h.sector: h.left_alphabet for h in hist}
    right = {h.sector: h.right_alphabet for h in hist}

    def doms_with(entries: Mapping[int, frozenset[str]]) -> tuple[frozenset[str], ...]:
        return tuple(entries.get(k, frozenset()) for k in range(hw.n_sectors))

    def copies(content: Mapping[str, str], scratch: Mapping[str, str]) -> dict[str, str]:
        """Host names of a sweep's letters: each label and its primed copy."""
        return {**content, **{primed(lbl): x for lbl, x in scratch.items()}}

    # A history sweep is RL placed on every R letter (the history in the
    # sector to its right) or LR on every P letter (the history to its
    # left), in lockstep; the RL stages keep the input sector open too.
    # Per kind: the base letters that name each part's stage copies, the
    # hosts, and the domains the stage adds.
    rl_hosts = [Host(h.r_part, h.rl_scratch, h.sector, copies(h.left_copy, h.right_copy)) for h in hist]
    lr_hosts = [Host(h.p_part, h.sector, h.lr_scratch, copies(h.right_copy, h.left_copy)) for h in hist]
    sweeps = {"rl": (base.start_letters, rl_hosts, {input_sector: input_dom}), "lr": (base.end_letters, lr_hosts, {})}

    parts: list[list[str]] = [[] for _ in range(hw.n_parts)]
    stages: list[Stage] = []
    rules: list[Rule] = []
    for sigma in range(1, n_stages + 1):
        kind = _stage_kind(sigma)
        if kind in sweeps:
            frozen, hosts, extra = sweeps[kind]
            # a host part's stage copies are its letter q and the sweep's
            # phase letters: qa_s{sigma}, qb_s{sigma}
            sweep = build_lr_m(m2bar.m2.rule_labels, 1, _sweep_label(sigma, kind), lambda i: f"{'ab'[i - 1]}_s{sigma}")
            if kind == "rl":
                sweep = read_right_to_left(sweep)
            running = {h.part for h in hosts}
            sparts = [
                tuple(q + x for x in sweep.hardware.parts[1]) if i in running else (f"{q}_s{sigma}",)
                for i, q in enumerate(frozen)
            ]
            for r, ins, doms in place(sweep, hosts):
                mid = r.parts[1]
                rps = [RulePart(p[0], (), p[0], ()) for p in sparts]
                for i, (a, b) in ins.items():
                    rps[i] = RulePart(frozen[i] + mid.src, a, frozen[i] + mid.dst, b)
                rules.append(Rule(r.label, tuple(rps), doms_with({**doms, **extra}), tag="m3"))
            start, end = tuple(p[0] for p in sparts), tuple(p[-1] for p in sparts)
        else:
            sparts = [tuple(f"{x}_s{sigma}" for x in part) for part in hw.parts]
            for rule in base.positive_rules:
                src_rule = rule if kind == "fwd" else rule.inv()
                rps = tuple(RulePart(f"{p.src}_s{sigma}", p.a, f"{p.dst}_s{sigma}", p.b) for p in src_rule.parts)
                rules.append(Rule(_stage_label(sigma, kind, rule.label), rps, rule.domains, tag="m3"))
            first, last = base.start_letters, base.end_letters
            if kind == "bwd":
                first, last = last, first
            start, end = tuple(f"{q}_s{sigma}" for q in first), tuple(f"{q}_s{sigma}" for q in last)
        for i, ps in enumerate(sparts):
            parts[i].extend(ps)
        stages.append(Stage(sigma, kind, start, end))

    chi_labels: list[str] = []
    for sigma in range(1, n_stages):
        frm, to = stages[sigma - 1], stages[sigma]
        rps = tuple(RulePart(x, (), y, ()) for x, y in zip(frm.end_letters, to.start_letters))
        if _stage_kind(sigma) in ("rl", "bwd"):  # chi(1,2)- and chi(4,5)-type
            dom = {**left, input_sector: input_dom}
        else:  # chi(2,3)- and chi(3,4)-type: right alphabets only
            dom = right
        lbl = f"chi_{sigma}_{sigma+1}"
        rules.append(Rule(lbl, rps, doms_with(dom), tag="m3"))
        chi_labels.append(lbl)

    machine = SMachine(
        hardware=Hardware(tuple(tuple(p) for p in parts), hw.sector_alphabets),
        positive_rules=tuple(rules),
        start_letters=stages[0].start_letters,
        end_letters=stages[-1].end_letters,
        input_sector=input_sector,
        name="M3",
    )
    return M3Build(machine, m2bar, m, tuple(stages), tuple(chi_labels))


def start_configuration_m3(b: M2Build | M3Build, k: int, hist: Sequence[str]) -> AdmissibleWord:
    """I(a^k, H) over the input sector's one letter a, plus a left-alphabet
    copy of H per history sector, on the start letters of an M2 or M3 build."""
    (letter,) = b.machine.hardware.sector_alphabets[b.machine.input_sector]
    tape: dict[int, Word] = {
        b.machine.input_sector: tuple(YLetter(letter, 1 if k >= 0 else -1) for _ in range(abs(k)))
    }
    for hs in b.history:
        tape[hs.sector] = tuple(YLetter(hs.left_copy[lbl], 1) for lbl in hist)
    return b.machine.standard_base_word(b.machine.start_letters, tape)


def stage_sweep_history(b: M3Build, hist: Sequence[str]) -> History:
    """The straight-line run of all 4m+1 stages on history content ``hist``:
    LR's run in the sweep stages (RL reads ``hist`` right to left) and the
    base run forwards or backwards in the others, joined by the chi rules."""
    content = {"rl": hist[::-1], "lr": hist, "fwd": hist, "bwd": hist[::-1]}
    out: list[tuple[str, int]] = []
    for st, chi in zip(b.stages, (*b.chi_labels, None)):  # no chi rule after the last stage
        if st.kind in ("rl", "lr"):
            out += sweep_run(content[st.kind], 1, _sweep_label(st.index, st.kind))
        else:
            out += [(_stage_label(st.index, st.kind, lbl), 1) for lbl in content[st.kind]]
        if chi:
            out.append((chi, 1))
    return tuple(out)


# --------------------------------------------------------------------------
# mirror double and circular closure


MIRROR_SUFFIX = "_m"


def mirror_name(x: str) -> str:
    return x + MIRROR_SUFFIX


def mirror_word(w: Word) -> Word:
    """Mirror image of an insert: primed copy, inverted and reversed."""
    return tuple(YLetter(mirror_name(y.name), -y.sign) for y in reversed(w))


def mirrored_rule(
    label: str,
    tag: str,
    letters: Mapping[int, tuple[str, str]],
    inserts: Mapping[int, tuple[Word, Word]],
    doms: Mapping[int, frozenset[str]],
    mirror_part: Mapping[int, int],
    mirror_sector: Mapping[int, int],
    n_sectors: int,
) -> Rule:
    """Build a rule acting symmetrically on both halves.

    ``letters`` gives (src, dst) for every part (mirror parts carry their
    own letters); ``inserts`` gives (a, b) for first-half parts and is
    transported to the mirror by swap-invert-prime; ``doms`` lists
    first-half sector domains and is primed onto the mirror sectors.
    Unlisted sectors are locked.
    """
    ins = {mirror_part[j]: (mirror_word(b), mirror_word(a)) for j, (a, b) in inserts.items()}
    ins.update(inserts)
    parts = []
    for i in range(len(letters)):
        src, dst = letters[i]
        a, b = ins.get(i, ((), ()))
        parts.append(RulePart(src, a, dst, b))
    domains = [frozenset()] * n_sectors
    for s, alpha in doms.items():
        domains[s] = alpha
        if s in mirror_sector:
            domains[mirror_sector[s]] = frozenset(mirror_name(y) for y in alpha)
    return Rule(label, tuple(parts), tuple(domains), tag=tag)


@dataclass(frozen=True)
class M4Build:
    machine: SMachine
    m3: M3Build
    mirror_part: Mapping[int, int]
    mirror_sector: Mapping[int, int]
    part_tags: tuple[str, ...]


def mirror_m4(m3: M3Build) -> M4Build:
    """Double the machine with a mirror copy; every rule acts on both halves.

    Mirror state letters stand for the inverses of the primed copies, so
    the standard base stays a positive word while mirror tape content
    shows up inverted.  The junction sector is locked by every rule.
    """
    base = m3.machine
    hw = base.hardware
    K = hw.n_parts
    parts = list(hw.parts) + [
        tuple(mirror_name(x) for x in hw.parts[K - 1 - k]) for k in range(K)
    ]
    mirror_part = {j: 2 * K - 1 - j for j in range(K)}
    alphabets = list(hw.sector_alphabets)
    alphabets.append(frozenset())  # the junction sector
    mirror_sector = {}
    for k in range(K - 1):
        src = K - 2 - k
        mirror_sector[src] = len(alphabets)
        alphabets.append(frozenset(mirror_name(y) for y in hw.sector_alphabets[src]))

    rules = []
    for rule in base.positive_rules:
        letters = {}
        for j, p in enumerate(rule.parts):
            letters[j] = (p.src, p.dst)
            letters[mirror_part[j]] = (mirror_name(p.src), mirror_name(p.dst))
        rules.append(
            mirrored_rule(
                rule.label,
                rule.tag,
                letters,
                {j: (p.a, p.b) for j, p in enumerate(rule.parts)},
                dict(enumerate(rule.domains)),
                mirror_part,
                mirror_sector,
                len(alphabets),
            )
        )

    def dub(letters: tuple[str, ...]) -> tuple[str, ...]:
        return letters + tuple(mirror_name(x) for x in reversed(letters))

    machine = SMachine(
        hardware=Hardware(tuple(parts), tuple(alphabets)),
        positive_rules=tuple(rules),
        start_letters=dub(base.start_letters),
        end_letters=dub(base.end_letters),
        input_sector=base.input_sector,
        name="M4",
    )
    tags = m3.m2bar.part_tags
    tags += tuple(tags[K - 1 - k] + "m" for k in range(K))
    return M4Build(machine, m3, mirror_part, mirror_sector, tags)


@dataclass(frozen=True)
class M5Build:
    machine: SMachine
    m4: M4Build
    part_tags: tuple[str, ...]
    mirror_part: Mapping[int, int]  # M4's maps, shifted by one past t
    mirror_sector: Mapping[int, int]
    history: tuple[ControlledHistorySector, ...]  # M3's, shifted by one past t


def circularize_m5(m4: M4Build) -> M5Build:
    """Prepend the one-letter part {t} and close the base into a circle.

    Both sectors touching t are locked by every rule.
    """
    base = m4.machine
    hw = base.hardware
    parts = (("t",),) + hw.parts
    alphabets = (frozenset(),) + hw.sector_alphabets + (frozenset(),)
    rules = []
    for rule in base.positive_rules:
        rps = (RulePart("t", (), "t", ()),) + rule.parts
        doms = (frozenset(),) + rule.domains + (frozenset(),)
        rules.append(Rule(rule.label, rps, doms, tag=rule.tag))
    machine = SMachine(
        hardware=Hardware(parts, alphabets, circular=True),
        positive_rules=tuple(rules),
        start_letters=("t",) + base.start_letters,
        end_letters=("t",) + base.end_letters,
        input_sector=(base.input_sector + 1) if base.input_sector is not None else None,
        name="M5",
    )
    return M5Build(
        machine,
        m4,
        ("t",) + m4.part_tags,
        {j + 1: k + 1 for j, k in m4.mirror_part.items()},
        {j + 1: k + 1 for j, k in m4.mirror_sector.items()},
        tuple(dataclasses.replace(h, sector=h.sector + 1) for h in m4.m3.history),
    )
