"""The main circular machine and its distinguished words.

Five rule sets over one circular hardware: insert input letters, sweep
the input back and forth 2m times, insert a scan history, run the full
stage tower on both halves, erase the content sectors, accept.  State
letters are disjoint per set, so transition rules move between phases.

``W_st`` (one special start letter per part), ``W_ac`` (the unique
accept word), and the two-parameter family ``W(k, k')`` of words in the
domain of the inverse of the phase-2-to-3 transition are all exposed,
along with straight-line witness histories used by tests and harnesses.
The bundle builds, on first use, the trimmed machine Mbar and the
machine no-return sweeps, Mbar and theta(23).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .compose import (
    M5Build,
    add_control_letters,
    add_history_sectors,
    circularize_m5,
    compose_m3,
    mirror_m4,
    mirror_name,
    mirrored_rule,
    stage_sweep_history,
)
from .lr import Host, build_lr_m, lrm_label, place, primed, sweep_run
from .machine import BadParameters, Hardware, History, Rule, SMachine
from .toy import ToyRecognizer
from .words import AdmissibleWord, Word, YLetter


# The rule family of each tag.  Relation letters of the sup family carry L
# superscripted copies; the mixed transition theta(23) carries them on its
# source side only; the plain family (the trimmed machine's rules) has none.
SUP_FAMILY_TAGS = ("tr01", "set1", "tr12", "set2")
MIXED_TAG = "tr23"
PLAIN_FAMILY_TAGS = ("set3", "tr34", "set4", "tr45", "set5", "tr50")
# The label of theta(23), the one rule an eligible history may follow by its inverse.
THETA_23 = "tr_23"


def _set2_label(i: int, a: str | None) -> str:
    return "w2_" + lrm_label(i, a)


def family(rule: Rule) -> str:
    """The family of ``rule`` by its tag: "sup", "mixed" or "plain"."""
    if rule.tag in SUP_FAMILY_TAGS:
        return "sup"
    return "mixed" if rule.tag == MIXED_TAG else "plain"


def sup_sides(rule: Rule) -> tuple[bool, bool]:
    """Whether the (source, target) side of ``rule`` carries superscripts:
    both for the sup family, neither for the plain one, and for theta(23)
    its source side only, which is its inverse's target side."""
    fam = family(rule)
    return (rule.sign > 0, rule.sign < 0) if fam == "mixed" else (fam == "sup", fam == "sup")


@dataclass(frozen=True)
class MainMachineBundle:
    machine: SMachine
    toy: ToyRecognizer
    m: int
    L: int
    lrm_part: int
    lrm_scratch: int
    m5: M5Build
    # what other modules derive from the bundle once and free with it (the
    # presentation compiler's relator factory); not part of its value
    derived: dict[str, object] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    @property
    def N(self) -> int:
        return self.machine.hardware.n_parts

    @property
    def part_tags(self) -> tuple[str, ...]:
        return self.m5.part_tags

    # -- distinguished words -------------------------------------------

    def _phase_config(self, suffix: str, tape: Mapping[int, Word] | None = None) -> AdmissibleWord:
        letters = [f"{g}_{suffix}" for g in self.part_tags]
        return self.machine.standard_base_word(letters, tape)

    @property
    def w_st(self) -> AdmissibleWord:
        return self._phase_config("st")

    @property
    def w_ac(self) -> AdmissibleWord:
        return self._phase_config("ac")

    def s1(self) -> AdmissibleWord:
        """Start configuration: all state letters the first-set start letters."""
        return self._phase_config("w1")

    def w_word(self, k: int, k2: int) -> AdmissibleWord:
        """W(k,k') = w1 a^k w2 (a')^{-k'} w3 over the third-phase letters,
        for inputs k, k' >= 0."""
        if k < 0 or k2 < 0:
            raise BadParameters("only nonnegative inputs can be inserted")
        a = self.toy.input_letter
        sector = self.machine.input_sector
        tape = {
            sector: (YLetter(a, 1),) * k,
            self.m5.mirror_sector[sector]: (YLetter(mirror_name(a), -1),) * k2,
        }
        return self._phase_config("w3", tape)

    # -- witness histories ----------------------------------------------

    def witness_wst_to_wkk(self, k: int) -> History:
        if k < 0:
            raise BadParameters("only nonnegative inputs can be inserted")
        a = self.toy.input_letter
        hist: list[tuple[str, int]] = [("tr_st1", 1)]
        hist += [(f"w1_ins_{a}", 1)] * k
        hist.append(("tr_12", 1))
        hist += sweep_run([a] * k, self.m, _set2_label)
        hist.append((THETA_23, 1))
        return tuple(hist)

    def witness_wkk_to_wac(self, k: int) -> History:
        """Accepting run from W(k,k) using no first- or second-set rules."""
        toy_hist = [lbl for lbl, _ in self.toy.accepting_history(k)]
        a = self.toy.input_letter
        hist: list[tuple[str, int]] = []
        hist += [(f"w3_ins_{lbl}", 1) for lbl in reversed(toy_hist)]
        hist.append(("tr_34", 1))
        hist += list(stage_sweep_history(self.m5.m4.m3, toy_hist))
        hist.append(("tr_45", 1))
        hist += [(f"w5_er_{lbl}", 1) for lbl in toy_hist]
        hist += [(f"w5_er_inp_{a}", 1)] * k
        hist.append(("tr_50", 1))
        return tuple(hist)

    def witness_wst_to_wac(self, k: int) -> History:
        return self.witness_wst_to_wkk(k) + self.witness_wkk_to_wac(k)

    # -- restricted machines -------------------------------------------

    @cached_property
    def trimmed(self) -> SMachine:
        """Mbar: the plain family, without the first two sets and theta(23)."""
        return self._restricted(PLAIN_FAMILY_TAGS, "Mbar")

    @cached_property
    def without_first_two_sets(self) -> SMachine:
        """Mbar and theta(23): the rules a no-return sweep from W(k,k) runs."""
        return self._restricted((*PLAIN_FAMILY_TAGS, MIXED_TAG), "Mbar+tr_23")

    def _restricted(self, tags: tuple[str, ...], name: str) -> SMachine:
        """The main machine's rules tagged in ``tags``, the same objects in
        the same order, over the state letters they use; the W(k,k')
        letters are the start letters."""
        kept = tuple(r for r in self.machine.positive_rules if r.tag in tags)
        used = {x for r in kept for p in r.parts for x in (p.src, p.dst)}
        hw = self.machine.hardware
        parts = tuple(tuple(x for x in part if x in used) for part in hw.parts)
        return SMachine(
            hardware=Hardware(parts, hw.sector_alphabets, circular=True),
            positive_rules=kept,
            start_letters=tuple(f"{g}_w3" for g in self.part_tags),
            end_letters=self.machine.end_letters,
            input_sector=self.machine.input_sector,
            name=name,
        )


def build_main_machine(toy: ToyRecognizer, m: int = 2, L: int = 12) -> MainMachineBundle:
    """Assemble the main machine over a pluggable recognizer.

    ``m`` is the number of sweep repetitions, ``L`` the number of letter
    copies used later by the group compiler (recorded here; execution
    ignores it).
    """
    if m < 1 or L < 8:
        raise BadParameters(f"need m >= 1 and L >= 8, got m={m}, L={L}")
    m2 = add_history_sectors(toy.machine)
    m5 = circularize_m5(mirror_m4(compose_m3(add_control_letters(m2), m)))

    base = m5.machine
    N = base.hardware.n_parts
    tags = m5.part_tags
    a = toy.input_letter
    a_c = f"{a}_c"

    input_sector = base.input_sector
    lrm_part = input_sector + 1
    lrm_scratch = input_sector + 1  # the PQ sector right of the sweep part
    mirror_lrm_part = m5.mirror_part[lrm_part]
    mirror_lrm_scratch = m5.mirror_sector[lrm_scratch]

    # set 2 is LRm over the input letter, its phase letters z1..z2m
    lrm = build_lr_m([a], m, _set2_label, lambda i: f"z{i}")
    z_letters = lrm.hardware.parts[1]

    # hardware: extend the circular base with phase letters and sweep copies
    phases = ("st", "w1", "w2", "w3", "w5", "ac")
    parts = []
    for i in range(N):
        extra = [f"{tags[i]}_{ph}" for ph in phases]
        if i in (lrm_part, mirror_lrm_part):
            extra.remove(f"{tags[i]}_w2")
            extra += [f"{tags[i]}_{z}" for z in z_letters]
        parts.append(base.hardware.parts[i] + tuple(extra))
    alphabets = list(base.hardware.sector_alphabets)
    alphabets[lrm_scratch] = alphabets[lrm_scratch] | {a_c}
    alphabets[mirror_lrm_scratch] = alphabets[mirror_lrm_scratch] | {mirror_name(a_c)}
    hardware = Hardware(tuple(parts), tuple(alphabets), circular=True)

    def phase_letters(frm: str, to: str | None = None) -> dict[int, tuple[str, str]]:
        """(src, dst) per part within a phase (or between two phases)."""
        to = to or frm
        out = {}
        for i in range(N):
            out[i] = (f"{tags[i]}_{frm}", f"{tags[i]}_{to}")
        return out

    def fix_lrm(letters: dict[int, tuple[str, str]], src: str, dst: str) -> dict[int, tuple[str, str]]:
        for i in (lrm_part, mirror_lrm_part):
            out = (f"{tags[i]}_{src}", f"{tags[i]}_{dst}")
            letters[i] = out
        return letters

    def mk(label, tag, letters, inserts, doms) -> Rule:
        return mirrored_rule(label, tag, letters, inserts, doms, m5.mirror_part, m5.mirror_sector, hardware.n_sectors)

    def history_inserts(lbl: str, sign: int) -> dict[int, tuple[Word, Word]]:
        """The history letter of ``lbl`` (sign 1) or its inverse, right of every R letter."""
        return {h.r_part: ((), (YLetter(h.left_copy[lbl], sign),)) for h in m5.history}

    rules: list[Rule] = []

    # start rule: special start letters -> first-set letters, everything locked
    rules.append(mk("tr_st1", "tr01", phase_letters("st", "w1"), {}, {}))

    # set 1: one positive rule inserting the input letter on both halves
    rules.append(
        mk(
            f"w1_ins_{a}",
            "set1",
            phase_letters("w1"),
            {lrm_part: ((YLetter(a, 1),), ())},
            {input_sector: frozenset({a})},
        )
    )

    rules.append(
        mk(
            "tr_12",
            "tr12",
            fix_lrm(phase_letters("w1", "w2"), "w1", z_letters[0]),
            {},
            {input_sector: frozenset({a})},
        )
    )

    # set 2: LRm placed on the sweep part and its mirror
    for r, ins, doms in place(lrm, [Host(lrm_part, input_sector, lrm_scratch, {a: a, primed(a): a_c})]):
        p = r.parts[1]
        rules.append(mk(r.label, "set2", fix_lrm(phase_letters("w2"), p.src, p.dst), ins, doms))

    rules.append(
        mk(
            THETA_23,
            MIXED_TAG,
            fix_lrm(phase_letters("w2", "w3"), z_letters[-1], "w3"),
            {},
            {input_sector: frozenset({a})},
        )
    )

    # set 3: insert a history letter in every history sector, next to the R letter
    content_doms = {input_sector: frozenset({a})}
    for h in m5.history:
        content_doms[h.sector] = h.left_alphabet
    for lbl in m2.rule_labels:
        rules.append(mk(f"w3_ins_{lbl}", "set3", phase_letters("w3"), history_inserts(lbl, 1), content_doms))

    rules.append(
        mk(
            "tr_34",
            "tr34",
            {i: (f"{tags[i]}_w3", base.start_letters[i]) for i in range(N)},
            {},
            content_doms,
        )
    )

    # set 4: the full stage tower, re-tagged
    for rule in base.positive_rules:
        rules.append(dataclasses.replace(rule, tag="set4"))

    rules.append(
        mk(
            "tr_45",
            "tr45",
            {i: (base.end_letters[i], f"{tags[i]}_w5") for i in range(N)},
            {},
            content_doms,
        )
    )

    # set 5: erase content sectors letter by letter, from the R-letter side
    for lbl in m2.rule_labels:
        rules.append(mk(f"w5_er_{lbl}", "set5", phase_letters("w5"), history_inserts(lbl, -1), content_doms))
    rules.append(
        mk(
            f"w5_er_inp_{a}",
            "set5",
            phase_letters("w5"),
            {input_sector: ((), (YLetter(a, -1),))},  # the R part left of the input sector
            content_doms,
        )
    )

    rules.append(mk("tr_50", "tr50", phase_letters("w5", "ac"), {}, {}))

    machine = SMachine(
        hardware=hardware,
        positive_rules=tuple(rules),
        start_letters=tuple(f"{g}_st" for g in tags),
        end_letters=tuple(f"{g}_ac" for g in tags),
        input_sector=input_sector,
        name="M",
    )
    return MainMachineBundle(
        machine=machine,
        toy=toy,
        m=m,
        L=L,
        lrm_part=lrm_part,
        lrm_scratch=lrm_scratch,
        m5=m5,
    )
