"""Pluggable input recognizer used as the bottom machine of the tower.

The shipped toy accepts the words a^k with k >= 0 even: one rule
consumes a^2 from the input sector, a second rule locks everything and
moves to the accept letters.  A reference deterministic acceptor and an
accepting-history constructor ride along so harness suites can compare
machine verdicts against ground truth.

Interface expectations (asserted only where the toy satisfies them):
exactly one input sector, the first sector of the word; all other
sectors empty of tape letters in input configurations.  Being symmetric,
the toy machine also connects a^-k to the accept configuration for even
k; the reference acceptor deliberately answers for k >= 0 only, and all
experiments stay in that range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import Hardware, History, Rule, RulePart, SMachine
from .words import AdmissibleWord, YLetter


def build_toy_even_machine() -> SMachine:
    hw = Hardware(
        parts=(("q0s", "q0e"), ("q1s", "q1e"), ("q2s", "q2e")),
        sector_alphabets=(frozenset({"a"}), frozenset()),
    )
    del2 = Rule(
        "del2",
        (
            RulePart("q0s", (), "q0s", ()),
            RulePart("q1s", (YLetter("a", -1), YLetter("a", -1)), "q1s", ()),
            RulePart("q2s", (), "q2s", ()),
        ),
        (frozenset({"a"}), frozenset()),
        tag="m1",
    )
    fin = Rule(
        "fin",
        (
            RulePart("q0s", (), "q0e", ()),
            RulePart("q1s", (), "q1e", ()),
            RulePart("q2s", (), "q2e", ()),
        ),
        (frozenset(), frozenset()),
        tag="m1",
    )
    return SMachine(
        hardware=hw,
        positive_rules=(del2, fin),
        start_letters=("q0s", "q1s", "q2s"),
        end_letters=("q0e", "q1e", "q2e"),
        input_sector=0,
        name="M1-toy-even",
    )


@dataclass(frozen=True)
class ToyRecognizer:
    """An input-recognizing machine plus its reference acceptor."""

    machine: SMachine
    input_letter: str = "a"
    name: str = "toy-even"

    def accepts(self, k: int) -> bool:
        """Reference deterministic acceptor for { a^k : k >= 0 even }."""
        return k >= 0 and k % 2 == 0

    def accepting_history(self, k: int) -> History:
        if not self.accepts(k):
            raise ValueError(f"a^{k} is not in the toy language")
        return tuple([("del2", 1)] * (k // 2) + [("fin", 1)])

    def input_configuration(self, k: int) -> AdmissibleWord:
        sign = 1 if k >= 0 else -1
        tape = tuple(YLetter(self.input_letter, sign) for _ in range(abs(k)))
        return self.machine.standard_base_word(
            self.machine.start_letters, {self.machine.input_sector: tape}
        )

    def accept_configuration(self) -> AdmissibleWord:
        return self.machine.end_configuration()


def toy_even_recognizer() -> ToyRecognizer:
    return ToyRecognizer(machine=build_toy_even_machine())
