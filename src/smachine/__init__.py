"""S-machine workbench: execution, composition, compilation to group
presentations, trapezia, and verification harnesses."""

from .words import AdmissibleWord, QLetter, YLetter, Word, reduce_word
from .machine import (
    Computation,
    Hardware,
    History,
    Rule,
    RulePart,
    SMachine,
    apply_rule,
    history,
    invert_rule,
    is_applicable,
    is_eligible,
    run_history,
    step_history,
)
from .enumerate import enumerate_computations

__all__ = [
    "AdmissibleWord",
    "Computation",
    "Hardware",
    "History",
    "QLetter",
    "Rule",
    "RulePart",
    "SMachine",
    "Word",
    "YLetter",
    "apply_rule",
    "enumerate_computations",
    "history",
    "invert_rule",
    "is_applicable",
    "is_eligible",
    "reduce_word",
    "run_history",
    "step_history",
]
