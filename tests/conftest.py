import random

import pytest

from smachine.compose import (
    add_control_letters,
    add_history_sectors,
    circularize_m5,
    compose_m3,
    mirror_m4,
)
from smachine.lr import build_lr, build_lr_m, build_rl
from smachine.machine import SMachine
from smachine.main_machine import build_main_machine
from smachine.toy import toy_even_recognizer
from smachine.words import AdmissibleWord, QLetter, YLetter, reduce_word


@pytest.fixture(scope="session")
def session_bundle():
    return build_main_machine(toy_even_recognizer(), m=2, L=12)


@pytest.fixture(scope="session")
def shipped(session_bundle):
    """The 11 shipped machines, from the sweeps up to the trimmed one."""
    toy = toy_even_recognizer()
    m2 = add_history_sectors(toy.machine)
    m2bar = add_control_letters(m2)
    m3 = compose_m3(m2bar, 2)
    m4 = mirror_m4(m3)
    m5 = circularize_m5(m4)
    return [
        build_lr(["a"]),
        build_rl(["a"]),
        build_lr_m(["a"], 2),
        toy.machine,
        m2.machine,
        m2bar.machine,
        m3.machine,
        m4.machine,
        m5.machine,
        session_bundle.machine,
        session_bundle.trimmed,
    ]


def random_words_for(machine: SMachine, count: int, seed: int, max_sector: int = 2):
    """Seeded admissible words biased toward rule domains.

    Half are built from a random positive rule (its source letters, with
    sector contents drawn from its domains), so that rule is guaranteed
    applicable; the rest use arbitrary sector letters.  A third of the
    output is inverted, and sub-bases of the standard base are mixed in.
    """
    rng = random.Random(seed)
    hw = machine.hardware
    rules = machine.positive_rules
    out = []
    while len(out) < count:
        rule = rng.choice(rules)
        use_rule = rng.random() < 0.5
        lo = 0
        hi = hw.n_parts
        if rng.random() < 0.3 and hw.n_parts > 2:
            lo = rng.randrange(0, hw.n_parts - 1)
            hi = rng.randrange(lo + 1, hw.n_parts + 1)
        qs = []
        us = []
        for i in range(lo, hi):
            src = rule.parts[i].src if use_rule else rng.choice(hw.parts[i])
            qs.append(QLetter(i, src, 1))
            if i < hi - 1:
                sec = i if (hw.circular or i < hw.n_sectors) else None
                alpha = sorted(rule.domains[sec]) if use_rule else sorted(hw.sector_alphabets[sec])
                letters = []
                for _ in range(rng.randrange(0, max_sector + 1)):
                    if not alpha:
                        break
                    letters.append(YLetter(rng.choice(alpha), rng.choice((1, -1))))
                us.append(reduce_word(letters))
        w = AdmissibleWord(tuple(qs), tuple(us))
        if rng.random() < 0.33:
            w = w.inv()
        out.append(w)
    return out
