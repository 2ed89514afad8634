"""Round-trip of the machine file format over every shipped machine."""

import pytest

from smachine.compose import (
    add_control_letters,
    add_history_sectors,
    circularize_m5,
    compose_m3,
    mirror_m4,
)
from smachine.lr import build_lr, build_lr_m, build_rl
from smachine.main_machine import build_main_machine
from smachine.serialize import machine_hash, manifest, parse_machine, print_machine
from smachine.toy import toy_even_recognizer


def all_machines():
    toy = toy_even_recognizer()
    m2 = add_history_sectors(toy.machine)
    m2bar = add_control_letters(m2)
    m3 = compose_m3(m2bar, 2)
    m4 = mirror_m4(m3)
    m5 = circularize_m5(m4)
    bundle = build_main_machine(toy, m=2, L=12)
    return [
        build_lr(["a"]),
        build_lr(["a", "b"]),
        build_rl(["a"]),
        build_lr_m(["a"], 2),
        toy.machine,
        m2.machine,
        m2bar.machine,
        m3.machine,
        m4.machine,
        m5.machine,
        bundle.machine,
        bundle.trimmed,
    ]


@pytest.mark.parametrize("machine", all_machines(), ids=lambda m: m.name)
def test_round_trip(machine):
    text = print_machine(machine)
    back = parse_machine(text)
    assert back == machine
    # canonical form: printing the parse reproduces the text
    assert print_machine(back) == text


def test_locked_shorthand_groups():
    lr = build_lr(["a"])
    text = print_machine(lr)
    # the turn rule locks the left sector, so q1 and p merge into one group
    line = [l for l in text.splitlines() if l.startswith("rule z12")][0]
    assert "[q1 p1 -> q1 p2]" in line
    assert "dom 1 = a'" in line


def test_hash_stable_and_content_sensitive():
    a, b = build_lr(["a"]), build_lr(["a", "b"])
    assert machine_hash(a) == machine_hash(build_lr(["a"]))
    assert machine_hash(a) != machine_hash(b)


def test_manifest_fields():
    import json

    lr = build_lr(["a"])
    doc = json.loads(manifest(lr, m=2, L=12, c4=None))
    assert doc["machine"] == "LR" and doc["m"] == 2 and doc["L"] == 12
    assert doc["hash"] == machine_hash(lr)
    assert doc["c4"] is None


def test_blank_and_comment_lines_are_skipped():
    lr = build_lr(["a"])
    lines = print_machine(lr).splitlines()
    text = "# an LR machine\n\n" + "\n  # indented comment\n\n".join(lines) + "\n\n"
    assert parse_machine(text) == lr
