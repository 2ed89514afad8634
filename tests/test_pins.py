"""Byte pins: the sha256 of printed machines, exported presentations,
disk verdicts, enumerated and simulated computations, verification
reports, and the states the level sweeps reach, in sweep order.

The sweep machines, the stage tower and the compiled presentations are
derived from one another; these pins make sure a change to how they are
built, or to how rules are applied, leaves every machine file, export
and report byte the same.
"""

import hashlib
import json

import pytest

from smachine.checks import read_reports, run_suites, write_reports
from smachine.cli import main
from smachine.compose import (
    add_control_letters,
    add_history_sectors,
    circularize_m5,
    compose_m3,
    mirror_m4,
    start_configuration_m3,
)
from smachine.enumerate import reach_levels
from smachine.lr import build_lr, build_lr_m, build_rl
from smachine.machine import Hardware, Rule, RulePart, SMachine, format_slabel
from smachine.main_machine import build_main_machine
from smachine.presentation import (
    compile_group_G,
    compile_group_M,
    compile_trimmed,
    export,
    factory_for,
    hnn_Gbar,
    hnn_Gk,
)
from smachine.serialize import print_machine
from smachine.toy import toy_even_recognizer
from smachine.words import YLetter


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tower(m: int, base: SMachine | None = None):
    m3 = compose_m3(add_control_letters(add_history_sectors(base or toy_even_recognizer().machine)), m)
    m4 = mirror_m4(m3)
    return m3, m4, circularize_m5(m4)


def four_part_base() -> SMachine:
    """Four parts, so two history sectors, with the input in the middle
    sector: the history sweeps run in lockstep on both."""
    s, f = ("s0", "s1", "s2", "s3"), ("f0", "f1", "f2", "f3")
    a, b, c = (frozenset(x) for x in "abc")
    none = frozenset()

    def rule(label, src, dst, inserts, domains):
        parts = []
        for i, (x, y) in enumerate(zip(src, dst)):
            left, right = inserts.get(i, ((), ()))
            parts.append(RulePart(x, left, y, right))
        return Rule(label, tuple(parts), domains, tag="m1")

    return SMachine(
        hardware=Hardware(tuple(zip(s, f)), (b, a, c)),
        positive_rules=(
            rule("eat", s, s, {2: ((YLetter("a", -1),), ())}, (b, a, none)),
            rule("put", s, s, {0: ((), (YLetter("b", 1),))}, (b, a, none)),
            rule("fin", s, f, {}, (b, none, none)),
            rule("end", f, f, {3: ((YLetter("c", -1),), ())}, (none, none, c)),
        ),
        start_letters=s,
        end_letters=f,
        input_sector=1,
        name="M1-four",
    )


MACHINE_PINS = {
    "LR[a]": (lambda b: build_lr(["a"]), "a36d039178bf30027c532e928741b222a7a5711dc9cd180b00024982ab85ae2c"),
    "LR[a,b]": (lambda b: build_lr(["a", "b"]), "f0f19ab5618c9e6c90e44ae7418995c4427effe2a527d00d600dd95e4119b68e"),
    "RL[a]": (lambda b: build_rl(["a"]), "63911c917a9e7431f4fc9268c0037845937ec299dea62de507355239679ff5bf"),
    "RL[a,b]": (lambda b: build_rl(["a", "b"]), "9d76727773922a4f132666ce1f54372c830fa1598ef8c542535dd56944468a3f"),
    "toy-even": (lambda b: toy_even_recognizer().machine, "d978c06314c542b05ae2c87e581929d3559733150a228797a93c8d01f6f87f70"),
    "LRm[a],2": (lambda b: build_lr_m(["a"], 2), "98eb4fd76a463cc6dabc1444cde06ab7f608199a1b41597019cebc0b6d975a50"),
    "M3": (lambda b: tower(2)[0].machine, "ba31b89896ceb9c8f5ab3eb3b863ea5da3310a14416d1165a526cc08687cccb9"),
    "M4": (lambda b: tower(2)[1].machine, "9fd3ec15d03ddc8459cb8fb4b656c249404e2874fee7510a7316fad50ba7e05a"),
    "M5": (lambda b: tower(2)[2].machine, "f75b3227dd85976b6d4bfccf645b8bb54dc1ff7f031f97c04f4c8258195f8e12"),
    "M3-four": (lambda b: tower(2, four_part_base())[0].machine, "13956ef3f9b82746ab6623e4866d98fe32f593499b370b177f4baf0b47b98f77"),
    "M5-four": (lambda b: tower(2, four_part_base())[2].machine, "8014a4a97567e777cb16902b84b00c0098a3d9bcd45783896657be83436cb727"),
    "main(1,8)": (lambda b: build_main_machine(toy_even_recognizer(), 1, 8).machine, "26dbb54df1af098eeae73d7f30fc679b9d516173f070c2f09144b8d2a8b33103"),
    "main(3,12)": (lambda b: build_main_machine(toy_even_recognizer(), 3, 12).machine, "b33b324e09f9107f685f42b0343e67b9af33aabab5160adb175845bd0ef26875"),
    "main(2,12)": (lambda b: b.machine, "90de020493be501cb5ac247d308b821bbf4d9e051d591015338102e27714fea3"),
    "Mbar(2,12)": (lambda b: b.trimmed, "26f79c69b181f22a7b4a4e1433bed560bd14b97843eff6f6a71ea32317974ea3"),
}

EXPORT_PINS = {
    "M": (compile_group_M, "8e633d762503e45269b26678eecda6ccc2806454109556b523ccb4a3421727ce"),
    "Mbar": (lambda b: compile_trimmed(b)[0], "8bc12df4e1122cf548982204420615e9d68f1639dd2ef1b0752fcd208a6c7648"),
    "Gbar": (lambda b: compile_trimmed(b)[1], "d53bc2558cd4a8e8a723b2df4f65e598d7c434a6e82d324d83b5610feaa4f7fe"),
    "G": (compile_group_G, "7b26e7951a800a418a8e7693961e878f964db1d6248ededb371046263c382ef7"),
    "G_0": (lambda b: hnn_Gk(compile_group_G(b), b, 0), "ef3756c71b286988f8387f539d6875533bd8b237578b95d0aa6dec7602a486ea"),
    "Gbar-hnn": (lambda b: hnn_Gbar(compile_group_G(b), b), "6ec9bb0befa6054b1688d2aa75faa9f40c1fda1d110493f9e2960e57fcd578e1"),
}

GAP_PINS = {
    "G": (compile_group_G, "b0c1a52ef4c6e465ebff447028088e7276ca807a2a2fc47b934f0ed311051e3b"),
    "Gbar": (lambda b: compile_trimmed(b)[1], "31d2cb4008931f08e6fed6306bf6380d23630d915e3a8163684646d01d9fa42a"),
}

# `smachine build ...`: the CLI's machine files against the builders' pins
BUILD_PINS = {
    "rl": (["--rl", "a"], "RL[a]"),
    "lr-m-a:2": (["--lr-m", "a:2"], "LRm[a],2"),
    "lr-m-a-m-2": (["--lr-m", "a", "--m", "2"], "LRm[a],2"),  # m from --m
    "m3": (["--m3"], "M3"),
    "toy-even": (["--toy-even"], "toy-even"),
}

# `smachine compile --group NAME`: each entry of the CLI's group table
# against the pin of the compiler it names, and G at another size
COMPILE_PINS = {
    **{g: (["--group", g], EXPORT_PINS[name][1]) for name, g in (
        ("M", "M"), ("Mbar", "Mbar"), ("Gbar", "Gbar"), ("G", "G"), ("G_0", "Gk:0"), ("Gbar-hnn", "Gbar-hnn"),
    )},
    **{f"{g}-gap": (["--group", g, "--format", "gap-style"], GAP_PINS[g][1]) for g in GAP_PINS},
    "G(2,16)": (["--group", "G", "--m", "2", "--L", "16"], "4b3a893db842df02cc731628e4c3c4f08461b39b108d3e04df980664bec8f106"),
}

# `smachine disk ... --budget 3000`: the witness paths of the disk-word
# searches show up in the cell counts
DISK_PINS = {
    "k0": (["--k", "0"], "47ccf33412ded519b44ade306ad7224ecf1c4fa750e0a9b4a32eebd581f9e604"),
    "k1": (["--k", "1"], "be18aaacce27941a56ce356f7d8b50446c6347bac1f57d7dd76d9f4ae7f88224"),
    "hub-start": (["--hub", "start"], "f57e81af609b9f272d33dbed6274473c92fd0a1bbbc7eeb8d57b223b9779d8f0"),
}

# `smachine enumerate` and `simulate` on a built machine file: the paths
# the engines record, read back as histories and traces
CLI_PINS = {
    "enumerate-LR[a,b]": (
        ["--lr", "a,b"],
        lambda b: ["enumerate", "--word", "q1 a b p1 q2", "--depth", "4", "--filter", "all"],
        "7374497c3aaa6bc17ed261701f7b167c2abbb053d7fde679683686a247492034",
    ),
    "enumerate-main(2,12)": (
        ["--main"],
        lambda b: ["enumerate", "--word", str(b.w_word(0, 0)), "--depth", "3", "--filter", "eligible"],
        "af2cdc5cbd88c5fae157bbedf6c19e0c5b5d3a2320baeb457ae03a78f823568e",
    ),
    "simulate-main(2,12)": (
        ["--main"],
        lambda b: ["simulate", "--word", str(b.w_st), "--history", " ".join(map(format_slabel, b.witness_wst_to_wac(2)))],
        "1bd877a6a4c7a80f0be5160b0dcac5e63ea33dcef7318d8cb3ae74431eecd853",
    ),
}


@pytest.mark.parametrize("name", list(MACHINE_PINS))
def test_machine_file_pinned(name, session_bundle):
    build, digest = MACHINE_PINS[name]
    assert sha(print_machine(build(session_bundle))) == digest


@pytest.mark.parametrize("name", list(EXPORT_PINS))
def test_plain_export_pinned(name, session_bundle):
    compile_, digest = EXPORT_PINS[name]
    assert sha(export(compile_(session_bundle), "plain")) == digest


def test_gbar_before_g_on_a_fresh_bundle():
    """The bundle's relator table starts empty and may fill in any order:
    Gbar compiled first, then G, still export their pinned bytes."""
    b = build_main_machine(toy_even_recognizer(), 2, 12)
    assert not factory_for(b)._table
    for name in ("Gbar", "G"):
        compile_, digest = EXPORT_PINS[name]
        assert sha(export(compile_(b), "plain")) == digest


@pytest.mark.parametrize("name", list(GAP_PINS))
def test_gap_export_pinned(name, session_bundle):
    compile_, digest = GAP_PINS[name]
    assert sha(export(compile_(session_bundle), "gap-style")) == digest


@pytest.mark.parametrize("name", list(BUILD_PINS))
def test_build_output_pinned(name, capsys):
    args, machine = BUILD_PINS[name]
    assert main(["build", *args]) == 0
    assert sha(capsys.readouterr().out) == MACHINE_PINS[machine][1]


@pytest.mark.parametrize("name", list(COMPILE_PINS))
def test_compile_output_pinned(name, capsys):
    args, digest = COMPILE_PINS[name]
    assert main(["compile", *args]) == 0
    assert sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize("name", list(DISK_PINS))
def test_disk_output_pinned(name, capsys):
    args, digest = DISK_PINS[name]
    assert main(["disk", *args, "--budget", "3000"]) == 0
    assert sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize("name", list(CLI_PINS))
def test_cli_output_pinned(name, session_bundle, tmp_path, capsys):
    build, args, digest = CLI_PINS[name]
    mfile = str(tmp_path / "machine.txt")
    assert main(["build", *build, "-o", mfile]) == 0
    assert main([*args(session_bundle), "--machine", mfile]) == 0
    assert sha(capsys.readouterr().out) == digest


@pytest.fixture(scope="module")
def reduced_reports():
    """Every suite at reduced size, as `verify --suite all --depth 6
    --budget 2000` runs them."""
    return run_suites("all", m=2, L=12, max_tape=4, depth=6, budget=2000, ks=(0, 1, 2, 3))


def test_reports_pinned(reduced_reports):
    assert sha(write_reports(reduced_reports)) == "d174353bddcafb7c4c66860c77b05c917b0056cea445918309e5f13bab1b4760"


def test_report_stream_reads_back(reduced_reports):
    """The stream reads back as each report's own JSON, report for report."""
    docs = read_reports(write_reports(reduced_reports))
    assert docs == [json.loads(r.to_json()) for r in reduced_reports]


def _chi_starts(b):
    m3 = b.m5.m4.m3
    return m3.machine, [start_configuration_m3(m3, 0, ["fin"]), start_configuration_m3(m3, 2, ["del2", "fin"])]


SWEEP_PINS = {
    "chi-depth-8": (
        lambda b: (*_chi_starts(b), 8),
        28_218,
        "73593014e78e0e8ce501e46e50cc631aebb23ca5881b69e4b4285e49f2e7901d",
    ),
    "no-return-W(0,0)-depth-6": (
        lambda b: (b.without_first_two_sets, [b.w_word(0, 0)], 6),
        4_952,
        "71339ab114d800c9acaa277863646e6ca0ac0a8258e8a054ec934235b2520f34",
    ),
    "no-return-W(2,2)-depth-6": (
        lambda b: (b.without_first_two_sets, [b.w_word(2, 2)], 6),
        4_952,
        "21371fdafd1df14d59f0e6931c69cd0cf9c25ba4bd42b316dc078a6153b79fc4",
    ),
}


@pytest.mark.parametrize("name", list(SWEEP_PINS))
def test_sweep_states_pinned(name, session_bundle):
    """One line per state of plain ``reach_levels``, level by level in
    the sweep's own order: a change that keeps every count but swaps a
    state, its last rule or the order that decides which path wins
    changes the digest."""
    sweep, count, digest = SWEEP_PINS[name]
    h = hashlib.sha256()
    n = 0
    for t, states in reach_levels(*sweep(session_bundle)):
        for s in states:
            h.update(f"{t}\t{s.end}\t{s.last}\t{s.extra}\n".encode())
        n += len(states)
    assert (n, h.hexdigest()) == (count, digest)
