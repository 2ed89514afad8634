"""Command-line surface: build | simulate | enumerate | compile | export
| verify | disk | report.

Exit codes: 0 success, 1 usage, 2 verification failure, 3 I/O.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from . import checks
from .compose import add_control_letters, add_history_sectors, compose_m3
from .enumerate import enumerate_computations
from .lr import build_lr, build_lr_m, build_rl
from .machine import BadParameters, NotApplicableAt, UnknownRule, format_slabel, run_history
from .main_machine import family
from .presentation import (
    compile_group_G,
    compile_group_M,
    compile_trimmed,
    export as export_presentation,
    hnn_Gbar,
    hnn_Gk,
    parse_presentation,
)
from .serialize import FormatError, manifest, parse_machine, print_machine
from .toy import toy_even_recognizer
from .trapezia import disk_diagram_cells, is_disk_word, plain_lift, power_word
from .words import AdmissibleWord, MalformedWord

EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_IO = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _write(path: str | None, text: str) -> None:
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            Path(path).write_text(text)
    except OSError as e:
        sys.stderr.write(f"i/o error: {e}\n")
        sys.exit(EXIT_IO)


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    sys.exit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        sys.stderr.write(f"i/o error: {e}\n")
        sys.exit(EXIT_IO)


def _parse(path: str, parse):
    """``parse`` of the file at ``path``; a malformed file is an I/O error."""
    text = _read(path)
    try:
        return parse(text)
    except FormatError as e:
        sys.stderr.write(f"format error: {e}\n")
        sys.exit(EXIT_IO)


def _bundle(args) -> "object":
    return checks.bundle_cached(args.m, args.L)


def cmd_build(args) -> int:
    if args.toy_even and not (args.lr is None and args.rl is None and args.lr_m is None):
        _usage_error("--toy-even names the recognizer of --main/--trimmed/--m3; it does not go with --lr/--rl/--lr-m")
    if args.main or args.trimmed:
        bundle = _bundle(args)
        machine = bundle.trimmed if args.trimmed else bundle.machine
        params = {"m": args.m, "L": args.L, "N": bundle.N, "toy": bundle.toy.name, "c4": None}
    elif args.lr is not None:
        machine = build_lr(args.lr.split(","))
        params = {"alphabet": args.lr.split(",")}
    elif args.rl is not None:
        machine = build_rl(args.rl.split(","))
        params = {"alphabet": args.rl.split(",")}
    elif args.lr_m is not None:
        alpha, m = args.lr_m
        m = args.m if m is None else m
        machine = build_lr_m(alpha, m)
        params = {"alphabet": alpha, "m": m}
    elif args.m3:
        toy = toy_even_recognizer()
        machine = compose_m3(add_control_letters(add_history_sectors(toy.machine)), args.m).machine
        params = {"m": args.m, "toy": toy.name}
    elif args.toy_even:
        machine = toy_even_recognizer().machine
        params = {}
    else:
        _usage_error("pick one of --main/--trimmed/--lr/--rl/--lr-m/--m3/--toy-even")
    _write(args.output, print_machine(machine))
    if args.manifest:
        _write(args.manifest, manifest(machine, **params))
    return EXIT_OK


def _load_word(machine, text: str) -> AdmissibleWord:
    try:
        return machine.hardware.word(text.split())
    except MalformedWord as e:
        _usage_error(f"--word: {e}")


def cmd_simulate(args) -> int:
    machine = _parse(args.machine, parse_machine)
    w = _load_word(machine, args.word)
    try:
        comp = run_history(machine, w, args.history.split())
    except (UnknownRule, NotApplicableAt) as e:
        _usage_error(f"--history: {e}")
    start, *steps = comp.steps()
    lines = [str(start.end)] + [f"  --{format_slabel(s.last)}--> {s.end}" for s in steps]
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    machine = _parse(args.machine, parse_machine)
    w = _load_word(machine, args.word)
    # an eligible history may follow theta(23), the mixed-family rule, by its inverse
    mixed = next((r.label for r in machine.positive_rules if family(r) == "mixed"), None)
    out = []
    for comp in enumerate_computations(machine, w, args.depth, args.filter, mixed):
        hist = " ".join(format_slabel(s) for s in comp.history) or "-"
        out.append(f"{len(comp)} | {hist} | {comp.end}")
    _write(args.output, "\n".join(out) + "\n")
    return EXIT_OK


def cmd_compile(args) -> int:
    _write(args.output, export_presentation(args.group(_bundle(args)), args.format))
    return EXIT_OK


def cmd_export(args) -> int:
    # the export runs inside _parse: GAP names that collide are the file's content
    _write(args.output, _parse(args.presentation, lambda t: export_presentation(parse_presentation(t), args.format)))
    return EXIT_OK


def _replay_params(text: str) -> dict[str, int]:
    """The ``m`` and ``L`` that a manifest records."""
    try:
        doc = json.loads(text)
        return {k: int(doc[k]) for k in ("m", "L") if k in doc}
    except (ValueError, TypeError) as e:
        raise FormatError(f"manifest: {e}") from None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(_nonnegative(k) for k in text.split(","))


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _letters_m(text: str) -> tuple[list[str], int | None]:
    """``LETTERS[:M]``: the alphabet, and m when it is given."""
    letters, _, m = text.partition(":")
    return letters.split(","), int(m) if m else None


GROUPS = {
    "M": compile_group_M,
    "G": compile_group_G,
    "Mbar": lambda b: compile_trimmed(b)[0],
    "Gbar": lambda b: compile_trimmed(b)[1],
    "Gbar-hnn": lambda b: hnn_Gbar(compile_group_G(b), b),
}


def _group(text: str):
    """The compiler of a group in ``GROUPS``, or of ``Gk:<k>``."""
    if text.startswith("Gk:"):
        k = _nonnegative(text[3:])
        return lambda b: hnn_Gk(compile_group_G(b), b, k)
    if text not in GROUPS:
        raise argparse.ArgumentTypeError(f"unknown group {text!r}")
    return GROUPS[text]


def cmd_verify(args) -> int:
    params = {"m": args.m, "L": args.L}
    if args.manifest:
        params.update(_parse(args.manifest, _replay_params))
    # an option left unset runs its check at the check's own default
    reports = checks.run_suites(
        args.suite,
        **params,
        max_tape=args.max_tape,
        depth=args.depth,
        budget=args.budget,
        ks=args.ks,
        jobs=args.jobs,
    )
    _write(args.output, checks.write_reports(reports))
    if any(r.status == "fail" for r in reports):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_disk(args) -> int:
    bundle = _bundle(args)
    k = 0 if args.k is None else args.k  # None lets argparse see --k 0 beside --hub
    if args.hub:
        w = bundle.w_st if args.hub == "start" else bundle.w_ac
    else:
        w = bundle.w_word(k, k)
    big = power_word(w, bundle.L)
    # is_disk_word reads only the erasure, so the plain lift serves every word
    verdict = is_disk_word(plain_lift(big), bundle, budget=args.budget)
    doc = {
        "word": f"{'hub-' + args.hub if args.hub else f'W({k},{k})'}^L",
        "verdict": verdict.verdict,
        "direction": verdict.direction,
        "witness_length": len(verdict.witness) if verdict.witness is not None else None,
        "budget_exhausted": verdict.budget_exhausted,
    }
    if verdict.verdict == "yes" and verdict.witness:
        src = w if verdict.direction == "accepting" else bundle.s1()
        comp = run_history(bundle.machine, src, verdict.witness)
        doc["disk_cells"] = disk_diagram_cells(w, comp, bundle)
    if not args.hub and bundle.toy.accepts(k):
        # the toy accepts this input: the constructed accepting run gives
        # the hub-plus-L-trapezia cell count
        hist = bundle.witness_wkk_to_wac(k)
        comp = run_history(bundle.machine, w, hist)
        doc["verdict"] = "yes"
        doc["accepting_witness_length"] = len(hist)
        doc["accepting_cells"] = disk_diagram_cells(w, comp, bundle)
    _write(args.output, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    docs = _parse(args.reports, checks.read_reports)
    lines = [f"{'suite':24} {'status':8} notes"]
    worst = EXIT_OK
    for d in docs:
        extra = []
        if d.get("depth_exhausted"):
            extra.append("depth-exhausted")
        for k, v in sorted(d.get("stats", {}).items()):
            if isinstance(v, (int, float, str)):
                extra.append(f"{k}={v}")
        if d["status"] == "fail":
            worst = EXIT_VERIFY
            extra.append("counterexample recorded")
        lines.append(f"{d['suite']:24} {d['status']:8} {'; '.join(extra)}")
    _write(args.output, "\n".join(lines) + "\n")
    return worst


def make_parser() -> _Parser:
    p = _Parser(prog="smachine", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, default=2)
        sp.add_argument("--L", type=int, default=12)
        sp.add_argument("-o", "--output", default=None)

    b = sub.add_parser("build", help="construct a machine and write its file")
    common(b)
    which = b.add_mutually_exclusive_group()
    which.add_argument("--main", action="store_true")
    which.add_argument("--trimmed", action="store_true")
    b.add_argument("--toy-even", action="store_true", help="the recognizer of --main/--trimmed/--m3; alone, build it")
    which.add_argument("--lr", metavar="LETTERS")
    which.add_argument("--rl", metavar="LETTERS")
    which.add_argument("--lr-m", metavar="LETTERS:M", type=_letters_m)
    which.add_argument("--m3", action="store_true")
    b.add_argument("--manifest")
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("simulate", help="run a history on a word")
    s.add_argument("--machine", required=True)
    s.add_argument("--word", required=True)
    s.add_argument("--history", required=True)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("enumerate", help="stream computations from a word")
    e.add_argument("--machine", required=True)
    e.add_argument("--word", required=True)
    e.add_argument("--depth", type=_nonnegative, default=3)
    e.add_argument("--filter", choices=("reduced", "eligible", "all"), default="reduced")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=cmd_enumerate)

    c = sub.add_parser("compile", help="emit a group presentation")
    common(c)
    c.add_argument("--group", required=True, type=_group, help=" | ".join((*GROUPS, "Gk:<k>")))
    c.add_argument("--format", choices=("plain", "gap-style"), default="plain")
    c.set_defaults(func=cmd_compile)

    x = sub.add_parser("export", help="re-export a presentation file")
    x.add_argument("--presentation", required=True)
    x.add_argument("--format", choices=("plain", "gap-style"), default="gap-style")
    x.add_argument("-o", "--output", default=None)
    x.set_defaults(func=cmd_export)

    v = sub.add_parser("verify", help="run harness suites")
    common(v)
    v.add_argument(
        "--suite",
        default="all",
        help=" | ".join((*checks.SUITE_NAMES, "all")),
    )
    v.add_argument("--max-tape", type=_nonnegative, default=None)
    v.add_argument("--depth", type=_nonnegative, default=None)
    v.add_argument("--budget", type=_nonnegative, default=None)
    v.add_argument("--ks", type=_ints, default=None, help="comma-separated inputs for the language experiment")
    v.add_argument("--jobs", type=_positive, default=1)
    v.add_argument("--manifest", default=None, help="replay parameters from a recorded manifest")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("disk", help="disk-word verdicts and cell counts")
    common(d)
    word = d.add_mutually_exclusive_group()
    word.add_argument("--k", type=_nonnegative, default=None, help="default 0")
    word.add_argument("--hub", choices=("start", "accept"), default=None)
    d.add_argument("--budget", type=_nonnegative, default=10_000)
    d.set_defaults(func=cmd_disk)

    r = sub.add_parser("report", help="render harness reports as a table")
    r.add_argument("--reports", required=True)
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadParameters as e:  # an argument a builder or an experiment rejects
        _usage_error(str(e))


if __name__ == "__main__":
    sys.exit(main())
