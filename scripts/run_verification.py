#!/usr/bin/env python3
"""Run every verification suite and write reports + artifacts.

Reproduces the full desk-scale experiment: builds the machine tower,
compiles the presentations, runs all harness suites, and drops the
reports, machine files, manifest, and presentation exports under an
output directory (default ./out).  Each file is written by the
``smachine`` command that a user would type for it.

    python3 scripts/run_verification.py [--out DIR] [--m 2] [--L 12] [--jobs N]

Exit code 2 if any suite fails, 1 on a usage error (as ``smachine``).
"""

import sys
from pathlib import Path

from smachine.checks import bundle_cached
from smachine.cli import _nonnegative, _Parser, _positive, _reports, main as smachine
from smachine.main_machine import BadParameters


def main() -> int:
    ap = _Parser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--L", type=int, default=12)
    ap.add_argument("--jobs", type=_positive, default=1)
    ap.add_argument("--budget", type=_nonnegative, default=None)
    args = ap.parse_args()

    try:
        bundle_cached(args.m, args.L)
    except BadParameters as e:
        ap.error(str(e))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    size = [f"--m={args.m}", f"--L={args.L}"]
    for command, name in (
        (["build", "--main", "--manifest", str(out / "manifest.json")], "machine_M.txt"),
        (["build", "--trimmed"], "machine_Mbar.txt"),
        (["compile", "--group", "G"], "presentation_G.txt"),
        (["compile", "--group", "G", "--format", "gap-style"], "presentation_G.g"),
        (["compile", "--group", "Gbar"], "presentation_Gbar.txt"),
        (["compile", "--group", "Gk:0"], "presentation_G0_hnn.txt"),
        (["compile", "--group", "Gbar-hnn"], "presentation_Gbar_hnn.txt"),
    ):
        smachine([*command, *size, "-o", str(out / name)])

    budget = [] if args.budget is None else [f"--budget={args.budget}"]
    reports = out / "reports.json"
    code = smachine(["verify", "--suite", "all", f"--jobs={args.jobs}", *budget, *size, "-o", str(reports)])
    for r in _reports(reports.read_text()):
        line = f"{r['suite']:24} {r['status']}"
        if r.get("depth_exhausted"):
            line += "  (depth exhausted)"
        print(line)
    print(f"\nartifacts in {out}/")
    return code


if __name__ == "__main__":
    sys.exit(main())
