#!/usr/bin/env python3
"""Run every verification suite and write reports + artifacts.

Reproduces the full desk-scale experiment: builds the machine tower,
compiles the presentations, runs all harness suites, and drops the
reports, machine files, manifest, and presentation exports under an
output directory (default ./out).

    python3 scripts/run_verification.py [--out DIR] [--m 2] [--L 12] [--jobs N]

Exit code 2 if any suite fails, 1 on a usage error (as ``smachine``).
"""

import sys
from pathlib import Path

from smachine.checks import bundle_cached, run_suites
from smachine.cli import _nonnegative, _Parser, _positive
from smachine.main_machine import BadParameters
from smachine.presentation import compile_group_G, compile_trimmed, export, hnn_Gbar, hnn_Gk
from smachine.serialize import manifest, print_machine


def main() -> int:
    ap = _Parser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--L", type=int, default=12)
    ap.add_argument("--jobs", type=_positive, default=1)
    ap.add_argument("--budget", type=_nonnegative, default=None)
    args = ap.parse_args()

    try:
        bundle = bundle_cached(args.m, args.L)
    except BadParameters as e:
        ap.error(str(e))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    (out / "machine_M.txt").write_text(print_machine(bundle.machine))
    (out / "machine_Mbar.txt").write_text(print_machine(bundle.trimmed))
    (out / "manifest.json").write_text(
        manifest(bundle.machine, m=args.m, L=args.L, N=bundle.N, toy=bundle.toy.name, c4=None)
    )
    pres_g = compile_group_G(bundle)
    (out / "presentation_G.txt").write_text(export(pres_g, "plain"))
    (out / "presentation_G.g").write_text(export(pres_g, "gap-style"))
    _, gbar = compile_trimmed(bundle)
    (out / "presentation_Gbar.txt").write_text(export(gbar, "plain"))
    (out / "presentation_G0_hnn.txt").write_text(export(hnn_Gk(pres_g, bundle, 0), "plain"))
    (out / "presentation_Gbar_hnn.txt").write_text(export(hnn_Gbar(pres_g, bundle), "plain"))

    reports = run_suites("all", jobs=args.jobs, m=args.m, L=args.L, budget=args.budget)
    text = "".join(r.to_json() for r in reports)
    (out / "reports.json").write_text(text)

    failed = [r for r in reports if r.status == "fail"]
    for r in reports:
        line = f"{r.suite:24} {r.status}"
        if r.depth_exhausted:
            line += "  (depth exhausted)"
        print(line)
    print(f"\nartifacts in {out}/")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
