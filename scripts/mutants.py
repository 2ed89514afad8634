#!/usr/bin/env python3
"""Mutation gate for the rule-application fast paths (with the move
``is_applicable`` hands to ``apply_rule``), the word
constructor's checks, the relator table and its superscript rule, the
sweep labels and phase letters, the word search and its first-path-wins
level dedup, the order of each level's states, relator membership, the
level-sweep report driver, the enumeration's memo and the per-path
statistics wi-bound carries, the rule sets of the trimmed and no-return
machines, the report bytes, the collector pause around the engine's
drivers, and the failure branches of the checks, the trapezium and disk
guards, the machine-file domain parser and the word adjacency check,
and the CLI's group table and the size of its bundle.

    python3 scripts/mutants.py

Each mutant is one curated source edit.  For each, ``src/``, ``tests/``
and ``scripts/`` (which the CLI tests run) are copied to a temporary
directory, the edit is applied to the copy, and a fast subset of the
tests (``TESTS``) runs against it with a timeout.  A mutant is killed by a failing run or by the timeout,
which is reported as such.  The unedited copy runs first and must pass,
or no kill means anything.  At most two runs go at once, and the
working tree is never written to.

Exit 0 when every mutant is killed; 1 when one survives, when an edit
no longer matches its source exactly once, or when the unedited copy
fails.  A survivor means a missing test: add the test, never drop the
mutant.  Stdlib only; not part of Tier-1.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = (
    "tests/test_successors.py",
    "tests/test_machine.py",
    "tests/test_pins.py",
    "tests/test_presentation.py",
    "tests/test_lr.py",
    "tests/test_checks.py",
    "tests/test_words.py",
    "tests/test_trapezia.py",
    "tests/test_cli.py",
)
TIMEOUT_S = 600
JOBS = 2

# (name, file under src/smachine, ((old, new), ...)): every old text must
# occur exactly once in its file.
MUTANTS: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    (
        "skip the domain check of the last tape",
        "machine.py",
        (("compress(zip(m.tapes, w.u), w.u)", "compress(zip(m.tapes, w.u[:-1]), w.u)"),),
    ),
    (
        "skip the reducedness check of a tape",
        "words.py",
        (("            if len(w) > 1 and not is_reduced(w):\n", "            if False:\n"),),
    ),
    (
        "skip the unreduced-pair check",
        "words.py",
        (("            if not u[i]:\n", "            if False:\n"),),
    ),
    (
        "key the move cache on the first state letter only",
        "machine.py",
        (
            ("            moves = self._moves[q]\n", "            moves = self._moves[q[0]]\n"),
            ("            moves = self._moves[q] = {", "            moves = self._moves[q[0]] = {"),
        ),
    ),
    (
        "return the last lookup's moves for any state tuple",
        "machine.py",
        (("        if last[0] is q:\n", "        if last[0] is not None:\n"),),
    ),
    (
        "key the last-passed memo on the rule alone",
        "machine.py",
        (("    if last_w is not w or last_rule is not rule:\n", "    if last_rule is not rule:\n"),),
    ),
    (
        "store the memo when the domain check fails",
        "machine.py",
        (
            (
                "    if isinstance(m, str):\n"
                "        return False\n"
                '    object.__setattr__(machine, "_last_passed", (w, rule, m))\n',
                '    object.__setattr__(machine, "_last_passed", (w, rule, m))\n'
                "    if isinstance(m, str):\n"
                "        return False\n",
            ),
        ),
    ),
    (
        "reuse a cached move by label without comparing the rule",
        "machine.py",
        (("    if m is None or not (m.rule is rule or m.rule == rule):\n", "    if m is None:\n"),),
    ),
    (
        "swap the inserts of a negative letter",
        "machine.py",
        (("    return invert_word(p.b), invert_word(p.a)\n", "    return invert_word(p.a), invert_word(p.b)\n"),),
    ),
    (
        "stop the junction join one letter early",
        "words.py",
        (("    while i < m and x[n - 1 - i]", "    while i < m - 1 and x[n - 1 - i]"),),
    ),
    (
        "drop the skip of the last rule's inverse in successors",
        "enumerate.py",
        (("        if last is not None and last[0] == r.label and last[1] == -r.sign:\n            continue\n", ""),),
    ),
    (
        "key the relator table without the superscript",
        "presentation.py",
        (
            ('key = ("q", rule.label, rule.sign, j, None, sup)', 'key = ("q", rule.label, rule.sign, j, None)'),
            ('key = ("a", rule.label, rule.sign, sector, letter, sup)', 'key = ("a", rule.label, rule.sign, sector, letter)'),
        ),
    ),
    (
        "key the relator table without the part or sector",
        "presentation.py",
        (
            ('key = ("q", rule.label, rule.sign, j, None, sup)', 'key = ("q", rule.label, rule.sign, None, sup)'),
            ('key = ("a", rule.label, rule.sign, sector, letter, sup)', 'key = ("a", rule.label, rule.sign, letter, sup)'),
        ),
    ),
    (
        "read a sweep run's odd phases left to right",
        "lr.py",
        (("for a in (content[::-1] if i % 2 == 1 else content)]", "for a in content]"),),
    ),
    (
        "name a backward stage's rules without _b",
        "compose.py",
        (('return f"s{sigma}_{label}" + ("_b" if kind == "bwd" else "")', 'return f"s{sigma}_{label}"'),),
    ),
    (
        "swap a sweep stage's a/b phase letters",
        "compose.py",
        (('''lambda i: f"{'ab'[i - 1]}_s{sigma}"''', '''lambda i: f"{'ba'[i - 1]}_s{sigma}"'''),),
    ),
    (
        "let the last path win in reach_levels",
        "enumerate.py",
        (
            (
                "                if key not in nxt:\n                    nxt[key] = Computation(w2, sl, s, x)\n",
                "                nxt[key] = Computation(w2, sl, s, x)\n",
            ),
        ),
    ),
    (
        "turn sort_keys off in CheckReport.to_json",
        "checks.py",
        (("json.dumps(self.to_dict(), sort_keys=True, indent=2)", "json.dumps(self.to_dict(), sort_keys=False, indent=2)"),),
    ),
    (
        "report pass at the first offending level",
        "checks.py",
        (('                status="fail",\n                params=fail_params,\n', '                status="pass",\n                params=fail_params,\n'),),
    ),
    (
        "count the offending level's states in a fail report",
        "checks.py",
        (('                counts={**counts, "states": seen},\n', '                counts={**counts, "states": seen + len(states)},\n'),),
    ),
    (
        "charge the search budget after the expansion",
        "enumerate.py",
        (
            (
                "                spent += 1\n"
                "                if spent > budget:\n"
                "                    return None, True\n"
                "                if w2 in seen:\n"
                "                    continue\n"
                "                seen[w2] = s2 = Computation(w2, r.signed_label, s)\n",
                "                if w2 in seen:\n"
                "                    continue\n"
                "                seen[w2] = s2 = Computation(w2, r.signed_label, s)\n"
                "                spent += 1\n"
                "                if spent > budget:\n"
                "                    return None, True\n",
            ),
        ),
    ),
    (
        "loop while either frontier is non-empty",
        "enumerate.py",
        (("    while fq and (bq or not bidirectional):\n", "    while fq or bq:\n"),),
    ),
    (
        "give theta(23) superscripts on both sides",
        "main_machine.py",
        (('return (rule.sign > 0, rule.sign < 0) if fam == "mixed"', 'return (True, True) if fam == "mixed"'),),
    ),
    (
        "drop theta(23) from the no-return machine",
        "main_machine.py",
        (('self._restricted((*PLAIN_FAMILY_TAGS, MIXED_TAG), "Mbar+tr_23")', 'self._restricted(PLAIN_FAMILY_TAGS, "Mbar+tr_23")'),),
    ),
    (
        "keep theta(23) in Mbar",
        "main_machine.py",
        (('self._restricted(PLAIN_FAMILY_TAGS, "Mbar")', 'self._restricted((*PLAIN_FAMILY_TAGS, MIXED_TAG), "Mbar")'),),
    ),
    (
        "answer a miss in has_relator without the canonical set",
        "presentation.py",
        (("        canon = self._canonical_relators\n", "        canon = self.relator_set\n"),),
    ),
    (
        "leave the collector off after a pause",
        "enumerate.py",
        (("        if was_on:\n            gc.enable()\n", "        pass\n"),),
    ),
    (
        "turn the collector on after a pause the caller had it off for",
        "enumerate.py",
        (("        if was_on:\n", "        if True:\n"),),
    ),
    (
        "swap the first two states of each level",
        "enumerate.py",
        (("        level = list(nxt.values())\n", "        level = list(nxt.values())\n        level[:2] = level[1::-1]\n"),),
    ),
    (
        "never report a constructed witness that misses W_ac",
        "checks.py",
        (
            (
                "            if comp.end != bundle.w_ac:\n                failures.append(f\"k={k}: constructed",
                "            if False:\n                failures.append(f\"k={k}: constructed",
            ),
        ),
    ),
    (
        "never report a search witness from a rejected input",
        "checks.py",
        (('                failures.append(f"k={k}: reached but rejected by the reference acceptor")\n', ""),),
    ),
    (
        "never report a (theta,a)-relator that nu keeps",
        "checks.py",
        (("            if nu(r.word) != ():\n", "            if False:\n"),),
    ),
    (
        "never skip a period that never applies",
        "checks.py",
        (("    if reps == 0:\n", "    if False:\n"),),
    ),
    (
        "let bands that do not stack form a trapezium",
        "trapezia.py",
        (("            if a.top != b.bottom:\n", "            if False:\n"),),
    ),
    (
        "count the disk cells of a computation that is no witness",
        "trapezia.py",
        (("    if not (is_accepting or is_access):\n", "    if False:\n"),),
    ),
    (
        "let a sector take two domains in a machine file",
        "serialize.py",
        (("            if sec in domains:\n", "            if False:\n"),),
    ),
    (
        "let a tape sit beside no sector",
        "machine.py",
        (("            if sec is None or not legal:\n", "            if not legal:\n"),),
    ),
    (
        "read the prefix peak of the wrong parent",
        "checks.py",
        (
            (
                "        return t + 1, max(peak, word.length()), max(gain, step_gain), runs\n",
                "        return t + 1, max((comp.parent or comp).extra[1], word.length()), max(gain, step_gain), runs\n",
            ),
        ),
    ),
    (
        "key the enumeration memo on the word alone",
        "enumerate.py",
        (("            key = (c.end, skip)\n", "            key = c.end\n"),),
    ),
    (
        "do not reset a periodic run when the label differs",
        "checks.py",
        (("        e = e + 1 if next(earlier, None) == label else p\n", "        e = e + 1 if next(earlier, None) == label else e\n"),),
    ),
    (
        "compile Gbar as Mbar in the CLI's table",
        "cli.py",
        (('"Gbar": lambda b: compile_trimmed(b)[1],', '"Gbar": lambda b: compile_trimmed(b)[0],'),),
    ),
    (
        "build the CLI's bundle at the default size",
        "cli.py",
        (("checks.bundle_cached(args.m, args.L)", "checks.bundle_cached(2, 12)"),),
    ),
)


def _run(edits: tuple[str, tuple[tuple[str, str], ...]] | None) -> tuple[str, float]:
    """Apply ``edits`` (file, replacements) to a fresh copy and run the
    tests there; returns (outcome, seconds)."""
    with tempfile.TemporaryDirectory(prefix="smachine-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "scripts", work / "scripts", ignore=shutil.ignore_patterns("__pycache__"))
        if edits is not None:
            name, replacements = edits
            path = work / "src" / "smachine" / name
            text = path.read_text()
            for old, new in replacements:
                if text.count(old) != 1:
                    return f"stale: {old.strip()!r} occurs {text.count(old)} times in {name}", 0.0
                text = text.replace(old, new)
            path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.perf_counter() - t0
        return ("pass" if proc.returncode == 0 else "fail"), time.perf_counter() - t0


def main() -> int:
    outcome, secs = _run(None)
    print(f"{'unedited copy':56} {outcome} ({secs:.0f} s)", flush=True)
    if outcome != "pass":
        return 1
    bad = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = pool.map(lambda m: _run((m[1], m[2])), MUTANTS)
        for (name, _, _), (outcome, secs) in zip(MUTANTS, results):
            if outcome == "timeout":
                verdict = "killed (timeout)"
            elif outcome == "fail":
                verdict = "killed"
            else:
                verdict = "SURVIVED" if outcome == "pass" else outcome
                bad += 1
            print(f"{name:56} {verdict} ({secs:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
