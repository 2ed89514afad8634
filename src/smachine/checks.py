"""Falsification harnesses for the computation-level length and
occurrence bounds, the accepted-language experiment, and the
presentation audits.

Each suite returns a :class:`CheckReport`; a failing suite carries a
minimal reproduction (start word plus history) replayable through
``run_history``.  Reports serialize deterministically: no timestamps,
sorted keys, explicit seeds.  ``write_reports`` writes the stream that
``smachine verify`` prints, and ``read_reports`` reads it back.

The level sweeps (lr-bound, chi-occurrences, no-return) report through
one driver, ``_sweep``: ``states`` counts every state of every level on
a pass, and the states of the levels before the offending one on a
fail, whose counterexample is the offending state's start and history.
No-return and accepted-language run on the bundle's restricted machines.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .compose import M3Build, start_configuration_m3
from .enumerate import PRUNE, enumerate_computations, paused_collector, reach_levels, search
from .lr import build_lr
from .machine import (
    BadParameters,
    Computation,
    History,
    NotApplicableAt,
    SignedLabel,
    SMachine,
    format_slabel,
    history,
    run_history,
)
from .main_machine import MainMachineBundle, build_main_machine
from .presentation import Presentation, compile_group_G, compile_trimmed, mu, nu
from .serialize import FormatError
from .toy import toy_even_recognizer
from .words import AdmissibleWord, QLetter, YLetter


@dataclass
class CheckReport:
    suite: str
    status: str  # "pass" | "fail" | "skip"
    params: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    counterexample: dict | None = None
    depth_exhausted: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "notes": list(self.notes)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def write_reports(reports: Iterable[CheckReport]) -> str:
    """The report stream: each report's JSON, one after another."""
    return "".join(r.to_json() for r in reports)


def read_reports(text: str) -> list[dict]:
    """The reports in a stream that ``write_reports`` gives, as objects."""
    decoder = json.JSONDecoder()
    docs = []
    rest = text.lstrip()
    while rest:
        try:
            doc, end = decoder.raw_decode(rest)
        except json.JSONDecodeError as e:
            raise FormatError(f"reports: report {len(docs) + 1}: {e}") from None
        ok = isinstance(doc, dict) and isinstance(doc.get("stats", {}), dict)
        if not ok or not all(isinstance(doc.get(k), str) for k in ("suite", "status")):
            raise FormatError(f"reports: report {len(docs) + 1} is not a report object")
        docs.append(doc)
        rest = rest[end:].lstrip()
    return docs


def _repro(start: AdmissibleWord, history: History) -> dict:
    return {
        "start": str(start),
        "history": [format_slabel(s) for s in history],
    }


# --------------------------------------------------------------------------
# level sweeps over reduced computations (all paths covered)


@paused_collector()
def _sweep(suite, levels, offending, params, fail_params, counts, stats) -> CheckReport:
    """Walk ``levels`` until ``offending(t, states)`` gives a state and its
    fail stats; a pass carries ``stats`` as the walk leaves them.  The
    walk runs the level generator, with the cyclic collector paused."""
    seen = 0
    for t, states in levels:
        hit = offending(t, states)
        if hit is not None:
            bad, fail_stats = hit
            return CheckReport(
                suite=suite,
                status="fail",
                params=fail_params,
                counts={**counts, "states": seen},
                stats=fail_stats,
                counterexample=_repro(bad.start, bad.history),
            )
        seen += len(states)
    return CheckReport(suite=suite, status="pass", params=params, counts={**counts, "states": seen}, stats=stats)


def check_lr_bound(max_tape: int = 4) -> CheckReport:
    """Sweep-machine length bound: t <= |W0| + |Wt| - 2.

    Exhaustive over reduced standard-base computations whose words stay
    within the tape budget; any such computation longer than the largest
    possible bound is reported outright.
    """
    lr = build_lr(["a"])
    contents = _reduced_words(sorted(lr.hardware.sector_alphabets[0]), max_tape)
    region_words = [
        AdmissibleWord((QLetter(0, "q1", 1), QLetter(1, p, 1), QLetter(2, "q2", 1)), (u0, u1))
        for p in lr.hardware.parts[1]
        for u0 in contents
        for u1 in contents
        if len(u0) + len(u1) <= max_tape
    ]
    max_bound = 2 * (3 + max_tape) - 2
    depth = max_bound + 1

    def within_tape(state, rule, word):
        return PRUNE if word.y_length() > max_tape else None

    stats = {"min_slack": None, "bound_cap": max_bound}

    def offending(t, states):
        if t == 0:
            return None
        for s in states:
            slack = s.start.length() + s.end.length() - 2 - t
            if stats["min_slack"] is None or slack < stats["min_slack"]:
                stats["min_slack"] = slack
            if slack < 0:
                return s, {"violation_at": t}
        return None

    # shortest starts first: the first path into a state then comes from
    # the shortest start reaching it, which makes the bound check tightest
    starts = sorted(region_words, key=AdmissibleWord.length)
    return _sweep(
        "lr-bound",
        reach_levels(lr, starts, depth, extend=within_tape),
        offending,
        params={"max_tape": max_tape, "alphabet": ["a"], "depth": depth},
        fail_params={"max_tape": max_tape, "alphabet": ["a"]},
        counts={"start_words": len(region_words)},
        stats=stats,
    )


def _reduced_words(letters: Sequence[str], max_len: int):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for name in letters:
                for sign in (1, -1):
                    y = YLetter(name, sign)
                    if w and w[-1].name == name and w[-1].sign == -sign:
                        continue
                    nxt.append(w + (y,))
        out.extend(nxt)
        frontier = nxt
    return out


def _periodic_step(
    runs: tuple[int, ...], label: SignedLabel, earlier: Iterator[SignedLabel]
) -> tuple[tuple[int, ...], int]:
    """Append ``label`` to a history whose labels ``earlier`` gives, latest
    first; returns the new runs and the best gain ending at ``label``.

    ``runs[p-1]`` is the length of the history's longest suffix with
    period p, a suffix up to p long counting as p.  It grows by one when
    ``label`` equals the label p steps back, and resets to p otherwise.
    A run of length e ends in (H2)^k with |H2| = p and k = e // p, which
    offers (2k-3)p when k >= 2."""
    grown = []
    gain = 0
    for p, e in enumerate(runs, 1):
        e = e + 1 if next(earlier, None) == label else p
        grown.append(e)
        if e >= 2 * p:
            gain = max(gain, (2 * (e // p) - 3) * p)
    return tuple(grown), gain


def _best_periodic_gain(hist: History) -> int:
    """max over factorizations H1 (H2)^k H3 of (2k-3)|H2|, floored at 0:
    the fold of ``_periodic_step`` over ``hist``."""
    runs = tuple(range(1, len(hist) // 2 + 1))
    best = 0
    for i, label in enumerate(hist):
        runs, gain = _periodic_step(runs, label, reversed(hist[:i]))
        best = max(best, gain)
    return best


def _labels_back(comp: Computation) -> Iterator[SignedLabel]:
    """The labels of ``comp``'s history, latest first, read off its steps."""
    while comp.last is not None:
        yield comp.last
        comp = comp.parent


@paused_collector()
def check_wi_bound(
    machine: SMachine,
    starts: Sequence[AdmissibleWord],
    depth: int = 8,
) -> CheckReport:
    """Two-letter-base length bound with periodic-history discounts, over
    all computations (not only reduced ones).

    Each computation carries (t, peak length, gain, runs) in its extra,
    grown from its parent's by ``_periodic_step``, so no path's trace is
    scanned again; runs stop at period depth // 2, the longest that can
    repeat.  The enumeration runs with the cyclic collector paused."""

    def extend(comp, rule, word):
        t, peak, gain, runs = comp.extra
        runs, step_gain = _periodic_step(runs, rule.signed_label, _labels_back(comp))
        return t + 1, max(peak, word.length()), max(gain, step_gain), runs

    checked = 0
    min_slack = None
    for w0 in starts:
        if len(w0.q) != 2:
            raise BadParameters("wi bound applies to 2-letter-base words")
        n0 = w0.length()
        for comp in enumerate_computations(
            machine, w0, depth, "all", extend=extend, extra=(0, n0, 0, tuple(range(1, depth // 2 + 1)))
        ):
            checked += 1
            t, peak, gain, _ = comp.extra
            slack = n0 + comp.end.length() + 2 * t - gain - peak
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if slack < 0:
                return CheckReport(
                    suite="wi-bound",
                    status="fail",
                    params={"machine": machine.name, "depth": depth, "filter": "all"},
                    counts={"computations": checked},
                    stats={},
                    counterexample=_repro(w0, comp.history),
                )
    return CheckReport(
        suite="wi-bound",
        status="pass",
        params={"machine": machine.name, "depth": depth, "filter": "all", "starts": len(starts)},
        counts={"computations": checked},
        stats={"min_slack": min_slack},
    )


def check_chi_occurrences(
    m3: M3Build, starts: Sequence[AdmissibleWord], depth: int = 10
) -> CheckReport:
    """At most one occurrence of each stage-transition rule, either sign.

    Reduced standard-base computations, covered exhaustively by a level
    sweep over (word, last rule, capped occurrence vector).
    """
    chi_index = {lbl: i for i, lbl in enumerate(m3.chi_labels)}

    def occurrences(state, rule, word):
        vec = state.extra
        i = chi_index.get(rule.label)
        if i is None:
            return vec
        return vec[:i] + (min(vec[i] + 1, 2),) + vec[i + 1 :]

    stats = {"max_occurrences": 0}

    def offending(t, states):
        # the first state in level order is the first offending application
        bad = next((s for s in states if 2 in s.extra), None)
        if bad is not None:
            return bad, {"chi_rule": bad.last[0]}
        top = max((x for s in states for x in s.extra), default=0)
        stats["max_occurrences"] = max(stats["max_occurrences"], top)
        return None

    zero = (0,) * len(m3.chi_labels)
    levels = reach_levels(m3.machine, starts, depth, extend=occurrences, extra=zero)
    params = {"depth": depth, "starts": len(starts)}
    return _sweep("chi-occurrences", levels, offending, params, {"depth": depth}, {}, stats)


def check_norep(bundle: MainMachineBundle, k: int, depth: int = 8) -> CheckReport:
    """No nontrivial reduced return to W(k,k) without the first two sets."""
    target = bundle.w_word(k, k)

    def offending(t, states):
        back = next((s for s in states if t and s.end == target), None)
        return None if back is None else (back, {"return_at": t})

    levels = reach_levels(bundle.without_first_two_sets, [target], depth)
    params = {"k": k, "depth": depth}
    return _sweep("no-return", levels, offending, params, params, {}, {})


def check_periodic_distinctness(
    machine: SMachine,
    start: AdmissibleWord,
    period: Sequence[str],
    max_reps: int = 5,
) -> CheckReport:
    """Boundary words of a period-H computation are pairwise distinct.

    Runs H^j for the largest applicable j <= max_reps; computations with
    a period window repeating a word violate the hypothesis and are
    reported as skipped.
    """
    hist = history(*period)
    trace = [start]
    cur = start
    reps = 0
    for _ in range(max_reps):
        try:
            comp = run_history(machine, cur, hist)
        except NotApplicableAt:
            break
        trace.extend(comp.trace[1:])
        cur = comp.end
        reps += 1
    if reps == 0:
        return CheckReport(
            suite="periodic-distinctness",
            status="skip",
            params={"machine": machine.name, "period": [format_slabel(s) for s in hist]},
            notes=("period never applicable from the start word",),
        )
    p = len(hist)
    for r in range(len(trace) - p):
        if trace[r] == trace[r + p]:
            return CheckReport(
                suite="periodic-distinctness",
                status="skip",
                params={"machine": machine.name, "reps": reps},
                notes=(f"hypothesis violated: window at {r} repeats",),
            )
    # No two boundary words trace[j * p] can be equal here.  The state
    # letters come back after each period, and one period maps each tape
    # u to A·u·B for fixed reduced A, B.  If boundaries i and i + j are
    # equal, A^j·u·B^j = u, so (u⁻¹Au)^j = B^-j; roots are unique in a
    # free group, so A·u·B = u and boundaries i and i + 1 are already
    # equal, which the window check above reports at offset i·p.
    return CheckReport(
        suite="periodic-distinctness",
        status="pass",
        params={"machine": machine.name, "reps": reps, "period": [format_slabel(s) for s in hist]},
        counts={"boundaries": reps + 1},
        stats={},
    )


# --------------------------------------------------------------------------
# the accepted-language experiment


def accepted_language_experiment(
    bundle: MainMachineBundle,
    ks: Sequence[int] = (0, 1, 2, 3),
    budget: int = 20_000,
) -> CheckReport:
    """Compare machine-level reachability with the reference acceptor.

    For accepted inputs the straight-line witness is constructed and
    replayed; the bounded bidirectional search may independently certify
    reachability.  Both run on the trimmed machine.  Verdicts: yes (witness in
    hand), no (search closure exhausted), unknown (budget ran out).
    """
    machine = bundle.trimmed
    rows = []
    failures = []
    for k in ks:
        expected = bundle.toy.accepts(k)
        witness_len = None
        if expected:
            hist = bundle.witness_wkk_to_wac(k)
            comp = run_history(machine, bundle.w_word(k, k), hist)
            if comp.end != bundle.w_ac:
                failures.append(f"k={k}: constructed witness does not reach the accept word")
            verdict, witness_len, via = "yes", len(hist), "constructed"
        else:
            # only a rejected input is searched: "no" never meets an accepted
            # one, and a witness that reaches W_ac contradicts the acceptor
            wit, exhausted = search(machine, bundle.w_word(k, k), [bundle.w_ac], budget, bidirectional=True)
            if wit is not None:
                comp = run_history(machine, bundle.w_word(k, k), wit)
                if comp.end != bundle.w_ac:
                    failures.append(f"k={k}: search witness fails to replay")
                failures.append(f"k={k}: reached but rejected by the reference acceptor")
                verdict, witness_len = "yes", len(wit)
            else:
                verdict = "unknown" if exhausted else "no"
            via = "search"
        rows.append({"k": k, "expected": expected, "verdict": verdict, "via": via, "witness_length": witness_len})
    status = "fail" if failures else "pass"
    return CheckReport(
        suite="accepted-language",
        status=status,
        params={"ks": list(ks), "budget": budget},
        counts={"definite": sum(1 for r in rows if r["verdict"] != "unknown")},
        stats={"table": rows},
        counterexample={"failures": failures} if failures else None,
        depth_exhausted=any(r["verdict"] == "unknown" for r in rows),
    )


# --------------------------------------------------------------------------
# presentation audits


def presentation_audit(pres: Presentation, bundle: MainMachineBundle) -> CheckReport:
    """mu, nu, superscript-discipline, and count reconciliation."""
    failures: list[str] = []
    mu_checked = 0
    for r in pres.relators:
        if mu(pres, r.word) != 0:
            failures.append(f"mu != 0 on {r.tag} relator of {r.rule}")
        mu_checked += 1
    nu_killed = 0
    theta_q_balanced = 0
    for r in pres.relators:
        if r.tag == "theta-a":
            if nu(r.word) != ():
                failures.append(f"nu does not kill a (theta,a)-relator of {r.rule}")
            else:
                nu_killed += 1
        elif r.tag == "theta-q":
            per_rule: dict[str, int] = {}
            for g, s in r.word:
                if g.kind == "th":
                    per_rule[g.name] = per_rule.get(g.name, 0) + s
            if any(v != 0 for v in per_rule.values()):
                failures.append(f"theta exponent sum nonzero in relator of {r.rule}")
            else:
                theta_q_balanced += 1
    t_rel = 0
    for r in pres.relators:
        if r.tag == "theta-q" and r.part == 0 and r.sup is not None:  # part 0 is {t}
            sups = {}
            for g, s in r.word:
                if g.kind == "th":
                    sups[g.idx] = g.sup
            lo, hi = sups.get(1), sups.get(pres.N)
            if lo is None or hi is None or (lo - hi) % pres.L not in (1, pres.L - 1):
                failures.append(f"superscript discipline broken in (theta,t)-relator of {r.rule}")
            else:
                t_rel += 1
    hubs = [r for r in pres.relators if r.tag == "hub"]
    for h in hubs:
        if len(h.word) != pres.L * pres.N:
            failures.append(f"hub {h.rule} has length {len(h.word)} != L*N")
    # count reconciliation against the closed form, over the rules that
    # were actually compiled (the trimmed groups omit the early sets)
    supped_labels = {r.rule for r in pres.relators if r.sup is not None}
    compiled = {r.rule for r in pres.relators if r.tag in ("theta-q", "theta-a")}
    expected = len(hubs) + len([r for r in pres.relators if r.tag == "hnn"])
    for rule in bundle.machine.positive_rules:
        if rule.label not in compiled:
            continue
        inst = pres.L if rule.label in supped_labels else 1
        expected += inst * (pres.N + sum(len(d) for d in rule.domains))
    if expected != len(pres.relators):
        failures.append(f"relator count {len(pres.relators)} != closed form {expected}")
    return CheckReport(
        suite="presentation-audit",
        status="fail" if failures else "pass",
        params={"presentation": pres.name, "L": pres.L, "N": pres.N},
        counts={
            "relators": len(pres.relators),
            "mu_checked": mu_checked,
            "nu_killed": nu_killed,
            "theta_q_balanced": theta_q_balanced,
            "theta_t_disciplined": t_rel,
            "hubs": len(hubs),
        },
        stats={},
        counterexample={"failures": failures[:20]} if failures else None,
    )


# --------------------------------------------------------------------------
# suite registry (used by the CLI and the experiment scripts)

SUITE_NAMES = (
    "lr-bound",
    "wi-bound",
    "chi-occurrences",
    "no-return",
    "periodic",
    "accepted-language",
    "presentation-audit",
)


def _wi_lr_starts():
    lr = build_lr(["a"])
    return lr, [lr.hardware.word(t.split()) for t in ("q1 p1", "q1 a p1", "q1 a a p1", "p2 a' q2")]


@functools.lru_cache(maxsize=None)
def bundle_cached(m: int, L: int) -> MainMachineBundle:
    return build_main_machine(toy_even_recognizer(), m=m, L=L)


def run_one_suite(name: str, opts: Mapping[str, object]) -> list[CheckReport]:
    m = int(opts.get("m", 2))
    L = int(opts.get("L", 12))

    def given(*keys: str) -> dict[str, object]:
        """The options among ``keys`` that were set: a check runs at its
        own defaults for the rest."""
        return {k: opts[k] for k in keys if opts.get(k) is not None}

    if name == "lr-bound":
        return [check_lr_bound(**given("max_tape"))]
    if name == "wi-bound":
        out = []
        lr, starts = _wi_lr_starts()
        out.append(check_wi_bound(lr, starts, **given("depth")))
        m3 = bundle_cached(m, L).m5.m4.m3
        cfg = start_configuration_m3(m3, 0, ["del2", "fin"])
        hs = m3.history[0]
        i = hs.r_part
        frag = AdmissibleWord((cfg.q[i], cfg.q[i + 1]), (cfg.u[i],))
        out.append(check_wi_bound(m3.machine, [frag], **given("depth")))
        return out
    if name == "chi-occurrences":
        m3 = bundle_cached(m, L).m5.m4.m3
        starts = [
            start_configuration_m3(m3, 0, ["fin"]),
            start_configuration_m3(m3, 2, ["del2", "fin"]),
        ]
        return [check_chi_occurrences(m3, starts, **given("depth"))]
    if name == "no-return":
        bundle = bundle_cached(m, L)
        return [check_norep(bundle, k, **given("depth")) for k in (0, 2)]
    if name == "periodic":
        lr = build_lr(["a"])
        w = lr.hardware.word(["q1", "a", "a", "a", "p1", "q2"])
        out = [check_periodic_distinctness(lr, w, ["z1_a"], max_reps=3)]
        w2 = lr.hardware.word(["q1", "p1", "a'", "q2"])
        out.append(check_periodic_distinctness(lr, w2, ["z12", "z12^-1"], max_reps=3))
        w3 = lr.hardware.word(["q1", "p1", "q2"])
        out.append(check_periodic_distinctness(lr, w3, ["z1_a^-1"], max_reps=5))
        return out
    if name == "accepted-language":
        bundle = bundle_cached(m, L)
        return [accepted_language_experiment(bundle, **given("ks", "budget"))]
    if name == "presentation-audit":
        bundle = bundle_cached(m, L)
        out = [presentation_audit(compile_group_G(bundle), bundle)]
        _, gbar = compile_trimmed(bundle)
        rep = presentation_audit(gbar, bundle)
        if any(g.sup is not None for g in gbar.generators):
            rep.status = "fail"
            rep.notes = rep.notes + ("trimmed presentation carries superscripts",)
        out.append(rep)
        return out
    raise BadParameters(f"unknown suite {name!r}")


def suite_names(text: str) -> tuple[str, ...]:
    """The suites ``text`` names: ``all`` or a comma-separated list."""
    names = SUITE_NAMES if text == "all" else tuple(text.split(","))
    for i, n in enumerate(names):
        if n not in SUITE_NAMES:
            raise BadParameters(f"unknown suite {n!r}")
        if n in names[:i]:
            raise BadParameters(f"suite {n!r} named twice")
    return names


def _suite_worker(name: str, opts: Mapping[str, object]) -> list[CheckReport]:
    # The pool pickles this function by name; looking ``run_one_suite`` up
    # here lets a wrapper bound to that name (perfbench's tracer) run too.
    return run_one_suite(name, opts)


def run_suites(suite: str, jobs: int = 1, **opts: object) -> list[CheckReport]:
    names = suite_names(suite)
    if jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at once, so no more than there are suites
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            groups = list(pool.map(_suite_worker, names, [opts] * len(names)))
    else:
        groups = [run_one_suite(n, opts) for n in names]
    return [r for group in groups for r in group]
