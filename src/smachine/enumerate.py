"""The frontier engine: every search over computations goes through here.

``successors`` is the one expansion step: the applicable rules at a
word, in the machine's rule order (label-sorted, positive before
negative), each with the word it produces.  The only rule it skips is
the inverse of the last one; a search over part of a machine's rules
runs on a machine holding just those rules.

``enumerate_computations`` yields every computation from a start word of
length <= depth passing the filter, exactly once, in a deterministic
order: by length, then lexicographically by rule order.  Many
computations end at the same word, so one memo for the whole
enumeration keeps what ``successors`` yielded for each (end word,
skipped label) and expands a repeated one from it; every application
it does make still goes through ``successors``.  An ``extend``/``extra``
pair carries a per-path value along each computation, as in
``reach_levels`` but with nothing pruned.

``reach_levels`` is the level sweep behind the verification suites: a
level-synchronous sweep over (word, last rule, extra) states that covers
*all* reduced paths without enumerating them one by one.

``search`` is the word-graph BFS behind the accepted-language
experiment and the disk words: a budgeted search for a path to a target
word, one-directional or meet-in-the-middle.

The three build ``Computation`` step chains, each step pointing at the
one it extends, and read their witnesses back from them.

``search``, ``checks._sweep`` (the driver that pulls a sweep's levels)
and ``checks.check_wi_bound`` run inside ``paused_collector``: the
states they build hold no reference cycles, so CPython's cyclic
collector would walk every live state on each full pass and free
nothing.  The generators do not pause it themselves, since one left
suspended would keep it off for a caller that has moved on.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from .machine import (
    Computation,
    History,
    Rule,
    SignedLabel,
    SMachine,
    apply_rule,
    invert_history,
    is_applicable,
)
from .words import AdmissibleWord

Filter = str  # "reduced" | "eligible" | "all"


@contextmanager
def paused_collector() -> Iterator[None]:
    """Turn the cyclic garbage collector off for the block, and back on
    at exit if it was on before, also when an exception leaves the block.

    Words, ``Computation`` steps and level dicts hold no reference
    cycles, so reference counting frees them and a full collection over
    a large frontier only walks it.  The collector is process-wide: a
    pause also covers whatever other threads run meanwhile."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def successors(
    machine: SMachine,
    word: AdmissibleWord,
    last: SignedLabel | None = None,
) -> Iterator[tuple[Rule, AdmissibleWord]]:
    """Yield (rule, word·rule) for each applicable rule, in rule order,
    skipping the inverse of ``last``.

    Only the rules whose sources match all of the word's state letters
    are tried, the moves ``moves_at`` compiled for them; each still goes
    through ``is_applicable`` and ``apply_rule`` as a caller outside the
    engine would.  ``is_applicable`` reads the same cached move and hands
    it, checked, to ``apply_rule``, so each rule tried looks the word's
    state letters up once more, not twice."""
    for m in machine.moves_at(word.q).values():
        r = m.rule
        if last is not None and last[0] == r.label and last[1] == -r.sign:
            continue
        if is_applicable(machine, word, r):
            yield r, apply_rule(machine, word, r)


def enumerate_computations(
    machine: SMachine,
    start: AdmissibleWord,
    depth: int,
    filt: Filter = "reduced",
    eligible_label: str | None = None,
    extend: Callable[[Computation, Rule, AdmissibleWord], object] | None = None,
    extra: object = None,
) -> Iterator[Computation]:
    """Stream computations of length <= depth, breadth first.

    "reduced" never follows a rule by its inverse, "all" may, and
    "eligible" allows only ``eligible_label`` followed by its inverse.
    The start carries ``extra``, and ``extend(comp, rule, word)`` gives
    the extra of comp's successor by rule.  Each (end word, skipped
    label) is expanded once: a computation ending where an earlier one
    did, with the same skip, reuses the successors that one yielded.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if filt not in ("reduced", "eligible", "all"):
        raise ValueError(f"unknown filter {filt!r}")
    level = [Computation(start, extra=extra)]
    yield level[0]
    expanded: dict[tuple[AdmissibleWord, SignedLabel | None], list[tuple[Rule, AdmissibleWord]]] = {}
    for _ in range(depth):
        nxt: list[Computation] = []
        for c in level:
            skip = c.last
            if filt == "all" or (filt == "eligible" and skip == (eligible_label, 1)):
                skip = None
            key = (c.end, skip)
            succ = expanded.get(key)
            if succ is None:
                succ = expanded[key] = list(successors(machine, c.end, skip))
            for r, w2 in succ:
                x = extend(c, r, w2) if extend is not None else None
                nxt.append(Computation(w2, r.signed_label, c, x))
                yield nxt[-1]
        if not nxt:
            return
        level = nxt


# returned by a ``reach_levels`` extension to drop the successor
PRUNE = object()


def reach_levels(
    machine: SMachine,
    starts: Iterable[AdmissibleWord],
    depth: int,
    extend: Callable[[Computation, Rule, AdmissibleWord], object] | None = None,
    extra: object = None,
) -> Iterator[tuple[int, list[Computation]]]:
    """Level-synchronous reachability over reduced paths.

    Yields (t, states), t = 0..depth, stopping early at an empty level.
    A state appears in level t iff some reduced path of length t from a
    start ends there.  Starts carry ``extra``; ``extend(state, rule,
    word)`` gives a successor's extra, or ``PRUNE`` to drop it.  States
    deduplicate per level on (word, last rule, extra) and the first path
    in (start, rule) order wins, so all paths are covered without
    per-path enumeration.
    """
    level = list({(w, None, extra): Computation(w, extra=extra) for w in starts}.values())
    yield 0, level
    for t in range(1, depth + 1):
        nxt: dict[tuple, Computation] = {}
        for s in level:
            for r, w2 in successors(machine, s.end, s.last):
                x = extend(s, r, w2) if extend is not None else None
                if x is PRUNE:
                    continue
                sl = r.signed_label
                key = (w2, sl, x)
                if key not in nxt:
                    nxt[key] = Computation(w2, sl, s, x)
        if not nxt:
            return
        level = list(nxt.values())
        yield t, level


@paused_collector()
def search(
    machine: SMachine,
    source: AdmissibleWord,
    targets: Iterable[AdmissibleWord],
    budget: int,
    bidirectional: bool = False,
) -> tuple[History | None, bool]:
    """Word-graph BFS from ``source`` to any of ``targets``.

    Every applicable rule tried counts against ``budget``.  Returns
    (witness history, budget_exhausted); a witness of None with the flag
    unset means a reachable set closed without a hit: a definite no.
    With ``bidirectional`` the targets grow a backward frontier too and
    the smaller frontier expands one layer at a time until the two meet.
    Each side keeps the first step that reached a word, and a witness
    is read back from the two chains, as in the sweeps.
    """
    fwd = {source: Computation(source)}
    bwd = {w: Computation(w) for w in targets}
    if source in bwd:
        return (), False
    fq, bq = deque(fwd.values()), deque(bwd.values())
    spent = 0
    # an emptied frontier has closed its side without meeting the other
    while fq and (bq or not bidirectional):
        forward = not bidirectional or len(fq) <= len(bq)
        queue, seen, other = (fq, fwd, bwd) if forward else (bq, bwd, fwd)
        for _ in range(len(queue)):
            s = queue.popleft()
            for r, w2 in successors(machine, s.end):
                spent += 1
                if spent > budget:
                    return None, True
                if w2 in seen:
                    continue
                seen[w2] = s2 = Computation(w2, r.signed_label, s)
                if w2 in other:
                    return fwd[w2].history + invert_history(bwd[w2].history), False
                queue.append(s2)
    return None, False
