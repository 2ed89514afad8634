"""Line-oriented machine files, the reproducibility manifest, and the
line reader that machine files and presentation exports share.

Sections HARDWARE, DISTINGUISHED, RULES.  Rule lines use the merged
bracket shorthand for locked sectors: consecutive parts whose connecting
sector is locked print as one group ``[q0 q1 -> a q0' q1' b]``.  Domains
of unlocked sectors are listed explicitly; anything unlisted is locked.
``parse(print(machine)) == machine`` and printing is deterministic.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Callable, Iterable, Iterator, TypeVar

from .machine import Hardware, Rule, RulePart, SMachine
from .words import Word, y_word


class FormatError(Exception):
    pass


T = TypeVar("T")


class Lines:
    """The lines of a machine file or a presentation export, in order.

    Blank lines and ``#`` comment lines are skipped.  Used as a context
    manager it is the one place where a file that does not parse becomes
    a :class:`FormatError`: a ``ValueError``, ``IndexError`` or
    ``KeyError`` raised while a line is read quotes that line, and one
    raised after the last section (by a validator of the parsed content)
    keeps its own message.
    """

    def __init__(self, text: str) -> None:
        self._lines = iter([ln for ln in map(str.rstrip, text.splitlines()) if ln and ln.lstrip()[0] != "#"])
        self._line: str | None = None

    def __enter__(self) -> "Lines":
        return self

    def __exit__(self, kind, err, tb) -> None:
        if isinstance(err, (ValueError, IndexError, KeyError)):
            why = f"unknown name {err}" if isinstance(err, KeyError) else str(err)
            raise FormatError(why if self._line is None else f"cannot read {self._line!r}: {why}") from None

    def header(self, key: str, type: Callable[[str], T] = str) -> T:
        """The value on the next line, which must read ``key value`` or ``key``."""
        ln = self._line = next(self._lines, "end of file")
        if ln != key and not ln.startswith(key + " "):
            raise FormatError(f"expected {key!r}, got {ln!r}")
        return type(ln[len(key) + 1 :])

    def section(self, end: str | None = None) -> Iterator[str]:
        """The lines up to the header ``end``, or up to the end of the file."""
        for ln in self._lines:
            if ln == end:
                break
            self._line = ln
            yield ln
        self._line = None


def names(body: str) -> tuple[str, ...]:
    """A list of names as both formats write it: space-separated, ``-`` if empty."""
    return () if body == "-" else tuple(body.split())


def format_names(ls: Iterable[str]) -> str:
    return " ".join(ls) or "-"


def _fmt_word(w: Word) -> str:
    return " ".join(str(y) for y in w)


def print_machine(m: SMachine) -> str:
    hw = m.hardware
    out = [f"MACHINE {m.name}" if m.name else "MACHINE -"]
    out.append("HARDWARE")
    out.append(f"circular {'true' if hw.circular else 'false'}")
    out.append(f"input-sector {m.input_sector if m.input_sector is not None else '-'}")
    for i, p in enumerate(hw.parts):
        out.append(f"part {i} : {format_names(p)}")
    for i, alpha in enumerate(hw.sector_alphabets):
        out.append(f"sector {i} : {format_names(sorted(alpha))}")
    out.append("DISTINGUISHED")
    out.append(f"start : {format_names(m.start_letters)}")
    out.append(f"end : {format_names(m.end_letters)}")
    out.append("RULES")
    for r in m.positive_rules:
        out.append(_print_rule(hw, r))
    return "\n".join(out) + "\n"


def _print_rule(hw: Hardware, r: Rule) -> str:
    groups: list[list[int]] = [[0]]
    for i in range(1, hw.n_parts):
        if r.locks(i - 1):
            groups[-1].append(i)
        else:
            groups.append([i])
    chunks = []
    for g in groups:
        srcs = " ".join(r.parts[i].src for i in g)
        dsts = " ".join(r.parts[i].dst for i in g)
        a = _fmt_word(r.parts[g[0]].a)
        b = _fmt_word(r.parts[g[-1]].b)
        inner = " ".join(x for x in (a, dsts, b) if x)
        chunks.append(f"[{srcs} -> {inner}]")
    doms = []
    for s, alpha in enumerate(r.domains):
        if alpha:
            doms.append(f"dom {s} = {','.join(sorted(alpha))}")
    tail = (" | " + " ; ".join(doms)) if doms else ""
    return f"rule {r.label} tag={r.tag or '-'} : {' '.join(chunks)}{tail}"


def parse_machine(text: str) -> SMachine:
    with Lines(text) as lines:
        name = lines.header("MACHINE")
        lines.header("HARDWARE")
        circular = lines.header("circular") == "true"
        tok = lines.header("input-sector")
        input_sector = None if tok == "-" else int(tok)
        listed: dict[str, list[tuple[str, ...]]] = {"part": [], "sector": []}
        for ln in lines.section("DISTINGUISHED"):
            kind, idx, _, body = ln.split(None, 3)
            if int(idx) != len(listed[kind]):
                raise FormatError(f"{kind}s out of order at {ln!r}")
            listed[kind].append(names(body))
        parts, sectors = listed["part"], [frozenset(s) for s in listed["sector"]]
        start = lines.header("start :", names)
        end = lines.header("end :", names)
        lines.header("RULES")
        part_names = {q for p in parts for q in p}
        rules = [_parse_rule(ln, part_names, len(sectors)) for ln in lines.section()]
        return SMachine(
            hardware=Hardware(tuple(parts), tuple(sectors), circular=circular),
            positive_rules=tuple(rules),
            start_letters=start,
            end_letters=end,
            input_sector=input_sector,
            name="" if name == "-" else name,
        )


_RULE_LINE = re.compile(r"rule (\S+) tag=(\S+) : ([^|]*?)(?: \| (.*))?")


def _parse_rule(ln: str, part_names: set[str], n_sectors: int) -> Rule:
    m = _RULE_LINE.fullmatch(ln)
    if m is None:
        raise FormatError(f"missing tag in {ln!r}: a rule line reads 'rule LABEL tag=TAG : [...]'")
    label, tag, body, dom_part = m.groups()
    rule_parts: list[RulePart] = []
    locked_inside: set[int] = set()
    for g in re.findall(r"\[([^\]]*)\]", body):
        srcs, toks = (side.split() for side in g.split("->"))
        # toks = a-word, one target per source, b-word; state letters are known by name
        i = next((k for k, t in enumerate(toks) if t in part_names), len(toks))
        n = len(srcs)
        a, dsts, b = y_word(*toks[:i]), toks[i : i + n], y_word(*toks[i + n :])
        if len(dsts) != n:
            raise FormatError(f"group {g!r}: {n} sources vs {len(dsts)} targets")
        locked_inside.update(range(len(rule_parts), len(rule_parts) + n - 1))
        for k, (s, d) in enumerate(zip(srcs, dsts)):
            rule_parts.append(RulePart(s, a if k == 0 else (), d, b if k == n - 1 else ()))
    domains: dict[int, frozenset[str]] = {}
    if dom_part:
        for chunk in dom_part.split(" ; "):
            dom, sec_s, eq, letters = chunk.split()
            if (dom, eq) != ("dom", "="):
                raise FormatError(f"bad domain chunk {chunk!r}")
            sec = int(sec_s)
            if not 0 <= sec < n_sectors:
                raise FormatError(f"domain chunk {chunk!r}: no sector {sec}")
            if sec in domains:
                raise FormatError(f"domain chunk {chunk!r}: sector {sec} has a domain already")
            if sec in locked_inside:
                raise FormatError(f"sector {sec} is merged-locked but has a domain")
            domains[sec] = frozenset(letters.split(","))
    doms = tuple(domains.get(i, frozenset()) for i in range(n_sectors))
    return Rule(label, tuple(rule_parts), doms, tag="" if tag == "-" else tag)


def machine_hash(m: SMachine) -> str:
    return hashlib.sha256(print_machine(m).encode()).hexdigest()


def manifest(machine: SMachine, **params: object) -> str:
    """Reproducibility record: parameters plus the machine fingerprint."""
    doc = {
        "machine": machine.name,
        "hash": machine_hash(machine),
        "parts": machine.hardware.n_parts,
        "sectors": machine.hardware.n_sectors,
        "circular": machine.hardware.circular,
        "positive_rules": len(machine.positive_rules),
    }
    doc.update(params)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
