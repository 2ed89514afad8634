"""Line-oriented machine files and the reproducibility manifest.

Sections HARDWARE, DISTINGUISHED, RULES.  Rule lines use the merged
bracket shorthand for locked sectors: consecutive parts whose connecting
sector is locked print as one group ``[q0 q1 -> a q0' q1' b]``.  Domains
of unlocked sectors are listed explicitly; anything unlisted is locked.
``parse(print(machine)) == machine`` and printing is deterministic.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from .machine import Hardware, Rule, RulePart, SMachine
from .words import Word, parse_signed, y_word


class FormatError(Exception):
    pass


def _fmt_word(w: Word) -> str:
    return " ".join(str(y) for y in w)


def _fmt_letters(ls: Iterable[str]) -> str:
    return " ".join(ls)


def print_machine(m: SMachine) -> str:
    hw = m.hardware
    out = [f"MACHINE {m.name}" if m.name else "MACHINE -"]
    out.append("HARDWARE")
    out.append(f"circular {'true' if hw.circular else 'false'}")
    out.append(f"input-sector {m.input_sector if m.input_sector is not None else '-'}")
    for i, p in enumerate(hw.parts):
        out.append(f"part {i} : {_fmt_letters(p)}")
    for i, alpha in enumerate(hw.sector_alphabets):
        body = _fmt_letters(sorted(alpha)) if alpha else "-"
        out.append(f"sector {i} : {body}")
    out.append("DISTINGUISHED")
    out.append(f"start : {_fmt_letters(m.start_letters) if m.start_letters else '-'}")
    out.append(f"end : {_fmt_letters(m.end_letters) if m.end_letters else '-'}")
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
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.lstrip().startswith("#")]
    it = iter(lines)

    def need(prefix: str) -> str:
        try:
            ln = next(it)
        except StopIteration:
            raise FormatError(f"expected {prefix!r}, got end of file")
        if not ln.startswith(prefix):
            raise FormatError(f"expected {prefix!r}, got {ln!r}")
        return ln

    name = need("MACHINE ").split(None, 1)[1]
    if name == "-":
        name = ""
    need("HARDWARE")
    circ = need("circular ").split()[1] == "true"
    tok = need("input-sector ").split()[1]
    input_sector = None if tok == "-" else int(tok)

    parts: list[tuple[str, ...]] = []
    sectors: list[frozenset[str]] = []
    start: tuple[str, ...] = ()
    end: tuple[str, ...] = ()
    rules: list[Rule] = []
    state = "hardware"
    part_names: set[str] = set()
    for ln in it:
        if ln == "DISTINGUISHED":
            state = "distinguished"
            continue
        if ln == "RULES":
            state = "rules"
            continue
        if state == "hardware":
            kind, idx, _, body = ln.split(None, 3)
            items = body.split()
            if kind == "part":
                if int(idx) != len(parts):
                    raise FormatError(f"parts out of order at {ln!r}")
                parts.append(tuple(items))
                part_names.update(items)
            elif kind == "sector":
                if int(idx) != len(sectors):
                    raise FormatError(f"sectors out of order at {ln!r}")
                sectors.append(frozenset() if items == ["-"] else frozenset(items))
            else:
                raise FormatError(f"unexpected line {ln!r}")
        elif state == "distinguished":
            key, _, body = ln.split(None, 2)
            items = () if body == "-" else tuple(body.split())
            if key == "start":
                start = items
            elif key == "end":
                end = items
            else:
                raise FormatError(f"unexpected line {ln!r}")
        else:
            rules.append(_parse_rule(ln, parts, part_names, len(sectors), circ))
    hw = Hardware(tuple(parts), tuple(sectors), circular=circ)
    return SMachine(
        hardware=hw,
        positive_rules=tuple(rules),
        start_letters=start,
        end_letters=end,
        input_sector=input_sector,
        name=name,
    )


def _parse_rule(
    ln: str,
    parts: list[tuple[str, ...]],
    part_names: set[str],
    n_sectors: int,
    circular: bool,
) -> Rule:
    if not ln.startswith("rule "):
        raise FormatError(f"expected rule line, got {ln!r}")
    head, _, dom_part = ln.partition(" | ")
    head = head[len("rule "):]
    label, rest = head.split(None, 1)
    if not rest.startswith("tag="):
        raise FormatError(f"missing tag in {ln!r}")
    tag, _, body = rest[len("tag="):].partition(" : ")
    tag = "" if tag == "-" else tag

    groups: list[str] = []
    depth = 0
    cur = ""
    for ch in body:
        if ch == "[":
            depth += 1
            cur = ""
        elif ch == "]":
            depth -= 1
            groups.append(cur)
        elif depth:
            cur += ch
    rule_parts: list[RulePart] = []
    locked_inside: set[int] = set()
    pos = 0
    for g in groups:
        lhs, _, rhs = g.partition("->")
        srcs = lhs.split()
        toks = rhs.split()
        # rhs = a-word, dst letters, b-word; state letters are known by name
        i = 0
        while i < len(toks) and parse_signed(toks[i])[0] not in part_names:
            i += 1
        j = len(toks)
        while j > i and parse_signed(toks[j - 1])[0] not in part_names:
            j -= 1
        a, dsts, b = y_word(*toks[:i]), toks[i:j], y_word(*toks[j:])
        if len(dsts) != len(srcs):
            raise FormatError(f"group {g!r}: {len(srcs)} sources vs {len(dsts)} targets")
        for k, (s, d) in enumerate(zip(srcs, dsts)):
            pa = a if k == 0 else ()
            pb = b if k == len(srcs) - 1 else ()
            rule_parts.append(RulePart(s, pa, d, pb))
            if k > 0:
                locked_inside.add(pos + k - 1)
        pos += len(srcs)
    domains = [frozenset()] * n_sectors
    if dom_part:
        for chunk in dom_part.split(" ; "):
            chunk = chunk.strip()
            if not chunk.startswith("dom "):
                raise FormatError(f"bad domain chunk {chunk!r}")
            sec_s, _, letters = chunk[len("dom "):].partition(" = ")
            sec = int(sec_s)
            if sec in locked_inside:
                raise FormatError(f"sector {sec} is merged-locked but has a domain")
            domains[sec] = frozenset(letters.split(","))
    return Rule(label, tuple(rule_parts), tuple(domains), tag=tag)


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
