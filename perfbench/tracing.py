"""Per-layer tracing of the smachine package, installed from outside.

``install()`` rebinds public functions of the package at every name the
package binds them to (``smachine.checks.apply_rule`` is a different
binding from ``smachine.machine.apply_rule``), so calls between modules
are seen too.  Hot calls keep an aggregate count and time; coarse calls
record a span with its start, end, parent span and the hot-counter
deltas it covered.  Everything stays in memory until the run ends.

``layer_metrics()`` turns one recording into the per-layer metrics named
in ``BENCHMARK.json``.  A layer counter that reads 0 where the untraced
run showed the work is reported as not observed (value ``None``), never
as 0: a later change that bypasses a wrapped name must not read as a
speed-up.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

SUITES = (
    "lr-bound",
    "wi-bound",
    "chi-occurrences",
    "no-return",
    "periodic",
    "accepted-language",
    "presentation-audit",
)

# Hot calls: (module, attribute, counter key).  Timings are inclusive:
# run_history's time contains the apply_rule calls it makes.
HOT = (
    ("smachine.machine", "is_applicable", "machine.is_applicable"),
    ("smachine.machine", "apply_rule", "machine.apply_rule"),
    ("smachine.machine", "run_history", "machine.run_history"),
)

# Coarse calls recorded as spans: (module, attribute, layer).
SPANS = (
    ("smachine.checks", "check_lr_bound", "checks.sweep"),
    ("smachine.checks", "check_chi_occurrences", "checks.sweep"),
    ("smachine.checks", "check_norep", "checks.sweep"),
    ("smachine.checks", "accepted_language_experiment", "checks.search"),
    ("smachine.checks", "presentation_audit", "checks.audit"),
    ("smachine.checks", "run_one_suite", "checks.suite"),
    ("smachine.presentation", "compile_group_G", "presentation.compile"),
    ("smachine.presentation", "compile_trimmed", "presentation.compile"),
    ("smachine.presentation", "hnn_Gk", "presentation.compile"),
    ("smachine.presentation", "hnn_Gbar", "presentation.compile"),
    ("smachine.presentation", "export", "presentation.export"),
    ("smachine.presentation", "parse_presentation", "presentation.parse"),
    ("smachine.trapezia", "computation_to_trapezium", "trapezia.build"),
    ("smachine.trapezia", "is_disk_word", "trapezia.disk"),
    ("smachine.main_machine", "build_main_machine", "main_machine.build"),
    ("smachine.compose", "compose_m3", "compose.m3"),
    ("smachine.serialize", "print_machine", "serialize.print"),
    ("smachine.serialize", "parse_machine", "serialize.parse"),
)

# Per-layer metrics: name -> unit.  Order is the print order.
UNITS = {
    "words.admissible_new": "count",
    "words.admissible_new_s": "s",
    "machine.is_applicable_calls": "count",
    "machine.is_applicable_s": "s",
    "machine.applicable_ratio": "ratio",
    "machine.apply_rule_calls": "count",
    "machine.apply_rule_s": "s",
    "machine.apply_us": "us",
    "machine.run_history_s": "s",
    "enumerate.computations": "count",
    "enumerate.s": "s",
    "enumerate.computations_per_s": "1/s",
    "checks.sweep_states": "count",
    "checks.sweep_s": "s",
    "checks.states_per_s": "1/s",
    "checks.bytes_per_state": "B",
    "checks.dedup_ratio": "ratio",
    "checks.search_expansions": "count",
    "checks.search_s": "s",
    "checks.unknown_verdicts": "count",
    "checks.audit_s": "s",
    **{f"checks.suite_s.{s}": "s" for s in SUITES},
    "checks.pool_slack_s": "s",
    "presentation.relators": "count",
    "presentation.compile_s": "s",
    "presentation.relators_per_s": "1/s",
    "presentation.export_s": "s",
    "presentation.parse_s": "s",
    "trapezia.cells": "count",
    "trapezia.build_s": "s",
    "trapezia.cells_per_s": "1/s",
    "trapezia.disk_s": "s",
    "trapezia.disk_expansions": "count",
    "main_machine.build_s": "s",
    "compose.m3_s": "s",
    "serialize.print_s": "s",
    "serialize.parse_s": "s",
    "trace.overhead_s": "s",
}

# The guard: when a counter on the left is expected but reads 0, it and
# the metrics derived from it are reported as not observed.
DERIVED = {
    "words.admissible_new": ("words.admissible_new_s",),
    "machine.is_applicable_calls": ("machine.is_applicable_s", "machine.applicable_ratio"),
    "machine.apply_rule_calls": ("machine.apply_rule_s", "machine.apply_us"),
    "enumerate.computations": ("enumerate.s", "enumerate.computations_per_s"),
    "checks.sweep_states": (
        "checks.sweep_s",
        "checks.states_per_s",
        "checks.bytes_per_state",
        "checks.dedup_ratio",
    ),
    "checks.search_expansions": ("checks.search_s", "checks.unknown_verdicts"),
    "presentation.relators": ("presentation.compile_s", "presentation.relators_per_s"),
    "trapezia.cells": ("trapezia.build_s", "trapezia.cells_per_s"),
    "trapezia.disk_expansions": ("trapezia.disk_s",),
}


class _RssSampler:
    """Peak resident set of this process while a sweep span is open."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def current() -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, self.current())

    def __enter__(self) -> "_RssSampler":
        self.start = self.peak = self.current()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.current())


class Recorder:
    """Hot counters plus spans, kept in memory for one traced run."""

    def __init__(self) -> None:
        # key -> [calls, ns, true results]; the lists are shared with the
        # wrappers, so reset() clears them in place
        self.hot: dict[str, list[int]] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._depth: dict[str, int] = {}
        self._next_id = 0

    def reset(self) -> None:
        for cell in self.hot.values():
            cell[:] = [0, 0, 0]
        self.spans.clear()
        self._open.clear()
        self._depth.clear()

    def cell(self, key: str) -> list[int]:
        return self.hot.setdefault(key, [0, 0, 0])

    def snapshot(self) -> dict[str, int]:
        return {k: v[0] for k, v in self.hot.items()}

    def dump(self) -> dict:
        return {"hot": self.hot, "spans": self.spans}

    def merge(self, doc: dict) -> None:
        """Add a recording made in another process (a CLI or pool worker)."""
        for k, v in doc["hot"].items():
            cell = self.cell(k)
            for i in range(3):
                cell[i] += v[i]
        self.spans.extend(doc["spans"])


def _hot_wrapper(fn, cell):
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            cell[1] += clock() - t0
            cell[0] += 1
        if out is True:
            cell[2] += 1
        return out

    return wrapper


def _post_init_wrapper(fn, cell):
    clock = time.perf_counter_ns

    def __post_init__(self):
        t0 = clock()
        try:
            fn(self)
        finally:
            cell[1] += clock() - t0
            cell[0] += 1

    return __post_init__


def _generator_wrapper(fn, cell):
    """Count yielded items and the time spent inside the generator."""
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                cell[1] += clock() - t0
                return
            cell[1] += clock() - t0
            cell[0] += 1
            yield item

    return wrapper


def _span_info(layer: str, out, args, kwargs) -> dict:
    """What a span records about its result, by layer."""
    if layer == "checks.sweep":
        return {"states": out.counts.get("states", 0)}
    if layer == "checks.search":
        return {"unknown": sum(1 for r in out.stats.get("table", []) if r["verdict"] == "unknown")}
    if layer == "checks.suite":
        return {"suite": args[0] if args else kwargs["name"]}
    if layer == "presentation.compile":
        pres = out if isinstance(out, tuple) else (out,)
        return {"relators": sum(len(p.relators) for p in pres)}
    if layer == "trapezia.build":
        return {"cells": sum(len(b.cells) for b in out.bands)}
    return {}


def _span_wrapper(fn, rec: Recorder, layer: str):
    clock = time.perf_counter_ns
    depth = rec._depth

    def wrapper(*args, **kwargs):
        # a call nested in a span of the same layer is covered by that span
        if depth.get(layer):
            depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
        span_id = rec._next_id
        rec._next_id += 1
        parent = rec._open[-1] if rec._open else None
        rec._open.append(span_id)
        before = rec.snapshot()
        sampler = _RssSampler() if layer == "checks.sweep" else None
        depth[layer] = 1
        t0 = clock()
        try:
            if sampler is not None:
                with sampler:
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
        finally:
            t1 = clock()
            depth[layer] = 0
            rec._open.pop()
        after = rec.snapshot()
        span = {
            "id": span_id,
            "parent": parent,
            "pid": os.getpid(),
            "layer": layer,
            "fn": fn.__name__,
            "t0_ns": t0,
            "t1_ns": t1,
            "delta": {k: n - before.get(k, 0) for k, n in after.items() if n != before.get(k, 0)},
        }
        if sampler is not None:
            span["rss_growth"] = sampler.peak - sampler.start
        span.update(_span_info(layer, out, args, kwargs))
        rec.spans.append(span)
        return out

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every smachine module attribute bound to ``original`` at
    ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "smachine" or name.startswith("smachine.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install() -> Recorder:
    """Wrap the package's layer boundaries; returns the recorder."""
    import importlib

    for mod in ("checks", "cli", "compose", "enumerate", "main_machine", "presentation",
                "serialize", "trapezia", "words"):
        importlib.import_module(f"smachine.{mod}")
    rec = Recorder()
    for modname, attr, key in HOT:
        fn = getattr(sys.modules[modname], attr)
        _rebind(fn, _hot_wrapper(fn, rec.cell(key)))
    enum = sys.modules["smachine.enumerate"].enumerate_computations
    _rebind(enum, _generator_wrapper(enum, rec.cell("enumerate.computations")))
    for modname, attr, layer in SPANS:
        fn = getattr(sys.modules[modname], attr)
        _rebind(fn, _span_wrapper(fn, rec, layer))
    word_cls = sys.modules["smachine.words"].AdmissibleWord
    word_cls.__post_init__ = _post_init_wrapper(word_cls.__post_init__, rec.cell("words.new"))
    return rec


def load_dumps(rec: Recorder, directory: str) -> None:
    """Merge the recordings other processes left in ``directory``.

    Each process appends one JSON line per finished suite with its
    recording so far; the last line of a file is that process's total.
    """
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, fname)) as f:
            lines = [ln for ln in f if ln.strip()]
        if lines:
            rec.merge(json.loads(lines[-1]))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    rec: Recorder,
    wall_s: float,
    overhead_s: float,
    jobs: int,
    expected: set[str],
) -> dict[str, dict]:
    """Per-layer metrics of one traced pass of ``wall_s`` measured seconds,
    keyed by metric name; ``overhead_s`` is its scaled wall time minus the
    untraced run's.

    ``expected`` names the counters the untraced run showed work for;
    any of them reading 0 marks it and its derived metrics not observed.
    """
    def hot(key):
        calls, ns, hits = rec.hot.get(key, (0, 0, 0))
        return calls, ns / 1e9, hits

    def spans(layer):
        return [s for s in rec.spans if s["layer"] == layer]

    def secs(layer):
        return sum(s["t1_ns"] - s["t0_ns"] for s in spans(layer)) / 1e9

    def applied(layer):
        return sum(s["delta"].get("machine.apply_rule", 0) for s in spans(layer))

    v: dict[str, float] = {}
    v["words.admissible_new"], v["words.admissible_new_s"], _ = hot("words.new")
    calls, s, hits = hot("machine.is_applicable")
    v["machine.is_applicable_calls"], v["machine.is_applicable_s"] = calls, s
    v["machine.applicable_ratio"] = _ratio(hits, calls)
    calls, s, _ = hot("machine.apply_rule")
    v["machine.apply_rule_calls"], v["machine.apply_rule_s"] = calls, s
    v["machine.apply_us"] = _ratio(s * 1e6, calls)
    v["machine.run_history_s"] = hot("machine.run_history")[1]
    calls, s, _ = hot("enumerate.computations")
    v["enumerate.computations"], v["enumerate.s"] = calls, s
    v["enumerate.computations_per_s"] = _ratio(calls, s)

    sweeps = spans("checks.sweep")
    states = sum(sp["states"] for sp in sweeps)
    v["checks.sweep_states"], v["checks.sweep_s"] = states, secs("checks.sweep")
    v["checks.states_per_s"] = _ratio(states, v["checks.sweep_s"])
    v["checks.bytes_per_state"] = _ratio(sum(sp["rss_growth"] for sp in sweeps), states)
    v["checks.dedup_ratio"] = _ratio(states, applied("checks.sweep"))
    v["checks.search_expansions"] = applied("checks.search")
    v["checks.search_s"] = secs("checks.search")
    v["checks.unknown_verdicts"] = sum(sp["unknown"] for sp in spans("checks.search"))
    v["checks.audit_s"] = secs("checks.audit")
    suite_s = {name: 0.0 for name in SUITES}
    for sp in spans("checks.suite"):
        suite_s[sp["suite"]] += (sp["t1_ns"] - sp["t0_ns"]) / 1e9
    for name, s in suite_s.items():
        v[f"checks.suite_s.{name}"] = s
    total = sum(suite_s.values())
    v["checks.pool_slack_s"] = wall_s - max(max(suite_s.values()), total / jobs) if total else 0.0

    v["presentation.relators"] = sum(sp["relators"] for sp in spans("presentation.compile"))
    v["presentation.compile_s"] = secs("presentation.compile")
    v["presentation.relators_per_s"] = _ratio(v["presentation.relators"], v["presentation.compile_s"])
    v["presentation.export_s"] = secs("presentation.export")
    v["presentation.parse_s"] = secs("presentation.parse")
    v["trapezia.cells"] = sum(sp["cells"] for sp in spans("trapezia.build"))
    v["trapezia.build_s"] = secs("trapezia.build")
    v["trapezia.cells_per_s"] = _ratio(v["trapezia.cells"], v["trapezia.build_s"])
    v["trapezia.disk_s"] = secs("trapezia.disk")
    v["trapezia.disk_expansions"] = applied("trapezia.disk")
    v["main_machine.build_s"] = secs("main_machine.build")
    v["compose.m3_s"] = secs("compose.m3")
    v["serialize.print_s"] = secs("serialize.print")
    v["serialize.parse_s"] = secs("serialize.parse")
    v["trace.overhead_s"] = overhead_s

    missing: set[str] = set()
    for name in expected:
        if not v[name]:
            missing.add(name)
            missing.update(DERIVED.get(name, ()))
    out = {}
    for name, unit in UNITS.items():
        if name in missing:
            out[name] = {"value": None, "unit": unit, "note": "not observed"}
        else:
            out[name] = {"value": v[name], "unit": unit}
    return out
