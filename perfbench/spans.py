"""Spans and counters recorded from outside stormrisk, at its module
boundaries.

`Tracer.install` replaces each hooked function with a wrapper, both in
the module that defines it and in every module that bound it by name at
import (``from .simulate import simulate_catalog`` in ``cli``, for
example); `Tracer.uninstall` puts the originals back, so an untraced
pass runs the unmodified program.  Functions called once per year or per
event (``rate``, ``severity_moments``, ``_stream``) get counters only,
so that the wrappers add little to the traced pass.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_catalog_years(counts, args, kwargs, result):
    counts["simulate.years"] += _arg(args, kwargs, 0, "config").n_years


def _count_marks(counts, args, kwargs, result):
    counts["severity.marks"] += int(np.size(result))


def _count_catalog_events(counts, args, kwargs, result):
    counts["catalog.events"] += result.n_events


def _count_events_written(counts, args, kwargs, result):
    counts["io.event_rows_written"] += _arg(args, kwargs, 0, "catalog").n_events
    try:
        counts["io.event_bytes"] += _arg(args, kwargs, 1, "fh").tell()
    except (OSError, ValueError):  # not a seekable file
        pass


def _count_events_read(counts, args, kwargs, result):
    counts["io.event_rows_read"] += result.n_events
    counts["io.event_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_series_rows(counts, args, kwargs, result):
    counts["io.series_rows"] += len(_arg(args, kwargs, 0, "series"))


def _cli_span_name(args, kwargs):
    return "cli." + _arg(args, kwargs, 0, "argv")[0]


# (defining module, attribute, span or counter name, observer, modules
# that bound the attribute by name at import).  A name given as a
# function computes the span name from the call's arguments.
SPANS = (
    ("cli", "main", _cli_span_name, None, ()),
    ("simulate", "simulate_catalog", "simulate.catalog", _count_catalog_years, ("cli",)),
    ("simulate", "replicate_fixed_year", "simulate.replicate", None, ("cli",)),
    ("riskmodel", "risk_summary", "riskmodel.risk_summary", None, ("cli",)),
    ("frequency", "sample_count", "frequency.sample_count", None, ("simulate",)),
    ("severity", "sample_intensity", "severity.sample_intensity", _count_marks, ("simulate",)),
    ("catalog", "EventCatalog.from_events", "catalog.from_events", _count_catalog_events, ()),
    ("io", "parse_config", "io.parse_config", None, ("cli",)),
    ("io", "write_events_stream", "io.write_events", _count_events_written, ("cli",)),
    ("io", "read_events_csv", "io.read_events", _count_events_read, ("cli",)),
    ("io", "write_series_stream", "io.write_series", _count_series_rows, ("cli",)),
    ("estimate", "long_run_series", "estimate.long_run_series", None, ("cli",)),
    ("estimate", "moving_window_correlation", "estimate.window", None, ("cli",)),
    ("estimate", "with_window_correlation", "estimate.window", None, ("cli",)),
    ("estimate", "nx_independence", "estimate.diagnostics", None, ("cli",)),
    ("estimate", "mailier_index", "estimate.diagnostics", None, ("cli",)),
    ("estimate", "season_activity", "estimate.diagnostics", None, ("cli",)),
)
COUNTERS = (
    ("simulate", "_stream", "simulate.streams", ()),
    ("frequency", "rate", "frequency.rate_calls", ("simulate", "riskmodel")),
    ("severity", "severity_moments", "severity.moments_calls", ("riskmodel",)),
)


def _resolve(module: str, attr: str):
    """(object holding ``attr`` in ``stormrisk.<module>``, last name of ``attr``)."""
    try:
        owner = importlib.import_module(f"stormrisk.{module}")
    except ImportError:
        return None, attr
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, leaf


class Tracer:
    """In-memory spans ``(name, start, end, parent id, pass id)``, indexed
    by span id, and one counter table per pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[int, Counter] = {}
        self.pass_id = -1
        self.missing: list[str] = []
        self._counts = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._counts = self.counts[pass_id] = Counter()

    def span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (label, start, end, parent, self.pass_id)
            if observe is not None:
                observe(self._counts, args, kwargs, result)
            return result

        return wrapped

    def counter(self, name, fn):
        def wrapped(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self) -> None:
        """Wrap every hooked function that exists; record the others in
        ``missing`` (their metrics then read 0)."""
        self.missing = []
        plan = [
            (module, attr, users, lambda fn, n=name, o=observe: self.span(n, fn, o))
            for module, attr, name, observe, users in SPANS
        ] + [
            (module, attr, users, lambda fn, n=name: self.counter(n, fn))
            for module, attr, name, users in COUNTERS
        ]
        patches = []
        for module, attr, users, wrap in plan:
            owner, leaf = _resolve(module, attr)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(f"{module}.{attr}")
                continue
            original = getattr(owner, leaf)
            if isinstance(owner, type):
                patches.append((owner, leaf, staticmethod(wrap(original))))
            else:
                patches.append((owner, leaf, wrap(original)))
            for user in users:
                mod, _ = _resolve(user, leaf)
                if mod is not None and getattr(mod, leaf, None) is original:
                    patches.append((mod, leaf, wrap(original)))
        for owner, leaf, new in patches:
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._restore.append((owner, leaf, raw))
            setattr(owner, leaf, new)

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()

    def write_csv(self, path, t0: float) -> None:
        """Write every span, times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,pass,name,start_s,end_s\n")
            for sid, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{pass_id},{name},{start - t0:.9f},{end - t0:.9f}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, self_s, pass_id: int, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but
    ``trace.overhead_frac``, which needs the untraced passes too)."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for (name, start, end, _, pid), s in zip(spans, self_s):
        if pid == pass_id:
            total[name] += end - start
            own[name] += s
            calls[name] += 1
    rows_w = counts["io.event_rows_written"]
    rows_r = counts["io.event_rows_read"]
    summaries = calls["riskmodel.risk_summary"]
    return {
        "simulate.catalog_s": total["simulate.catalog"],
        "simulate.catalog_self_s": own["simulate.catalog"],
        "simulate.streams": counts["simulate.streams"],
        "simulate.us_per_year": _ratio(total["simulate.catalog"], counts["simulate.years"], 1e6),
        "riskmodel.risk_summary_s": total["riskmodel.risk_summary"],
        "riskmodel.risk_summary_calls": summaries,
        "riskmodel.us_per_summary": _ratio(total["riskmodel.risk_summary"], summaries, 1e6),
        "riskmodel.moments_per_summary": _ratio(counts["severity.moments_calls"], summaries),
        "io.write_series_s": total["io.write_series"],
        "io.series_rows": counts["io.series_rows"],
        "io.write_events_s": total["io.write_events"],
        "io.read_events_s": total["io.read_events"],
        "io.event_rows": rows_w + rows_r,
        "io.event_bytes": counts["io.event_bytes"],
        "io.write_us_per_row": _ratio(total["io.write_events"], rows_w, 1e6),
        "io.read_us_per_row": _ratio(total["io.read_events"], rows_r, 1e6),
        "simulate.replicate_s": total["simulate.replicate"],
        "simulate.replicate_self_s": own["simulate.replicate"],
        "severity.sample_intensity_s": total["severity.sample_intensity"],
        "severity.marks": counts["severity.marks"],
        "severity.ns_per_mark": _ratio(
            total["severity.sample_intensity"], counts["severity.marks"], 1e9
        ),
        "cli.theory_s": total["cli.theory"],
        "cli.simulate_s": total["cli.simulate"],
        "cli.analyze_s": total["cli.analyze"],
        "cli.verify_s": total["cli.verify"],
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        "frequency.sample_count_s": total["frequency.sample_count"],
        "frequency.sample_count_calls": calls["frequency.sample_count"],
        "frequency.rate_calls": counts["frequency.rate_calls"],
        "severity.moments_calls": counts["severity.moments_calls"],
        "catalog.from_events_s": total["catalog.from_events"],
        "catalog.events": counts["catalog.events"],
        "io.parse_config_s": total["io.parse_config"],
        "estimate.long_run_series_s": total["estimate.long_run_series"],
        "estimate.window_s": total["estimate.window"],
        "estimate.diagnostics_s": total["estimate.diagnostics"],
    }
