"""Spans and counters around contactmix's cross-module calls.

``install`` rebinds the public functions one module calls in another --
``contactmix.cli.write_bundle``, ``contactmix.engine.pairs_within``,
``ContactLedger.observe`` and so on -- to timing wrappers.  Nothing in the
package is edited and nothing is wrapped unless ``install`` is called, so an
untraced run executes the program exactly as shipped.

Spans are kept in memory as (name, start, end, parent) and written once,
when the traced run ends.  ``layer_metrics`` turns a span file into the
per-layer metrics; a self time is a span's duration minus the time of the
spans it directly caused.

This module imports nothing from numpy or contactmix at import time, so a
child process can import it before it starts timing the package import.
"""

from __future__ import annotations

import functools
import json
import time
import types
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """In-memory span store with a stack for parent links, plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []  # indices into spans of the open spans
        self.counters: dict[str, float] = {}
        self.route_keys: set[tuple] = set()
        self.agents_in_step = 0  # agent count of the latest social_force_step call

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def open(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((ix, _clock(), 0.0, parent))
        k = len(self.spans) - 1
        self._stack.append(k)
        return k

    def close(self, k: int) -> None:
        ix, start, _, parent = self.spans[k]
        self.spans[k] = (ix, start, _clock(), parent)
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """A timing wrapper for fn; ``after(args, result)`` may record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(k)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, per_item=None):
        """Time only the work inside the generator's ``next``, not the consumer's."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                k = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(k)
                if per_item is not None:
                    per_item(item)
                yield item

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"names": self.names, "spans": self.spans, "counters": self.counters}),
            encoding="utf-8",
        )


def install(tracer: Tracer) -> None:
    """Rebind contactmix's cross-module calls to tracer wrappers."""
    from contactmix import aggregate, cli, contacts, engine, report, routing

    t = tracer

    def frame_rows(frame) -> int:
        return max(len(frame), 1)  # an empty tick is still one placeholder line

    # cli -> scenario, engine, contacts, frames, report
    cli.load_scenario = t.wrap("scenario.load_scenario", cli.load_scenario)
    cli.write_bundle = t.wrap("report.write_bundle", cli.write_bundle)
    cli.write_frames = t.wrap(
        "frames.write_frames", cli.write_frames,
        after=lambda a, _: t.count("frames.lines_written", sum(frame_rows(f) for f in a[1])),
    )
    cli.read_frames = t.wrap_generator(
        "frames.read_frames", cli.read_frames,
        per_item=lambda f: t.count("frames.frames_read"),
    )
    engine.Simulation.__init__ = t.wrap("engine.setup", engine.Simulation.__init__)
    engine.Simulation.run = t.wrap("engine.run", engine.Simulation.run)

    contacts.ContactLedger.observe = t.wrap(
        "contacts.observe", contacts.ContactLedger.observe,
        after=lambda a, _: t.count("contacts.agent_ticks", len(a[1])),
    )
    contacts.ContactLedger.finalize = t.wrap(
        "contacts.finalize", contacts.ContactLedger.finalize,
        after=lambda a, _: t.count("contacts.records", a[0].n_records),
    )

    # engine -> engine physics, contacts detection, routing
    step = t.wrap("engine.social_force_step", engine.social_force_step)

    @functools.wraps(step)
    def physics(positions, *args, **kwargs):
        t.agents_in_step = len(positions)
        return step(positions, *args, **kwargs)

    engine.social_force_step = physics

    def engine_pairs(args, result):
        ids = args[0]
        ia, ib = result[0], result[1]
        t.count("engine.neighbor_pairs", len(ia))
        n = t.agents_in_step
        if len(ids) > n:  # the obstacle search: agents followed by wall centres
            t.count("engine.obstacle_pairs", len(ia))
            t.count("engine.obstacle_agent_wall_pairs", int(((ia < n) & (ib >= n)).sum()))

    engine.pairs_within = t.wrap("engine.pairs_within", engine.pairs_within, after=engine_pairs)

    def routed(args, _):
        key = (tuple(args[1]), tuple(args[2]))
        if key in t.route_keys:
            t.count("routing.repeat_routes")
        t.route_keys.add(key)

    routing.shortest_cell_path = t.wrap(
        "routing.shortest_cell_path", routing.shortest_cell_path, after=routed
    )

    # contacts -> detection
    contacts.pairs_within = t.wrap(
        "contacts.pairs_within", contacts.pairs_within,
        after=lambda _, r: t.count("contacts.pair_ticks", len(r[0])),
    )

    # report -> aggregate, json
    report.build_matrices = t.wrap("report.build_matrices", report.build_matrices)
    report.pair_summaries = t.wrap("aggregate.pair_summaries", report.pair_summaries)
    report.hourly_series = t.wrap("aggregate.hourly_series", report.hourly_series)
    for fn in ("agent_matrix", "agent_by_type", "type_matrix",
               "effective_chunks", "transmission_probability"):
        setattr(report, fn, t.wrap("aggregate.matrices", getattr(report, fn)))
    aggregate.ContactMatrix.to_csv = t.wrap("aggregate.to_csv", aggregate.ContactMatrix.to_csv)
    aggregate.ContactMatrix.to_json_obj = t.wrap(
        "aggregate.to_json_obj", aggregate.ContactMatrix.to_json_obj
    )
    report.json = types.SimpleNamespace(dumps=t.wrap("report.json_dumps", report.json.dumps))


# --- span file -> per-layer metrics ----------------------------------------------

# metric name -> span name whose total time it reports
_TOTALS = {
    "scenario.parse_s": "scenario.load_scenario",
    "engine.setup_s": "engine.setup",
    "engine.run_s": "engine.run",
    "engine.physics_s": "engine.social_force_step",
    "engine.neighbor_s": "engine.pairs_within",
    "routing.route_s": "routing.shortest_cell_path",
    "contacts.observe_s": "contacts.observe",
    "contacts.detect_s": "contacts.pairs_within",
    "frames.read_s": "frames.read_frames",
    "frames.write_s": "frames.write_frames",
    "aggregate.pair_summaries_s": "aggregate.pair_summaries",
    "aggregate.matrices_s": "aggregate.matrices",
    "aggregate.hourly_series_s": "aggregate.hourly_series",
    "aggregate.to_csv_s": "aggregate.to_csv",
    "aggregate.to_json_obj_s": "aggregate.to_json_obj",
    "report.write_bundle_s": "report.write_bundle",
    "report.build_matrices_s": "report.build_matrices",
    "report.json_dumps_s": "report.json_dumps",
}

# metric name -> span name whose self time it reports
_SELF = {
    "engine.workflow_s": "engine.run",
    "contacts.ledger_s": "contacts.observe",
    "cli.self_s": "cli.main",
}

# metric name -> span name whose call count it reports
_CALLS = {
    "engine.physics_calls": "engine.social_force_step",
    "engine.neighbor_calls": "engine.pairs_within",
    "routing.routes": "routing.shortest_cell_path",
}

# metric name -> counter it reports as is
_COUNTS = {
    "engine.neighbor_pairs": "engine.neighbor_pairs",
    "contacts.pair_ticks": "contacts.pair_ticks",
    "contacts.records": "contacts.records",
    "frames.frames_read": "frames.frames_read",
    "frames.lines_written": "frames.lines_written",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(path: Path) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (without units) and the raw counters from one span file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    names, spans, counters = doc["names"], doc["spans"], doc["counters"]
    total = dict.fromkeys(names, 0.0)
    child = [0.0] * len(spans)
    calls = dict.fromkeys(names, 0)
    for ix, start, end, parent in spans:
        dur = end - start
        total[names[ix]] += dur
        calls[names[ix]] += 1
        if parent >= 0:
            child[parent] += dur
    self_time = dict.fromkeys(names, 0.0)
    for k, (ix, start, end, _) in enumerate(spans):
        self_time[names[ix]] += (end - start) - child[k]

    out: dict[str, float] = {}
    for metric, span in _TOTALS.items():
        out[metric] = total.get(span, 0.0)
    for metric, span in _SELF.items():
        out[metric] = self_time.get(span, 0.0)
    for metric, span in _CALLS.items():
        out[metric] = calls.get(span, 0)
    for metric, key in _COUNTS.items():
        out[metric] = counters.get(key, 0)
    out["engine.obstacle_pair_yield"] = _ratio(
        counters.get("engine.obstacle_agent_wall_pairs", 0), counters.get("engine.obstacle_pairs", 0)
    )
    out["routing.route_repeat_ratio"] = _ratio(
        counters.get("routing.repeat_routes", 0), calls.get("routing.shortest_cell_path", 0)
    )
    return out, counters
