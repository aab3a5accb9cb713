"""Scenario documents: the map, the agent types, and their workflows.

A scenario is a JSON document with three top-level keys:

``map``
    ``cell_size_m`` (edge length of a grid cell, meters; small enough that
    squared distances across the map stay finite), ``width`` and
    ``height`` (cell counts), ``blocked`` (list of ``[x, y]`` unwalkable
    cells) and ``locations`` (name -> ``{cells, capacity, anchor}``).
    ``capacity`` limits simultaneous occupants (``null`` = unlimited) and
    ``anchor`` is the routing target point in meters; it defaults to the
    center of the first cell.

``agent_types``
    List of ``{name, population, arrival, desired_speed, radius, workflow}``.
    ``arrival`` is an entry tick, a per-agent list of ticks, or
    ``{"start": t, "interval": k}``.  ``desired_speed`` is a distribution in
    m/s, ``radius`` a body radius in meters.

``defaults``
    ``tick_length_s``, the wall-clock length of one simulation tick; long
    enough that an hour counts finitely many ticks (``TICK_LENGTH_RULE``).

Workflow steps are ``goto``, ``dwell``, ``queue``, ``cycle`` and ``depart``.
Distributions are ``{"kind": "constant", "value": v}``,
``{"kind": "uniform", "min": a, "max": b}``,
``{"kind": "triangular", "min": a, "mode": m, "max": b}`` or
``{"kind": "exponential", "mean": m}``.  Dwell distributions are in seconds
and converted to whole ticks when sampled (half-up rounding); a draw whose
tick count is not a finite float lasts longer than any run.

Parsing is strict, and one set of rules holds everywhere: an object has no
keys beyond those listed here; a list must be a JSON array (never ``null``,
a string or an object), and ``cells``, ``workflow`` and a cycle's ``steps``
must not be empty; a count is an integer at or above its bound (``width``,
``height``, ``capacity`` and ``repeat`` >= 1; ``population``, arrival ticks,
``interval`` and ``until_tick`` >= 0); and a bool is never a number.
Dangling location references and malformed distributions are rejected too.
Each message names the key path at fault, such as
``agent_types['nurse'].population must be an integer >= 0``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, NoReturn, Union

import numpy as np

from .frames import check_type_name

# distribution kind -> its parameters, in ``Distribution.params`` order
_FIELDS = {
    "constant": ("value",),
    "uniform": ("min", "max"),
    "triangular": ("min", "mode", "max"),
    "exponential": ("mean",),
}
DISTRIBUTION_KINDS = tuple(_FIELDS)


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate."""


def _fail(msg: str) -> NoReturn:
    raise ScenarioError(msg)


def _object(obj: Any, where: str, allowed: Iterable[str] | None = None) -> dict[str, Any]:
    """``obj`` if it is an object with no key outside ``allowed`` (any key
    when None)."""
    if not isinstance(obj, dict):
        _fail(f"{where} must be an object")
    extra = set(obj) - set(obj if allowed is None else allowed)
    if extra:
        _fail(f"{where}: unexpected keys {sorted(extra)}")
    return obj


def _list(obj: Any, where: str, nonempty: bool = False) -> list[Any]:
    """``obj`` if it is a list, and not empty when ``nonempty``."""
    if not isinstance(obj, list) or (nonempty and not obj):
        _fail(f"{where} must be a {'non-empty ' if nonempty else ''}list")
    return obj


def _integer(v: Any, where: str, low: int) -> int:
    """``v`` if it is an integer >= ``low``; a bool is not one."""
    if not isinstance(v, int) or isinstance(v, bool) or v < low:
        _fail(f"{where} must be an integer >= {low}")
    return v


def _finite(v: Any) -> float | None:
    """``v`` as a float if it is a finite number, else None.  ``json`` reads
    NaN, Infinity and 1e999 as floats, and a bool is an int to Python."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:  # an int beyond the float range
        return None
    return v if math.isfinite(v) else None


def round_half_up(x: float) -> int:
    # round() would round 2.5 ticks down; schedule math wants half-up.
    return int(math.floor(x + 0.5))


# 3600 / t, the ticks in an hour (the hourly series' bucket), overflows for
# t below about 2.0e-305 s
TICK_LENGTH_RULE = "finite and > 0, with finitely many ticks in an hour"


def valid_tick_length(t: float) -> bool:
    """Whether ``t`` seconds can be a tick length: ``TICK_LENGTH_RULE``."""
    return math.isfinite(t) and t > 0 and math.isfinite(3600.0 / t)


# more ticks than any run has: the tick count of a dwell beyond the float range
ENDLESS_DWELL = round_half_up(sys.float_info.max)


@dataclass(frozen=True)
class Distribution:
    """A nonnegative scalar distribution (seconds for dwells, m/s for speeds)."""

    kind: str
    params: tuple[float, ...]

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "uniform":
            lo, hi = self.params
            return float(rng.uniform(lo, hi)) if hi > lo else lo
        if self.kind == "triangular":
            lo, mode, hi = self.params
            return float(rng.triangular(lo, mode, hi)) if hi > lo else lo
        if self.kind == "exponential":
            return float(rng.exponential(self.params[0]))
        raise AssertionError(f"unreachable kind {self.kind!r}")

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, **dict(zip(_FIELDS[self.kind], self.params))}


def _parse_distribution(obj: Any, where: str, positive: bool = False) -> Distribution:
    kind = _object(obj, where).get("kind")
    if kind not in DISTRIBUTION_KINDS:  # a tuple: kind may be unhashable
        _fail(f"{where}: unknown distribution kind {kind!r}")
    fields = _FIELDS[kind]
    _object(obj, where, ("kind", *fields))
    params = []
    for name in fields:
        if name not in obj:
            _fail(f"{where}: {kind} distribution is missing {name!r}")
        v = _finite(obj[name])
        if v is None:
            _fail(f"{where}.{name} must be a finite number")
        params.append(v)
    lo_bound = 0.0
    if positive and any(p <= lo_bound for p in params):
        _fail(f"{where}: {kind} parameters must be > 0")
    if not positive and any(p < lo_bound for p in params):
        _fail(f"{where}: {kind} parameters must be >= 0")
    if kind in ("uniform", "triangular"):
        if sorted(params) != params:
            order = " <= ".join(fields)
            _fail(f"{where}: expected {order}")
    return Distribution(kind, tuple(params))


def sample_duration(
    dist: Distribution, rng: np.random.Generator, tick_length: float
) -> int:
    """Draw a dwell time in seconds and convert it to whole ticks (half-up).
    A draw or quotient beyond the float range lasts ``ENDLESS_DWELL`` ticks."""
    ticks = dist.sample(rng) / tick_length
    if not math.isfinite(ticks):
        return ENDLESS_DWELL
    return max(round_half_up(ticks), 0)


# --- workflow steps ---------------------------------------------------------


@dataclass(frozen=True)
class GoTo:
    location: str


@dataclass(frozen=True)
class Dwell:
    duration: Distribution


@dataclass(frozen=True)
class Queue:
    location: str


@dataclass(frozen=True)
class Cycle:
    steps: tuple["WorkflowStep", ...]
    repeat: int | None = None
    until_tick: int | None = None


@dataclass(frozen=True)
class Depart:
    pass


WorkflowStep = Union[GoTo, Dwell, Queue, Cycle, Depart]


def _parse_step(obj: Any, where: str, depth: int) -> WorkflowStep:
    kind = _object(obj, where).get("kind")
    if kind == "goto" or kind == "queue":
        _object(obj, where, ("kind", "location"))
        loc = obj.get("location")
        if not isinstance(loc, str) or not loc:
            _fail(f"{where}: {kind} needs a location name")
        return GoTo(loc) if kind == "goto" else Queue(loc)
    if kind == "dwell":
        _object(obj, where, ("kind", "duration"))
        if "duration" not in obj:
            _fail(f"{where}: dwell needs a duration distribution")
        return Dwell(_parse_distribution(obj["duration"], f"{where}.duration"))
    if kind == "cycle":
        if depth > 0:
            _fail(f"{where}: cycles do not nest")
        _object(obj, where, ("kind", "steps", "repeat", "until_tick"))
        raw = _list(obj.get("steps"), f"{where}.steps", nonempty=True)
        steps = tuple(
            _parse_step(s, f"{where}.steps[{i}]", depth + 1) for i, s in enumerate(raw)
        )
        if any(isinstance(s, Depart) for s in steps):
            _fail(f"{where}: depart cannot appear inside a cycle")
        repeat = obj.get("repeat")
        until = obj.get("until_tick")
        if (repeat is None) == (until is None):
            _fail(f"{where}: cycle needs exactly one of repeat / until_tick")
        if repeat is not None:
            _integer(repeat, f"{where}.repeat", 1)
        if until is not None:
            _integer(until, f"{where}.until_tick", 0)
        return Cycle(steps, repeat, until)
    if kind == "depart":
        _object(obj, where, ("kind",))
        return Depart()
    _fail(f"{where}: unknown step kind {kind!r}")


def _step_to_json(step: WorkflowStep) -> dict[str, Any]:
    if isinstance(step, GoTo):
        return {"kind": "goto", "location": step.location}
    if isinstance(step, Queue):
        return {"kind": "queue", "location": step.location}
    if isinstance(step, Dwell):
        return {"kind": "dwell", "duration": step.duration.to_json()}
    if isinstance(step, Cycle):
        out: dict[str, Any] = {
            "kind": "cycle",
            "steps": [_step_to_json(s) for s in step.steps],
        }
        if step.repeat is not None:
            out["repeat"] = step.repeat
        else:
            out["until_tick"] = step.until_tick
        return out
    return {"kind": "depart"}


# --- map --------------------------------------------------------------------

SQRT2 = math.sqrt(2.0)  # the cost of a diagonal move, a straight one costing 1
_STRAIGHT = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class Location:
    name: str
    cells: tuple[tuple[int, int], ...]
    capacity: int | None
    anchor: tuple[float, float]


@dataclass(frozen=True)
class EnvironmentMap:
    cell_size: float
    width: int
    height: int
    blocked: frozenset[tuple[int, int]]
    locations: dict[str, Location] = field(hash=False)

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        return ((cell[0] + 0.5) * self.cell_size, (cell[1] + 0.5) * self.cell_size)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    def walkable(self, cell: tuple[int, int]) -> bool:
        return cell in self.moves

    @cached_property
    def moves(self) -> dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], tuple[float, ...]]]:
        """Walkable (on the grid, not blocked) cell -> (the cells one move
        away, each move's cost).  Moves are 8-connected, straight ones (cost
        1) first, then diagonal ones (cost ``SQRT2``) where both straight
        cells beside them are walkable, so no move clips a blocked corner.
        Every neighbour is the table's own key: paths share one tuple per cell."""
        grid = itertools.product(range(self.width), range(self.height))
        cells = {c: c for c in grid if c not in self.blocked}
        table = {}
        for cell in cells:
            x, y = cell
            to = [((x + dx, y + dy), 1.0) for dx, dy in _STRAIGHT]
            to += [((x + dx, y + dy), SQRT2) for dx, dy in _DIAGONAL
                   if (x + dx, y) in cells and (x, y + dy) in cells]  # the corner rule
            to = [(cells[c], cost) for c, cost in to if c in cells]
            table[cell] = (tuple(c for c, _ in to), tuple(cost for _, cost in to))
        return table

    @cached_property
    def location_index(self) -> dict[str, int]:
        """Location name -> index, numbered in sorted name order."""
        return {name: i for i, name in enumerate(sorted(self.locations))}


def _parse_cell(obj: Any, where: str, m: dict[str, Any]) -> tuple[int, int]:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in obj)
    ):
        _fail(f"{where}: cell must be a [x, y] integer pair")
    x, y = obj
    if not (0 <= x < m["width"] and 0 <= y < m["height"]):
        _fail(f"{where}: cell [{x}, {y}] is outside the {m['width']}x{m['height']} grid")
    return (x, y)


def _parse_map(obj: Any) -> EnvironmentMap:
    _object(obj, "map", ("cell_size_m", "width", "height", "blocked", "locations"))
    cs = _finite(obj.get("cell_size_m"))
    if cs is None or cs <= 0:
        _fail("map.cell_size_m must be a finite positive number")
    dims = {k: _integer(obj.get(k), f"map.{k}", 1) for k in ("width", "height")}
    # the engine squares offsets across the map, its wall ring included
    try:
        extent = (max(dims.values()) + 2) * cs
    except OverflowError:  # more cells than a float can count
        extent = math.inf
    if not math.isfinite(2.0 * extent * extent):
        _fail(f"map.cell_size_m {cs!r} is too large for a {dims['width']}x{dims['height']} "
              "map: squared distances across it overflow")
    blocked = set()
    for i, raw in enumerate(_list(obj.get("blocked", []), "map.blocked")):
        blocked.add(_parse_cell(raw, f"map.blocked[{i}]", dims))

    locations: dict[str, Location] = {}
    claimed: dict[tuple[int, int], str] = {}
    for name, raw in _object(obj.get("locations", {}), "map.locations").items():
        where = f"map.locations[{name!r}]"
        _object(raw, where, ("cells", "capacity", "anchor"))
        cells = []
        for i, c in enumerate(_list(raw.get("cells"), f"{where}.cells", nonempty=True)):
            cell = _parse_cell(c, f"{where}.cells[{i}]", dims)
            if cell in blocked:
                _fail(f"{where}: cell {list(cell)} is blocked")
            if cell in claimed:
                _fail(f"{where}: cell {list(cell)} already belongs to {claimed[cell]!r}")
            claimed[cell] = name
            cells.append(cell)
        cells = tuple(sorted(cells))
        capacity = raw.get("capacity")
        if capacity is not None:
            _integer(capacity, f"{where}.capacity", 1)
        if "anchor" in raw:
            a = raw["anchor"]
            anchor = tuple(map(_finite, a)) if isinstance(a, list) and len(a) == 2 else (None,)
            if None in anchor:
                _fail(f"{where}: anchor must be an [x_m, y_m] pair of finite numbers")
            q = (anchor[0] / cs, anchor[1] / cs)  # infinite far outside the map
            acell = tuple(map(math.floor, q)) if all(map(math.isfinite, q)) else None
            if acell not in cells:
                _fail(f"{where}: anchor {list(a)} does not fall inside the location cells")
        else:
            anchor = ((cells[0][0] + 0.5) * cs, (cells[0][1] + 0.5) * cs)
        locations[name] = Location(name, cells, capacity, anchor)

    return EnvironmentMap(
        cell_size=cs,
        width=dims["width"],
        height=dims["height"],
        blocked=frozenset(blocked),
        locations=locations,
    )


# --- agent types ------------------------------------------------------------


@dataclass(frozen=True)
class AgentTypeSpec:
    name: str
    population: int
    arrival: tuple[int, ...]
    desired_speed: Distribution
    radius: float
    workflow: tuple[WorkflowStep, ...]


DEFAULT_BODY_RADIUS = 0.25  # m


def _parse_arrival(obj: Any, population: int, where: str) -> tuple[int, ...]:
    if isinstance(obj, list):
        if len(obj) != population:
            _fail(f"{where}: arrival list has {len(obj)} entries for population {population}")
        return tuple(_integer(v, f"{where}[{i}]", 0) for i, v in enumerate(obj))
    if isinstance(obj, dict):
        _object(obj, where, ("start", "interval"))
        start = _integer(obj.get("start", 0), f"{where}.start", 0)
        interval = _integer(obj.get("interval", 0), f"{where}.interval", 0)
        return tuple(start + i * interval for i in range(population))
    return (_integer(obj, where, 0),) * population


def _arrival_to_json(arrival: tuple[int, ...]) -> Any:
    if len(set(arrival)) <= 1:
        return arrival[0] if arrival else 0
    return list(arrival)


def _validate_workflow(
    steps: tuple[WorkflowStep, ...], locations: dict[str, Location], where: str
) -> None:
    if not isinstance(steps[0], (GoTo, Queue)):
        _fail(f"{where}: the first step must be goto or queue so the agent has a spawn point")

    def flat(seq: tuple[WorkflowStep, ...], prefix: str) -> None:
        for i, step in enumerate(seq):
            w = f"{prefix}[{i}]"
            if isinstance(step, (GoTo, Queue)) and step.location not in locations:
                _fail(f"{w}: unknown location {step.location!r}")
            if isinstance(step, Depart) and i != len(seq) - 1:
                _fail(f"{w}: depart must be the final step")
            if isinstance(step, Queue):
                nxt = seq[i + 1] if i + 1 < len(seq) else None
                if not isinstance(nxt, GoTo):
                    _fail(f"{w}: queue must be immediately followed by a goto")
            if isinstance(step, Cycle):
                flat(step.steps, f"{w}.steps")

    flat(steps, where)


def _parse_agent_type(obj: Any, idx: int, locations: dict[str, Location]) -> AgentTypeSpec:
    where = f"agent_types[{idx}]"
    _object(obj, where, ("name", "population", "arrival", "desired_speed", "radius", "workflow"))
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        _fail(f"{where}: name must be a non-empty string")
    problem = check_type_name(name)
    if problem:
        _fail(f"{where}: name {name!r} {problem}")
    where = f"agent_types[{name!r}]"
    population = _integer(obj.get("population"), f"{where}.population", 0)
    arrival = _parse_arrival(obj.get("arrival", 0), population, f"{where}.arrival")
    speed = _parse_distribution(
        obj.get("desired_speed", {"kind": "uniform", "min": 1.2, "max": 1.5}),
        f"{where}.desired_speed",
        positive=True,
    )
    radius = _finite(obj.get("radius", DEFAULT_BODY_RADIUS))
    if radius is None or radius <= 0:
        _fail(f"{where}: radius must be a finite positive number")
    raw_steps = _list(obj.get("workflow"), f"{where}.workflow", nonempty=True)
    steps = tuple(
        _parse_step(s, f"{where}.workflow[{i}]", 0) for i, s in enumerate(raw_steps)
    )
    _validate_workflow(steps, locations, f"{where}.workflow")
    return AgentTypeSpec(name, population, arrival, speed, radius, steps)


# --- scenario ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    map: EnvironmentMap
    agent_types: tuple[AgentTypeSpec, ...]
    tick_length: float

    @property
    def type_names(self) -> list[str]:
        return [t.name for t in self.agent_types]

    @property
    def populations(self) -> dict[str, int]:
        return {t.name: t.population for t in self.agent_types}


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document, validating schema and references."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    _object(doc, "scenario document", ("map", "agent_types", "defaults"))
    if "map" not in doc:
        _fail("scenario is missing the map")
    env = _parse_map(doc["map"])

    raw_types = _list(doc.get("agent_types", []), "agent_types")
    types = tuple(_parse_agent_type(t, i, env.locations) for i, t in enumerate(raw_types))
    seen: set[str] = set()
    for t in types:
        if t.name in seen:
            _fail(f"duplicate agent type name {t.name!r}")
        seen.add(t.name)

    defaults = _object(doc.get("defaults", {}), "defaults", ("tick_length_s",))
    tick = _finite(defaults.get("tick_length_s", 1.0))
    if tick is None or not valid_tick_length(tick):
        _fail(f"defaults.tick_length_s must be {TICK_LENGTH_RULE}")

    return Scenario(map=env, agent_types=types, tick_length=tick)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def scenario_to_json(s: Scenario) -> dict[str, Any]:
    """Canonical dict form: sorted blocked cells and location names."""
    locs = {}
    for name in sorted(s.map.locations):
        loc = s.map.locations[name]
        locs[name] = {
            "cells": [list(c) for c in loc.cells],
            "capacity": loc.capacity,
            "anchor": list(loc.anchor),
        }
    return {
        "map": {
            "cell_size_m": s.map.cell_size,
            "width": s.map.width,
            "height": s.map.height,
            "blocked": [list(c) for c in sorted(s.map.blocked)],
            "locations": locs,
        },
        "agent_types": [
            {
                "name": t.name,
                "population": t.population,
                "arrival": _arrival_to_json(t.arrival),
                "desired_speed": t.desired_speed.to_json(),
                "radius": t.radius,
                "workflow": [_step_to_json(st) for st in t.workflow],
            }
            for t in s.agent_types
        ],
        "defaults": {"tick_length_s": s.tick_length},
    }


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_json(s), indent=2, sort_keys=True) + "\n"
