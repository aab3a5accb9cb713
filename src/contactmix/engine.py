"""Tick-based crowd simulation driven by per-type workflows.

Each tick runs four phases in a fixed order: arrivals, workflow advancement
(agent id order), admission grants (location name order, FIFO by request
tick then agent id), then a number of physics substeps.  The frame emitted
at the end of a tick shows every agent present during that tick.

Movement uses a mass-normalized social force: relaxation toward the desired
velocity plus exponential repulsion from nearby agents and from blocked
cells, integrated with one Euler step per substep.  Speed is capped at a
multiple of the agent's own desired speed, and motion never enters a blocked
cell; a step that would do so slides along the wall or stops.

Walls never move, so the wall search is a table built once per simulation
(a cell list in the sense of Allen & Tildesley, ch. 5): for each map cell,
padded beyond the wall ring, the walls within the largest force cutoff of
that cell.  A substep gathers each agent's candidates from its own cell and
applies the exact distance cutoff, keeping (agent, wall) ascending order so
forces are summed in a fixed order.

Agent-agent pairs come from a neighbour list with a skin (Verlet 1967),
built once per tick by ``pairs_within`` at the force cutoff plus
2 * max_speed_factor * max(v0) * tick_length, widened by a few ulps.  No pair
outside that radius can come within the cutoff during the tick: a substep
moves an agent by at most dt times its capped speed, and containment only
shortens a step.  Each substep keeps the listed pairs within the cutoff by
the distance test of ``pairs_within``, so it sees the pairs, distances and
(a, b) order a fresh search would.  Forces are summed with ``np.bincount``,
which adds in input order: per axis, each agent's relaxation term, then +f
on every pair's first agent, then -f on every second agent, in pair order;
wall forces are summed from zero the same way and then added.  Routes are
memoised per (start cell, goal cell); A* on a static map always returns the
same path.

Capacity is slot accounting, recorded once: each location maps the agents
holding a slot there to their berths.  A grant takes the smallest berth not
in use; berths map to points (the anchor first, then the other cells'
centres, then deterministic offsets kept inside the base cell), so
simultaneous occupants never share an exact position.  An agent heading to a
full location keeps the location's cells off-limits for itself and piles up
at the boundary until a slot frees; once per tick, the physics derives that
gate from each agent's pending request, and who moves from its phase.
Agents passing through on the way to somewhere else are not gated.
Queueing agents keep their slot while they wait for the next one, and an
agent whose workflow ends without ``depart`` stays ``idle`` and keeps its
slots for good.  When waiters can never be granted, because holders wait on
each other in a cycle or on idle agents, the run stops with a
``SimulationFault`` naming them.

Everything is deterministic for a given (scenario, config): per-agent random
streams are seeded from (seed, agent index), and all iteration orders are
fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import routing
from .contacts import offsets_within, pairs_within
from .frames import TickFrame
from .scenario import (
    Cycle,
    Depart,
    Dwell,
    EnvironmentMap,
    GoTo,
    Location,
    Queue,
    Scenario,
    sample_duration,
)

GOLDEN = 0.6180339887498949  # 1/phi, for quasi-random angles

_EPS = 1e-12


@dataclass(frozen=True)
class ForceParameters:
    relaxation_time: float = 0.5  # s
    repulsion_strength: float = 2.1  # m/s^2
    repulsion_range: float = 0.3  # m
    obstacle_strength: float = 10.0  # m/s^2
    obstacle_range: float = 0.2  # m
    max_speed_factor: float = 1.3  # cap = factor * desired speed

    def __post_init__(self) -> None:
        # the speed cap also bounds how far an agent moves in a tick, which
        # the per-tick neighbour list relies on
        for name in ("relaxation_time", "repulsion_range", "obstacle_range", "max_speed_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("repulsion_strength", "obstacle_strength"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class SimConfig:
    ticks: int
    seed: int = 0
    tick_length: float | None = None  # None: use the scenario default
    physics_substeps: int = 10
    waypoint_threshold: float = 0.5  # m
    forces: ForceParameters = field(default_factory=ForceParameters)

    def __post_init__(self) -> None:
        if self.ticks < 0:
            raise ValueError("ticks must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.tick_length is not None and self.tick_length <= 0:
            raise ValueError("tick_length must be > 0")
        if self.physics_substeps < 1:
            raise ValueError("physics_substeps must be >= 1")
        if self.waypoint_threshold <= 0:
            raise ValueError("waypoint_threshold must be > 0")


@dataclass(frozen=True)
class RunSummary:
    ticks: int
    agents: int
    arrivals: int
    departures: int


class SimulationFault(RuntimeError):
    """The run could not continue (for example, an unreachable location)."""


def _pair_direction(i: int, j: int) -> tuple[float, float]:
    """Deterministic unit vector used when two agents coincide exactly."""
    t = ((i + 1) * GOLDEN + (j + 1) * GOLDEN * GOLDEN) % 1.0
    a = 2.0 * math.pi * t
    return math.cos(a), math.sin(a)


def _obstacle_cells(env: EnvironmentMap) -> np.ndarray:
    """Blocked cells plus a one-cell wall ring around the map, as (k, 2) ints."""
    cells = sorted(env.blocked)
    for x in range(-1, env.width + 1):
        cells.append((x, -1))
        cells.append((x, env.height))
    for y in range(env.height):
        cells.append((-1, y))
        cells.append((env.width, y))
    return np.array(cells, dtype=np.int64).reshape(-1, 2)


def _obstacle_radius(max_radius: float, params: ForceParameters, cs: float) -> float:
    """Wall-search cutoff around an agent's centre.

    The centre-to-centre distance overshoots the agent-to-rectangle distance
    by at most half a cell diagonal, hence the 0.7072 * cell size.
    """
    return max_radius + 4.0 * params.obstacle_range + cs * 0.7072


@dataclass(frozen=True)
class _ObstacleTable:
    """Per map cell, the walls an agent standing in that cell could feel.

    Walls never move, so this is built once.  It is CSR over a padded cell
    grid: cell (x, y) has key ``(x - x0) * rows + (y - y0)`` and its walls
    are ``idx[starts[key]:starts[key + 1]]``, ascending.  Every wall whose
    centre lies within ``reach`` of the cell's rectangle is listed, so the
    candidates of a point in the cell include every wall centre within
    ``reach`` of the point.  Points outside the padded grid are farther than
    ``reach`` from every wall.
    """

    cell_size: float
    reach: float
    x0: int
    y0: int
    cols: int
    rows: int
    starts: np.ndarray
    idx: np.ndarray
    cx: np.ndarray  # wall centres, x
    cy: np.ndarray  # wall centres, y
    lo: np.ndarray  # wall rectangles, lower-left corners
    hi: np.ndarray  # wall rectangles, upper-right corners


def _build_obstacle_table(
    env: EnvironmentMap, max_radius: float, params: ForceParameters
) -> _ObstacleTable:
    cs = env.cell_size
    reach = _obstacle_radius(max_radius, params, cs)
    # absorbs rounding in floor(x / cs) and in the squared-distance test
    r_max = reach + 1e-6 * cs
    pad = math.ceil(r_max / cs) + 1
    # cells whose rectangle lies within r_max of the centre of cell (0, 0)
    off = np.arange(-pad, pad + 1, dtype=np.int64)
    gap = np.maximum(np.abs(off) - 0.5, 0.0) * cs
    ox, oy = np.meshgrid(off, off, indexing="ij")
    near = gap[:, None] ** 2 + gap[None, :] ** 2 <= r_max * r_max
    ox, oy = ox[near], oy[near]

    cells = _obstacle_cells(env)
    x0, y0 = -1 - pad, -1 - pad
    cols, rows = env.width + 2 + 2 * pad, env.height + 2 + 2 * pad
    key = ((cells[:, 0, None] + ox - x0) * rows + (cells[:, 1, None] + oy - y0)).ravel()
    wall = np.repeat(np.arange(len(cells), dtype=np.int64), len(ox))
    order = np.argsort(key, kind="stable")  # stable: walls stay ascending per cell
    starts = np.zeros(cols * rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=cols * rows), out=starts[1:])
    centers = (cells + 0.5) * cs
    return _ObstacleTable(
        cell_size=cs, reach=reach, x0=x0, y0=y0, cols=cols, rows=rows,
        starts=starts, idx=wall[order],
        cx=np.ascontiguousarray(centers[:, 0]), cy=np.ascontiguousarray(centers[:, 1]),
        lo=centers - cs / 2.0, hi=centers + cs / 2.0,
    )


def _allowed_cells(
    env: EnvironmentMap, points: np.ndarray, forbidden: np.ndarray, exempt: np.ndarray
) -> np.ndarray:
    """Per point: the cell is walkable and not gated for that agent."""
    cs = env.cell_size
    cx = np.floor(points[:, 0] / cs).astype(np.int64)
    cy = np.floor(points[:, 1] / cs).astype(np.int64)
    inside = (cx >= 0) & (cx < env.width) & (cy >= 0) & (cy < env.height)
    ok = np.zeros(len(points), dtype=bool)
    if inside.any():
        gx, gy = cx[inside], cy[inside]
        walk = env.occupancy[gx, gy]
        loc = env.location_of_cell[gx, gy]
        fb = forbidden[inside]
        gate = (fb >= 0) & (loc == fb) & ~exempt[inside]
        ok[inside] = walk & ~gate
    return ok


def _contain(
    env: EnvironmentMap,
    pos: np.ndarray,
    cand: np.ndarray,
    vel: np.ndarray,
    forbidden: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncate steps that would enter a blocked or gated cell (slide, else stop)."""
    cs = env.cell_size
    ccx = np.floor(pos[:, 0] / cs).astype(np.int64)
    ccy = np.floor(pos[:, 1] / cs).astype(np.int64)
    in_grid = (ccx >= 0) & (ccx < env.width) & (ccy >= 0) & (ccy < env.height)
    cur_loc = np.full(len(pos), -1, dtype=np.int64)
    cur_loc[in_grid] = env.location_of_cell[ccx[in_grid], ccy[in_grid]]
    # an agent already standing inside its gated location may keep moving
    exempt = (forbidden >= 0) & (cur_loc == forbidden)

    ok = _allowed_cells(env, cand, forbidden, exempt)
    bad = np.nonzero(~ok)[0]
    if len(bad) == 0:
        return cand, vel
    cand = cand.copy()
    vel = vel.copy()

    trial_x = np.column_stack([cand[bad, 0], pos[bad, 1]])
    ok_x = _allowed_cells(env, trial_x, forbidden[bad], exempt[bad])
    xi = bad[ok_x]
    cand[xi, 0] = trial_x[ok_x, 0]
    cand[xi, 1] = pos[xi, 1]
    vel[xi, 1] = 0.0

    rest = bad[~ok_x]
    if len(rest):
        trial_y = np.column_stack([pos[rest, 0], cand[rest, 1]])
        ok_y = _allowed_cells(env, trial_y, forbidden[rest], exempt[rest])
        yi = rest[ok_y]
        cand[yi, 0] = pos[yi, 0]
        cand[yi, 1] = trial_y[ok_y, 1]
        vel[yi, 0] = 0.0
        stay = rest[~ok_y]
        cand[stay] = pos[stay]
        vel[stay] = 0.0
    return cand, vel


def _obstacle_acceleration(
    table: _ObstacleTable,
    pos: np.ndarray,
    radii: np.ndarray,
    params: ForceParameters,
) -> np.ndarray:
    n = len(pos)
    acc = np.zeros((n, 2))
    if n == 0:
        return acc
    cs = table.cell_size
    radius = _obstacle_radius(float(radii.max()), params, cs)
    if radius > table.reach:
        raise ValueError(f"obstacle table covers {table.reach} m, step needs {radius} m")
    fx = np.floor(pos[:, 0] / cs) - table.x0
    fy = np.floor(pos[:, 1] / cs) - table.y0
    inside = (fx >= 0) & (fx < table.cols) & (fy >= 0) & (fy < table.rows)
    key = (fx[inside] * table.rows + fy[inside]).astype(np.int64)
    first = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    first[inside] = table.starts[key]
    count[inside] = table.starts[key + 1] - first[inside]
    # agents ascending, each agent's walls ascending: the order bincount sums in
    agent = np.repeat(np.arange(n, dtype=np.int64), count)
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    cell = table.idx[np.arange(len(agent), dtype=np.int64) + shift]
    px = pos[agent, 0]
    py = pos[agent, 1]
    dx = px - table.cx[cell]
    dy = py - table.cy[cell]
    keep = dx * dx + dy * dy <= radius * radius
    if not keep.any():
        return acc
    agent, cell, px, py = agent[keep], cell[keep], px[keep], py[keep]
    # offset from the closest point of the wall rectangle
    ox = px - np.clip(px, table.lo[cell, 0], table.hi[cell, 0])
    oy = py - np.clip(py, table.lo[cell, 1], table.hi[cell, 1])
    d = np.hypot(ox, oy)
    nz = d > _EPS  # agents never sit inside a blocked cell
    agent, ox, oy, d = agent[nz], ox[nz], oy[nz], d[nz]
    scale = params.obstacle_strength * np.exp((radii[agent] - d) / params.obstacle_range) / d
    acc[:, 0] = np.bincount(agent, scale * ox, minlength=n)
    acc[:, 1] = np.bincount(agent, scale * oy, minlength=n)
    return acc


def _agent_cutoff(radii: np.ndarray, params: ForceParameters) -> float:
    """Distance beyond which agent-agent repulsion is ignored."""
    return 2.0 * float(radii.max()) + 8.0 * params.repulsion_range


def _skin_radius(
    cutoff: float,
    positions: np.ndarray,
    desired_speeds: np.ndarray,
    params: ForceParameters,
    tick_length: float,
    substeps: int,
) -> float:
    """Search radius that finds, at the start of a tick, every pair that comes
    within ``cutoff`` at any substep of it.

    A substep moves an agent by at most dt times its capped speed, and
    containment only shortens that step, so two agents close in by at most
    2 * max_speed_factor * max(v0) * tick_length over the tick.  The slack
    covers float rounding: relative on the distances, and a few ulps of the
    largest coordinate on every position update.
    """
    travel = 2.0 * params.max_speed_factor * float(np.abs(desired_speeds).max()) * tick_length
    span = cutoff + travel + substeps * (float(np.abs(positions).max()) + travel)
    return cutoff + travel + 64.0 * np.finfo(np.float64).eps * span


def _near_pairs(
    cand_a: np.ndarray, cand_b: np.ndarray, pos: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidate pairs within ``cutoff``: (a, b, dx, dy, distance).

    Uses the distance test of ``pairs_within``, so from candidates sorted by
    (a, b) it returns the bytes ``pairs_within`` would, plus the offsets
    dx, dy = pos[a] - pos[b].
    """
    dx, dy, d2, keep = offsets_within(cand_a, cand_b, pos[:, 0], pos[:, 1], cutoff)
    return cand_a[keep], cand_b[keep], dx[keep], dy[keep], np.sqrt(d2[keep])


def social_force_step(
    positions: np.ndarray,
    velocities: np.ndarray,
    targets: np.ndarray,
    desired_speeds: np.ndarray,
    radii: np.ndarray,
    dt: float,
    params: ForceParameters,
    env: EnvironmentMap | None = None,
    moving: np.ndarray | None = None,
    forbidden: np.ndarray | None = None,
    _obstacles: _ObstacleTable | None = None,
    _candidates: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler substep; returns (positions, velocities) as new arrays.

    Agents outside ``moving`` stay frozen but still repel the others.  With
    an environment, blocked cells repel and the step is truncated so nobody
    ends up inside one; ``forbidden`` optionally names one location index per
    agent whose cells that agent may not enter.  ``_candidates`` is a
    superset of the agent pairs within the force cutoff, sorted by (a, b);
    without it the step searches for them.
    """
    n = len(positions)
    pos = np.array(positions, dtype=np.float64)
    vel = np.array(velocities, dtype=np.float64)
    if n == 0:
        return pos, vel
    if moving is None:
        moving = np.ones(n, dtype=bool)
    if not moving.any():
        return pos, vel

    delta = targets - pos
    dist = np.hypot(delta[:, 0], delta[:, 1])
    ehat = np.zeros_like(delta)
    far = dist > _EPS
    ehat[far] = delta[far] / dist[far, None]
    relax = (desired_speeds[:, None] * ehat - vel) / params.relaxation_time

    cutoff = _agent_cutoff(radii, params)
    if _candidates is None:
        _candidates = pairs_within(np.arange(n, dtype=np.int64), pos, cutoff)[:2]
    ia, ib, dx, dy, d = _near_pairs(*_candidates, pos, cutoff)
    nz = d > _EPS
    ux = np.divide(dx, d, out=np.zeros_like(dx), where=nz)
    uy = np.divide(dy, d, out=np.zeros_like(dy), where=nz)
    for k in np.nonzero(~nz)[0]:  # coincident agents
        ux[k], uy[k] = _pair_direction(int(ia[k]), int(ib[k]))
    mag = params.repulsion_strength * np.exp((radii[ia] + radii[ib] - d) / params.repulsion_range)
    fx, fy = mag * ux, mag * uy
    # one pass in input order: relaxation, then +f on each a, then -f on each b
    who = np.concatenate([np.arange(n, dtype=np.int64), ia, ib])
    acc = np.empty((n, 2))
    acc[:, 0] = np.bincount(who, np.concatenate([relax[:, 0], fx, -fx]), minlength=n)
    acc[:, 1] = np.bincount(who, np.concatenate([relax[:, 1], fy, -fy]), minlength=n)

    if env is not None:
        table = _obstacles
        if table is None:
            table = _build_obstacle_table(env, float(radii.max()), params)
        acc += _obstacle_acceleration(table, pos, radii, params)

    mv = moving
    v = vel[mv] + dt * acc[mv]
    vmax = params.max_speed_factor * desired_speeds[mv]
    speed = np.hypot(v[:, 0], v[:, 1])
    over = speed > vmax
    if over.any():
        v[over] *= (vmax[over] / speed[over])[:, None]
    cand = pos[mv] + dt * v
    if env is not None:
        fb = forbidden[mv] if forbidden is not None else np.full(int(mv.sum()), -1, dtype=np.int64)
        cand, v = _contain(env, pos[mv], cand, v, fb)
    pos[mv] = cand
    vel[mv] = v
    return pos, vel


# --- workflow machinery -------------------------------------------------------


class _Cursor:
    """Walks a workflow, expanding cycles; current() is always a plain step."""

    def __init__(self, steps: tuple):
        self.stack: list[list] = [[steps, 0, None, 0]]  # steps, idx, cycle, loops

    def done(self) -> bool:
        return not self.stack

    def current(self):
        steps, idx, _, _ = self.stack[-1]
        return steps[idx]

    def peek_next(self):
        steps, idx, _, _ = self.stack[-1]
        return steps[idx + 1] if idx + 1 < len(steps) else None

    def normalize(self, now_tick: int) -> None:
        while self.stack:
            steps, idx, cyc, loops = self.stack[-1]
            if idx >= len(steps):
                if cyc is not None:
                    loops += 1
                    again = (cyc.repeat is not None and loops < cyc.repeat) or (
                        cyc.until_tick is not None and now_tick < cyc.until_tick
                    )
                    if again:
                        self.stack[-1][1] = 0
                        self.stack[-1][3] = loops
                        break
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += 1
                continue
            step = steps[idx]
            if isinstance(step, Cycle):
                if step.until_tick is not None and now_tick >= step.until_tick:
                    self.stack[-1][1] += 1
                    continue
                self.stack.append([step.steps, 0, step, 0])
                continue
            break

    def advance(self, now_tick: int) -> None:
        self.stack[-1][1] += 1
        self.normalize(now_tick)


class _Agent:
    __slots__ = (
        "index", "type_idx", "spec", "rng", "arrival", "v0",
        "phase", "cursor", "dwell_remaining", "waypoints", "wp_i",
        "pending_loc", "queue_mode", "queue_next",
    )

    def __init__(self, index, type_idx, spec, arrival, rng):
        self.index = index
        self.type_idx = type_idx
        self.spec = spec
        self.arrival = arrival
        self.rng = rng
        self.v0 = spec.desired_speed.sample(rng)
        self.phase = "offsite"  # offsite/moving/dwelling/queue_wait/idle/done
        self.cursor = _Cursor(spec.workflow)
        self.dwell_remaining = 0
        self.waypoints: list[tuple[float, float]] = []
        self.wp_i = 0
        self.pending_loc: str | None = None
        self.queue_mode = False
        self.queue_next: str | None = None


class _LocationState:
    __slots__ = ("loc", "berths", "waiters", "wait_points")

    def __init__(self, loc: Location):
        self.loc = loc
        self.berths: dict[int, int] = {}  # agent index -> berth, one per slot held
        self.waiters: list[tuple[int, int]] = []  # (request tick, agent index)
        self.wait_points = 0

    def take_berth(self, agent_index: int) -> None:
        """Give the agent a slot at the smallest berth not in use."""
        used = set(self.berths.values())
        k = 0
        while k in used:
            k += 1
        self.berths[agent_index] = k

    def has_free(self) -> bool:
        cap = self.loc.capacity
        return cap is None or len(self.berths) < cap


def berth_point(env: EnvironmentMap, loc: Location, k: int) -> tuple[float, float]:
    """Standing point for berth k: anchor, then other cell centers, then offsets.

    An offset stays inside the cell of its base point, since the neighbouring
    cell may be blocked: one that would leave it is turned toward the cell
    centre on each axis it leaves by, and kept at most halfway from the base
    to the edge ahead.
    """
    anchor_cell = env.cell_of(*loc.anchor)
    bases = [loc.anchor] + [env.cell_center(c) for c in loc.cells if c != anchor_cell]
    base = bases[k % len(bases)]
    ring = k // len(bases)
    if ring == 0:
        return base
    cs = env.cell_size
    r = 0.15 * cs * math.sqrt(ring)
    a = 2.0 * math.pi * ((ring * GOLDEN) % 1.0)
    u = (math.cos(a), math.sin(a))
    point = (base[0] + r * u[0], base[1] + r * u[1])
    cell = env.cell_of(*base)
    out = env.cell_of(*point)
    if out != cell:
        u = tuple(
            math.copysign(v, (c + 0.5) * cs - b) if o != c else v
            for v, b, o, c in zip(u, base, out, cell)
        )
        room = min(((c + (v > 0)) * cs - b) / v for b, v, c in zip(base, u, cell) if v != 0.0)
        r = min(r, 0.5 * room)
        point = (base[0] + r * u[0], base[1] + r * u[1])
    return point


class Simulation:
    def __init__(self, scenario: Scenario, config: SimConfig):
        self.scenario = scenario
        self.config = config
        self.env = scenario.map
        self.tick_length = config.tick_length if config.tick_length is not None else scenario.tick_length
        self.type_names = scenario.type_names
        self._obstacles = _build_obstacle_table(
            self.env, max((t.radius for t in scenario.agent_types), default=0.0), config.forces
        )
        self._routes: dict[tuple, tuple] = {}  # (start cell, goal cell) -> route cells
        # routes share one tuple per cell, so the memo grows by a pointer per step
        self._route_cells: dict[tuple, tuple] = {}

        self.agents: list[_Agent] = []
        for t_idx, spec in enumerate(scenario.agent_types):
            for i in range(spec.population):
                index = len(self.agents)
                rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
                self.agents.append(_Agent(index, t_idx, spec, spec.arrival[i], rng))
        n = len(self.agents)

        self.pos = np.zeros((n, 2))
        self.vel = np.zeros((n, 2))
        self.tgt = np.zeros((n, 2))
        self.v0 = np.array([a.v0 for a in self.agents], dtype=np.float64)
        self.radius = np.array([a.spec.radius for a in self.agents], dtype=np.float64)
        self.present = np.zeros(n, dtype=bool)

        self.loc_state = {name: _LocationState(loc) for name, loc in self.env.locations.items()}
        self.arrivals = 0
        self.departures = 0
        self._arrival_schedule: dict[int, list[int]] = {}
        for a in self.agents:
            self._arrival_schedule.setdefault(a.arrival, []).append(a.index)

    # -- slots -----------------------------------------------------------------

    def _holds(self, ag: _Agent, name: str) -> bool:
        return ag.index in self.loc_state[name].berths

    def _berth_point(self, ag: _Agent, name: str) -> tuple[float, float]:
        st = self.loc_state[name]
        return berth_point(self.env, st.loc, st.berths[ag.index])

    def _release(self, ag: _Agent, keep: str | None = None) -> None:
        """Give up every slot the agent holds, except the one at ``keep``."""
        for name, st in self.loc_state.items():
            if name != keep:
                st.berths.pop(ag.index, None)

    def _request(self, ag: _Agent, name: str, tick: int) -> bool:
        """Ask for a slot; returns True when granted on the spot."""
        st = self.loc_state[name]
        if st.has_free() and not st.waiters:
            st.take_berth(ag.index)
            return True
        st.waiters.append((tick, ag.index))
        ag.pending_loc = name
        return False

    # -- movement ---------------------------------------------------------------

    def _route_to(self, ag: _Agent, point: tuple[float, float], goal_name: str) -> None:
        start = self.env.cell_of(*self.pos[ag.index])
        goal = self.env.cell_of(*point)
        cells = self._routes.get((start, goal))
        if cells is None:  # A* is deterministic and the map static, so routes keep
            try:
                path, _ = routing.shortest_cell_path(self.env, start, goal)
            except routing.NoRouteError as e:
                t_name = self.type_names[ag.type_idx]
                raise SimulationFault(
                    f"agent {ag.index} ({t_name}) cannot reach location {goal_name!r}: {e}"
                ) from e
            pool = self._route_cells
            cells = self._routes[(start, goal)] = tuple(pool.setdefault(c, c) for c in path)
        waypoints = [self.env.cell_center(c) for c in cells[:-1]]
        waypoints.append(point)
        ag.waypoints = waypoints
        ag.wp_i = 0
        ag.phase = "moving"
        self.tgt[ag.index] = waypoints[0]

    def _freeze(self, ag: _Agent, phase: str) -> None:
        ag.phase = phase
        self.vel[ag.index] = 0.0
        self.tgt[ag.index] = self.pos[ag.index]

    # -- workflow -----------------------------------------------------------------

    def _begin_goto(self, ag: _Agent, name: str, tick: int, queue_mode: bool) -> None:
        self._release(ag, keep=name)
        ag.queue_mode = queue_mode
        ag.queue_next = None
        if self._holds(ag, name) or self._request(ag, name, tick):
            self._route_to(ag, self._berth_point(ag, name), name)
        else:
            self._route_to(ag, self.env.locations[name].anchor, name)

    def _enter_current(self, ag: _Agent, tick: int) -> None:
        for _ in range(64):  # zero-length steps collapse within the tick
            if ag.cursor.done():
                self._freeze(ag, "idle")
                return
            step = ag.cursor.current()
            if isinstance(step, GoTo):
                self._begin_goto(ag, step.location, tick, queue_mode=False)
                return
            if isinstance(step, Queue):
                self._begin_goto(ag, step.location, tick, queue_mode=True)
                return
            if isinstance(step, Dwell):
                ticks = sample_duration(step.duration, ag.rng, self.tick_length)
                if ticks > 0:
                    ag.dwell_remaining = ticks
                    self._freeze(ag, "dwelling")
                    return
                ag.cursor.advance(tick)
                continue
            if isinstance(step, Depart):
                self._depart(ag)
                return
            raise AssertionError(f"unhandled step {step!r}")
        # a cycle of zero-length steps: hold for a tick rather than spin
        ag.dwell_remaining = 1
        self._freeze(ag, "dwelling")

    def _depart(self, ag: _Agent) -> None:
        self._release(ag)  # a waiter cannot depart: only a grant moves it on
        self.present[ag.index] = False
        self._freeze(ag, "done")
        self.departures += 1

    def _reached_target(self, ag: _Agent) -> bool:
        if not ag.waypoints or ag.wp_i != len(ag.waypoints) - 1:
            return False
        dx = self.pos[ag.index, 0] - ag.waypoints[-1][0]
        dy = self.pos[ag.index, 1] - ag.waypoints[-1][1]
        return math.hypot(dx, dy) <= self.config.waypoint_threshold

    def _spawn_wait_point(self, loc: Location, serial: int) -> tuple[float, float]:
        cs = self.env.cell_size
        ax, ay = loc.anchor
        for k in range(64):
            t = serial * 64 + k
            r = cs * (0.9 + 0.22 * math.sqrt(t + 1))
            a = 2.0 * math.pi * ((t * GOLDEN) % 1.0)
            p = (ax + r * math.cos(a), ay + r * math.sin(a))
            cell = self.env.cell_of(*p)
            if self.env.walkable(cell) and cell not in loc.cells:
                return p
        return loc.anchor  # degenerate map; capacity is then best-effort

    def _process_arrival(self, ag: _Agent, tick: int) -> None:
        """Place the agent at its berth, or outside the full location, and route."""
        self.present[ag.index] = True
        self.arrivals += 1
        ag.cursor.normalize(tick)
        step = ag.cursor.current()  # validated: goto or queue
        name = step.location
        ag.queue_mode = isinstance(step, Queue)
        st = self.loc_state[name]
        if self._request(ag, name, tick):
            point = self._berth_point(ag, name)
            self.pos[ag.index] = point  # the route is then the one cell: [point]
        else:
            self.pos[ag.index] = self._spawn_wait_point(st.loc, st.wait_points)
            st.wait_points += 1
            point = st.loc.anchor
        self._route_to(ag, point, name)

    def _tick_workflow(self, ag: _Agent, tick: int) -> None:
        if ag.phase == "dwelling":
            ag.dwell_remaining -= 1
            if ag.dwell_remaining <= 0:
                ag.cursor.advance(tick)
                self._enter_current(ag, tick)
        elif ag.phase == "moving":
            name = ag.cursor.current().location  # a goto or queue step
            if not self._holds(ag, name) or not self._reached_target(ag):
                return
            if ag.queue_mode:
                nxt = ag.cursor.peek_next()
                ag.queue_next = nxt.location  # validated: queue precedes a goto
                if self._holds(ag, ag.queue_next) or self._request(ag, ag.queue_next, tick):
                    # slot already in hand: fall straight through to the goto
                    ag.cursor.advance(tick)
                    self._enter_current(ag, tick)
                else:
                    self._freeze(ag, "queue_wait")
            else:
                ag.cursor.advance(tick)
                self._enter_current(ag, tick)

    def _grant_pass(self, tick: int) -> None:
        for name in sorted(self.loc_state):
            st = self.loc_state[name]
            if not st.waiters:
                continue
            st.waiters.sort()
            while st.waiters and st.has_free():
                _, idx = st.waiters.pop(0)
                ag = self.agents[idx]
                st.take_berth(idx)
                ag.pending_loc = None
                if ag.phase == "queue_wait" and ag.queue_next == name:
                    ag.cursor.advance(tick)
                    self._enter_current(ag, tick)
                elif ag.phase == "moving":
                    self._route_to(ag, self._berth_point(ag, name), name)
        self._check_deadlock(tick)

    def _check_deadlock(self, tick: int) -> None:
        """Fail when waiters can never be granted a slot.

        After the grant pass a location with waiters is full, so its waiters
        wait on its holders.  An agent in ``idle`` has ended its workflow and
        never leaves; a waiter keeps its slots until it is granted.  Drop,
        until none is left to drop, the waiters of every location with a
        free slot or a holder that is neither idle nor a waiter left: that
        holder may still leave.  The waiters left can never move: they wait
        on each other in a cycle, or on agents that have ended.
        """
        waiting = {name: st for name, st in self.loc_state.items() if st.waiters}
        stuck = {idx: name for name, st in waiting.items() for _, idx in st.waiters}
        dropped = True
        while dropped:
            dropped = False
            for name, st in list(waiting.items()):
                if st.has_free() or any(
                    h not in stuck and self.agents[h].phase != "idle" for h in st.berths
                ):
                    for _, idx in waiting.pop(name).waiters:
                        del stuck[idx]
                    dropped = True
        if not stuck:
            return
        ended = {h for st in waiting.values() for h in st.berths if h not in stuck}
        parts = []
        for idx in sorted(stuck) + sorted(ended):
            ag = self.agents[idx]
            held = ", ".join(
                repr(name) for name in sorted(self.loc_state) if self._holds(ag, name)
            ) or "no slot"
            what = f"waits for {stuck[idx]!r}" if idx in stuck else "has ended its workflow"
            parts.append(f"agent {idx} ({self.type_names[ag.type_idx]}) holds {held} and {what}")
        raise SimulationFault(f"capacity deadlock at tick {tick}: " + "; ".join(parts))

    # -- physics ---------------------------------------------------------------

    def _advance_waypoints(self, g_idx: np.ndarray, pos: np.ndarray, tgt: np.ndarray,
                           moving: np.ndarray) -> None:
        thr = self.config.waypoint_threshold
        d2 = (pos[:, 0] - tgt[:, 0]) ** 2 + (pos[:, 1] - tgt[:, 1]) ** 2
        near = np.nonzero(moving & (d2 <= thr * thr))[0]
        for li in near:
            ag = self.agents[g_idx[li]]
            if not ag.waypoints:
                continue
            while ag.wp_i < len(ag.waypoints) - 1:
                wx, wy = ag.waypoints[ag.wp_i]
                if (pos[li, 0] - wx) ** 2 + (pos[li, 1] - wy) ** 2 > thr * thr:
                    break
                ag.wp_i += 1
            wx, wy = ag.waypoints[ag.wp_i]
            if ag.wp_i == len(ag.waypoints) - 1 and (pos[li, 0] - wx) ** 2 + (
                pos[li, 1] - wy
            ) ** 2 <= thr * thr:
                tgt[li] = pos[li]  # close enough: brake and let the workflow take over
            else:
                tgt[li] = (wx, wy)

    def _physics(self) -> None:
        g_idx = np.nonzero(self.present)[0]
        if len(g_idx) == 0:
            return
        pos = self.pos[g_idx]
        vel = self.vel[g_idx]
        tgt = self.tgt[g_idx]
        speeds = self.v0[g_idx]
        radii = self.radius[g_idx]
        here = [self.agents[i] for i in g_idx]
        moving = np.array([ag.phase == "moving" for ag in here], dtype=bool)
        if not moving.any():
            return  # nobody moves, and frozen agents already stand still
        # each waiter keeps off the cells of the location it waits for
        index = self.env.location_index
        fb = np.array([index.get(ag.pending_loc, -1) for ag in here], dtype=np.int64)
        substeps = self.config.physics_substeps
        dt = self.tick_length / substeps
        # one neighbour search per tick; each substep filters it to the cutoff
        skin = _skin_radius(
            _agent_cutoff(radii, self.config.forces), pos, speeds, self.config.forces,
            self.tick_length, substeps,
        )
        candidates = pairs_within(np.arange(len(g_idx), dtype=np.int64), pos, skin)[:2]
        for _ in range(substeps):
            self._advance_waypoints(g_idx, pos, tgt, moving)
            pos, vel = social_force_step(
                pos, vel, tgt, speeds, radii, dt, self.config.forces,
                env=self.env, moving=moving, forbidden=fb, _obstacles=self._obstacles,
                _candidates=candidates,
            )
        self.pos[g_idx] = pos
        self.vel[g_idx] = vel
        self.tgt[g_idx] = tgt

    # -- main loop ---------------------------------------------------------------

    def run(self, observer: Callable[[TickFrame], None] | None = None) -> RunSummary:
        n = len(self.agents)
        ids = np.arange(n, dtype=np.int64)
        type_ids = np.array([a.type_idx for a in self.agents], dtype=np.int32)
        for tick in range(self.config.ticks):
            for idx in self._arrival_schedule.get(tick, ()):
                self._process_arrival(self.agents[idx], tick)
            for ag in self.agents:
                if ag.phase in ("dwelling", "moving"):
                    self._tick_workflow(ag, tick)
            self._grant_pass(tick)
            self._physics()
            if observer is not None:
                sel = self.present
                observer(
                    TickFrame(
                        tick=tick,
                        ids=ids[sel].copy(),
                        type_ids=type_ids[sel].copy(),
                        positions=self.pos[sel].copy(),
                        type_names=self.type_names,
                    )
                )
        return RunSummary(
            ticks=self.config.ticks,
            agents=n,
            arrivals=self.arrivals,
            departures=self.departures,
        )


def run(
    scenario: Scenario, config: SimConfig, observer: Callable[[TickFrame], None] | None = None
) -> RunSummary:
    """Simulate a scenario for config.ticks ticks, feeding frames to observer."""
    return Simulation(scenario, config).run(observer)
