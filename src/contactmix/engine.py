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

Physics is prepared once per tick, and each substep computes only the rows
that can change: those of moving agents; frozen agents still repel.  A
substep moves an agent by at most dt times its capped speed and containment
only shortens a step, so in a tick an agent travels at most
max_speed_factor * max(v0) * tick_length.  That makes both force lists skin
lists (Verlet 1967; Allen & Tildesley, ch. 5).  Agent pairs come from one
``pairs_within`` search at the force cutoff plus twice that travel, widened
by a few ulps, keeping the pairs with a moving end.  Walls never move, so
``Simulation`` builds a wall table once: per padded map cell, the walls
within the largest wall cutoff plus one travel.  Each tick gathers every
moving agent's walls from the cell it starts in.  Each substep filters both
lists by the exact cutoff tests, so it sees the pairs, walls, distances and
order a fresh search would.  Forces are summed with ``np.bincount``, which
adds in input order: per axis, each agent's relaxation term, then +f on
every pair's first agent, then -f on every second agent, in pair order;
wall forces are summed from zero in (agent, wall) order, then added.
Containment reads one grid of cell codes: a cell's location index, -1 off
every location, -2 where blocked and on a ring around the map.  Routes are
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
from .contacts import pairs_within
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
_NO_GATE = -3  # a gate that no cell code matches
_SLIDES = np.array([[[False, True]], [[True, False]]])  # slide along x, along y
_XY = np.array([0, 1])  # bin 2 * row + axis: one bincount sums both axes


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
        if self.physics_substeps < 1:
            raise ValueError("physics_substeps must be >= 1")
        for name in ("tick_length", "waypoint_threshold"):  # tick_length None: the default
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")


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


def _tick_travel(desired_speeds: np.ndarray, params: ForceParameters, tick_length: float) -> float:
    """The farthest one agent moves in a tick: a substep moves it by at most
    dt times its capped speed, and containment only shortens a step."""
    return params.max_speed_factor * float(np.abs(desired_speeds).max(initial=0.0)) * tick_length


def _widened(radius: float, travel: float, extent: float, substeps: int) -> float:
    """``radius + travel`` plus slack for float rounding: relative on the
    distances, and a few ulps of the largest coordinate ``extent`` on every
    position update."""
    span = radius + travel + substeps * (extent + travel)
    return radius + travel + 64.0 * np.finfo(np.float64).eps * span


@dataclass(frozen=True)
class _ObstacleTable:
    """Per map cell, the walls an agent starting a tick in that cell could feel.

    Walls never move, so this is built once.  It is CSR over a padded cell
    grid: cell (x, y) has key ``(x - x0) * rows + (y - y0)`` and its walls
    are ``idx[starts[key]:starts[key + 1]]``, ascending.  Every wall whose
    centre lies within ``reach + travel`` of the cell's rectangle is listed,
    so the candidates of a point in the cell include every wall centre within
    ``reach`` of wherever an agent starting there moves in a tick.  Points
    outside the padded grid are farther than that from every wall, as are
    the grid's border cells, which list none.
    """

    cell_size: float
    reach: float
    travel: float
    x0: int
    y0: int
    cols: int
    rows: int
    starts: np.ndarray
    idx: np.ndarray
    box: np.ndarray  # (walls, 3, 2): centre, lower-left and upper-right corner


def _build_obstacle_table(
    env: EnvironmentMap, max_radius: float, params: ForceParameters,
    travel: float = 0.0, substeps: int = 1,
) -> _ObstacleTable:
    cs = env.cell_size
    reach = _obstacle_radius(max_radius, params, cs)
    # agents stay on the map; 1e-6 * cs absorbs rounding in floor(x / cs)
    # and in the squared-distance test
    r_max = _widened(reach, travel, max(env.width, env.height) * cs, substeps) + 1e-6 * cs
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
        cell_size=cs, reach=reach, travel=travel, x0=x0, y0=y0, cols=cols, rows=rows,
        starts=starts, idx=wall[order],
        box=np.stack([centers, centers - cs / 2.0, centers + cs / 2.0], axis=1),
    )


def _gather_walls(table: _ObstacleTable, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(point, wall) for every wall listed in each point's table cell, points
    ascending and each point's walls ascending."""
    cell = np.floor(pts / table.cell_size) - (table.x0, table.y0)
    # points beyond the padded grid take its border, where no wall is listed;
    # clipped before the cast, which a far point would overflow
    np.maximum(cell, 0, out=cell)
    np.minimum(cell, (table.cols - 1, table.rows - 1), out=cell)
    cell = cell.astype(np.int64)
    key = cell[:, 0] * table.rows + cell[:, 1]
    first = table.starts[key]
    count = table.starts[key + 1] - first
    point = np.repeat(np.arange(len(pts), dtype=np.int64), count)
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    return point, table.idx[np.arange(len(point), dtype=np.int64) + shift]


def _cell_code(env: EnvironmentMap, points: np.ndarray) -> np.ndarray:
    """Per point, the ``EnvironmentMap.cell_codes`` entry of its cell (-2 off the map)."""
    codes = env.cell_codes
    cell = np.floor(points / env.cell_size) + 1
    np.maximum(cell, 0, out=cell)  # clipped before the cast, which a far point would overflow
    np.minimum(cell, (codes.shape[0] - 1, codes.shape[1] - 1), out=cell)
    cell = cell.astype(np.int64)
    return codes[cell[:, 0], cell[:, 1]]


def _contain(
    env: EnvironmentMap, pos: np.ndarray, cand: np.ndarray, vel: np.ndarray, gate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Truncate steps that would enter a blocked or gated cell: slide along
    x, else along y, else stop.

    ``gate`` holds, per agent, the location index whose cells it may not
    enter, or ``_NO_GATE``.
    """
    m = len(pos)
    code = _cell_code(env, np.concatenate([pos, cand]))
    # an agent already standing inside its gated location may keep moving
    gate = np.where(code[:m] == gate, _NO_GATE, gate)
    bad = ((code[m:] == gate) | (code[m:] < -1)).nonzero()[0]
    if len(bad) == 0:
        return cand, vel
    p, c = pos[bad], cand[bad]
    code = _cell_code(env, np.where(_SLIDES, p, c).reshape(-1, 2)).reshape(2, -1)
    ok_x, ok_y = (code != gate[bad]) & (code > -2)
    back = np.column_stack([~ok_x, ok_x | ~ok_y])  # components that stay put
    cand, vel = cand.copy(), vel.copy()
    cand[bad] = np.where(back, p, c)
    vel[bad] = np.where(back, 0.0, vel[bad])
    return cand, vel


def _agent_cutoff(radii: np.ndarray, params: ForceParameters) -> float:
    """Distance beyond which agent-agent repulsion is ignored."""
    return 2.0 * float(radii.max()) + 8.0 * params.repulsion_range


def _skin_radius(
    cutoff: float, positions: np.ndarray, desired_speeds: np.ndarray, params: ForceParameters,
    tick_length: float, substeps: int,
) -> float:
    """Search radius that finds, at the start of a tick, every pair that comes
    within ``cutoff`` at any substep of it: two agents close in by at most
    twice the travel of one."""
    travel = 2.0 * _tick_travel(desired_speeds, params, tick_length)
    return _widened(cutoff, travel, float(np.abs(positions).max()), substeps)


def _near_pairs(
    pairs: np.ndarray, pos: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of candidate pairs (2, p), those within ``cutoff``: (index into the
    candidates, offsets pos[a] - pos[b] as (k, 2), distances).  The test is
    the arithmetic of ``offsets_within``, so from candidates sorted by (a, b)
    it keeps the pairs and distances ``pairs_within`` would, in its order."""
    off = pos.take(pairs[0], 0) - pos.take(pairs[1], 0)  # take: row gathers, fast
    sq = off * off
    d2 = sq[:, 0] + sq[:, 1]
    k = (d2 <= cutoff * cutoff).nonzero()[0]
    return k, off.take(k, 0), np.sqrt(d2[k])


@dataclass(frozen=True)
class _Tick:
    """What every substep of one tick shares, made once by ``_prepare_tick``."""

    mv: np.ndarray  # moving rows, ascending: the only rows a substep computes
    speeds: np.ndarray  # desired speed per moving row
    vmax: np.ndarray  # speed cap per moving row
    pairs: np.ndarray  # (2, p): (a, b) within the skin with a moving end, ascending
    pair_r: np.ndarray  # radius of a plus radius of b
    bins: np.ndarray  # (m, 2): bincount bins 2 * row + axis of the moving rows
    pair_bins: np.ndarray  # (2, p, 2): the bins of each pair's a, then of its b
    cutoff: float
    env: EnvironmentMap | None
    gate: np.ndarray  # per moving row, the location index it may not enter, or _NO_GATE
    r2: float  # squared wall cutoff
    wall_agent: np.ndarray  # per listed wall, its moving row (rows, walls ascending)
    wall_bins: np.ndarray  # (k, 2): bins 2 * i + axis, i counting moving rows only
    wall_r: np.ndarray  # and its radius
    walls: np.ndarray  # (3, k, 2): centre, lower-left and upper-right corner


def _prepare_tick(
    pos: np.ndarray, speeds: np.ndarray, radii: np.ndarray, params: ForceParameters,
    moving: np.ndarray, forbidden: np.ndarray | None, env: EnvironmentMap | None,
    table: _ObstacleTable | None, tick_length: float, substeps: int,
) -> _Tick:
    """The per-tick state of agents standing at ``pos`` when a tick starts.

    Frozen agents stay force sources, but a pair of two frozen agents changes
    nothing.  Each moving agent's walls come from the table cell it starts
    in; the table's travel must cover ``tick_length`` at the speed cap.
    """
    mv = np.nonzero(moving)[0]
    cutoff = _agent_cutoff(radii, params)
    skin = _skin_radius(cutoff, pos, speeds, params, tick_length, substeps)
    pairs = np.array(pairs_within(np.arange(len(pos), dtype=np.int64), pos, skin)[:2])
    pairs = pairs[:, moving[pairs[0]] | moving[pairs[1]]]
    fb = np.full(len(mv), -1) if forbidden is None else forbidden[mv]
    r2, agent, walls = 0.0, np.empty(0, dtype=np.int64), np.empty((3, 0, 2))
    if env is not None:
        radius = _obstacle_radius(float(radii.max()), params, table.cell_size)
        travel = _tick_travel(speeds, params, tick_length)
        if radius > table.reach or travel > table.travel:
            raise ValueError(f"obstacle table covers {table.reach} m and {table.travel} m "
                             f"of travel, step needs {radius} m and {travel} m")
        r2 = radius * radius
        agent, wall = _gather_walls(table, pos[mv])
        walls = table.box.take(wall, 0).transpose(1, 0, 2)
    return _Tick(
        mv=mv, speeds=speeds[mv], vmax=params.max_speed_factor * speeds[mv], pairs=pairs,
        pair_r=radii[pairs[0]] + radii[pairs[1]], bins=2 * mv[:, None] + _XY,
        pair_bins=2 * pairs[..., None] + _XY, cutoff=cutoff, env=env,
        gate=np.where(fb >= 0, fb, _NO_GATE), r2=r2, wall_agent=agent,
        wall_bins=2 * agent[:, None] + _XY, wall_r=radii[mv][agent], walls=walls,
    )


def _obstacle_acceleration(tick: _Tick, pm: np.ndarray, params: ForceParameters) -> np.ndarray:
    """Wall forces on the moving rows standing at ``pm``: of each one's listed
    walls, the exact cutoff test keeps the ones a lookup in its current cell
    would, in the same (agent, wall) order."""
    centre, lo, hi = tick.walls
    p = pm.take(tick.wall_agent, 0)
    sq = (p - centre) ** 2
    off = p - np.minimum(hi, np.maximum(lo, p))  # from the closest point of the wall
    d = np.hypot(off[:, 0], off[:, 1])
    # agents never sit inside a blocked cell
    k = ((sq[:, 0] + sq[:, 1] <= tick.r2) & (d > _EPS)).nonzero()[0]
    d = d[k]
    scale = params.obstacle_strength * np.exp((tick.wall_r[k] - d) / params.obstacle_range) / d
    f = scale[:, None] * off.take(k, 0)
    return np.bincount(tick.wall_bins.take(k, 0).ravel(), f.ravel(),
                       minlength=2 * len(pm)).reshape(-1, 2)


def social_force_step(
    positions: np.ndarray, velocities: np.ndarray, targets: np.ndarray,
    desired_speeds: np.ndarray, radii: np.ndarray, dt: float, params: ForceParameters,
    env: EnvironmentMap | None = None, moving: np.ndarray | None = None,
    forbidden: np.ndarray | None = None, _tick: _Tick | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler substep; returns (positions, velocities) as new arrays.

    Agents outside ``moving`` stay frozen but still repel the others.  With
    an environment, blocked cells repel and the step is truncated so nobody
    ends up inside one; ``forbidden`` optionally names one location index per
    agent (-1 for none) whose cells that agent may not enter.  ``_tick`` is
    the state ``_prepare_tick`` made for these agents at the start of the
    tick, and then stands in for ``env``, ``moving`` and ``forbidden``;
    without it the step prepares its own, as a tick of one substep.
    """
    n = len(positions)
    pos = np.array(positions, dtype=np.float64)
    vel = np.array(velocities, dtype=np.float64)
    if n == 0:
        return pos, vel
    if _tick is None:
        table = None if env is None else _build_obstacle_table(env, float(radii.max()), params)
        _tick = _prepare_tick(
            pos, desired_speeds, radii, params,
            np.ones(n, dtype=bool) if moving is None else moving, forbidden, env, table, 0.0, 1,
        )
    t = _tick
    mv = t.mv
    pm, vm = pos.take(mv, 0), vel.take(mv, 0)
    delta = targets.take(mv, 0) - pm
    dist = np.hypot(delta[:, 0], delta[:, 1])
    ehat = np.divide(delta, dist[:, None], out=np.zeros(delta.shape), where=dist[:, None] > _EPS)
    relax = (t.speeds[:, None] * ehat - vm) / params.relaxation_time
    k, off, d = _near_pairs(t.pairs, pos, t.cutoff)
    nz = (d > _EPS)[:, None]
    u = np.divide(off, d[:, None], out=np.zeros(off.shape), where=nz)
    for j in (~nz[:, 0]).nonzero()[0]:  # coincident agents
        u[j] = _pair_direction(*t.pairs[:, k[j]].tolist())
    mag = params.repulsion_strength * np.exp((t.pair_r[k] - d) / params.repulsion_range)
    f = mag[:, None] * u
    # one pass in input order, per axis: relaxation, then +f on each a, then
    # -f on each b; rows of frozen agents collect their terms too, and are dropped
    bins = np.concatenate([t.bins.ravel(), t.pair_bins.take(k, 1).ravel()])
    weights = np.concatenate([relax, f, -f]).ravel()
    acc = np.bincount(bins, weights, minlength=2 * n).take(t.bins)
    if len(t.wall_agent):  # else the wall term is +0.0, and bincount never sums to -0.0
        acc += _obstacle_acceleration(t, pm, params)
    v = vm + dt * acc
    speed = np.hypot(v[:, 0], v[:, 1])
    over = speed > t.vmax
    if over.any():
        v[over] *= (t.vmax[over] / speed[over])[:, None]
    cand = pm + dt * v
    if t.env is not None:
        cand, v = _contain(t.env, pm, cand, v, t.gate)
    pos.put(t.bins, cand)
    vel.put(t.bins, v)
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
        # wide enough that a tick's wall list, gathered where agents start it, holds
        self._obstacles = _build_obstacle_table(
            self.env, max((t.radius for t in scenario.agent_types), default=0.0), config.forces,
            _tick_travel(self.v0, config.forces, self.tick_length), config.physics_substeps,
        )

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
                           mv: np.ndarray) -> None:
        thr = self.config.waypoint_threshold
        off = pos.take(mv, 0) - tgt.take(mv, 0)
        for li in mv[off[:, 0] ** 2 + off[:, 1] ** 2 <= thr * thr]:
            ag = self.agents[g_idx[li]]
            if not ag.waypoints:
                continue
            while ag.wp_i < len(ag.waypoints) - 1:
                wx, wy = ag.waypoints[ag.wp_i]
                if (pos[li, 0] - wx) ** 2 + (pos[li, 1] - wy) ** 2 > thr * thr:
                    break
                ag.wp_i += 1
            wx, wy = ag.waypoints[ag.wp_i]
            last = ag.wp_i == len(ag.waypoints) - 1
            if last and (pos[li, 0] - wx) ** 2 + (pos[li, 1] - wy) ** 2 <= thr * thr:
                tgt[li] = pos[li]  # close enough: brake and let the workflow take over
            else:
                tgt[li] = (wx, wy)

    def _physics(self) -> None:
        g_idx = np.nonzero(self.present)[0]
        if len(g_idx) == 0:
            return
        here = [self.agents[i] for i in g_idx]
        moving = np.array([ag.phase == "moving" for ag in here], dtype=bool)
        if not moving.any():
            return  # nobody moves, and frozen agents already stand still
        pos, vel, tgt = self.pos[g_idx], self.vel[g_idx], self.tgt[g_idx]
        speeds, radii = self.v0[g_idx], self.radius[g_idx]
        # each waiter keeps off the cells of the location it waits for
        index = self.env.location_index
        fb = np.array([index.get(ag.pending_loc, -1) for ag in here], dtype=np.int64)
        substeps = self.config.physics_substeps
        dt = self.tick_length / substeps
        # one neighbour search and one wall gather per tick; substeps filter them
        tick = _prepare_tick(pos, speeds, radii, self.config.forces, moving, fb, self.env,
                             self._obstacles, self.tick_length, substeps)
        for _ in range(substeps):
            self._advance_waypoints(g_idx, pos, tgt, tick.mv)
            pos, vel = social_force_step(pos, vel, tgt, speeds, radii, dt, self.config.forces,
                                         _tick=tick)
        self.pos[g_idx], self.vel[g_idx], self.tgt[g_idx] = pos, vel, tgt

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
