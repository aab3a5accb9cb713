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
within the largest wall cutoff plus one travel, and the cell's code for
containment (its location index, -1 in none, -2 where blocked or off the
map).  Each tick looks up once the cell every moving agent starts in, for
its walls and its code.  Each substep filters both lists by the exact
cutoff tests, so it sees the pairs, walls, distances and order a fresh
search would.  Forces are summed with ``np.bincount``, which adds in input
order: per axis, each agent's relaxation term, then +f on every pair's
first agent, then -f on every second agent, in pair order; wall forces are
summed from zero in (agent, wall) order, then added.  Routes are memoised
per (start cell, goal cell); A* on a static map always returns the same
path, and every cell of it past the start is a key of the map's move table,
so a memoised route adds one pointer per step and no cell tuples.

Every physics array is indexed by agent: ``Simulation._physics`` hands the
preparations and kernels its own arrays with the present and moving rows,
and the kernels write the moving rows in place.

One kernel call runs all the substeps of a tick, and there are two kernels
with the same bytes, each with its own preparation.  ``_prepare_tick``
makes the tick's arrays, and ``_run_substeps`` keeps the moving rows'
positions, velocities and targets as arrays for the tick, advances
waypoints on them, writes the moving rows' positions back once per substep
for the pair offsets, and the rest once at the end.  ``_prepare_small`` and
``_run_substeps_small`` keep the tick in Python floats and lists instead:
on a tick of a few rows, numpy's per-call cost, not arithmetic, is what
both the preparation and a substep pay.  ``_prepare_small`` tests each pair
with a moving end against the skin as ``pairs_within`` does, takes each
moving row's walls from a cache of tuples on the wall table, keyed by the
cell the row starts in and filled as ticks first start there, and gives up
once the moving rows, skin pairs and listed walls number more than
``SMALL_TICK_MAX``; ``Simulation._physics`` then prepares and runs the tick
on arrays.  The
small kernel does each array operation as the same IEEE operation on
floats, in the same order, with ``math.sqrt`` for ``np.sqrt`` (both
correctly rounded).  ``exp`` and ``hypot`` stay numpy calls on float64
arrays, one ``hypot`` for the relaxation and wall offsets, one ``exp`` for
the pair and wall forces and one ``hypot`` for the speed cap per substep:
``math.exp`` and ``math.hypot`` are other functions, which may round
differently.  Both kernels take the agent of each moving row and move its
waypoints with ``_Agent.next_target``.  In both, each moving row's cell code
comes from its preparation and carries over from one substep's containment
to the next: a step ends at its candidate point, a slide of it or its
start, and the code of each was computed on the way.  ``social_force_step``
is the array kernel run for one substep.

Capacity is slot accounting, recorded once: each location maps the agents
holding a slot there to their berths.  A grant takes the smallest berth not
in use; berths map to points (the anchor first, then the other cells'
centres, then deterministic offsets kept inside the base cell), so
simultaneous occupants never share an exact position.  An agent heading to a
full location keeps the location's cells off-limits for itself and piles up
at the boundary until a slot frees; once per tick, the physics reads that
gate from the locations' waiter lists (an agent waits for at most one slot)
and who moves from ``Simulation.phase``.  Agents passing through on the way
to somewhere else are not gated.  Queueing agents keep their slot while they
wait for the next one, and an agent whose workflow ends without ``depart``
stays ``IDLE`` and keeps its slots for good.  When waiters can never be
granted, because holders wait on each other in a cycle or on idle agents,
the run stops with a ``SimulationFault`` naming them.

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
    ScenarioError,
    sample_duration,
)

GOLDEN = 0.6180339887498949  # 1/phi, for quasi-random angles

_EPS = 1e-12
_NO_GATE = -3  # a gate that no cell code matches
_SLIDES = np.array([[[False, True]], [[True, False]]])  # slide along x, along y
_XY = np.array([0, 1])  # bin 2 * row + axis: one bincount sums both axes
_ULP = float(np.finfo(np.float64).eps)  # the spacing of floats at 1.0
WAYPOINT_THRESHOLD = 0.5  # m: a waypoint this close counts as reached
# Simulation.phase codes, ordered so that one comparison selects: on site is
# >= IDLE, has workflow to run this tick >= DWELLING, moves == MOVING
OFFSITE, DONE, IDLE, QUEUE_WAIT, DWELLING, MOVING = range(6)
# A tick with at most this many moving rows + skin pairs + listed walls is
# prepared and run in Python floats (_prepare_small, _run_substeps_small), a
# larger one on arrays.  On the crowd workload's first 60 ticks (seeds 1 to 3,
# 10 substeps) the small kernel took 0.37 of the array kernel's time at
# sizes up to 32, 0.80 at 33-64, 1.11 at 65-96, 1.27 at 97-128 and 1.89 at
# 193-256 (medians; timed when both kernels started from _prepare_tick's
# arrays); every clinic tick on seed 1 but one is at most 64.
SMALL_TICK_MAX = 64


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
    forces: ForceParameters = field(default_factory=ForceParameters)

    def __post_init__(self) -> None:
        for name, low in (("ticks", 0), ("seed", 0), ("physics_substeps", 1)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        tick = self.tick_length  # None: the scenario default
        if tick is not None and not (math.isfinite(tick) and tick > 0):
            raise ValueError("tick_length must be finite and > 0")


@dataclass(frozen=True)
class RunSummary:
    ticks: int
    agents: int
    arrivals: int
    departures: int


class SimulationFault(RuntimeError):
    """The run could not continue (for example, an unreachable location)."""


def _pair_direction(i: int, j: int) -> tuple[float, float]:
    """Deterministic unit vector used when agents ``i`` < ``j`` coincide exactly."""
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


def _tick_travel(top_speed: float, params: ForceParameters, tick_length: float) -> float:
    """The farthest an agent of desired speed at most ``top_speed`` moves in a
    tick: a substep moves it by at most dt times its capped speed, and
    containment only shortens a step."""
    return params.max_speed_factor * top_speed * tick_length


def _speed_overflows(
    desired_speed: float, params: ForceParameters, tick_length: float, substeps: int
) -> bool:
    """Whether a desired speed is not finite or can overflow the physics: a
    substep's velocity, at most the capped speed plus dt times the
    relaxation term, or the skin radius, which sums two agents' travel over
    every substep.  The factor 2 leaves room for the hypot, the forces and
    the map's extent."""
    f, dt = params.max_speed_factor, tick_length / substeps
    velocity = desired_speed * (f + dt * (1.0 + f) / params.relaxation_time)
    skin = 2.0 * f * desired_speed * tick_length * (substeps + 1)
    return not math.isfinite(2.0 * max(velocity, skin))


def _radius_overflows(
    radius: float, params: ForceParameters, pairs: int, walls: int, dt: float, cell_size: float
) -> bool:
    """Whether a body radius can overflow the physics, in the worst case: an
    agent coincident with ``pairs`` others of its radius and ``_EPS`` from
    each of ``walls`` walls (every wall of the map bounds those a tick can
    list).  Each exp, a wall force's scale (its exp over that distance), the
    summed force and dt times it must stay finite, and so must twice both
    cutoffs, to which the skin adds travel; the factor 2 leaves room for
    rounding and for numpy's exp."""
    try:
        e_pair = math.exp(2.0 * radius / params.repulsion_range)
        e_wall = math.exp(radius / params.obstacle_range)
    except OverflowError:
        return True
    wall = params.obstacle_strength * e_wall
    force = pairs * params.repulsion_strength * e_pair + walls * wall
    cutoff = max(_agent_cutoff(radius, params), _obstacle_radius(radius, params, cell_size))
    return not all(math.isfinite(2.0 * v)
                   for v in (e_pair, e_wall, wall / _EPS, force, dt * force, 2.0 * cutoff))


def _widened(radius: float, travel: float, extent: float, substeps: int) -> float:
    """``radius + travel`` plus slack for float rounding: relative on the
    distances, and a few ulps of the largest coordinate ``extent`` on every
    position update."""
    span = radius + travel + substeps * (extent + travel)
    return radius + travel + 64.0 * _ULP * span


@dataclass(frozen=True)
class _ObstacleTable:
    """Per map cell, the walls an agent starting a tick in that cell could
    feel, and the cell's code.

    Walls never move, so this is built once.  It is CSR over a padded cell
    grid: cell (x, y) has key ``(x - origin) * rows + (y - origin)`` and its
    walls are ``idx[starts[key]:starts[key + 1]]``, ascending.  Every wall whose
    centre lies within ``reach + travel`` of the cell's rectangle is listed,
    so the candidates of a point in the cell include every wall centre within
    ``reach`` of wherever an agent starting there moves in a tick.  Points
    outside the padded grid are farther than that from every wall, as are
    the grid's border cells, which list none.  ``code[key]`` is the cell's
    location index, -1 in none, and -2 where blocked or off the map, as the
    border cells are.
    """

    cell_size: float
    reach: float
    travel: float
    origin: int  # the padded grid's lowest cell index, in x and in y
    cols: int
    rows: int
    starts: np.ndarray
    idx: np.ndarray
    box: np.ndarray  # (walls, 3, 2): centre, lower-left and upper-right corner
    code: np.ndarray
    # table key -> that cell's walls as tuples, filled as ticks start in the cell
    _tuples: dict = field(default_factory=dict, compare=False, repr=False)

    def key_at(self, x: float, y: float) -> int:
        """``_keys`` of one point (x, y), in Python ints."""
        cs = self.cell_size
        return (min(max(math.floor(x / cs) - self.origin, 0), self.cols - 1) * self.rows
                + min(max(math.floor(y / cs) - self.origin, 0), self.rows - 1))

    def walls_at(self, key: int) -> list[tuple[float, ...]]:
        """The walls listed for the cell of table key ``key``, as (centre,
        lower and upper x, then the same in y) tuples."""
        walls = self._tuples.get(key)
        if walls is None:
            box = self.box.take(self.idx[self.starts[key]:self.starts[key + 1]], 0)
            walls = box.transpose(0, 2, 1).reshape(-1, 6).tolist()
            walls = self._tuples[key] = list(map(tuple, walls))
        return walls


def _build_obstacle_table(
    env: EnvironmentMap, max_radius: float, params: ForceParameters,
    travel: float = 0.0, substeps: int = 1,
) -> _ObstacleTable:
    cs = env.cell_size
    reach = _obstacle_radius(max_radius, params, cs)
    # agents stay on the map; 1e-6 * cs absorbs rounding in floor(x / cs)
    # and in the squared-distance test
    r_max = _widened(reach, travel, max(env.width, env.height) * cs, substeps) + 1e-6 * cs
    # every wall centre lies this close to any point on the map, so a larger
    # r_max would list the same walls for the cells agents start ticks in
    r_max = min(r_max, math.hypot(env.width + 2, env.height + 2) * cs)
    pad = math.ceil(r_max / cs) + 1
    # cells whose rectangle lies within r_max of the centre of cell (0, 0)
    off = np.arange(-pad, pad + 1, dtype=np.int64)
    gap = np.maximum(np.abs(off) - 0.5, 0.0) * cs
    ox, oy = np.meshgrid(off, off, indexing="ij")
    near = gap[:, None] ** 2 + gap[None, :] ** 2 <= r_max * r_max
    ox, oy = ox[near], oy[near]

    cells = _obstacle_cells(env)
    origin = -1 - pad
    cols, rows = env.width + 2 + 2 * pad, env.height + 2 + 2 * pad
    key = ((cells[:, 0, None] + ox - origin) * rows + (cells[:, 1, None] + oy - origin)).ravel()
    wall = np.repeat(np.arange(len(cells), dtype=np.int64), len(ox))
    order = np.argsort(key, kind="stable")  # stable: walls stay ascending per cell
    starts = np.zeros(cols * rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=cols * rows), out=starts[1:])
    code = np.full((cols, rows), -2, dtype=np.int64)
    code[-origin:cols + origin, -origin:rows + origin] = -1  # the map
    for name, i in env.location_index.items():
        for x, y in env.locations[name].cells:
            code[x - origin, y - origin] = i
    code[cells[:, 0] - origin, cells[:, 1] - origin] = -2  # blocked, and the ring
    centers = (cells + 0.5) * cs
    return _ObstacleTable(
        cell_size=cs, reach=reach, travel=travel, origin=origin, cols=cols, rows=rows,
        starts=starts, idx=wall[order],
        box=np.stack([centers, centers - cs / 2.0, centers + cs / 2.0], axis=1),
        code=code.ravel(),
    )


def _keys(table: _ObstacleTable, pts: np.ndarray) -> np.ndarray:
    """Per point, the table key of its cell."""
    cell = np.floor(pts / table.cell_size) - table.origin
    # points beyond the padded grid take its border, which lists no wall and
    # is off the map; clipped before the cast, which a far point would overflow
    np.maximum(cell, 0, out=cell)
    np.minimum(cell, (table.cols - 1, table.rows - 1), out=cell)
    cell = cell.astype(np.int64)
    return cell[:, 0] * table.rows + cell[:, 1]


def _gather_walls(table: _ObstacleTable, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(point, wall) for every wall listed in each point's table cell, given
    the points' keys: points ascending and each point's walls ascending."""
    first = table.starts[key]
    count = table.starts[key + 1] - first
    point = np.repeat(np.arange(len(key), dtype=np.int64), count)
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    return point, table.idx[np.arange(len(point), dtype=np.int64) + shift]


def _contain(
    table: _ObstacleTable, pm: np.ndarray, code: np.ndarray, cand: np.ndarray, vel: np.ndarray,
    gate: np.ndarray,
) -> np.ndarray:
    """Truncate, in place, steps from ``pm`` to ``cand`` that would enter a
    blocked or gated cell: slide along x, else along y, else stop.  Returns
    the cell code of every point the steps end at.

    ``code`` holds the cell code of each ``pm``.  ``gate`` holds, per agent,
    the location index whose cells it may not enter, or ``_NO_GATE``.
    """
    end = table.code.take(_keys(table, cand))
    # an agent already standing inside its gated location may keep moving
    gate = np.where(code == gate, _NO_GATE, gate)
    bad = ((end == gate) | (end < -1)).nonzero()[0]
    if len(bad) == 0:
        return end
    p, c = pm[bad], cand[bad]
    slid = table.code.take(_keys(table, np.where(_SLIDES, p, c).reshape(-1, 2))).reshape(2, -1)
    ok_x, ok_y = (slid != gate[bad]) & (slid > -2)
    back = np.column_stack([~ok_x, ok_x | ~ok_y])  # components that stay put
    cand[bad] = np.where(back, p, c)
    vel[bad] = np.where(back, 0.0, vel[bad])
    # each final point is the slide along x, the slide along y or the start
    end[bad] = np.where(ok_x, slid[0], np.where(ok_y, slid[1], code[bad]))
    return end


def _agent_cutoff(top_radius: float, params: ForceParameters) -> float:
    """Distance beyond which repulsion between agents of radius at most
    ``top_radius`` is ignored."""
    return 2.0 * top_radius + 8.0 * params.repulsion_range


def _near_pairs(
    pairs: np.ndarray, pos: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of candidate pairs (2, p), those within ``cutoff``: (index into the
    candidates, offsets pos[a] - pos[b] as (k, 2), distances).  The test is
    the arithmetic of ``pairs_within``'s, so from candidates sorted by (a, b)
    it keeps the pairs and distances ``pairs_within`` would, in its order."""
    off = pos.take(pairs[0], 0) - pos.take(pairs[1], 0)  # take: row gathers, fast
    sq = off * off
    d2 = sq[:, 0] + sq[:, 1]
    k = (d2 <= cutoff * cutoff).nonzero()[0]
    return k, off.take(k, 0), np.sqrt(d2[k])


def _check_table(table: _ObstacleTable, radius: float, travel: float) -> None:
    """Raise unless ``table`` lists the walls within ``radius`` of an agent
    that moves up to ``travel`` in a tick."""
    if radius > table.reach or travel > table.travel:
        raise ValueError(f"obstacle table covers {table.reach} m and {table.travel} m "
                         f"of travel, step needs {radius} m and {travel} m")


@dataclass(frozen=True)
class _Tick:
    """What every substep of one tick shares, made once by ``_prepare_tick``
    for ``_run_substeps``."""

    mv: np.ndarray  # moving rows, ascending: the only rows a substep computes
    speeds: np.ndarray  # desired speed per moving row
    vmax: np.ndarray  # speed cap per moving row
    pairs: np.ndarray  # (2, p): (a, b) within the skin with a moving end, ascending
    pair_r: np.ndarray  # radius of a plus radius of b
    bins: np.ndarray  # (m, 2): bincount bins 2 * row + axis of the moving rows
    pair_bins: np.ndarray  # (2, p, 2): the bins of each pair's a, then of its b
    cutoff: float
    table: _ObstacleTable | None  # the map's walls and cell codes; None without a map
    code: np.ndarray | None  # per moving row, the code of the cell it starts in
    gate: np.ndarray  # per moving row, the location index it may not enter, or _NO_GATE
    r2: float  # squared wall cutoff
    wall_agent: np.ndarray  # per listed wall, its moving row (rows, walls ascending)
    wall_bins: np.ndarray  # (k, 2): bins 2 * i + axis, i counting moving rows only
    wall_r: np.ndarray  # and its radius
    walls: np.ndarray  # (3, k, 2): centre, lower-left and upper-right corner


def _prepare_tick(
    pos: np.ndarray, speeds: np.ndarray, radii: np.ndarray, params: ForceParameters,
    present: np.ndarray, moving: np.ndarray, gate: np.ndarray, table: _ObstacleTable | None,
    tick_length: float, substeps: int,
) -> _Tick:
    """The per-tick state of the agents ``present`` (ascending rows) when a
    tick starts; ``moving`` flags rows of present agents, and ``gate`` holds
    per row the location index it may not enter, or ``_NO_GATE``.

    Frozen agents stay force sources, but a pair of two frozen agents changes
    nothing.  Each moving agent's walls and cell code come from the table
    cell it starts in; the table's travel must cover ``tick_length`` at the
    speed cap.  With a table, every substep of the tick runs containment.
    """
    mv = np.nonzero(moving)[0]
    at = pos[present]
    top = float(radii[present].max())
    cutoff = _agent_cutoff(top, params)
    travel = _tick_travel(float(np.abs(speeds[present]).max()), params, tick_length)
    # two agents close in by at most twice the travel of one
    skin = _widened(cutoff, 2.0 * travel, float(np.abs(at).max()), substeps)
    pairs = np.array(pairs_within(present, at, skin)[:2])
    # C order: boolean indexing returns Fortran order, which makes each
    # substep's take of pair columns from pair_bins several times slower
    pairs = np.ascontiguousarray(pairs[:, moving[pairs[0]] | moving[pairs[1]]])
    vmax = params.max_speed_factor * speeds[mv]
    r2, agent, walls, code = 0.0, np.empty(0, dtype=np.int64), np.empty((3, 0, 2)), None
    if table is not None:
        radius = _obstacle_radius(top, params, table.cell_size)
        _check_table(table, radius, travel)
        r2 = radius * radius
        key = _keys(table, pos[mv])
        agent, wall = _gather_walls(table, key)
        walls = table.box.take(wall, 0).transpose(1, 0, 2)
        code = table.code.take(key)
    return _Tick(
        mv=mv, speeds=speeds[mv], vmax=vmax, pairs=pairs,
        pair_r=radii[pairs[0]] + radii[pairs[1]], bins=2 * mv[:, None] + _XY,
        pair_bins=2 * pairs[..., None] + _XY, cutoff=cutoff, table=table, code=code,
        gate=gate[mv], r2=r2,
        wall_agent=agent, wall_bins=2 * agent[:, None] + _XY, wall_r=radii[mv][agent],
        walls=walls,
    )


def _obstacle_acceleration(tick: _Tick, pm: np.ndarray, params: ForceParameters) -> np.ndarray:
    """Wall forces on the moving rows standing at ``pm``: of each one's listed
    walls, the exact cutoff test keeps the ones a lookup in its current cell
    would, in the same (agent, wall) order."""
    p = pm.take(tick.wall_agent, 0)
    sq = (p - tick.walls[0]) ** 2
    k = (sq[:, 0] + sq[:, 1] <= tick.r2).nonzero()[0]
    p = p.take(k, 0)
    _, lo, hi = tick.walls.take(k, 1)
    off = p - np.minimum(hi, np.maximum(lo, p))  # from the closest point of the wall
    d = np.hypot(off[:, 0], off[:, 1])
    far = d > _EPS  # agents never sit inside a blocked cell
    if not far.all():
        k, off, d = k[far], off[far], d[far]
    scale = params.obstacle_strength * np.exp((tick.wall_r[k] - d) / params.obstacle_range) / d
    f = scale[:, None] * off
    return np.bincount(tick.wall_bins.take(k, 0).ravel(), f.ravel(),
                       minlength=2 * len(pm)).reshape(-1, 2)


def _run_substeps(
    t: _Tick, pos: np.ndarray, vel: np.ndarray, tgt: np.ndarray, dt: float, substeps: int,
    params: ForceParameters, movers: list[_Agent] | None = None,
) -> None:
    """Run ``substeps`` Euler substeps of tick ``t`` on the moving rows of
    ``pos``, ``vel`` and ``tgt``, in place.

    The moving rows' positions, velocities and targets stay arrays ``pm``,
    ``vm`` and ``tm`` for the whole tick.  Given ``movers``, the agent of
    each moving row, each substep starts by moving on, with
    ``_Agent.next_target``, the target of every row within
    ``WAYPOINT_THRESHOLD`` of it.  ``pos`` is updated every substep, since
    the pair offsets read it; ``vel`` and ``tgt`` at the end.  With a table,
    every substep runs ``_contain``, and each moving row's cell code, from
    ``t.code`` on, carries over from one ``_contain`` to the next, since it
    is the code of the point the step ended at.
    """
    mv, bins, flat = t.mv, t.bins, t.bins.ravel()
    pm, vm, tm = pos.take(mv, 0), vel.take(mv, 0), tgt.take(mv, 0)
    code = t.code
    thr2 = WAYPOINT_THRESHOLD * WAYPOINT_THRESHOLD
    for _ in range(substeps):
        if movers is not None:
            off = pm - tm
            for j in (off[:, 0] ** 2 + off[:, 1] ** 2 <= thr2).nonzero()[0]:
                target = movers[j].next_target(pm[j, 0], pm[j, 1])
                if target is not None:
                    tm[j] = target
        delta = tm - pm
        dist = np.hypot(delta[:, 0], delta[:, 1])
        ehat = np.divide(delta, dist[:, None], out=np.zeros(delta.shape),
                         where=dist[:, None] > _EPS)
        relax = (t.speeds[:, None] * ehat - vm) / params.relaxation_time
        k, off, d = _near_pairs(t.pairs, pos, t.cutoff)
        nz = d > _EPS
        u = np.divide(off, d[:, None], out=np.zeros(off.shape), where=nz[:, None])
        for j in (~nz).nonzero()[0]:  # coincident agents
            u[j] = _pair_direction(*t.pairs[:, k[j]].tolist())
        mag = params.repulsion_strength * np.exp((t.pair_r[k] - d) / params.repulsion_range)
        f = mag[:, None] * u
        # one pass in input order, per axis: relaxation, then +f on each a,
        # then -f on each b; rows of frozen agents collect their terms too,
        # and are dropped.  Every bin starts at +0.0: with no pair in range
        # this is relax + 0.0, no sum is -0.0, and a wall term of +0.0 (no
        # wall in range) changes nothing
        acc = np.bincount(np.concatenate([flat, t.pair_bins.take(k, 1).ravel()]),
                          np.concatenate([relax, f, -f]).ravel(),
                          minlength=2 * len(pos)).take(bins)
        acc += _obstacle_acceleration(t, pm, params)
        v = vm + dt * acc
        speed = np.hypot(v[:, 0], v[:, 1])
        over = (speed > t.vmax).nonzero()[0]
        if len(over):
            v[over] *= (t.vmax[over] / speed[over])[:, None]
        cand = pm + dt * v
        if code is not None:
            code = _contain(t.table, pm, code, cand, v, t.gate)
        pos.put(bins, cand)
        pm, vm = cand, v
    vel.put(bins, vm)
    tgt.put(bins, tm)


def _contain_point(
    table: _ObstacleTable, x: float, y: float, code: int, cx: float, cy: float, vx: float,
    vy: float, gate: int,
) -> tuple[float, float, float, float, int]:
    """``_contain`` for one step from (x, y), of cell code ``code``, to
    (cx, cy) at velocity (vx, vy): returns the step's end, its velocity and
    the end's cell code."""
    codes, key_at = table.code, table.key_at
    end = codes.item(key_at(cx, cy))
    if code == gate:  # standing inside its gated location, it may keep moving
        gate = _NO_GATE
    if end != gate and end > -2:
        return cx, cy, vx, vy, end
    slid_x, slid_y = codes.item(key_at(cx, y)), codes.item(key_at(x, cy))
    ok_x = slid_x != gate and slid_x > -2
    ok_y = slid_y != gate and slid_y > -2
    if not ok_x:
        cx, vx = x, 0.0
    if ok_x or not ok_y:
        cy, vy = y, 0.0
    return cx, cy, vx, vy, slid_x if ok_x else slid_y if ok_y else code


@dataclass(frozen=True)
class _SmallTick:
    """What every substep of a small tick shares, made by ``_prepare_small``
    in Python floats: the lists ``_run_substeps_small`` reads."""

    mv: list[int]  # moving rows, ascending
    x: list[float]  # the moving rows' x, then that of the frozen pair ends
    y: list[float]
    # (a's slot in x, b's slot, a, b, radius of a plus radius of b) per pair
    # within the skin with a moving end, in (a, b) order
    pairs: list[tuple[int, int, int, int, float]]
    walls: list[list[tuple[float, ...]]]  # per moving row, ``_ObstacleTable.walls_at``
    code: list[int]  # per moving row, the code of the cell it starts in
    radii: list[float]  # per moving row
    speeds: list[float]  # desired speed per moving row
    vmax: list[float]  # speed cap per moving row
    gate: list[int]  # per moving row, the location index it may not enter, or _NO_GATE
    c2: float  # squared agent cutoff
    r2: float  # squared wall cutoff
    table: _ObstacleTable


def _prepare_small(
    pos: np.ndarray, speeds: np.ndarray, radii: np.ndarray, params: ForceParameters,
    present: np.ndarray, moving: np.ndarray, gate: np.ndarray, table: _ObstacleTable,
    tick_length: float, substeps: int, limit: float,
) -> _SmallTick | None:
    """``_prepare_tick`` in Python floats, for ``_run_substeps_small``; None
    once the moving rows, skin pairs and listed walls number more than
    ``limit``.

    The scalars come from ``_prepare_tick``'s helpers on the same maxima, and
    the skin test is ``pairs_within``'s, so the pairs, walls and cutoffs are
    the ones ``_prepare_tick`` lists, bit for bit.
    """
    mv = moving.nonzero()[0].tolist()
    count = len(mv)
    if count > limit:
        return None
    rows = present.tolist()
    (px, py), rad, spd = pos.T.tolist(), radii.tolist(), speeds.tolist()
    top = max([rad[i] for i in rows])
    travel = _tick_travel(max([abs(spd[i]) for i in rows]), params, tick_length)
    radius = _obstacle_radius(top, params, table.cell_size)
    _check_table(table, radius, travel)
    walls, code = [], []
    for i in mv:
        key = table.key_at(px[i], py[i])
        walls.append(table.walls_at(key))
        code.append(table.code.item(key))
        count += len(walls[-1])
        if count > limit:
            return None
    cutoff = _agent_cutoff(top, params)
    extent = max([max(abs(px[i]), abs(py[i])) for i in rows])
    skin = _widened(cutoff, 2.0 * travel, extent, substeps)
    s2 = skin * skin
    found = []
    flags = moving.tolist()
    for a in mv:  # each pair once: a frozen b, or a moving b beyond a
        xa, ya = px[a], py[a]
        for b in rows:
            if b == a or (b < a and flags[b]):
                continue
            ox, oy = xa - px[b], ya - py[b]
            if ox * ox + oy * oy <= s2:
                found.append((a, b) if a < b else (b, a))
                count += 1
                if count > limit:
                    return None
    found.sort()
    ends = mv + sorted({r for pair in found for r in pair}.difference(mv))  # then frozen ends
    slot = {r: k for k, r in enumerate(ends)}
    cap = params.max_speed_factor
    return _SmallTick(
        mv=mv, x=[px[r] for r in ends], y=[py[r] for r in ends],
        pairs=[(slot[a], slot[b], a, b, rad[a] + rad[b]) for a, b in found],
        walls=walls, code=code, radii=[rad[i] for i in mv], speeds=[spd[i] for i in mv],
        vmax=[cap * spd[i] for i in mv], gate=gate[mv].tolist(),
        c2=cutoff * cutoff, r2=radius * radius, table=table,
    )


def _run_substeps_small(
    t: _SmallTick, pos: np.ndarray, vel: np.ndarray, tgt: np.ndarray, dt: float,
    substeps: int, params: ForceParameters, movers: list[_Agent] | None = None,
) -> None:
    """``_run_substeps`` on Python floats, for a tick with few moving rows,
    pairs and walls: the same bytes at a fraction of the numpy calls.

    ``movers`` moves targets on as in ``_run_substeps``.  Every operation is
    the array kernel's, in its order: ``x * x`` where that squares an array,
    ``math.sqrt`` for ``np.sqrt`` and sums in ``np.bincount``'s input order.
    ``exp`` and ``hypot`` stay numpy calls, one each on a float64 array per
    substep (and one ``hypot`` for the speed cap), since ``math.exp`` and
    ``math.hypot`` may round differently.
    """
    m = len(t.mv)
    X, Y = t.x[:], t.y[:]  # copies: the moving rows' entries move
    vx, vy = vel.take(t.mv, 0).T.tolist()
    tx, ty = tgt.take(t.mv, 0).T.tolist()
    walls, radii, speeds, vmax, gate = t.walls, t.radii, t.speeds, t.vmax, t.gate
    table, tau, c2, r2 = t.table, params.relaxation_time, t.c2, t.r2
    rep_s, rep_r = params.repulsion_strength, params.repulsion_range
    obs_s, obs_r = params.obstacle_strength, params.obstacle_range
    thr2 = WAYPOINT_THRESHOLD * WAYPOINT_THRESHOLD
    code = t.code[:]  # a copy: each step's containment replaces its row's code
    moving = range(m)
    for _ in range(substeps):
        if movers is not None:
            for i in moving:
                ox, oy = X[i] - tx[i], Y[i] - ty[i]
                if ox * ox + oy * oy <= thr2:
                    target = movers[i].next_target(X[i], Y[i])
                    if target is not None:
                        tx[i], ty[i] = target
        # hypot arguments: each row's offset to its target, then each near wall's
        hx = [tx[i] - X[i] for i in moving]
        hy = [ty[i] - Y[i] for i in moving]
        near = []  # (a, b, a's row, b's row, offset, distance) within the cutoff, in pair order
        args = []  # exp arguments: of the near pairs, then of the near walls
        for a, b, ra, rb, r in t.pairs:
            ox, oy = X[a] - X[b], Y[a] - Y[b]
            d2 = ox * ox + oy * oy
            if d2 <= c2:
                d = math.sqrt(d2)
                near.append((a, b, ra, rb, ox, oy, d))
                args.append((r - d) / rep_r)
        wall_near = []  # the row of each wall within the cutoff, in (row, wall) order
        for i in moving:
            px, py = X[i], Y[i]
            for cx, lx, ux, cy, ly, uy in walls[i]:
                ox, oy = px - cx, py - cy
                if ox * ox + oy * oy <= r2:  # then the offset from the wall's closest point
                    hx.append(px - (lx if px < lx else ux if px > ux else px))
                    hy.append(py - (ly if py < ly else uy if py > uy else py))
                    wall_near.append(i)
        h = np.hypot(hx, hy).tolist()
        for k, i in enumerate(wall_near):
            args.append((radii[i] - h[m + k]) / obs_r)
        e = np.exp(args).tolist()
        # relaxation, summed from +0.0 as bincount does
        ax, ay = [], []
        for i in moving:
            dist = h[i]
            if dist > _EPS:
                ex, ey = hx[i] / dist, hy[i] / dist
            else:
                ex = ey = 0.0
            ax.append(0.0 + (speeds[i] * ex - vx[i]) / tau)
            ay.append(0.0 + (speeds[i] * ey - vy[i]) / tau)
        if near:
            fs = []
            for (a, b, ra, rb, ox, oy, d), ek in zip(near, e):
                if d > _EPS:
                    ux, uy = ox / d, oy / d
                else:  # coincident agents
                    ux, uy = _pair_direction(ra, rb)
                mag = rep_s * ek
                fs.append((a, b, mag * ux, mag * uy))
            for a, _, fx, fy in fs:  # +f on each a, then -f on each b, in pair order
                if a < m:
                    ax[a] += fx
                    ay[a] += fy
            for _, b, fx, fy in fs:
                if b < m:
                    ax[b] += -fx
                    ay[b] += -fy
        if wall_near:
            wx, wy = [0.0] * m, [0.0] * m
            for k, i in enumerate(wall_near):
                d = h[m + k]
                if d > _EPS:  # agents never sit inside a blocked cell
                    scale = obs_s * e[len(near) + k] / d
                    wx[i] += scale * hx[m + k]
                    wy[i] += scale * hy[m + k]
            for i in moving:
                ax[i] += wx[i]
                ay[i] += wy[i]
        for i in moving:
            vx[i] += dt * ax[i]
            vy[i] += dt * ay[i]
        speed = np.hypot(vx, vy).tolist()
        for i in moving:
            s = speed[i]
            if s > vmax[i]:
                cap = vmax[i] / s
                vx[i] *= cap
                vy[i] *= cap
            cx, cy = X[i] + dt * vx[i], Y[i] + dt * vy[i]
            X[i], Y[i], vx[i], vy[i], code[i] = _contain_point(
                table, X[i], Y[i], code[i], cx, cy, vx[i], vy[i], gate[i])
    pos[t.mv] = np.array((X[:m], Y[:m])).T
    vel[t.mv] = np.array((vx, vy)).T
    tgt[t.mv] = np.array((tx, ty)).T


def social_force_step(
    positions: np.ndarray, velocities: np.ndarray, targets: np.ndarray,
    desired_speeds: np.ndarray, radii: np.ndarray, dt: float, params: ForceParameters,
    env: EnvironmentMap | None = None, moving: np.ndarray | None = None,
    forbidden: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler substep, run as a tick of one substep of ``dt``; returns
    (positions, velocities) as new arrays.

    Agents outside ``moving`` stay frozen but still repel the others.  With
    an environment, blocked cells repel and the step is truncated so nobody
    ends up inside one; ``forbidden`` optionally names one location index per
    agent (-1 for none) whose cells that agent may not enter.
    """
    n = len(positions)
    pos = np.array(positions, dtype=np.float64)
    vel = np.array(velocities, dtype=np.float64)
    if n == 0:
        return pos, vel
    travel = _tick_travel(float(np.abs(desired_speeds).max()), params, dt)
    table = None if env is None else _build_obstacle_table(env, float(radii.max()), params, travel)
    gate = np.full(n, _NO_GATE) if forbidden is None else np.where(
        forbidden >= 0, forbidden, _NO_GATE)
    tick = _prepare_tick(
        pos, desired_speeds, radii, params, np.arange(n),
        np.ones(n, dtype=bool) if moving is None else moving, gate, table, dt, 1,
    )
    _run_substeps(tick, pos, vel, np.array(targets, dtype=np.float64), dt, 1, params)
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
    """Per-agent Python state; ``Simulation`` owns the agent's arrays and phase."""

    __slots__ = ("index", "rng", "cursor", "dwell_remaining", "waypoints", "wp_i")

    def __init__(self, index, workflow, rng):
        self.index = index
        self.rng = rng
        self.cursor = _Cursor(workflow)
        self.dwell_remaining = 0
        self.waypoints: list[tuple[float, float]] = []
        self.wp_i = 0

    def next_target(self, x: float, y: float) -> tuple[float, float] | None:
        """The target of this moving agent standing at (x, y), near its target:
        the first waypoint farther than ``WAYPOINT_THRESHOLD``, or (x, y) to
        brake once the last one is that close.  None without a route."""
        if not self.waypoints:
            return None
        thr2 = WAYPOINT_THRESHOLD * WAYPOINT_THRESHOLD
        last = len(self.waypoints) - 1
        while self.wp_i < last:
            wx, wy = self.waypoints[self.wp_i]
            if (x - wx) ** 2 + (y - wy) ** 2 > thr2:
                break
            self.wp_i += 1
        wx, wy = self.waypoints[self.wp_i]
        if self.wp_i == last and (x - wx) ** 2 + (y - wy) ** 2 <= thr2:
            return x, y  # close enough: brake and let the workflow take over
        return wx, wy


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

        others = max(sum(t.population for t in scenario.agent_types) - 1, 0)
        walls = len(_obstacle_cells(self.env))
        for spec in scenario.agent_types:
            if _radius_overflows(spec.radius, config.forces, others, walls,
                                 self.tick_length / config.physics_substeps, self.env.cell_size):
                raise ScenarioError(
                    f"agent_types[{spec.name!r}].radius: {spec.radius!r} m is too large: "
                    "the force between coincident agents, or from a wall, would overflow")

        self.agents: list[_Agent] = []
        v0: list[float] = []
        types: list[int] = []
        self._arrival_schedule: dict[int, list[int]] = {}
        for t_idx, spec in enumerate(scenario.agent_types):
            for i in range(spec.population):
                index = len(self.agents)
                rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
                speed = spec.desired_speed.sample(rng)  # each stream's first draw
                if _speed_overflows(speed, config.forces, self.tick_length,
                                    config.physics_substeps):
                    raise ScenarioError(
                        f"agent_types[{spec.name!r}].desired_speed: drew {speed!r} m/s, too fast "
                        "to integrate: a substep's velocity or search radius would overflow")
                v0.append(speed)
                types.append(t_idx)
                self.agents.append(_Agent(index, spec.workflow, rng))
                self._arrival_schedule.setdefault(spec.arrival[i], []).append(index)
        n = len(self.agents)

        self.pos = np.zeros((n, 2))
        self.vel = np.zeros((n, 2))
        self.tgt = np.zeros((n, 2))
        self.v0 = np.array(v0, dtype=np.float64)
        self.type_ids = np.array(types, dtype=np.int32)
        self.radius = np.array([t.radius for t in scenario.agent_types],
                               dtype=np.float64)[self.type_ids]
        self.phase = np.full(n, OFFSITE, dtype=np.int8)
        # wide enough that a tick's wall list, gathered where agents start it, holds
        self._obstacles = _build_obstacle_table(
            self.env, max((t.radius for t in scenario.agent_types), default=0.0), config.forces,
            _tick_travel(float(np.abs(self.v0).max(initial=0.0)), config.forces, self.tick_length),
            config.physics_substeps,
        )

        self.loc_state = {name: _LocationState(loc) for name, loc in self.env.locations.items()}
        self.arrivals = 0
        self.departures = 0
        self._ran = False

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
                t_name = self.type_names[self.type_ids[ag.index]]
                raise SimulationFault(
                    f"agent {ag.index} ({t_name}) cannot reach location {goal_name!r}: {e}"
                ) from e
            cells = self._routes[(start, goal)] = tuple(path)
        waypoints = [self.env.cell_center(c) for c in cells[:-1]]
        waypoints.append(point)
        ag.waypoints = waypoints
        ag.wp_i = 0
        self.phase[ag.index] = MOVING
        self.tgt[ag.index] = waypoints[0]

    def _freeze(self, ag: _Agent, phase: int) -> None:
        self.phase[ag.index] = phase
        self.vel[ag.index] = 0.0
        self.tgt[ag.index] = self.pos[ag.index]

    # -- workflow -----------------------------------------------------------------

    def _begin_goto(self, ag: _Agent, name: str, tick: int) -> None:
        self._release(ag, keep=name)
        if self._holds(ag, name) or self._request(ag, name, tick):
            self._route_to(ag, self._berth_point(ag, name), name)
        else:
            self._route_to(ag, self.env.locations[name].anchor, name)

    def _enter_current(self, ag: _Agent, tick: int) -> None:
        for _ in range(64):  # zero-length steps collapse within the tick
            if ag.cursor.done():
                self._freeze(ag, IDLE)
                return
            step = ag.cursor.current()
            if isinstance(step, (GoTo, Queue)):
                self._begin_goto(ag, step.location, tick)
                return
            if isinstance(step, Dwell):
                ticks = sample_duration(step.duration, ag.rng, self.tick_length)
                if ticks > 0:
                    ag.dwell_remaining = ticks
                    self._freeze(ag, DWELLING)
                    return
                ag.cursor.advance(tick)
                continue
            if isinstance(step, Depart):
                self._depart(ag)
                return
            raise AssertionError(f"unhandled step {step!r}")
        # a cycle of zero-length steps: hold for a tick rather than spin
        ag.dwell_remaining = 1
        self._freeze(ag, DWELLING)

    def _depart(self, ag: _Agent) -> None:
        self._release(ag)  # a waiter cannot depart: only a grant moves it on
        self._freeze(ag, DONE)
        self.departures += 1

    def _reached_target(self, ag: _Agent) -> bool:
        if not ag.waypoints or ag.wp_i != len(ag.waypoints) - 1:
            return False
        dx = self.pos[ag.index, 0] - ag.waypoints[-1][0]
        dy = self.pos[ag.index, 1] - ag.waypoints[-1][1]
        return math.hypot(dx, dy) <= WAYPOINT_THRESHOLD

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
        self.arrivals += 1
        ag.cursor.normalize(tick)
        step = ag.cursor.current()  # validated: goto or queue
        name = step.location
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
        if self.phase[ag.index] == DWELLING:
            ag.dwell_remaining -= 1
            if ag.dwell_remaining <= 0:
                ag.cursor.advance(tick)
                self._enter_current(ag, tick)
        else:  # moving
            step = ag.cursor.current()  # a goto or queue step
            if not self._holds(ag, step.location) or not self._reached_target(ag):
                return
            if isinstance(step, Queue):
                nxt = ag.cursor.peek_next().location  # validated: queue precedes a goto
                if self._holds(ag, nxt) or self._request(ag, nxt, tick):
                    # slot already in hand: fall straight through to the goto
                    ag.cursor.advance(tick)
                    self._enter_current(ag, tick)
                else:
                    self._freeze(ag, QUEUE_WAIT)
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
                # a waiter in a queue has one pending request: its next goto's
                phase = self.phase[idx]
                if phase == QUEUE_WAIT:
                    ag.cursor.advance(tick)
                    self._enter_current(ag, tick)
                elif phase == MOVING:
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
                    h not in stuck and self.phase[h] != IDLE for h in st.berths
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
            t_name = self.type_names[self.type_ids[idx]]
            parts.append(f"agent {idx} ({t_name}) holds {held} and {what}")
        raise SimulationFault(f"capacity deadlock at tick {tick}: " + "; ".join(parts))

    # -- physics ---------------------------------------------------------------

    def _physics(self, present: np.ndarray) -> None:
        moving = self.phase == MOVING
        if not moving.any():
            return  # nobody moves, and frozen agents already stand still
        # each waiter keeps off the cells of the one location it waits for
        gate = np.full(len(self.agents), _NO_GATE, dtype=np.int64)
        for name, st in self.loc_state.items():
            if st.waiters:
                gate[[idx for _, idx in st.waiters]] = self.env.location_index[name]
        params, substeps = self.config.forces, self.config.physics_substeps
        args = (self.pos, self.v0, self.radius, params, present, moving, gate, self._obstacles,
                self.tick_length, substeps)
        # one neighbour search and one wall gather per tick; substeps filter them.  A
        # small tick is prepared and run in Python floats, any other on arrays
        tick, kernel = _prepare_small(*args, SMALL_TICK_MAX), _run_substeps_small
        if tick is None:
            tick, kernel = _prepare_tick(*args), _run_substeps
        kernel(tick, self.pos, self.vel, self.tgt, self.tick_length / substeps, substeps, params,
               [self.agents[i] for i in tick.mv])

    # -- main loop ---------------------------------------------------------------

    def run(self, observer: Callable[[TickFrame], None] | None = None) -> RunSummary:
        if self._ran:
            raise RuntimeError("Simulation.run was already called: its agents have moved on; "
                               "make a new Simulation to run again")
        self._ran = True
        n = len(self.agents)
        for tick in range(self.config.ticks):
            for idx in self._arrival_schedule.get(tick, ()):
                self._process_arrival(self.agents[idx], tick)
            # a workflow step changes only its own agent's phase
            for idx in np.nonzero(self.phase >= DWELLING)[0].tolist():
                self._tick_workflow(self.agents[idx], tick)
            self._grant_pass(tick)
            present = np.flatnonzero(self.phase >= IDLE)  # the frame holds it: never mutated
            self._physics(present)
            if observer is not None:
                observer(
                    TickFrame(
                        tick=tick,
                        ids=present,
                        type_ids=self.type_ids[present],
                        positions=self.pos[present],
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
