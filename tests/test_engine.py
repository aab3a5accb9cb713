import dataclasses
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from contactmix import engine, routing
from contactmix.contacts import ContactConfig, ContactLedger, pairs_within
from contactmix.engine import (
    _NO_GATE,
    IDLE,
    MOVING,
    OFFSITE,
    QUEUE_WAIT,
    ForceParameters,
    SimConfig,
    Simulation,
    SimulationFault,
    _build_obstacle_table,
    _gather_walls,
    _keys,
    _obstacle_acceleration,
    _obstacle_cells,
    _prepare_tick,
    berth_point,
    run,
    social_force_step,
)
from contactmix.frames import write_frames
from contactmix.scenario import load_scenario, parse_scenario


SHIPPED_CLINIC = Path(__file__).resolve().parents[1] / "src" / "contactmix" / "data" / "clinic.json"


def scenario_from(doc):
    return parse_scenario(json.dumps(doc))


def open_map(width=10, height=10, locations=None, blocked=()):
    return {
        "cell_size_m": 1.0,
        "width": width,
        "height": height,
        "blocked": [list(c) for c in blocked],
        "locations": locations or {},
    }


def collect_frames(scenario, config):
    frames = []
    summary = run(scenario, config, frames.append)
    return frames, summary


# --- force model arithmetic -----------------------------------------------------


def one_agent(pos, vel, target, v0=1.0, dt=0.1, params=None):
    p, v = social_force_step(
        np.array([pos], dtype=float),
        np.array([vel], dtype=float),
        np.array([target], dtype=float),
        np.array([v0]),
        np.array([0.25]),
        dt,
        params or ForceParameters(),
    )
    return p[0], v[0]


def test_relaxation_equilibrium():
    # already moving at the desired velocity: the relaxation term vanishes
    pos, vel = one_agent((0.0, 0.0), (1.0, 0.0), (100.0, 0.0), v0=1.0, dt=0.1)
    assert vel == pytest.approx([1.0, 0.0], abs=1e-12)
    assert pos == pytest.approx([0.1, 0.0], abs=1e-12)


def test_acceleration_from_rest():
    # dv = dt * (v0 e - 0) / tau = 0.1 * (1, 0) / 0.5 = (0.2, 0)
    pos, vel = one_agent((0.0, 0.0), (0.0, 0.0), (100.0, 0.0), v0=1.0, dt=0.1)
    assert vel == pytest.approx([0.2, 0.0], abs=1e-12)
    assert pos == pytest.approx([0.02, 0.0], abs=1e-12)


def test_agent_at_target_brakes():
    pos, vel = one_agent((3.0, 3.0), (0.6, 0.0), (3.0, 3.0), v0=1.0, dt=0.1)
    # e-hat is zero at the target, so the relaxation term damps the velocity
    assert vel[0] < 0.6 and vel[1] == 0.0


def test_head_on_repulsion_is_mirrored():
    pos = np.array([[-0.5, 0.0], [0.5, 0.0]])
    vel = np.array([[0.5, 0.0], [-0.5, 0.0]])
    tgt = np.array([[10.0, 0.0], [-10.0, 0.0]])
    p, v = social_force_step(
        pos, vel, tgt, np.array([1.0, 1.0]), np.array([0.25, 0.25]), 0.1,
        ForceParameters(),
    )
    assert v[0, 0] == pytest.approx(-v[1, 0], abs=1e-12)
    assert v[0, 1] == 0.0 and v[1, 1] == 0.0
    assert p[0, 0] == pytest.approx(-p[1, 0], abs=1e-12)
    # repulsion slowed the approach relative to relaxation alone
    solo = one_agent((-0.5, 0.0), (0.5, 0.0), (10.0, 0.0), v0=1.0, dt=0.1)[1]
    assert v[0, 0] < solo[0]


def test_coincident_agents_separate_deterministically():
    pos = np.zeros((2, 2))
    vel = np.zeros((2, 2))
    tgt = np.zeros((2, 2))
    args = (np.array([1.0, 1.0]), np.array([0.25, 0.25]), 0.1, ForceParameters())
    p1, v1 = social_force_step(pos, vel, tgt, *args)
    p2, v2 = social_force_step(pos, vel, tgt, *args)
    assert not np.allclose(v1[0], v1[1])  # pushed apart
    np.testing.assert_array_equal(v1, v2)  # same direction every time
    assert np.hypot(*v1[0]) == pytest.approx(np.hypot(*v1[1]), abs=1e-12)


def test_coincident_agents_separate_the_same_way_whoever_else_is_on_site():
    """Agents 0 and 2 start a tick on one point; agent 1 stands outside every
    cutoff.  The tie-break direction is keyed on agent indices, so the pair
    ends the tick at the same bytes whether agent 1 is on site or away."""
    doc = dweller_doc(population=3)
    doc["map"] = open_map(width=12, height=12, locations={"room": {"cells": [[5, 5]]}})
    ends = []
    for phase in (IDLE, OFFSITE):
        sim = Simulation(scenario_from(doc), SimConfig(ticks=1))
        sim.pos[:] = [(5.5, 5.5), (9.5, 2.5), (5.5, 5.5)]
        sim.tgt[:] = (10.5, 10.5)
        sim.phase[:] = [MOVING, phase, MOVING]
        sim._physics(np.flatnonzero(sim.phase >= IDLE))
        assert sim.pos[1].tolist() == [9.5, 2.5]
        assert not np.array_equal(sim.pos[0], sim.pos[2])  # pushed apart
        ends.append(sim.pos.tobytes())
    assert ends[0] == ends[1]


def test_physics_moves_only_the_moving_rows_in_place(monkeypatch):
    """Over a clinic run, both kernels get the Simulation's own ``pos``,
    ``vel`` and ``tgt``, and the rows of every agent not moving when a tick
    starts, on site or away, keep their bits through ``_physics``."""
    kernels, still_on_site = [], []
    for name in ("_run_substeps", "_run_substeps_small"):
        def spy(t, pos, vel, tgt, *rest, _real=getattr(engine, name), _name=name):
            assert pos is sim.pos and vel is sim.vel and tgt is sim.tgt
            kernels.append(_name)
            return _real(t, pos, vel, tgt, *rest)
        monkeypatch.setattr(engine, name, spy)
    monkeypatch.setattr(engine, "SMALL_TICK_MAX", 12)  # so that both kernels run
    sim = Simulation(load_scenario(SHIPPED_CLINIC), SimConfig(ticks=300, seed=1))
    physics = sim._physics

    def checked(present):
        still = sim.phase != MOVING
        before = [a[still].tobytes() for a in (sim.pos, sim.vel, sim.tgt)]
        physics(present)
        assert [a[still].tobytes() for a in (sim.pos, sim.vel, sim.tgt)] == before
        if not still.all():
            still_on_site.append(int((sim.phase[present] != MOVING).sum()))

    sim._physics = checked
    sim.run()
    assert set(kernels) == {"_run_substeps", "_run_substeps_small"}
    assert len(still_on_site) == len(kernels) and sum(still_on_site) > 0


def test_speed_clamp():
    params = ForceParameters(max_speed_factor=1.3)
    _, vel = one_agent((0.0, 0.0), (10.0, 0.0), (100.0, 0.0), v0=1.0, dt=0.5,
                       params=params)
    assert np.hypot(*vel) <= 1.3 + 1e-12


def test_frozen_agents_repel_but_do_not_move():
    pos = np.array([[0.0, 0.0], [0.4, 0.0]])
    vel = np.zeros((2, 2))
    tgt = np.array([[5.0, 0.0], [0.4, 0.0]])
    moving = np.array([True, False])
    p, v = social_force_step(
        pos, vel, tgt, np.array([1.0, 1.0]), np.array([0.25, 0.25]), 0.1,
        ForceParameters(), moving=moving,
    )
    np.testing.assert_array_equal(p[1], pos[1])
    np.testing.assert_array_equal(v[1], 0.0)
    # the mover felt the frozen agent: net acceleration reduced below solo value
    solo = one_agent((0.0, 0.0), (0.0, 0.0), (5.0, 0.0), v0=1.0, dt=0.1)[1]
    assert v[0, 0] < solo[0]


def test_containment_blocks_wall_crossing():
    env = scenario_from({"map": open_map(blocked=[[1, y] for y in range(10)])}).map
    pos = np.array([[0.9, 5.0]])
    vel = np.array([[2.0, 0.0]])
    tgt = np.array([[5.0, 5.0]])
    for _ in range(30):
        pos, vel = social_force_step(
            pos, vel, tgt, np.array([2.0]), np.array([0.25]), 0.1,
            ForceParameters(), env=env,
        )
        assert env.walkable(env.cell_of(*pos[0])), pos


# --- wall forces: obstacle table against a direct search ----------------------------


def reference_obstacle_acceleration(env, pos, radii, params):
    """Wall force from one pairs_within search over agents and wall centres.

    This is the search the obstacle table replaced, kept as the oracle: the
    table must reproduce it bit for bit, including summation order.
    """
    cells = sorted(env.blocked)
    for x in range(-1, env.width + 1):
        cells += [(x, -1), (x, env.height)]
    for y in range(env.height):
        cells += [(-1, y), (env.width, y)]
    centers = (np.array(cells, dtype=np.float64) + 0.5) * env.cell_size
    n = len(pos)
    acc = np.zeros((n, 2))
    cs = env.cell_size
    reach = float(radii.max()) + 4.0 * params.obstacle_range
    pts = np.vstack([pos, centers])
    ia, ib, _ = pairs_within(np.arange(len(pts), dtype=np.int64), pts, reach + cs * 0.7072)
    mask = (ia < n) & (ib >= n)
    agent = ia[mask]
    cell = ib[mask] - n
    lo = centers[cell] - cs / 2.0
    hi = centers[cell] + cs / 2.0
    closest = np.clip(pos[agent], lo, hi)
    dvec = pos[agent] - closest
    d = np.hypot(dvec[:, 0], dvec[:, 1])
    nz = d > 1e-12
    mag = params.obstacle_strength * np.exp((radii[agent[nz]] - d[nz]) / params.obstacle_range)
    np.add.at(acc, agent[nz], (mag / d[nz])[:, None] * dvec[nz])
    return acc


def awkward_positions(rng, env, n):
    """Points near map edges, in the padding ring, on cell boundaries, anywhere."""
    cs = env.cell_size
    w, h = env.width * cs, env.height * cs
    reach = 4.0 * cs
    kinds = rng.integers(0, 4, size=n)
    pos = np.column_stack([rng.uniform(-reach, w + reach, n), rng.uniform(-reach, h + reach, n)])
    edge = kinds == 0  # within a fraction of a cell of a map edge
    pos[edge, 0] = rng.choice([0.0, w], edge.sum()) + rng.normal(0.0, 0.2 * cs, edge.sum())
    ring = kinds == 1  # outside the wall ring, where only the padding reaches
    pos[ring, 1] = rng.choice([-1.0, 1.0], ring.sum()) * rng.uniform(cs, reach, ring.sum())
    pos[ring, 1] += np.where(pos[ring, 1] > 0, h, 0.0)
    grid = kinds == 2  # exactly on cell boundaries, or one ulp either side
    snapped = np.round(pos[grid] / cs) * cs
    pos[grid] = np.nextafter(snapped, snapped + rng.integers(-1, 2, snapped.shape))
    return pos


@pytest.mark.parametrize("cell_size", [1.0, 0.5, 1.3])
@pytest.mark.parametrize("obstacle_range", [0.2, 0.35])
def test_obstacle_table_matches_direct_search(cell_size, obstacle_range):
    params = ForceParameters(obstacle_range=obstacle_range)
    rng = np.random.default_rng([int(cell_size * 10), int(obstacle_range * 100)])
    doc = open_map(width=9, height=7, blocked=[[4, y] for y in range(5)] + [[7, 6], [1, 1]])
    doc["cell_size_m"] = cell_size
    env = scenario_from({"map": doc}).map
    for trial in range(40):
        n = int(rng.integers(1, 40))
        pos = awkward_positions(rng, env, n)
        radii = rng.choice([0.15, 0.25, 0.45], size=n)
        want = reference_obstacle_acceleration(env, pos, radii, params)
        # a table sized for exactly these radii, and one for a larger type
        for max_radius in (float(radii.max()), 0.6):
            table = _build_obstacle_table(env, max_radius, params)
            got = wall_forces(table, pos, radii, params)
            assert np.array_equal(got, want), (trial, max_radius)


def wall_forces(table, pos, radii, params, tick_length=0.0):
    """Wall forces on agents at ``pos``, all moving, through the per-tick wall list."""
    n = len(pos)
    tick = _prepare_tick(pos, np.ones(n), radii, params, np.arange(n), np.ones(n, dtype=bool),
                         np.full(n, _NO_GATE), table, tick_length, 1)
    acc = _obstacle_acceleration(tick, pos, params)
    return np.zeros((n, 2)) if acc is None else acc  # None: no wall within the cutoff


def test_points_beyond_the_padded_grid_feel_no_wall():
    params = ForceParameters()
    env = scenario_from({"map": open_map(width=6, height=5, blocked=[[2, 2]])}).map
    table = _build_obstacle_table(env, 0.25, params, travel=2.0, substeps=10)
    far = np.array([[-1e3, 2.5], [2.5, 1e3], [1e9, -1e9], [-1e12, 1e12], [6.0 + 40.0, 2.5]])
    assert len(_gather_walls(table, _keys(table, far))[0]) == 0
    got = wall_forces(table, far, np.full(len(far), 0.25), params)
    assert np.array_equal(got, reference_obstacle_acceleration(env, far, np.full(5, 0.25), params))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("point", [(1e300, 2.5), (2.5, -1e300), (-1e300, 1e300)])
def test_a_point_whose_cell_overflows_int64_feels_no_wall(point):
    # the cell index is clipped before its cast to int64, so no invalid cast
    params = ForceParameters()
    env = scenario_from({"map": open_map(width=6, height=5, blocked=[[2, 2]])}).map
    table = _build_obstacle_table(env, 0.25, params, travel=2.0, substeps=10)
    far = np.array([point])
    tick = _prepare_tick(far, np.ones(1), np.full(1, 0.25), params, np.arange(1),
                         np.ones(1, dtype=bool), np.full(1, _NO_GATE), table, 0.0, 1)
    assert len(tick.wall_agent) == 0
    assert tick.code.tolist() == [-2]  # off the map
    assert table.code[_keys(table, far)].tolist() == [-2]


def test_obstacle_table_rejects_radius_beyond_its_reach():
    env = scenario_from({"map": open_map()}).map
    table = _build_obstacle_table(env, 0.25, ForceParameters())
    with pytest.raises(ValueError, match="obstacle table"):
        wall_forces(table, np.array([[5.0, 5.0]]), np.array([0.5]), ForceParameters())


def test_obstacle_table_rejects_travel_beyond_its_reach():
    env = scenario_from({"map": open_map()}).map
    table = _build_obstacle_table(env, 0.25, ForceParameters(), travel=1.3)
    pos, radii = np.array([[5.0, 5.0]]), np.array([0.25])
    wall_forces(table, pos, radii, ForceParameters(), tick_length=1.0)  # 1.3 m: covered
    with pytest.raises(ValueError, match="obstacle table"):
        wall_forces(table, pos, radii, ForceParameters(), tick_length=1.01)


def test_a_table_for_travel_beyond_the_map_lists_every_wall_on_it():
    """The table's radius stops at the map's extent: every point on the map,
    its edges included, still lists every wall, ascending."""
    env = scenario_from({"map": open_map(width=6, height=5, blocked=[[2, 2]])}).map
    table = _build_obstacle_table(env, 0.25, ForceParameters(), travel=20.0, substeps=10)
    pts = np.array([(x, y) for x in np.linspace(0.0, 6.0, 13) for y in np.linspace(0.0, 5.0, 11)])
    point, wall = _gather_walls(table, _keys(table, pts))
    walls = len(_obstacle_cells(env))
    assert point.tolist() == np.repeat(np.arange(len(pts)), walls).tolist()
    assert wall.tolist() == np.tile(np.arange(walls), len(pts)).tolist()


def test_the_wall_table_does_not_grow_with_the_square_of_the_speed():
    """The table pads by a tick's travel at the speed cap, but never past the
    map: at 100 m/s ``Simulation(...)`` on the shipped clinic peaked at 153 MB
    before that bound, and peaks at about 8 MB with it."""
    doc = json.loads(SHIPPED_CLINIC.read_text(encoding="utf-8"))
    for spec in doc["agent_types"]:
        spec["desired_speed"] = {"kind": "constant", "value": 100.0}
    scenario = scenario_from(doc)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        Simulation(scenario, SimConfig(ticks=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 16 * 2**20, peak - start


# --- SimConfig validation ---------------------------------------------------------


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(ticks=-1)
    with pytest.raises(ValueError):
        SimConfig(ticks=1, physics_substeps=0)
    with pytest.raises(ValueError):
        SimConfig(ticks=1, tick_length=0.0)


@pytest.mark.parametrize("name, value", [
    ("ticks", 5.5), ("ticks", True), ("seed", True), ("seed", 1.0),
    ("physics_substeps", 2.5), ("physics_substeps", True),
])
def test_sim_config_rejects_a_count_that_is_not_an_int(name, value):
    """A float count once failed in ``range()`` mid-run; a bool once ran."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= [01]$"):
        SimConfig(**{"ticks": 1, name: value})


@pytest.mark.parametrize("name, value", [
    ("tick_length", v) for v in (0.0, -1.0, math.inf, -math.inf, math.nan)
])
def test_sim_config_rejects_non_positive_or_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        SimConfig(ticks=1, **{name: value})


@pytest.mark.parametrize("name", [
    "relaxation_time", "repulsion_range", "obstacle_range", "max_speed_factor",
])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_force_parameters_reject_non_positive_or_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        ForceParameters(**{name: value})


@pytest.mark.parametrize("name", ["repulsion_strength", "obstacle_strength"])
@pytest.mark.parametrize("value", [-0.5, math.inf, -math.inf, math.nan])
def test_force_parameters_reject_negative_or_non_finite_strength(name, value):
    with pytest.raises(ValueError, match=name):
        ForceParameters(**{name: value})


def test_force_parameters_accept_zero_strengths():
    params = ForceParameters(repulsion_strength=0.0, obstacle_strength=0.0)
    assert params.repulsion_strength == params.obstacle_strength == 0.0


# --- whole-run behavior -------------------------------------------------------------


ROOM = {"room": {"cells": [[5, 5]], "capacity": None}}


def dweller_doc(dwell=10, population=1, arrival=0, capacity=None):
    return {
        "map": open_map(locations={
            "room": {"cells": [[5, 5]], "capacity": capacity},
        }),
        "agent_types": [
            {
                "name": "sitter",
                "population": population,
                "arrival": arrival,
                "workflow": [
                    {"kind": "goto", "location": "room"},
                    {"kind": "dwell", "duration": {"kind": "constant", "value": dwell}},
                    {"kind": "depart"},
                ],
            }
        ],
    }


def test_zero_population_run():
    doc = dweller_doc(population=0)
    frames, summary = collect_frames(scenario_from(doc), SimConfig(ticks=7))
    assert len(frames) == 7
    assert all(len(f) == 0 for f in frames)
    assert summary.arrivals == summary.departures == 0


def test_single_dweller_sits_at_anchor_for_exactly_dwell_ticks():
    doc = dweller_doc(dwell=10)
    frames, summary = collect_frames(scenario_from(doc), SimConfig(ticks=15))
    present = [f for f in frames if len(f) == 1]
    assert len(present) == 10
    assert [f.tick for f in present] == list(range(10))
    anchor = (5.5, 5.5)
    for f in present:
        assert f.positions[0] == pytest.approx(anchor, abs=1e-12)
    assert summary.arrivals == 1 and summary.departures == 1


def test_two_dwellers_overlap_contact():
    # B arrives 3 ticks after A; both sit 10 ticks at the same 1-cell spot.
    # Presence windows are ticks 0-9 and 3-12: a single 7-tick contact.
    doc = dweller_doc(dwell=10, population=2, arrival=[0, 3])
    scenario = scenario_from(doc)
    ledger = ContactLedger(ContactConfig(effective_radius=2.0))
    run(scenario, SimConfig(ticks=20), ledger.observe)
    ledger.finalize(19)
    c = ledger.columns()
    assert ledger.n_records == 1
    assert (c["start"][0], c["last"][0], c["duration"][0]) == (3, 9, 7)
    assert c["dist_sum"][0] / c["duration"][0] < 0.5  # berth ring offset keeps them close


def test_capacity_one_is_never_double_occupied():
    doc = dweller_doc(dwell=5, population=2, arrival=0, capacity=1)
    scenario = scenario_from(doc)
    room_cells = set(scenario.map.locations["room"].cells)
    inside_by_tick = []
    def obs(frame):
        inside = [int(a) for a, p in zip(frame.ids, frame.positions)
                  if scenario.map.cell_of(*p) in room_cells]
        inside_by_tick.append(inside)
    summary = run(scenario, SimConfig(ticks=30), obs)
    assert summary.departures == 2
    assert all(len(inside) <= 1 for inside in inside_by_tick)
    # each agent is inside for at least its dwell length
    stays = {0: 0, 1: 0}
    for inside in inside_by_tick:
        for a in inside:
            stays[a] += 1
    assert stays[0] >= 5 and stays[1] >= 5


def test_schedule_fidelity_with_transit():
    # the agent spawns at "door", walks to "room", then must sit k ticks
    doc = {
        "map": open_map(locations={
            "door": {"cells": [[0, 0]], "capacity": None},
            "room": {"cells": [[7, 7]], "capacity": None},
        }),
        "agent_types": [
            {
                "name": "walker",
                "population": 1,
                "workflow": [
                    {"kind": "goto", "location": "door"},
                    {"kind": "goto", "location": "room"},
                    {"kind": "dwell", "duration": {"kind": "constant", "value": 6}},
                    {"kind": "depart"},
                ],
            }
        ],
    }
    scenario = scenario_from(doc)
    frames, summary = collect_frames(scenario, SimConfig(ticks=40))
    assert summary.departures == 1
    room = set(scenario.map.locations["room"].cells)
    inside = [scenario.map.cell_of(*f.positions[0]) in room
              for f in frames if len(f) == 1]
    # longest run of consecutive inside ticks covers the full dwell
    best = cur = 0
    for flag in inside:
        cur = cur + 1 if flag else 0
        best = max(best, cur)
    assert best >= 6


def test_zero_dwell_steps_collapse():
    doc = dweller_doc(dwell=0)
    frames, summary = collect_frames(scenario_from(doc), SimConfig(ticks=5))
    # goto resolves on tick 0, the zero dwell collapses, depart follows
    assert summary.departures == 1
    assert all(len(f) == 0 for f in frames[1:])


def test_queue_step_waits_for_slot():
    doc = {
        "map": open_map(locations={
            "lobby": {"cells": [[1, 1], [1, 2]], "capacity": None},
            "booth": {"cells": [[8, 8]], "capacity": 1},
        }),
        "agent_types": [
            {
                "name": "caller",
                "population": 2,
                "arrival": 0,
                "workflow": [
                    {"kind": "goto", "location": "lobby"},
                    {"kind": "queue", "location": "lobby"},
                    {"kind": "goto", "location": "booth"},
                    {"kind": "dwell", "duration": {"kind": "constant", "value": 4}},
                    {"kind": "depart"},
                ],
            }
        ],
    }
    scenario = scenario_from(doc)
    booth = set(scenario.map.locations["booth"].cells)
    inside_by_tick = []
    def obs(frame):
        inside_by_tick.append(
            [int(a) for a, p in zip(frame.ids, frame.positions)
             if scenario.map.cell_of(*p) in booth]
        )
    summary = run(scenario, SimConfig(ticks=60), obs)
    assert summary.departures == 2
    assert all(len(x) <= 1 for x in inside_by_tick)
    for agent in (0, 1):
        assert sum(agent in x for x in inside_by_tick) >= 4


def test_unreachable_location_faults_with_names():
    doc = {
        "map": open_map(
            blocked=[[4, 4], [4, 5], [4, 6], [5, 4], [5, 6], [6, 4], [6, 5], [6, 6]],
            locations={
                "start": {"cells": [[0, 0]], "capacity": None},
                "vault": {"cells": [[5, 5]], "capacity": None},
            },
        ),
        "agent_types": [
            {
                "name": "intruder",
                "population": 1,
                "workflow": [
                    {"kind": "goto", "location": "start"},
                    {"kind": "goto", "location": "vault"},
                ],
            }
        ],
    }
    with pytest.raises(SimulationFault, match=r"agent 0 \(intruder\).*vault"):
        run(scenario_from(doc), SimConfig(ticks=10))


def crossed_queues_doc(second=None):
    """Capacity-1 locations P and Q: agent 0 queues at P then goes to Q;
    agent 1 runs ``second``, by default queue at Q then go to P."""
    steps = [
        {"kind": "dwell", "duration": {"kind": "constant", "value": 3}},
        {"kind": "depart"},
    ]
    first = [{"kind": "queue", "location": "P"}, {"kind": "goto", "location": "Q"}]
    second = second or [{"kind": "queue", "location": "Q"}, {"kind": "goto", "location": "P"}]
    return {
        "map": open_map(width=12, height=6, locations={
            "P": {"cells": [[2, 2]], "capacity": 1},
            "Q": {"cells": [[9, 2]], "capacity": 1},
            "R": {"cells": [[6, 4]], "capacity": None},
        }),
        "agent_types": [
            {"name": "a", "population": 1, "workflow": first + steps},
            {"name": "b", "population": 1, "workflow": second + steps},
        ],
    }


def test_crossed_queues_deadlock_faults_with_agents_and_locations():
    # each holds the slot the other waits for; before detection both sat
    # in queue_wait until the horizon and the run ended with no departures
    with pytest.raises(SimulationFault) as err:
        run(scenario_from(crossed_queues_doc()), SimConfig(ticks=2000))
    msg = str(err.value)
    assert "capacity deadlock" in msg
    assert "agent 0 (a) holds 'P' and waits for 'Q'" in msg
    assert "agent 1 (b) holds 'Q' and waits for 'P'" in msg


def test_waiting_on_a_holder_that_moves_on_is_not_a_deadlock():
    # agent 0 holds P and waits for Q while agent 1 dwells at Q, then leaves for R
    doc = crossed_queues_doc(second=[
        {"kind": "goto", "location": "Q"},
        {"kind": "dwell", "duration": {"kind": "constant", "value": 10}},
        {"kind": "goto", "location": "R"},
    ])
    sim = Simulation(scenario_from(doc), SimConfig(ticks=200))
    waited = []
    summary = sim.run(lambda frame: waited.append(sim.phase[0] == QUEUE_WAIT))
    assert sum(waited) >= 5
    assert summary.departures == 2


def idle_holder_doc(capacity=1, second=None):
    """Agent 0's workflow ends at P and leaves it idle there, still holding
    its slot; agent 1 runs ``second``, by default go to R, then to P."""
    dwell = {"kind": "dwell", "duration": {"kind": "constant", "value": 3}}
    second = second or [{"kind": "goto", "location": "R"}, {"kind": "goto", "location": "P"}]
    return {
        "map": open_map(width=12, height=6, locations={
            "P": {"cells": [[2, 2]], "capacity": capacity},
            "R": {"cells": [[6, 4]], "capacity": None},
        }),
        "agent_types": [
            {"name": "a", "population": 1, "workflow": [{"kind": "goto", "location": "P"}]},
            {"name": "b", "population": 1, "workflow": second + [dwell, {"kind": "depart"}]},
        ],
    }


def test_waiting_on_an_idle_holder_faults_with_both_agents():
    # agent 0 never leaves P; before detection agent 1 waited for it until
    # the horizon and the run ended with no departures
    with pytest.raises(SimulationFault) as err:
        run(scenario_from(idle_holder_doc()), SimConfig(ticks=2000))
    msg = str(err.value)
    assert msg.startswith("capacity deadlock at tick 0: ")
    assert "agent 1 (b) holds no slot and waits for 'P'" in msg
    assert "agent 0 (a) holds 'P' and has ended its workflow" in msg


@pytest.mark.parametrize("doc", [
    idle_holder_doc(second=[{"kind": "goto", "location": "R"}]),  # nobody waits for P
    idle_holder_doc(capacity=2),  # P keeps a free slot
], ids=["unwanted", "free-slot"])
def test_idle_holder_nobody_is_stuck_behind_runs_to_the_horizon(doc):
    sim = Simulation(scenario_from(doc), SimConfig(ticks=300))
    summary = sim.run()
    assert summary.departures == 1
    assert sim.phase[0] == IDLE


def test_berth_points_stay_inside_the_cell_of_their_base():
    # ring offsets around an anchor 0.01 m from a blocked cell used to
    # place the third sitter inside the wall
    doc = {
        "map": open_map(blocked=[[6, 5]], locations={
            "desk": {"cells": [[5, 5]], "capacity": 3, "anchor": [5.99, 5.5]},
        }),
        "agent_types": [{
            "name": "sitter",
            "population": 3,
            "workflow": [
                {"kind": "goto", "location": "desk"},
                {"kind": "dwell", "duration": {"kind": "constant", "value": 5}},
                {"kind": "depart"},
            ],
        }],
    }
    scenario = scenario_from(doc)
    env = scenario.map
    for anchor in [(5.99, 5.5), (5.0, 5.5), (5.0, 5.999), (5.5, 5.5)]:
        loc = dataclasses.replace(env.locations["desk"], anchor=anchor)
        points = [berth_point(env, loc, k) for k in range(60)]
        assert all(env.cell_of(*p) == (5, 5) for p in points), anchor
        assert len(set(points)) == len(points), anchor
    frames, summary = collect_frames(scenario, SimConfig(ticks=10))
    assert summary.departures == 3
    assert all(env.walkable(env.cell_of(*p)) for f in frames for p in f.positions)


def test_cycle_repeat_and_until_tick():
    base = {
        "map": open_map(locations={
            "a": {"cells": [[1, 1]], "capacity": None},
            "b": {"cells": [[3, 3]], "capacity": None},
        }),
        "agent_types": [
            {
                "name": "pacer",
                "population": 1,
                "workflow": [
                    {"kind": "goto", "location": "a"},
                    {
                        "kind": "cycle",
                        "repeat": 3,
                        "steps": [
                            {"kind": "goto", "location": "b"},
                            {"kind": "dwell", "duration": {"kind": "constant", "value": 2}},
                            {"kind": "goto", "location": "a"},
                            {"kind": "dwell", "duration": {"kind": "constant", "value": 2}},
                        ],
                    },
                    {"kind": "depart"},
                ],
            }
        ],
    }
    scenario = scenario_from(base)
    frames, summary = collect_frames(scenario, SimConfig(ticks=120))
    assert summary.departures == 1
    b_cell = scenario.map.locations["b"].cells[0]
    visits = 0
    prev = False
    for f in frames:
        if len(f) != 1:
            prev = False
            continue
        now = scenario.map.cell_of(*f.positions[0]) == b_cell
        visits += now and not prev
        prev = now
    assert visits == 3

    until = json.loads(json.dumps(base))
    until["agent_types"][0]["workflow"][1] = {
        "kind": "cycle",
        "until_tick": 12,
        "steps": [
            {"kind": "goto", "location": "b"},
            {"kind": "dwell", "duration": {"kind": "constant", "value": 2}},
        ],
    }
    frames, summary = collect_frames(scenario_from(until), SimConfig(ticks=60))
    assert summary.departures == 1
    last_present = max(f.tick for f in frames if len(f))
    assert last_present >= 12


# --- invariants over a busy map ------------------------------------------------------


def busy_scenario():
    doc = {
        "map": open_map(
            width=14,
            height=14,
            blocked=[[6, y] for y in range(14) if y not in (6, 7)],
            locations={
                "west": {"cells": [[1, 6], [1, 7]], "capacity": None},
                "east": {"cells": [[12, 6], [12, 7]], "capacity": None},
            },
        ),
        "agent_types": [
            {
                "name": "crosser",
                "population": 8,
                "arrival": {"start": 0, "interval": 2},
                "workflow": [
                    {"kind": "goto", "location": "west"},
                    {
                        "kind": "cycle",
                        "repeat": 4,
                        "steps": [
                            {"kind": "goto", "location": "east"},
                            {"kind": "dwell", "duration": {"kind": "constant", "value": 2}},
                            {"kind": "goto", "location": "west"},
                            {"kind": "dwell", "duration": {"kind": "constant", "value": 2}},
                        ],
                    },
                    {"kind": "depart"},
                ],
            }
        ],
    }
    return scenario_from(doc)


def test_containment_and_speed_bound_whole_run():
    scenario = busy_scenario()
    config = SimConfig(ticks=100, seed=3)
    sim = Simulation(scenario, config)
    frames = []
    sim.run(frames.append)

    occ = scenario.map
    last = {}
    vmax = {i: sim.v0[i] for i in range(len(sim.v0))}
    for f in frames:
        for aid, p in zip(f.ids.tolist(), f.positions):
            assert occ.walkable(occ.cell_of(*p)), (f.tick, aid, p)
            if aid in last and last[aid][0] == f.tick - 1:
                disp = math.dist(last[aid][1], p)
                bound = 1.3 * vmax[aid] * sim.tick_length + 1e-9
                assert disp <= bound, (f.tick, aid, disp, bound)
            last[aid] = (f.tick, tuple(p))


def test_byte_identical_frame_streams_same_seed():
    scenario = busy_scenario()

    def render(seed):
        buf = io.StringIO()
        frames = []
        run(scenario, SimConfig(ticks=60, seed=seed), frames.append)
        write_frames(buf, frames)
        return buf.getvalue()

    assert render(11) == render(11)
    assert render(11) != render(12)


def test_a_second_run_of_one_simulation_raises():
    # a second run went on from the first run's agent state; here it crashed
    # in the workflow with an AttributeError
    sim = Simulation(parse_scenario(SHIPPED_CLINIC.read_text(encoding="utf-8")),
                     SimConfig(ticks=300, seed=1))
    sim.run()
    with pytest.raises(RuntimeError, match="make a new Simulation"):
        sim.run()


def test_tick_length_override_scales_dwell():
    # same 10 s dwell is 10 frames at 1 s ticks but 20 frames at 0.5 s ticks
    doc = dweller_doc(dwell=10)
    frames, _ = collect_frames(scenario_from(doc),
                               SimConfig(ticks=40, tick_length=0.5))
    assert sum(len(f) for f in frames) == 20


def test_routes_are_memoised_per_start_and_goal(monkeypatch):
    calls = []
    real = routing.shortest_cell_path

    def counting(env, start, goal):
        calls.append((start, goal))
        return real(env, start, goal)

    monkeypatch.setattr(routing, "shortest_cell_path", counting)
    sim = Simulation(busy_scenario(), SimConfig(ticks=100, seed=3))
    sim.run()
    assert calls, "the run should route"
    assert len(calls) == len(set(calls))  # each (start, goal) is searched once
    assert sorted(sim._routes) == sorted(calls)
    assert any(len(cells) > 1 for cells in sim._routes.values())
    own = {c: c for c in sim.env.moves}
    for (start, goal), cells in sim._routes.items():
        assert isinstance(cells, tuple)
        assert cells == tuple(real(sim.env, start, goal)[0])
        # past its start, a memoised route holds the move table's own tuples
        assert all(c is own[c] for c in cells[1:])
