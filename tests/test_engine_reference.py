"""The engine's per-tick physics kernel against the old substep.

``Simulation._physics`` prepares once per tick what its substeps share: the
moving rows, the agent pairs within a skin radius that have a moving end,
each moving agent's walls gathered where it starts the tick from a table
widened by one agent's tick travel, and the gates.  Every substep then
computes moving rows only, filters both lists by the exact cutoffs and sums
forces with ``np.bincount``.  One kernel call runs all the substeps of a
tick, running containment on every substep of a tick with a map and
carrying each moving row's cell code from one containment to the next.
The reference below is the substep as it was before: a ``pairs_within``
search and a wall lookup in each agent's current cell on every substep,
forces for every agent, ``np.add.at`` sums, and containment by separate
walkability and location lookups.  Looped, it must give the kernel's bytes
at every substep start and at the end of the tick, on crowds at the speed
cap, in head-on approach, against walls, coincident and isolated, with any
share of the agents moving.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmix import engine
from contactmix.contacts import pairs_within
from contactmix.engine import (
    _NO_GATE,
    ForceParameters,
    _agent_cutoff,
    _build_obstacle_table,
    _gather_walls,
    _keys,
    _near_pairs,
    _obstacle_radius,
    _pair_direction,
    _prepare_tick,
    _run_substeps,
    _tick_travel,
    _widened,
    social_force_step,
)
from contactmix.scenario import parse_scenario

_EPS = 1e-12
WIDTH, HEIGHT = 44, 24
CROWD_W = 20  # the crowd stays left of this; the loner stands far to the right


def gate_codes(forbidden):
    """``forbidden`` (-1 for none) as the gate codes the preparations take."""
    return np.where(forbidden >= 0, forbidden, _NO_GATE)


def skin_radius(cutoff, pos, speeds, params, tick_length, substeps):
    """The preparations' skin radius for agents at ``pos``: two agents close
    in by at most twice the travel of one."""
    travel = _tick_travel(float(np.abs(speeds).max()), params, tick_length)
    return _widened(cutoff, 2.0 * travel, float(np.abs(pos).max()), substeps)


def reference_obstacle_acceleration(table, pos, radii, params):
    """The table lookup with the old ``np.add.at`` sum."""
    n = len(pos)
    acc = np.zeros((n, 2))
    cs = table.cell_size
    radius = float(radii.max()) + 4.0 * params.obstacle_range + cs * 0.7072
    fx = np.floor(pos[:, 0] / cs) - table.origin
    fy = np.floor(pos[:, 1] / cs) - table.origin
    inside = (fx >= 0) & (fx < table.cols) & (fy >= 0) & (fy < table.rows)
    key = (fx[inside] * table.rows + fy[inside]).astype(np.int64)
    first = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    first[inside] = table.starts[key]
    count[inside] = table.starts[key + 1] - first[inside]
    agent = np.repeat(np.arange(n, dtype=np.int64), count)
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    cell = table.idx[np.arange(len(agent), dtype=np.int64) + shift]
    dx = pos[agent, 0] - table.box[cell, 0, 0]
    dy = pos[agent, 1] - table.box[cell, 0, 1]
    keep = dx * dx + dy * dy <= radius * radius
    if not keep.any():
        return acc
    agent = agent[keep]
    cell = cell[keep]
    closest = np.clip(pos[agent], table.box[cell, 1], table.box[cell, 2])
    dvec = pos[agent] - closest
    d = np.hypot(dvec[:, 0], dvec[:, 1])
    nz = d > _EPS
    mag = params.obstacle_strength * np.exp((radii[agent[nz]] - d[nz]) / params.obstacle_range)
    np.add.at(acc, agent[nz], (mag / d[nz])[:, None] * dvec[nz])
    return acc


def reference_grids(env):
    """The old per-cell lookups: walkable, and location index (-1 for none)."""
    walk = np.ones((env.width, env.height), dtype=bool)
    for x, y in env.blocked:
        walk[x, y] = False
    loc = np.full((env.width, env.height), -1, dtype=np.int64)
    for name, i in env.location_index.items():
        for x, y in env.locations[name].cells:
            loc[x, y] = i
    return walk, loc


def reference_codes(env, points):
    """Per point, the code of its cell: -2 where blocked or off the map, else
    its location index, -1 in none."""
    walk, loc = reference_grids(env)
    cell = np.floor(points / env.cell_size)
    inside = (cell >= 0).all(axis=1) & (cell < (env.width, env.height)).all(axis=1)
    x, y = cell[inside].astype(np.int64).T
    codes = np.full(len(points), -2, dtype=np.int64)
    codes[inside] = np.where(walk[x, y], loc[x, y], -2)
    return codes


def reference_allowed(env, points, forbidden, exempt):
    """Per point: the cell is walkable and not gated for that agent."""
    walk, loc = reference_grids(env)
    cs = env.cell_size
    cx = np.floor(points[:, 0] / cs).astype(np.int64)
    cy = np.floor(points[:, 1] / cs).astype(np.int64)
    inside = (cx >= 0) & (cx < env.width) & (cy >= 0) & (cy < env.height)
    ok = np.zeros(len(points), dtype=bool)
    if inside.any():
        gx, gy = cx[inside], cy[inside]
        fb = forbidden[inside]
        gate = (fb >= 0) & (loc[gx, gy] == fb) & ~exempt[inside]
        ok[inside] = walk[gx, gy] & ~gate
    return ok


def reference_contain(env, pos, cand, vel, forbidden):
    """The old containment: slide along x, else along y, else stop."""
    cs = env.cell_size
    ccx = np.floor(pos[:, 0] / cs).astype(np.int64)
    ccy = np.floor(pos[:, 1] / cs).astype(np.int64)
    in_grid = (ccx >= 0) & (ccx < env.width) & (ccy >= 0) & (ccy < env.height)
    cur_loc = np.full(len(pos), -1, dtype=np.int64)
    cur_loc[in_grid] = reference_grids(env)[1][ccx[in_grid], ccy[in_grid]]
    exempt = (forbidden >= 0) & (cur_loc == forbidden)
    ok = reference_allowed(env, cand, forbidden, exempt)
    bad = np.nonzero(~ok)[0]
    if len(bad) == 0:
        return cand, vel
    cand = cand.copy()
    vel = vel.copy()
    trial_x = np.column_stack([cand[bad, 0], pos[bad, 1]])
    ok_x = reference_allowed(env, trial_x, forbidden[bad], exempt[bad])
    xi = bad[ok_x]
    cand[xi, 0] = trial_x[ok_x, 0]
    cand[xi, 1] = pos[xi, 1]
    vel[xi, 1] = 0.0
    rest = bad[~ok_x]
    if len(rest):
        trial_y = np.column_stack([pos[rest, 0], cand[rest, 1]])
        ok_y = reference_allowed(env, trial_y, forbidden[rest], exempt[rest])
        yi = rest[ok_y]
        cand[yi, 0] = pos[yi, 0]
        cand[yi, 1] = trial_y[ok_y, 1]
        vel[yi, 0] = 0.0
        stay = rest[~ok_y]
        cand[stay] = pos[stay]
        vel[stay] = 0.0
    return cand, vel


def reference_step(pos, vel, targets, speeds, radii, dt, params, env, moving, forbidden, table):
    """The substep with a ``pairs_within`` search and ``np.add.at`` sums."""
    n = len(pos)
    pos = np.array(pos, dtype=np.float64)
    vel = np.array(vel, dtype=np.float64)
    acc = np.zeros((n, 2))
    delta = targets - pos
    dist = np.hypot(delta[:, 0], delta[:, 1])
    ehat = np.zeros_like(delta)
    far = dist > _EPS
    ehat[far] = delta[far] / dist[far, None]
    acc += (speeds[:, None] * ehat - vel) / params.relaxation_time

    cutoff = 2.0 * float(radii.max()) + 8.0 * params.repulsion_range
    ia, ib, d = pairs_within(np.arange(n, dtype=np.int64), pos, cutoff)
    if len(ia):
        dvec = pos[ia] - pos[ib]
        dirs = np.zeros_like(dvec)
        nz = d > _EPS
        dirs[nz] = dvec[nz] / d[nz, None]
        for k in np.nonzero(~nz)[0]:
            dirs[k] = _pair_direction(int(ia[k]), int(ib[k]))
        mag = params.repulsion_strength * np.exp((radii[ia] + radii[ib] - d) / params.repulsion_range)
        f = mag[:, None] * dirs
        np.add.at(acc, ia, f)
        np.add.at(acc, ib, -f)
    acc += reference_obstacle_acceleration(table, pos, radii, params)

    mv = moving
    v = vel[mv] + dt * acc[mv]
    vmax = params.max_speed_factor * speeds[mv]
    speed = np.hypot(v[:, 0], v[:, 1])
    over = speed > vmax
    if over.any():
        v[over] *= (vmax[over] / speed[over])[:, None]
    cand, v = reference_contain(env, pos[mv], pos[mv] + dt * v, v, forbidden[mv])
    pos[mv] = cand
    vel[mv] = v
    return pos, vel


def walled_env():
    """A wall with a doorway splits the crowd's half; pillars stand in it."""
    blocked = [[10, y] for y in range(HEIGHT) if not 10 <= y < 13]
    blocked += [[4, 5], [5, 5], [15, 18], [15, 19], [16, 18]]
    locations = {
        "desk": {"cells": [[x, y] for x in range(12, 15) for y in range(2, 5)]},
        "ward": {"cells": [[x, y] for x in range(5, 9) for y in range(15, 19)]},
    }
    doc = {"map": {"cell_size_m": 1.0, "width": WIDTH, "height": HEIGHT,
                   "blocked": blocked, "locations": locations}}
    return parse_scenario(json.dumps(doc)).map


ENV = walled_env()
# a 12x8 map: a wall column at x = 6 and, left of it, a bay from y = 4 to 7
BAY = parse_scenario(json.dumps({"map": {
    "cell_size_m": 1.0, "width": 12, "height": 8, "blocked": [[6, y] for y in range(8)],
    "locations": {"bay": {"cells": [[x, y] for x in range(3, 6) for y in range(4, 7)]}},
}})).map


def walkable_points(rng, env, k, x_hi):
    pts = []
    while len(pts) < k:
        p = (rng.uniform(0.05, x_hi), rng.uniform(0.05, env.height * env.cell_size - 0.05))
        if env.walkable(env.cell_of(*p)):
            pts.append(p)
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


def tick_setup(n, seed, relaxation_time):
    """Agents at the speed cap: head-on pairs just inside the skin, wall
    huggers, a coincident pair, a loner, the rest scattered."""
    rng = np.random.default_rng(seed)
    params = ForceParameters(relaxation_time=relaxation_time)
    radii = rng.choice([0.2, 0.25, 0.3], size=n)
    speeds = rng.uniform(0.8, 1.6, size=n)
    tick_length = 1.0
    cutoff = _agent_cutoff(float(radii.max()), params)
    pos = walkable_points(rng, ENV, n, CROWD_W)
    heading = rng.uniform(0.0, 2.0 * math.pi, size=n)
    # head-on pairs, placed so they close in by almost the whole skin
    cap = params.max_speed_factor * speeds
    heads = min(n // 4, 12) * 2
    for i in range(0, heads, 2):
        j = i + 1
        speeds[j] = speeds[i]
        cap[j] = cap[i]
        gap = cutoff + 2.0 * cap[i] * tick_length * rng.uniform(0.6, 1.0)
        while True:
            a = heading[i]
            half = 0.5 * gap * np.array([math.cos(a), math.sin(a)])
            mid = walkable_points(rng, ENV, 1, CROWD_W)[0]
            if all(0.0 < p[0] < CROWD_W and ENV.walkable(ENV.cell_of(*p)) for p in (mid - half, mid + half)):
                break
            heading[i] = rng.uniform(0.0, 2.0 * math.pi)
        pos[i], pos[j] = mid - half, mid + half
        heading[j] = heading[i] + math.pi
    # wall huggers: a hair's breadth from the doorway wall, heading into it
    for i in range(heads, min(heads + 6, n)):
        pos[i] = (10.0 - 1e-3 * (i - heads + 1), rng.uniform(0.5, 9.5))
        heading[i] = 0.0
    # a coincident pair exercises the fixed pair direction
    if n >= heads + 8:
        pos[heads + 7] = pos[heads + 6]
    pos[n - 1] = (WIDTH - 2.5, 12.0)  # the loner: nobody within the skin
    unit = np.column_stack([np.cos(heading), np.sin(heading)])
    vel = cap[:, None] * unit
    targets = pos + 30.0 * unit
    moving = rng.random(n) < 0.85
    moving[: heads + 6] = True
    forbidden = np.full(n, -1, dtype=np.int64)
    return params, radii, speeds, tick_length, cutoff, pos, vel, targets, moving, forbidden


def kernel_tick(pos, vel, targets, speeds, radii, params, moving, forbidden, tick_length,
                substeps, env=ENV):
    """One tick as ``Simulation._physics`` runs it, in one kernel call, checked
    against ``reference_step`` looped, bit for bit: the moving rows at every
    substep start, and the whole state at the end.  Every substep must run
    containment, and every cell code the kernel carries must be the one
    ``reference_codes`` gives.  Returns the tick and the reference positions
    at the start of every substep."""
    table = _build_obstacle_table(env, float(radii.max()), params,
                                  _tick_travel(float(speeds.max()), params, tick_length), substeps)
    tick = _prepare_tick(pos, speeds, radii, params, np.arange(len(pos)), moving,
                         gate_codes(forbidden), table, tick_length, substeps)
    dt = tick_length / substeps
    seen = []
    contained = []

    def near_pairs(pairs, pos, cutoff):  # called once per substep, at its start
        seen.append(pos[tick.mv])
        return real_near_pairs(pairs, pos, cutoff)

    def checked_contain(table, pm, code, cand, vel, gate):
        assert code.tobytes() == reference_codes(env, pm).tobytes()
        end = real_contain(table, pm, code, cand, vel, gate)
        assert end.tobytes() == reference_codes(env, cand).tobytes()
        contained.append(len(pm))
        return end

    real_contain, real_near_pairs = engine._contain, engine._near_pairs
    got_pos, got_vel, got_tgt = pos.copy(), vel.copy(), targets.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_contain", checked_contain)
        mp.setattr(engine, "_near_pairs", near_pairs)
        _run_substeps(tick, got_pos, got_vel, got_tgt, dt, substeps, params)
    assert len(contained) == substeps

    ref_pos, ref_vel = pos, vel
    starts = []
    for step in range(substeps):
        starts.append(ref_pos)
        assert seen[step].tobytes() == ref_pos[tick.mv].tobytes(), step
        ref_pos, ref_vel = reference_step(
            ref_pos, ref_vel, targets, speeds, radii, dt, params, env, moving, forbidden, table
        )
    assert got_pos.tobytes() == ref_pos.tobytes()
    assert got_vel.tobytes() == ref_vel.tobytes()
    assert got_tgt.tobytes() == targets.tobytes()  # nothing advances them here
    return tick, starts


@given(
    n=st.one_of(st.integers(2, 128), st.integers(129, 260)),
    seed=st.integers(0, 2**32 - 1),
    relaxation_time=st.sampled_from([0.5, 5.0, 1e4]),
    substeps=st.integers(1, 10),
)
@settings(max_examples=60, deadline=None)
def test_skin_list_and_bincount_match_the_per_substep_search(n, seed, relaxation_time, substeps):
    params, radii, speeds, tick_length, cutoff, pos, vel, targets, moving, forbidden = (
        tick_setup(n, seed, relaxation_time)
    )
    ids = np.arange(n, dtype=np.int64)
    skin = skin_radius(cutoff, pos, speeds, params, tick_length, substeps)
    candidates = pairs_within(ids, pos, skin)[:2]
    tick, starts = kernel_tick(pos, vel, targets, speeds, radii, params, moving, forbidden,
                               tick_length, substeps)
    for step, pos in enumerate(starts):
        k, _, d = _near_pairs(np.stack(candidates), pos, cutoff)
        ia, ib = candidates[0][k], candidates[1][k]
        want = pairs_within(ids, pos, cutoff)
        for got_col, want_col in zip((ia, ib, d), want):
            assert got_col.tobytes() == want_col.tobytes(), step
    # the tick keeps exactly the listed pairs with a moving end
    mixed = moving[candidates[0]] | moving[candidates[1]]
    assert tick.pairs[0].tobytes() == candidates[0][mixed].tobytes()
    assert tick.pairs[1].tobytes() == candidates[1][mixed].tobytes()
    # the loner had no neighbour all tick
    assert not np.any((candidates[0] == n - 1) | (candidates[1] == n - 1))


def gated_setup(n, seed, fraction):
    """``tick_setup`` with ``fraction`` of the agents moving, and gates: some
    agents stand inside the location they are kept out of, some head into it
    from just outside, the rest are gated at random or not at all."""
    params, radii, speeds, tick_length, cutoff, pos, vel, targets, _, _ = (
        tick_setup(n, seed, 5.0)
    )
    rng = np.random.default_rng([seed, 1])
    moving = np.zeros(n, dtype=bool)
    moving[rng.permutation(n)[: round(fraction * n)]] = True
    index = ENV.location_index
    forbidden = rng.choice([-1, index["desk"], index["ward"]], size=n)
    for k, i in enumerate(rng.permutation(n - 1)[:6]):
        forbidden[i] = index["ward"]
        if k < 3:  # inside the ward, free to move about in it
            pos[i] = (rng.uniform(5.05, 8.95), rng.uniform(15.05, 18.95))
        else:  # outside its lower edge, heading in
            pos[i] = (rng.uniform(5.05, 8.95), 15.0 - rng.uniform(0.01, 0.3))
        vel[i] = (0.0, params.max_speed_factor * speeds[i])
        targets[i] = (pos[i, 0], 30.0)
    return params, radii, speeds, tick_length, pos, vel, targets, moving, forbidden


@pytest.mark.parametrize("n", [40, 158])
@pytest.mark.parametrize("fraction", [0.0, 0.17, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_any_share_of_moving_agents_matches_the_reference(n, fraction, seed):
    params, radii, speeds, tick_length, pos, vel, targets, moving, forbidden = (
        gated_setup(n, seed, fraction)
    )
    tick, _ = kernel_tick(pos, vel, targets, speeds, radii, params, moving, forbidden,
                          tick_length, 10)
    assert tick.mv.tobytes() == np.nonzero(moving)[0].tobytes()


def open_setup(seed, pos):
    """Ungated agents at the speed cap at ``pos``, in the open right half of
    the map: farther from every blocked and off-map cell than a tick's travel."""
    rng = np.random.default_rng([seed, 2])
    n = len(pos)
    params = ForceParameters(relaxation_time=5.0)
    radii = rng.choice([0.2, 0.25, 0.3], size=n)
    speeds = rng.uniform(0.8, 1.6, size=n)
    heading = rng.uniform(0.0, 2.0 * math.pi, size=n)
    unit = np.column_stack([np.cos(heading), np.sin(heading)])
    vel = params.max_speed_factor * speeds[:, None] * unit
    return (params, radii, speeds, 1.0, np.array(pos, dtype=np.float64), vel, pos + 30.0 * unit,
            np.ones(n, dtype=bool), np.full(n, -1, dtype=np.int64))


def kernel_case(case, seed):
    """A tick of one kind, and the check that it is of that kind."""
    if case == "walls and coincident agents":
        params, radii, speeds, tick_length, _, pos, vel, targets, moving, forbidden = (
            tick_setup(40, seed, 5.0))
        moving[:] = True

        def check(tick):
            a, b = tick.pairs
            assert len(tick.wall_agent) and tick.table is not None
            assert np.all(pos[a] == pos[b], axis=1).any()
    elif case == "gates":
        params, radii, speeds, tick_length, pos, vel, targets, moving, forbidden = (
            gated_setup(40, seed, 0.5))

        def check(tick):
            assert (tick.gate != _NO_GATE).any() and tick.table is not None
    elif case == "open":
        rng = np.random.default_rng([seed, 3])
        params, radii, speeds, tick_length, pos, vel, targets, moving, forbidden = (
            open_setup(seed, rng.uniform((27.0, 7.0), (38.0, 17.0), size=(12, 2))))

        def check(tick):
            assert tick.table is not None and len(tick.wall_agent) == 0 and tick.pairs.shape[1]
    elif case == "no pairs":
        params, radii, speeds, tick_length, pos, vel, targets, moving, forbidden = (
            open_setup(seed, [(28.0, 8.0), (36.0, 8.0), (32.0, 16.0)]))

        def check(tick):
            assert tick.pairs.shape == (2, 0) and tick.table is not None
    elif case == "slides and stops":
        # agent 0 slides along a wall into the bay, agent 1 is stuck in a corner;
        # no wall force turns them away
        params = ForceParameters(relaxation_time=5.0, obstacle_strength=0.0)
        radii, speeds, tick_length = np.full(2, 0.25), np.full(2, 1.2), 1.0
        pos = np.array([[5.7, 3.7], [5.8, 7.8]])
        unit = np.array([math.cos(0.8), math.sin(0.8)])
        vel = params.max_speed_factor * speeds[:, None] * unit
        targets = pos + 30.0 * unit
        moving, forbidden = np.ones(2, dtype=bool), np.full(2, -1)

        def check(tick):
            assert tick.table is not None
            end = social_force_step(pos, vel, targets, speeds, radii, tick_length, params, BAY)[0]
            assert reference_codes(BAY, end).tolist() == [0, -1]  # into the bay; stopped
            assert end[1].tolist() == pos[1].tolist()
        args = (pos, vel, targets, speeds, radii, params, moving, forbidden, tick_length)
        return args, check, BAY
    else:  # "negative zero": the relaxation term's x component is -0.0
        params = ForceParameters(relaxation_time=1e300)
        radii, speeds, tick_length = np.array([0.25]), np.array([1.2]), 1.0
        pos = np.array([[30.0, 12.0]])
        vel = np.array([[-0.0, 0.0]])
        targets = np.array([[np.nextafter(30.0, 0.0), 1e300]])
        moving, forbidden = np.array([True]), np.full(1, -1)
        delta = targets - pos
        ehat = delta / np.hypot(delta[:, 0], delta[:, 1])[:, None]
        relax = (speeds[:, None] * ehat - vel) / params.relaxation_time
        assert np.signbit(relax[0, 0]) and relax[0, 0] == 0.0

        def check(tick):
            assert tick.pairs.shape == (2, 0) and len(tick.wall_agent) == 0
            # bincount, and so the kernel, sums -0.0 to +0.0
            v = social_force_step(pos, vel, targets, speeds, radii, 0.1, params, ENV)[1]
            assert v[0, 0] == 0.0 and not np.signbit(v[0, 0])
    return (pos, vel, targets, speeds, radii, params, moving, forbidden, tick_length), check, ENV


@pytest.mark.parametrize("substeps", range(1, 11))
@pytest.mark.parametrize("case", ["walls and coincident agents", "gates", "open", "no pairs",
                                  "slides and stops", "negative zero"])
def test_the_tick_kernel_matches_the_reference_looped(case, substeps):
    """Every substep count from 1 to 10, on ticks with and without pairs,
    walls and gates, with slides that change an agent's cell code,
    coincident agents and a -0.0 relaxation term."""
    args, check, env = kernel_case(case, substeps)
    tick, _ = kernel_tick(*args, substeps, env=env)
    check(tick)


def test_a_tick_where_only_frozen_agents_are_near_each_other():
    """The only pair within the cutoff is two frozen agents: the tick lists no
    pair, the mover feels nobody, and nobody frozen moves."""
    params = ForceParameters()
    radii = np.full(3, 0.25)
    speeds = np.full(3, 1.2)
    pos = np.array([[2.5, 20.5], [2.9, 20.5], [18.0, 3.0]])
    vel = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.5]])
    targets = np.array([[2.5, 20.5], [2.9, 20.5], [18.0, 20.0]])
    moving = np.array([False, False, True])
    assert len(pairs_within(np.arange(3), pos, _agent_cutoff(0.25, params))[0]) == 1
    tick, starts = kernel_tick(pos, vel, targets, speeds, radii, params, moving,
                               np.full(3, -1), 1.0, 10)
    assert tick.pairs.shape == (2, 0)
    for p in starts:
        assert p[:2].tobytes() == pos[:2].tobytes()


@pytest.mark.parametrize("late", [0.6, 0.7, 0.8, 0.85])
def test_wall_that_enters_the_cutoff_late_in_the_tick(late):
    """An agent at the speed cap heads straight at a wall whose centre starts
    ``late`` of the agent's tick travel beyond the wall cutoff.  The wall comes
    within the cutoff only in the tick's last substeps, and a table without the
    travel term does not list it for the cell the agent starts in."""
    params = ForceParameters(relaxation_time=1e9)
    radii, speeds = np.array([0.25]), np.array([1.6])
    tick_length, substeps = 1.0, 10
    travel = _tick_travel(1.6, params, tick_length)
    radius = _obstacle_radius(0.25, params, ENV.cell_size)
    wall = np.array([10.5, 5.5])  # centre of blocked cell (10, 5)
    pos = np.array([[wall[0] - radius - late * travel, wall[1]]])
    vel = np.array([[params.max_speed_factor * speeds[0], 0.0]])
    targets = np.array([[40.0, wall[1]]])
    narrow = _build_obstacle_table(ENV, 0.25, params)
    listed = _gather_walls(narrow, _keys(narrow, pos))[1]
    assert not np.any(np.all(narrow.box[listed, 0] == wall, axis=1))
    _, starts = kernel_tick(pos, vel, targets, speeds, radii, params, np.array([True]),
                            np.full(1, -1), tick_length, substeps)
    inside = [float(np.hypot(*(p[0] - wall))) <= radius for p in starts]
    assert not inside[0] and inside[-1]
    assert inside.index(True) >= round(late * substeps)


def test_head_on_pair_at_the_cap_is_found_on_the_last_substep():
    """Two agents at the speed cap, head on, whose gap exceeds the cutoff by
    0.85 of what they can close in a tick, come within the cutoff only on
    the tick's last substep: a skin much narrower than the bound misses them."""
    params = ForceParameters(relaxation_time=1e9, repulsion_strength=0.0)
    radii = np.array([0.25, 0.25])
    speeds = np.array([1.0, 1.0])
    cutoff = _agent_cutoff(0.25, params)
    substeps = 10
    skin = skin_radius(cutoff, np.zeros((1, 2)), speeds, params, 1.0, substeps)
    travel = 2.0 * params.max_speed_factor * 1.0
    assert cutoff + travel < skin < cutoff + travel + 1e-9
    gap = cutoff + travel * (1.0 - 1.5 / substeps)
    pos = np.array([[0.0, 0.0], [gap, 0.0]])
    vel = np.array([[1.3, 0.0], [-1.3, 0.0]])
    targets = np.array([[100.0, 0.0], [-100.0, 0.0]])
    tick = _prepare_tick(pos, speeds, radii, params, np.arange(2), np.ones(2, dtype=bool),
                         np.full(2, _NO_GATE), None, 1.0, substeps)
    assert tick.pairs.shape == (2, 1)
    found = []
    for _ in range(substeps):
        found.append(len(_near_pairs(tick.pairs, pos, cutoff)[0]))
        _run_substeps(tick, pos, vel, targets, 0.1, 1, params)
    assert found == [0] * (substeps - 1) + [1]


def padded_code_grid(env, pad):
    """The cell codes of the map padded by ``pad`` cells on each side, built
    from ``blocked`` and the sorted location names: -2 off the map (the
    ring included) and where blocked, else the index of the cell's location
    in name order, -1 in none."""
    grid = np.full((env.width + 2 * pad, env.height + 2 * pad), -2, dtype=np.int64)
    grid[pad:-pad, pad:-pad] = -1
    for i, name in enumerate(sorted(env.locations)):
        for x, y in env.locations[name].cells:
            grid[x + pad, y + pad] = i
    for x, y in env.blocked:
        grid[x + pad, y + pad] = -2
    return grid


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("travel", [0.0, 1.3, 20.0])
@pytest.mark.parametrize("name", ["ENV", "BAY"])
def test_the_wall_table_holds_the_cell_codes(name, travel):
    """On every padded cell of the wall table, its code is the padded grid's,
    read by key, by ``_keys`` and by ``key_at`` at the cell's centre and
    corners; points at +-1e300 m read -2 without an invalid cast."""
    env = {"ENV": ENV, "BAY": BAY}[name]
    table = _build_obstacle_table(env, 0.25, ForceParameters(), travel, 10)
    pad = -table.origin
    assert type(table.origin) is int and pad >= 2
    assert (table.cols, table.rows) == (env.width + 2 * pad, env.height + 2 * pad)
    want = padded_code_grid(env, pad)
    assert table.code.tobytes() == want.ravel().tobytes()
    cs = env.cell_size
    x, y = np.meshgrid(np.arange(table.cols) + table.origin,
                       np.arange(table.rows) + table.origin, indexing="ij")
    for dx, dy in [(0.5, 0.5), (0.0, 0.0), (1.0 - 1e-9, 1.0 - 1e-9)]:
        pts = np.column_stack([(x.ravel() + dx) * cs, (y.ravel() + dy) * cs])
        assert table.code[_keys(table, pts)].tobytes() == want.ravel().tobytes()
        assert [table.code.item(table.key_at(px, py)) for px, py in pts.tolist()] == (
            want.ravel().tolist())
    far = np.array([[1e300, 2.5], [2.5, -1e300], [-1e300, 1e300], [1e300, 1e300],
                    [-1e300, -1e300]])
    assert table.code[_keys(table, far)].tolist() == [-2] * len(far)
    assert [table.code.item(table.key_at(px, py)) for px, py in far.tolist()] == [-2] * len(far)
    assert reference_codes(env, far).tolist() == [-2] * len(far)
