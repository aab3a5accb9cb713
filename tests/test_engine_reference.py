"""The engine's per-tick neighbour list and bincount sums against the old substep.

``Simulation._physics`` searches for agent pairs once per tick, at a radius
widened by the distance two agents can close in a tick, and every substep
filters that list to the force cutoff.  Forces are summed with
``np.bincount``.  The reference below is the substep as it was before: a
``pairs_within`` search on every substep and ``np.add.at`` sums.  Both must
give the same bytes, substep after substep, on crowds at the speed cap, in
head-on approach, against walls, coincident and isolated.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from contactmix.contacts import BRUTE_FORCE_MAX_N, pairs_within
from contactmix.engine import (
    ForceParameters,
    _agent_cutoff,
    _build_obstacle_table,
    _contain,
    _near_pairs,
    _pair_direction,
    _skin_radius,
    social_force_step,
)
from contactmix.scenario import parse_scenario

_EPS = 1e-12
WIDTH, HEIGHT = 44, 24
CROWD_W = 20  # the crowd stays left of this; the loner stands far to the right


def reference_obstacle_acceleration(table, pos, radii, params):
    """The table lookup with the old ``np.add.at`` sum."""
    n = len(pos)
    acc = np.zeros((n, 2))
    cs = table.cell_size
    radius = float(radii.max()) + 4.0 * params.obstacle_range + cs * 0.7072
    fx = np.floor(pos[:, 0] / cs) - table.x0
    fy = np.floor(pos[:, 1] / cs) - table.y0
    inside = (fx >= 0) & (fx < table.cols) & (fy >= 0) & (fy < table.rows)
    key = (fx[inside] * table.rows + fy[inside]).astype(np.int64)
    first = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    first[inside] = table.starts[key]
    count[inside] = table.starts[key + 1] - first[inside]
    agent = np.repeat(np.arange(n, dtype=np.int64), count)
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    cell = table.idx[np.arange(len(agent), dtype=np.int64) + shift]
    dx = pos[agent, 0] - table.cx[cell]
    dy = pos[agent, 1] - table.cy[cell]
    keep = dx * dx + dy * dy <= radius * radius
    if not keep.any():
        return acc
    agent = agent[keep]
    cell = cell[keep]
    closest = np.clip(pos[agent], table.lo[cell], table.hi[cell])
    dvec = pos[agent] - closest
    d = np.hypot(dvec[:, 0], dvec[:, 1])
    nz = d > _EPS
    mag = params.obstacle_strength * np.exp((radii[agent[nz]] - d[nz]) / params.obstacle_range)
    np.add.at(acc, agent[nz], (mag / d[nz])[:, None] * dvec[nz])
    return acc


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
    cand, v = _contain(env, pos[mv], pos[mv] + dt * v, v, forbidden[mv])
    pos[mv] = cand
    vel[mv] = v
    return pos, vel


def walled_env():
    """A wall with a doorway splits the crowd's half; pillars stand in it."""
    blocked = [[10, y] for y in range(HEIGHT) if not 10 <= y < 13]
    blocked += [[4, 5], [5, 5], [15, 18], [15, 19], [16, 18]]
    doc = {"map": {"cell_size_m": 1.0, "width": WIDTH, "height": HEIGHT,
                   "blocked": blocked, "locations": {}}}
    return parse_scenario(json.dumps(doc)).map


ENV = walled_env()


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
    cutoff = _agent_cutoff(radii, params)
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


@given(
    n=st.one_of(st.integers(2, BRUTE_FORCE_MAX_N), st.integers(BRUTE_FORCE_MAX_N + 1, 260)),
    seed=st.integers(0, 2**32 - 1),
    relaxation_time=st.sampled_from([0.5, 5.0, 1e4]),
    substeps=st.integers(1, 10),
)
@settings(max_examples=60, deadline=None)
def test_skin_list_and_bincount_match_the_per_substep_search(n, seed, relaxation_time, substeps):
    params, radii, speeds, tick_length, cutoff, pos, vel, targets, moving, forbidden = (
        tick_setup(n, seed, relaxation_time)
    )
    table = _build_obstacle_table(ENV, float(radii.max()), params)
    ids = np.arange(n, dtype=np.int64)
    skin = _skin_radius(cutoff, pos, speeds, params, tick_length, substeps)
    candidates = pairs_within(ids, pos, skin)[:2]
    dt = tick_length / substeps
    ref_pos, ref_vel = pos, vel
    for step in range(substeps):
        ia, ib, _, _, d = _near_pairs(*candidates, pos, cutoff)
        want = pairs_within(ids, pos, cutoff)
        for got_col, want_col in zip((ia, ib, d), want):
            assert got_col.tobytes() == want_col.tobytes(), step
        pos, vel = social_force_step(
            pos, vel, targets, speeds, radii, dt, params, env=ENV, moving=moving,
            forbidden=forbidden, _obstacles=table, _candidates=candidates,
        )
        ref_pos, ref_vel = reference_step(
            ref_pos, ref_vel, targets, speeds, radii, dt, params, ENV, moving, forbidden, table
        )
        assert pos.tobytes() == ref_pos.tobytes(), step
        assert vel.tobytes() == ref_vel.tobytes(), step
    # the loner had no neighbour all tick
    assert not np.any((candidates[0] == n - 1) | (candidates[1] == n - 1))


def test_head_on_pair_at_the_cap_is_found_on_the_last_substep():
    """Two agents at the speed cap, head on, whose gap exceeds the cutoff by
    0.85 of what they can close in a tick, come within the cutoff only on
    the tick's last substep: a skin much narrower than the bound misses them."""
    params = ForceParameters(relaxation_time=1e9, repulsion_strength=0.0)
    radii = np.array([0.25, 0.25])
    speeds = np.array([1.0, 1.0])
    cutoff = _agent_cutoff(radii, params)
    substeps = 10
    skin = _skin_radius(cutoff, np.zeros((1, 2)), speeds, params, 1.0, substeps)
    travel = 2.0 * params.max_speed_factor * 1.0
    assert cutoff + travel < skin < cutoff + travel + 1e-9
    gap = cutoff + travel * (1.0 - 1.5 / substeps)
    pos = np.array([[0.0, 0.0], [gap, 0.0]])
    vel = np.array([[1.3, 0.0], [-1.3, 0.0]])
    targets = np.array([[100.0, 0.0], [-100.0, 0.0]])
    candidates = pairs_within(np.arange(2), pos, skin)[:2]
    assert len(candidates[0]) == 1
    found = []
    for _ in range(substeps):
        found.append(len(_near_pairs(*candidates, pos, cutoff)[0]))
        pos, vel = social_force_step(pos, vel, targets, speeds, radii, 0.1, params,
                                     _candidates=candidates)
    assert found == [0] * (substeps - 1) + [1]
