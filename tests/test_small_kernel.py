"""The small-tick kernel against the array kernel, bit for bit.

``Simulation._physics`` runs a tick with few moving rows, skin pairs and
listed walls through ``_run_substeps_small``, which keeps the tick in Python
floats from ``_prepare_small`` on, and any other tick through
``_prepare_tick`` and ``_run_substeps``.  Both must give the same bytes:
positions, velocities and targets at the end of the tick, the waypoint each
agent has reached, and the cell code each step carries into the next
containment.  The ticks are those of ``kernel_case``: walls, gates,
coincident agents, slides and corner stops, a -0.0 relaxation term and
ticks with no wall or no pair in reach.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from contactmix import engine
from contactmix.engine import (
    SimConfig,
    Simulation,
    _build_obstacle_table,
    _prepare_small,
    _prepare_tick,
    _run_substeps,
    _run_substeps_small,
    _tick_travel,
)
from contactmix.scenario import load_scenario

from test_behaviour_lock import CLINIC
from test_engine_reference import kernel_case

CASES = ["walls and coincident agents", "gates", "open", "no pairs", "slides and stops",
         "negative zero"]


def routed_agents(pm, tm):
    """One agent per moving row, routed from ``pm`` toward ``tm`` through
    waypoints 0.3 to 0.6 m apart, so that each substep can pass some and the
    shorter routes end, and brake, within the tick; every fourth has no route."""
    agents = []
    for i, (p, t) in enumerate(zip(pm, tm)):
        ag = object.__new__(engine._Agent)
        heading = (t - p) / np.hypot(*(t - p))
        spacing, count = 0.3 + 0.15 * (i % 3), 2 + i % 5
        ag.waypoints = [] if i % 4 == 3 else [
            tuple((p + spacing * (k + 1) * heading).tolist()) for k in range(count)]
        ag.wp_i = 0
        agents.append(ag)
    return agents


def run_kernel(small, tick, pos, vel, tgt, dt, substeps, params, routed):
    """Run one kernel on copies, the small one on a tick from
    ``_prepare_small``; return its arrays, the agents' waypoint indices and,
    per containment, the cell codes carried in and out."""
    pos, vel, tgt = pos.copy(), vel.copy(), tgt.copy()
    agents = routed_agents(pos[tick.mv], tgt[tick.mv]) if routed else []
    if routed:
        tgt[tick.mv] = [ag.waypoints[0] if ag.waypoints else tuple(t)
                        for ag, t in zip(agents, tgt[tick.mv].tolist())]
    codes = []
    with pytest.MonkeyPatch.context() as mp:
        if small:
            real = engine._contain_point

            def contain_point(env, x, y, code, *rest):
                out = real(env, x, y, code, *rest)
                codes.append((code, out[-1]))
                return out

            mp.setattr(engine, "_contain_point", contain_point)
            _run_substeps_small(tick, pos, vel, tgt, dt, substeps, params,
                                agents if routed else None)
        else:
            real = engine._contain

            def contain(env, pm, code, *rest):
                before = code.tolist()
                end = real(env, pm, code, *rest)
                codes.extend(zip(before, end.tolist()))
                return end

            mp.setattr(engine, "_contain", contain)
            _run_substeps(tick, pos, vel, tgt, dt, substeps, params,
                          agents if routed else None)
    return pos, vel, tgt, [ag.wp_i for ag in agents], codes


@pytest.mark.parametrize("routed", [False, True], ids=["fixed targets", "routed"])
@pytest.mark.parametrize("substeps", range(1, 11))
@pytest.mark.parametrize("case", CASES)
def test_small_kernel_matches_the_array_kernel(case, substeps, routed):
    args, check, env = kernel_case(case, substeps)
    pos, vel, targets, speeds, radii, params, moving, forbidden, tick_length = args
    table = _build_obstacle_table(
        env, float(radii.max()), params, _tick_travel(speeds, params, tick_length), substeps
    )
    prepared = (pos, speeds, radii, params, moving, forbidden, env, table, tick_length, substeps)
    tick = _prepare_tick(*prepared)
    check(tick)
    small = _prepare_small(*prepared, math.inf)
    dt = tick_length / substeps
    want = run_kernel(False, tick, pos, vel, targets, dt, substeps, params, routed)
    got = run_kernel(True, small, pos, vel, targets, dt, substeps, params, routed)
    for w, g in zip(want[:3], got[:3]):
        assert g.tobytes() == w.tobytes()
    assert got[3] == want[3]  # waypoint indices
    assert got[4] == want[4]  # carried cell codes, in and out of every containment
    assert len(want[4]) == substeps * len(tick.mv)
    if routed:
        assert any(want[3])  # some agent passed a waypoint


def test_the_small_kernel_runs_the_ticks_it_is_chosen_for(monkeypatch):
    """``Simulation._physics`` picks the small kernel exactly for the ticks
    whose moving rows, skin pairs and listed walls, as ``_prepare_tick``
    lists them, number at most ``SMALL_TICK_MAX``."""
    sizes, small = [], []
    prepare_small = engine._prepare_small

    def spy_prepare_small(*a):  # called once per tick with a mover, the limit last
        t = _prepare_tick(*a[:-1])
        sizes.append(len(t.mv) + t.pairs.shape[1] + len(t.wall_agent))
        return prepare_small(*a)

    def spy_small(*a, **k):
        small.append(len(sizes) - 1)
        return real_small(*a, **k)

    real_small = engine._run_substeps_small
    monkeypatch.setattr(engine, "_prepare_small", spy_prepare_small)
    monkeypatch.setattr(engine, "_run_substeps_small", spy_small)
    monkeypatch.setattr(engine, "SMALL_TICK_MAX", 12)
    Simulation(load_scenario(CLINIC), SimConfig(ticks=300, seed=1)).run()
    assert small == [k for k, s in enumerate(sizes) if s <= 12]
    assert 0 < len(small) < len(sizes)
