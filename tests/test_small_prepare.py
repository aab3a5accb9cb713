"""The small-tick preparation against ``_prepare_tick``, bit for bit.

``Simulation._physics`` first tries ``_prepare_small``, which builds a
tick's lists in Python floats straight from the present rows, and falls back
to ``_prepare_tick`` when it gives up.  On every tick of ``kernel_case``,
and on larger ticks whose skin search takes ``pairs_within``'s grid path,
it must list what ``_prepare_tick`` does: the moving rows, the skin pairs
with a moving end in (a, b) order and their radius sums, each moving row's
walls in table order and start cell code, the speeds, caps and gates, and
both squared cutoffs.
It must give up exactly when the moving rows, pairs and walls number more
than its limit, and refuse a wall table that is too narrow with the same
error.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from contactmix.engine import (
    _NO_GATE,
    ForceParameters,
    _agent_cutoff,
    _build_obstacle_table,
    _prepare_small,
    _prepare_tick,
    _tick_travel,
)

from test_engine_reference import ENV, gate_codes, gated_setup, kernel_case, skin_radius

CASES = ["walls and coincident agents", "gates", "open", "no pairs", "slides and stops",
         "negative zero"]


def floats(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def tick_args(pos, speeds, radii, params, moving, forbidden, tick_length, substeps, env):
    """The preparations' arguments for a tick where every row is present."""
    table = _build_obstacle_table(
        env, float(radii.max()), params, _tick_travel(float(speeds.max()), params, tick_length),
        substeps,
    )
    return (pos, speeds, radii, params, np.arange(len(pos)), moving, gate_codes(forbidden),
            table, tick_length, substeps)


def assert_same_tick(args):
    """``_prepare_small`` without a limit lists what ``_prepare_tick`` does;
    with a limit it gives up exactly when that listing is larger."""
    pos = args[0]
    want = _prepare_tick(*args)
    got = _prepare_small(*args, math.inf)
    assert got.mv == want.mv.tolist()
    m = len(got.mv)
    # the pairs in order; a slot below m is a moving row, and holds its position
    assert [[a, b] for _, _, a, b, _ in got.pairs] == want.pairs.T.tolist()
    assert floats([r for *_, r in got.pairs]) == want.pair_r.tobytes()
    assert floats(got.x[:m]) == pos[want.mv, 0].tobytes()
    assert floats(got.y[:m]) == pos[want.mv, 1].tobytes()
    for sa, sb, a, b, _ in got.pairs:
        assert floats([got.x[sa], got.y[sa], got.x[sb], got.y[sb]]) == pos[[a, b]].tobytes()
        assert [sa < m, sb < m] == args[5][[a, b]].tolist()
    # each moving row's walls: centre, lower and upper corner, x then y
    boxes = want.walls.transpose(1, 2, 0)  # (k, 2, 3): per wall, x then y of each point
    for i in range(m):
        listed = boxes[want.wall_agent == i].reshape(-1, 6)
        assert floats(got.walls[i]) == listed.tobytes()
    assert floats(got.radii) == args[2][want.mv].tobytes()
    assert floats(got.speeds) == want.speeds.tobytes()
    assert floats(got.vmax) == want.vmax.tobytes()
    assert got.gate == want.gate.tolist()
    assert floats([got.c2, got.r2]) == floats([want.cutoff * want.cutoff, want.r2])
    assert got.code == want.code.tolist()
    assert got.table is want.table
    size = m + want.pairs.shape[1] + len(want.wall_agent)
    assert _prepare_small(*args, size) is not None
    assert _prepare_small(*args, size - 1) is None
    return want


@pytest.mark.parametrize("substeps", range(1, 11))
@pytest.mark.parametrize("case", CASES)
def test_the_small_preparation_lists_what_prepare_tick_does(case, substeps):
    args, check, env = kernel_case(case, substeps)
    pos, vel, targets, speeds, radii, params, moving, forbidden, tick_length = args
    check(assert_same_tick(
        tick_args(pos, speeds, radii, params, moving, forbidden, tick_length, substeps, env)))


@pytest.mark.parametrize("fraction", [0.03, 0.17, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_the_small_preparation_matches_the_grid_search(fraction, seed):
    """158 agents, some gated, a few or all of them moving; then the same
    tick without gates."""
    n = 158
    params, radii, speeds, tick_length, pos, vel, targets, moving, forbidden = (
        gated_setup(n, seed, fraction))
    args = tick_args(pos, speeds, radii, params, moving, forbidden, tick_length, 10, ENV)
    tick = assert_same_tick(args)
    assert tick.pairs.shape[1] and (tick.gate != _NO_GATE).any()
    assert_same_tick(args[:6] + (np.full(n, _NO_GATE),) + args[7:])


@pytest.mark.parametrize("seed", range(3))
def test_the_preparations_read_the_present_rows_only(seed):
    """Half the frozen agents are away: larger and faster than anyone
    present, two of them farther out.  Both preparations list, in agent
    rows, what ``_prepare_tick`` lists for the present rows alone."""
    n = 158
    params, radii, speeds, tick_length, pos, vel, targets, moving, forbidden = (
        gated_setup(n, seed, 0.17))
    away = ~moving & (np.random.default_rng([seed, 4]).random(n) < 0.5)
    radii[away], speeds[away] = 0.45, 3.0
    pos[np.flatnonzero(away)[:2]] = (ENV.width - 0.5, ENV.height - 0.5)
    present = np.flatnonzero(~away)
    everyone = tick_args(pos, speeds, radii, params, moving, forbidden, tick_length, 10, ENV)
    args = everyone[:4] + (present,) + everyone[5:]
    got = assert_same_tick(args)
    alone = tuple(a[present] for a in args[:3]) + (params, np.arange(len(present)),
                                                   moving[present], args[6][present]) + args[7:]
    want = _prepare_tick(*alone)
    assert got.mv.tolist() == present[want.mv].tolist()
    assert got.pairs.tolist() == present[want.pairs].tolist()
    for name in ("speeds", "vmax", "pair_r", "gate", "code", "wall_agent", "wall_r", "walls"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert floats([got.cutoff, got.r2]) == floats([want.cutoff, want.r2])
    # had the away agents been present, they would have counted
    full = _prepare_tick(*everyone)
    assert full.cutoff > got.cutoff and full.pairs.shape[1] > got.pairs.shape[1]


@pytest.mark.parametrize("beyond", [False, True])
def test_a_pair_at_the_skin_radius(beyond):
    """Two agents as far apart as the skin test allows, or one float further:
    the skin radius, which depends on the largest coordinate (here a y), and
    the test itself are ``_prepare_tick``'s to the last bit."""
    params, radii, speeds = ForceParameters(), np.full(2, 0.25), np.full(2, 1.2)
    skin = skin_radius(_agent_cutoff(0.25, params), np.array([[1.0, 20.0]]), speeds, params,
                       1.0, 10)

    def passes(x):  # pairs_within's test of the offset from (1.0, 20.0)
        return (x - 1.0) * (x - 1.0) <= skin * skin

    x = 1.0 + skin  # moved to the last x that passes
    while not passes(x):
        x = math.nextafter(x, 0.0)
    while passes(math.nextafter(x, math.inf)):
        x = math.nextafter(x, math.inf)
    if beyond:
        x = math.nextafter(x, math.inf)
    pos = np.array([[1.0, 20.0], [x, 20.0]])
    moving = np.array([True, False])
    args = tick_args(pos, speeds, radii, params, moving, np.full(2, -1), 1.0, 10, ENV)
    assert assert_same_tick(args).pairs.shape == (2, 0 if beyond else 1)


def test_the_small_preparation_refuses_a_narrow_table():
    """A table built without the tick's travel fails both preparations alike."""
    args, _, env = kernel_case("gates", 0)
    pos, vel, targets, speeds, radii, params, moving, forbidden, tick_length = args
    narrow = _build_obstacle_table(env, float(radii.max()), params)
    args = tick_args(pos, speeds, radii, params, moving, forbidden, tick_length, 10, env)
    args = args[:7] + (narrow,) + args[8:]
    with pytest.raises(ValueError) as want:
        _prepare_tick(*args)
    with pytest.raises(ValueError) as got:
        _prepare_small(*args, math.inf)
    assert str(got.value) == str(want.value)
    assert "obstacle table covers" in str(got.value)
