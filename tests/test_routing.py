import heapq
import json
import math

import numpy as np
import pytest

from contactmix.routing import NoRouteError, plan_route, shortest_cell_path
from contactmix.scenario import parse_scenario

SQRT2 = math.sqrt(2.0)


def make_env(width, height, blocked=()):
    d = {
        "map": {
            "cell_size_m": 1.0,
            "width": width,
            "height": height,
            "blocked": [list(c) for c in blocked],
            "locations": {},
        },
    }
    return parse_scenario(json.dumps(d)).map


# --- independent Dijkstra oracle ----------------------------------------------


def dijkstra_cost(env, start, goal):
    """Shortest 8-connected cost with the same corner rule, or None.

    Plain Dijkstra over an explicit adjacency expansion; shares no code with
    the A* under test.
    """
    if not env.walkable(start) or not env.walkable(goal):
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == goal:
            return d
        if d > dist.get(cell, math.inf):
            continue
        x, y = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nxt = (x + dx, y + dy)
                if not env.walkable(nxt):
                    continue
                if dx != 0 and dy != 0:
                    # no corner cutting: both straight neighbors must be open
                    if not (env.walkable((x + dx, y)) and env.walkable((x, y + dy))):
                        continue
                nd = d + (SQRT2 if dx != 0 and dy != 0 else 1.0)
                if nd < dist.get(nxt, math.inf):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    return None


def path_is_valid(env, cells, start, goal):
    assert cells[0] == start and cells[-1] == goal
    for (x0, y0), (x1, y1) in zip(cells, cells[1:]):
        dx, dy = x1 - x0, y1 - y0
        assert max(abs(dx), abs(dy)) == 1, "non-adjacent step"
        assert env.walkable((x1, y1))
        if dx != 0 and dy != 0:
            assert env.walkable((x0 + dx, y0)) and env.walkable((x0, y0 + dy)), (
                "cut corner"
            )


def path_cost(cells):
    return sum(
        SQRT2 if (a[0] != b[0] and a[1] != b[1]) else 1.0
        for a, b in zip(cells, cells[1:])
    )


# --- examples -----------------------------------------------------------------


def test_straight_line_on_open_grid():
    env = make_env(10, 10)
    cells, cost = shortest_cell_path(env, (0, 0), (0, 9))
    assert cells == [(0, y) for y in range(10)]
    assert cost == pytest.approx(9.0)


def test_doorway_wall():
    blocked = {(5, y) for y in range(10) if y != 4}
    env = make_env(10, 10, blocked)
    cells, cost = shortest_cell_path(env, (0, 0), (9, 0))
    path_is_valid(env, cells, (0, 0), (9, 0))
    assert (5, 4) in cells, "path must pass through the doorway"
    assert cost == pytest.approx(dijkstra_cost(env, (0, 0), (9, 0)))


def test_enclosed_target_raises():
    blocked = {(4, 4), (4, 5), (4, 6), (5, 4), (5, 6), (6, 4), (6, 5), (6, 6)}
    env = make_env(10, 10, blocked)
    with pytest.raises(NoRouteError):
        shortest_cell_path(env, (0, 0), (5, 5))


def test_unwalkable_endpoints_raise():
    env = make_env(5, 5, {(2, 2)})
    with pytest.raises(NoRouteError):
        shortest_cell_path(env, (2, 2), (0, 0))
    with pytest.raises(NoRouteError):
        shortest_cell_path(env, (0, 0), (2, 2))


def test_trivial_path():
    env = make_env(3, 3)
    cells, cost = shortest_cell_path(env, (1, 1), (1, 1))
    assert cells == [(1, 1)]
    assert cost == 0.0


def test_no_corner_cutting():
    # squeezing diagonally past a blocked cell's corner is forbidden, so the
    # shortest route around a single block costs a full detour
    env = make_env(3, 3, {(1, 1)})
    cells, cost = shortest_cell_path(env, (0, 0), (2, 2))
    path_is_valid(env, cells, (0, 0), (2, 2))
    assert cost == pytest.approx(dijkstra_cost(env, (0, 0), (2, 2)))
    # with corner cutting the cost would be 2 + sqrt(2)
    assert cost == pytest.approx(4.0)


def test_waypoints_are_cell_centers():
    env = make_env(4, 4)
    pts = plan_route(env, (0, 0), (3, 3))
    assert pts[0] == (0.5, 0.5)
    assert pts[-1] == (3.5, 3.5)
    assert len(pts) == 4


def test_deterministic_output():
    env = make_env(12, 12, {(5, i) for i in range(3, 9)})
    a = shortest_cell_path(env, (1, 6), (10, 6))
    b = shortest_cell_path(env, (1, 6), (10, 6))
    assert a == b


def test_random_maps_match_dijkstra():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        w, h = int(rng.integers(5, 16)), int(rng.integers(5, 16))
        density = rng.uniform(0.0, 0.35)
        blocked = {
            (x, y)
            for x in range(w)
            for y in range(h)
            if rng.random() < density
        }
        free = [(x, y) for x in range(w) for y in range(h) if (x, y) not in blocked]
        if len(free) < 2:
            continue
        start = free[int(rng.integers(len(free)))]
        goal = free[int(rng.integers(len(free)))]
        env = make_env(w, h, blocked)
        want = dijkstra_cost(env, start, goal)
        if want is None:
            with pytest.raises(NoRouteError):
                shortest_cell_path(env, start, goal)
        else:
            cells, cost = shortest_cell_path(env, start, goal)
            path_is_valid(env, cells, start, goal)
            assert cost == pytest.approx(want, abs=1e-9), f"trial {trial}"
            assert path_cost(cells) == pytest.approx(cost, abs=1e-9)


def test_walkable_cells_agrees_with_walkable():
    env = make_env(7, 5, blocked=[(0, 0), (3, 2), (6, 4), (3, 3)])
    cells = env.walkable_cells
    assert isinstance(cells, frozenset)
    for x in range(-2, env.width + 2):
        for y in range(-2, env.height + 2):
            assert ((x, y) in cells) == env.walkable((x, y)), (x, y)
    assert len(cells) == 7 * 5 - 4
