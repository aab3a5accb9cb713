import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_move_table_agrees_with_walkable():
    env = make_env(7, 5, blocked=[(0, 0), (3, 2), (6, 4), (3, 3)])
    cells = env.moves
    for x in range(-2, env.width + 2):
        for y in range(-2, env.height + 2):
            in_grid = 0 <= x < env.width and 0 <= y < env.height
            assert ((x, y) in cells) == env.walkable((x, y)) == (in_grid and (x, y) not in env.blocked)
    assert len(cells) == 7 * 5 - 4


# --- the A* before the move table, as an oracle for paths and exact costs --------


_STRAIGHT = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _octile(a, b):
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return (dx + dy) + (SQRT2 - 2.0) * min(dx, dy)


def two_loop_astar(env, start, goal):
    """A* as it was before ``EnvironmentMap.moves``: a set of walkable cells,
    a straight loop and then a diagonal loop with the corner rule."""
    cells = frozenset((x, y) for x in range(env.width) for y in range(env.height)) - env.blocked
    for cell, label in ((start, "start"), (goal, "goal")):
        if cell not in cells:
            raise NoRouteError(start, goal, f"{label} cell {cell} is not walkable")
    if start == goal:
        return [start], 0.0
    g = {start: 0.0}
    parent = {}
    open_heap = [(_octile(start, goal), _octile(start, goal), start)]
    closed = set()
    while open_heap:
        f, _, cell = heapq.heappop(open_heap)
        if cell == goal:
            path = [cell]
            while cell != start:
                cell = parent[cell]
                path.append(cell)
            path.reverse()
            return path, g[goal]
        if cell in closed:
            continue
        closed.add(cell)
        x, y = cell
        g_cell = g[cell]
        for dx, dy in _STRAIGHT:
            nxt = (x + dx, y + dy)
            if nxt not in cells:
                continue
            cost = g_cell + 1.0
            if cost < g.get(nxt, math.inf):
                g[nxt] = cost
                parent[nxt] = cell
                h = _octile(nxt, goal)
                heapq.heappush(open_heap, (cost + h, h, nxt))
        for dx, dy in _DIAGONAL:
            nxt = (x + dx, y + dy)
            if not (nxt in cells and (x + dx, y) in cells and (x, y + dy) in cells):
                continue
            cost = g_cell + SQRT2
            if cost < g.get(nxt, math.inf):
                g[nxt] = cost
                parent[nxt] = cell
                h = _octile(nxt, goal)
                heapq.heappush(open_heap, (cost + h, h, nxt))
    raise NoRouteError(start, goal)


@st.composite
def maps_with_ends(draw):
    """A small map with random blocked cells and, each at will, a wall with
    one doorway, a diagonal-only gap (two open cells that touch at a corner
    between two blocked ones) and an isolated open cell; then two endpoints,
    which may be blocked, off the grid or the same cell."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    grid = [(x, y) for x in range(w) for y in range(h)]
    blocked = set(draw(st.lists(st.sampled_from(grid), max_size=len(grid) // 3)))
    marked = []  # cells next to the features, likely endpoints
    if w >= 3 and draw(st.booleans()):
        x, door = draw(st.integers(1, w - 2)), draw(st.integers(0, h - 1))
        blocked |= {(x, y) for y in range(h) if y != door}
        blocked.discard((x, door))
        marked += [(x - 1, door), (x + 1, door)]
    if w >= 2 and h >= 2 and draw(st.booleans()):
        x, y = draw(st.integers(0, w - 2)), draw(st.integers(0, h - 2))
        blocked |= {(x + 1, y), (x, y + 1)}
        blocked -= {(x, y), (x + 1, y + 1)}
        marked += [(x, y), (x + 1, y + 1)]
    if draw(st.booleans()):
        cx, cy = draw(st.sampled_from(grid))
        blocked |= {(x, y) for x, y in grid if max(abs(x - cx), abs(y - cy)) == 1}
        blocked.discard((cx, cy))
        marked.append((cx, cy))
    anywhere = st.tuples(st.integers(-1, w), st.integers(-1, h))
    ends = st.one_of(anywhere, st.sampled_from(marked)) if marked else anywhere
    start = draw(ends)
    goal = draw(st.one_of(ends, st.just(start)))
    return w, h, blocked, start, goal


@settings(max_examples=300, deadline=None)
@given(maps_with_ends())
def test_search_matches_the_two_loop_astar(case):
    w, h, blocked, start, goal = case
    env = make_env(w, h, blocked)
    try:
        want = two_loop_astar(env, start, goal)
    except NoRouteError as e:
        with pytest.raises(NoRouteError) as got:
            shortest_cell_path(env, start, goal)
        assert str(got.value) == str(e)
    else:
        cells, cost = shortest_cell_path(env, start, goal)
        assert cells == want[0]
        assert cost == want[1]  # exact: the same float sums in the same order


@settings(max_examples=100, deadline=None)
@given(maps_with_ends())
def test_move_table_lists_straight_then_diagonal_moves(case):
    """A* cannot tell the order of one cell's moves apart (its heap keys
    (f, h, cell) are distinct), so the table's order is checked here."""
    w, h, blocked, _, _ = case
    env = make_env(w, h, blocked)
    open_ = {(x, y) for x in range(w) for y in range(h)} - blocked
    keys = {c: c for c in env.moves}
    assert keys.keys() == open_
    for (x, y), (nbrs, costs) in env.moves.items():
        want = [((x + dx, y + dy), 1.0) for dx, dy in _STRAIGHT]
        want += [((x + dx, y + dy), SQRT2) for dx, dy in _DIAGONAL
                 if (x + dx, y) in open_ and (x, y + dy) in open_]
        assert list(zip(nbrs, costs)) == [(c, cost) for c, cost in want if c in open_]
        assert all(c is keys[c] for c in nbrs)  # paths share the table's tuples
