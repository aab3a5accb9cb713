"""Shortest paths on the walkable-cell grid.

A* (Hart, Nilsson & Raphael 1968) over the map's move table,
``EnvironmentMap.moves``: 8-connected moves, straight steps costing 1 and
diagonal steps sqrt(2), a diagonal only when both adjacent straight cells
are walkable, so paths never clip the corner of a blocked cell.
"""

from __future__ import annotations

import heapq
import math

from .scenario import SQRT2, EnvironmentMap


class NoRouteError(RuntimeError):
    """No walkable path exists between two cells."""

    def __init__(self, start: tuple[int, int], goal: tuple[int, int], detail: str = ""):
        self.start = start
        self.goal = goal
        msg = f"no route from cell {start} to cell {goal}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


def _octile(a: tuple[int, int], b: tuple[int, int]) -> float:
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return (dx + dy) + (SQRT2 - 2.0) * min(dx, dy)


def shortest_cell_path(
    env: EnvironmentMap, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[list[tuple[int, int]], float]:
    """A* from start to goal; returns (cells including both ends, cost)."""
    for cell, label in ((start, "start"), (goal, "goal")):
        if not env.walkable(cell):
            raise NoRouteError(start, goal, f"{label} cell {cell} is not walkable")
    if start == goal:
        return [start], 0.0

    moves = env.moves
    g: dict[tuple[int, int], float] = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    # Ties broken on (f, h, cell) so expansion order is fully deterministic.
    open_heap = [(_octile(start, goal), _octile(start, goal), start)]
    closed: set[tuple[int, int]] = set()

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
        g_cell = g[cell]
        for nxt, step in zip(*moves[cell]):
            cost = g_cell + step
            if cost < g.get(nxt, math.inf):
                g[nxt] = cost
                parent[nxt] = cell
                h = _octile(nxt, goal)
                heapq.heappush(open_heap, (cost + h, h, nxt))

    raise NoRouteError(start, goal)


def plan_route(
    env: EnvironmentMap, start: tuple[int, int], goal: tuple[int, int]
) -> list[tuple[float, float]]:
    """Waypoints (cell centers, meters) along the cheapest path start -> goal."""
    cells, _ = shortest_cell_path(env, start, goal)
    return [env.cell_center(c) for c in cells]
