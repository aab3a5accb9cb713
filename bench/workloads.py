"""Seeded inputs for the benchmark workloads.

Every workload is built from the benchmark's ``--seed`` alone; the program
under test only ever sees the files written here.  Sizes are fixed per
workload, so a different seed changes the details (door position, dwell
times, walk paths) but not the amount of work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CLINIC_SCENARIO = "src/contactmix/data/clinic.json"


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
SIZES = {
    "clinic": "clinic.json (14 agents), 900 ticks of 1 s, --export-frames",
    "crowd": "200 agents of 4 types, 36x20 cells, 150 ticks of 1 s",
    "sensor_trace": "240 wearers, 1800 ticks of 20 s (10 h), shifts and a random walk",
}

CLINIC_TICKS = 900

CROWD_AGENTS = 200
CROWD_TICKS = 150
CROWD_W, CROWD_H = 36, 20
CROWD_DOOR = 4  # doorway width in cells

TRACE_WEARERS = 240
TRACE_TICKS = 1800
TRACE_TICK_S = 20.0
TRACE_TYPES = ("nurse", "patient", "doctor", "admin")
TRACE_SIDE_M = 28.0  # square ward: about 3 wearers within 2 m of each
TRACE_STEP_M = 0.6  # per-tick random-walk step (standard deviation per axis)


# --- crowd -------------------------------------------------------------------


def _block(x0: int, y0: int, w: int, h: int) -> list[list[int]]:
    return [[x, y] for x in range(x0, x0 + w) for y in range(y0, y0 + h)]


def _dwell(lo: float, hi: float) -> dict:
    return {"kind": "dwell", "duration": {"kind": "uniform", "min": lo, "max": hi}}


def crowd_scenario(seed: int) -> dict:
    """Two rooms split by a wall with one doorway; four types shuttle between them.

    One capacity-limited desk in the right room is reached through ``queue``.
    Each type cycles until the horizon, so every agent keeps routing.
    """
    rng = np.random.default_rng([seed, 1])
    wall_x = CROWD_W // 2
    door_y = int(rng.integers(3, CROWD_H - CROWD_DOOR - 3))
    blocked = [[wall_x, y] for y in range(CROWD_H) if not door_y <= y < door_y + CROWD_DOOR]

    def at(x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> tuple[int, int]:
        return int(rng.integers(x_lo, x_hi + 1)), int(rng.integers(y_lo, y_hi + 1))

    # Corner ranges keep every location clear of the others and of the wall.
    lx, ly = at(2, 12, 2, 6)
    bx, by = at(2, 13, 11, 15)
    ax, ay = at(wall_x + 3, wall_x + 12, 2, 6)
    ox, oy = at(wall_x + 3, wall_x + 7, 11, 15)
    dx, dy = at(wall_x + 11, wall_x + 14, 12, 16)

    locations = {
        "lobby": {"cells": _block(lx, ly, 4, 3), "capacity": None},
        "benches": {"cells": _block(bx, by, 3, 3), "capacity": None},
        "lab": {"cells": _block(ax, ay, 4, 3), "capacity": None},
        "lounge": {"cells": _block(ox, oy, 3, 3), "capacity": None},
        "desk": {"cells": _block(dx, dy, 2, 1), "capacity": 2},
    }

    per_type = CROWD_AGENTS // 4
    forever = CROWD_TICKS + 1
    types = [
        ("visitor", "lobby", [("lab", 8, 20), ("lobby", 5, 15)]),
        ("staff", "lounge", [("benches", 8, 20), ("lounge", 5, 15)]),
        ("porter", "benches", [("lab", 4, 10), ("lounge", 4, 10), ("benches", 4, 10)]),
        ("courier", "lobby", [("desk", 2, 6), ("lobby", 5, 15)]),
    ]
    agent_types = []
    for name, home, legs in types:
        body = []
        for loc, lo, hi in legs:
            if loc == "desk":
                body.append({"kind": "queue", "location": "desk"})
            body.append({"kind": "goto", "location": loc})
            body.append(_dwell(float(lo), float(hi) + float(rng.uniform(0.0, 5.0))))
        agent_types.append({
            "name": name,
            "population": per_type,
            "arrival": {"start": int(rng.integers(0, 4)), "interval": 1},
            "desired_speed": {"kind": "uniform", "min": 1.1, "max": 1.5},
            "workflow": [
                {"kind": "goto", "location": home},
                _dwell(1.0, 6.0),
                {"kind": "cycle", "until_tick": forever, "steps": body},
            ],
        })
    return {
        "map": {
            "cell_size_m": 1.0,
            "width": CROWD_W,
            "height": CROWD_H,
            "blocked": blocked,
            "locations": locations,
        },
        "agent_types": agent_types,
        "defaults": {"tick_length_s": 1.0},
    }


# --- sensor trace ------------------------------------------------------------


def write_sensor_trace(path: Path, seed: int) -> int:
    """Write a badge-style trace; returns the number of agent lines.

    Each wearer is on site for one shift (a contiguous run of ticks) and
    random-walks inside a square ward, reflecting at the walls.  Positions
    are written with centimetre resolution, as sensor exports are.
    """
    rng = np.random.default_rng([seed, 2])
    n, t_max, side = TRACE_WEARERS, TRACE_TICKS, TRACE_SIDE_M
    type_of = rng.integers(0, len(TRACE_TYPES), size=n)
    length = rng.integers(t_max // 2, t_max + 1, size=n)
    start = (rng.random(n) * (t_max - length + 1)).astype(np.int64)
    stop = start + length
    pos = rng.uniform(0.0, side, size=(n, 2))
    ids = np.arange(n)
    lines = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick,agent_id,type_name,x_m,y_m\n")
        for tick in range(t_max):
            pos += rng.normal(0.0, TRACE_STEP_M, size=(n, 2))
            pos = np.abs(pos)  # reflect at 0
            pos = side - np.abs(side - pos)  # reflect at side
            here = ids[(start <= tick) & (tick < stop)]
            if len(here) == 0:
                fh.write(f"{tick},,,,\n")
                continue
            fh.write("".join(
                f"{tick},{i},{TRACE_TYPES[type_of[i]]},{x:.2f},{y:.2f}\n"
                for i, x, y in zip(here.tolist(), *pos[here].T.tolist())
            ))
            lines += len(here)
    return lines


# --- per-workload input set ------------------------------------------------------


def prepare(name: str, seed: int, work: Path) -> tuple[list[str], int | None]:
    """Write the workload's inputs under ``work``; return (CLI argv without --out, agent-ticks).

    Agent-ticks is None for ``clinic``, whose agents leave at seeded times;
    the benchmark counts it from the exported frames instead.
    """
    if name == "clinic":
        argv = ["run", "--scenario", CLINIC_SCENARIO, "--seed", str(seed),
                "--ticks", str(CLINIC_TICKS), "--export-frames"]
        return argv, None
    if name == "crowd":
        doc = crowd_scenario(seed)
        path = work / "crowd.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        argv = ["run", "--scenario", str(path), "--seed", str(seed),
                "--ticks", str(CROWD_TICKS)]
        # nobody departs (every workflow cycles past the horizon), so each
        # agent is present from its arrival tick to the end
        agent_ticks = sum(
            max(0, CROWD_TICKS - (t["arrival"]["start"] + i * t["arrival"]["interval"]))
            for t in doc["agent_types"]
            for i in range(t["population"])
        )
        return argv, agent_ticks
    if name == "sensor_trace":
        path = work / "trace.csv"
        lines = write_sensor_trace(path, seed)
        argv = ["ingest-trace", "--trace", str(path), "--tick-length-s", str(TRACE_TICK_S)]
        return argv, lines
    raise KeyError(name)
