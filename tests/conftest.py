"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own fast paths: adjacency
is recomputed with an O(n^2) double loop, record structure with a plain
dict-of-lists session tracker, and shortest paths (in test_routing) with
Dijkstra.  Library results are always checked against these, never against
themselves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from contactmix.frames import TickFrame

# CI selects this with HYPOTHESIS_PROFILE=ci: the same examples on every run,
# and a failing bit-exact property prints the blob that replays it locally
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# --- brute-force adjacency oracle --------------------------------------------


def brute_force_pairs(ids, positions, radius):
    """All unordered pairs within radius, by checking every pair. O(n^2)."""
    out = []
    n = len(ids)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(positions[i], positions[j])
            if d <= radius:
                a, b = ids[i], ids[j]
                if a > b:
                    a, b = b, a
                out.append((int(a), int(b), d))
    return sorted(out)


def replay_records(frames, radius):
    """Recompute the full record list from a frame stream, the slow way.

    Returns a dict (id_a, id_b) -> list of dicts with start, last, duration
    and the raw per-tick distance list, in start order.  Session state is a
    plain dict; nothing is shared with the library implementation.
    """
    sessions: dict[tuple[int, int], dict] = {}
    done: dict[tuple[int, int], list[dict]] = {}

    def close(key):
        rec = sessions.pop(key)
        done.setdefault(key, []).append(rec)

    for frame in frames:
        here = {}
        for a, b, d in brute_force_pairs(frame.ids, frame.positions, radius):
            here[(a, b)] = d
        for key in list(sessions):
            if key not in here:
                close(key)
        for key, d in here.items():
            if key in sessions:
                rec = sessions[key]
                rec["last"] = frame.tick
                rec["duration"] += 1
                rec["distances"].append(d)
            else:
                sessions[key] = {
                    "start": frame.tick,
                    "last": frame.tick,
                    "duration": 1,
                    "distances": [d],
                }
    for key in list(sessions):
        close(key)
    return done


# --- output readers and counts ---------------------------------------------------


def matrix_from_csv(text):
    """Inverse of ContactMatrix.to_csv: (rows, cols, values, defined)."""
    lines = [ln for ln in text.splitlines() if ln]
    # an empty matrix serializes as a bare corner cell: header "," with no labels
    cols = [c for c in lines[0].split(",")[1:] if c]
    rows, vals, defined = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(parts[0])
        vals.append([float(p) if p else np.nan for p in parts[1:]])
        defined.append([bool(p) for p in parts[1:]])
    return rows, cols, np.array(vals, dtype=float), np.array(defined, dtype=bool)


def max_unique_contacts(n_a, n_b):
    """Largest possible number of distinct in-contact pairs across two groups."""
    if n_a < 0 or n_b < 0:
        raise ValueError("group sizes must be >= 0")
    return n_a * n_b + math.comb(n_a, 2) + math.comb(n_b, 2)


# --- golden 8-agent, 3-tick fixture -------------------------------------------

GOLDEN_TYPES = ("host", "green", "yellow", "blue")
GOLDEN_AGENTS = ("H", "G1", "G2", "Y1", "Y2", "B1", "B2", "B3")
GOLDEN_TYPE_OF = {
    "H": "host",
    "G1": "green",
    "G2": "green",
    "Y1": "yellow",
    "Y2": "yellow",
    "B1": "blue",
    "B2": "blue",
    "B3": "blue",
}
GOLDEN_IDS = {name: i for i, name in enumerate(GOLDEN_AGENTS)}


def _polar(r, degrees):
    a = math.radians(degrees)
    return (r * math.cos(a), r * math.sin(a))


# Hand-placed positions whose tick-by-tick adjacency (radius 2, inclusive)
# realizes the target contact pattern asserted below.  The host-G2 distance
# at tick 1 is exactly 2.0 to pin the inclusive boundary.
GOLDEN_POSITIONS = [
    {  # tick 0
        "H": (0.0, 0.0),
        "G1": (10.0, 10.0),
        "G2": (1.50, 0.0),
        "Y1": _polar(0.90, 45.0),
        "Y2": (-10.0, 10.0),
        "B1": _polar(1.00, -30.0),
        "B2": (11.5, 10.0),
        "B3": (8.5, 10.0),
    },
    {  # tick 1
        "H": (0.0, 0.0),
        "G1": (10.0, 10.0),
        "G2": (2.00, 0.0),
        "Y1": (-10.0, -10.0),
        "Y2": (3.80, 0.0),
        "B1": _polar(0.80, 45.0),
        "B2": (11.5, 10.0),
        "B3": _polar(1.75, -60.0),
    },
    {  # tick 2
        "H": (0.0, 0.0),
        "G1": (20.0, 20.0),
        "G2": (1.60, 0.0),
        "Y1": _polar(1.10, 35.0),
        "Y2": (25.0, 25.0),
        "B1": (12.0, 12.0),
        "B2": (13.0, 12.0),
        "B3": _polar(1.85, 65.0),
    },
]

# Achieved contact pattern: pair -> set of in-contact ticks.
GOLDEN_CONTACT_TICKS = {
    ("H", "G2"): {0, 1, 2},
    ("H", "Y1"): {0, 2},  # gap at tick 1: two separate records
    ("H", "B1"): {0, 1},
    ("H", "B3"): {1, 2},
    ("G1", "B2"): {0, 1},
    ("G1", "B3"): {0},
    ("G2", "Y1"): {0, 2},
    ("G2", "Y2"): {1},
    ("G2", "B1"): {0, 1},
    ("G2", "B3"): {1, 2},
    ("Y1", "B1"): {0},
    ("Y1", "B3"): {2},
    ("B1", "B2"): {2},
}

# Host-side per-tick distances the positions must realize (None = out of range).
GOLDEN_HOST_DISTANCES = {
    "G2": (1.50, 2.00, 1.60),
    "Y1": (0.90, None, 1.10),
    "B1": (1.00, 0.80, None),
    "B3": (None, 1.75, 1.85),
}

GOLDEN_RADIUS = 2.0


def golden_frames():
    frames = []
    for tick, by_name in enumerate(GOLDEN_POSITIONS):
        ids = np.array([GOLDEN_IDS[n] for n in GOLDEN_AGENTS], dtype=np.int64)
        type_ids = np.array(
            [GOLDEN_TYPES.index(GOLDEN_TYPE_OF[n]) for n in GOLDEN_AGENTS],
            dtype=np.int32,
        )
        pos = np.array([by_name[n] for n in GOLDEN_AGENTS], dtype=np.float64)
        frames.append(TickFrame(tick, ids, type_ids, pos, list(GOLDEN_TYPES)))
    return frames


def golden_trace_text(header=True):
    lines = ["tick,agent_id,type_name,x_m,y_m"] if header else []
    for tick, by_name in enumerate(GOLDEN_POSITIONS):
        for name in GOLDEN_AGENTS:
            x, y = by_name[name]
            lines.append(
                f"{tick},{GOLDEN_IDS[name]},{GOLDEN_TYPE_OF[name]},{x!r},{y!r}"
            )
    return "\n".join(lines) + "\n"


def test_golden_fixture_realizes_target_pattern():
    """The oracle check that licenses every downstream golden assertion.

    Brute-force adjacency of the hand-placed coordinates must equal the
    intended contact pattern tick for tick, and the host-side distances
    must hit the stated values exactly enough for exact mean checks.
    """
    for tick, by_name in enumerate(GOLDEN_POSITIONS):
        names = list(GOLDEN_AGENTS)
        ids = [GOLDEN_IDS[n] for n in names]
        pos = [by_name[n] for n in names]
        got = {
            (a, b) for a, b, _ in brute_force_pairs(ids, pos, GOLDEN_RADIUS)
        }
        want = set()
        for (na, nb), ticks in GOLDEN_CONTACT_TICKS.items():
            if tick in ticks:
                a, b = GOLDEN_IDS[na], GOLDEN_IDS[nb]
                want.add((min(a, b), max(a, b)))
        assert got == want, f"tick {tick}: adjacency {got} != target {want}"

    for name, dists in GOLDEN_HOST_DISTANCES.items():
        for tick, want in enumerate(dists):
            d = math.dist(GOLDEN_POSITIONS[tick]["H"], GOLDEN_POSITIONS[tick][name])
            if want is None:
                assert d > GOLDEN_RADIUS
            else:
                assert d == pytest.approx(want, abs=1e-12)

    # Prefix means of the host-G2 distance column: the running average
    # sequence the ledger must reproduce.
    g2 = GOLDEN_HOST_DISTANCES["G2"]
    means = [sum(g2[: k + 1]) / (k + 1) for k in range(3)]
    assert means == pytest.approx([1.50, 1.75, 1.70], abs=1e-12)


@dataclass(frozen=True)
class GoldenExpectation:
    """Aggregate targets implied by the contact pattern, computed by hand."""

    # host pair summaries: name -> (count, total duration, weighted mean distance)
    host_pairs = {
        "G2": (1, 3, 1.70),
        "Y1": (2, 2, 1.00),
        "B1": (1, 2, 0.90),
        "B3": (1, 2, 1.80),
    }
    # host x type row: type -> (count, duration, distance)
    host_by_type = {
        "green": (0.5, 1.5, 1.70),
        "yellow": (1.0, 1.0, 1.00),
        "blue": (2 / 3, 4 / 3, 1.35),
    }
    # type x type duration matrix, populations host 1, green 2, yellow 2, blue 3
    type_duration = {
        ("host", "host"): None,
        ("host", "green"): 1.5,
        ("host", "yellow"): 1.0,
        ("host", "blue"): 4 / 3,
        ("green", "green"): 0.0,
        ("green", "yellow"): 0.75,
        ("green", "blue"): 7 / 6,
        ("yellow", "yellow"): 0.0,
        ("yellow", "blue"): 1 / 3,
        ("blue", "blue"): 1 / 3,
    }


@pytest.fixture(scope="session")
def golden():
    return golden_frames()


@pytest.fixture(scope="session")
def golden_expect():
    return GoldenExpectation()


@pytest.fixture()
def golden_trace(tmp_path):
    path = tmp_path / "golden.csv"
    path.write_text(golden_trace_text(), encoding="utf-8")
    return path
