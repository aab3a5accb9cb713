"""Acceptance gate: one numbered test per shipped guarantee.

Each test prints one ``criterion N: PASS`` line (visible with ``pytest -s``);
a failure reads as the criterion number plus the violated bound.  Run just
this file for a release check:

    pytest tests/test_acceptance.py -v -s
"""

import csv
import filecmp
import json
import math
import time

import numpy as np
import pytest

from contactmix.aggregate import transmission_probability
from contactmix.aggregate import ContactMatrix
from contactmix.cli import EXIT_OK, main
from contactmix.contacts import ContactConfig, ContactLedger, pairs_within
from contactmix.engine import SimConfig, run
from contactmix.frames import TickFrame
from contactmix.report import build_matrices
from contactmix.scenario import load_scenario, parse_scenario

from conftest import GOLDEN_IDS, max_unique_contacts

CLINIC = "src/contactmix/data/clinic.json"


def _cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return {
        (r[0], header[j]): r[j]
        for r in rows[1:]
        for j in range(1, len(header))
    }


def _num(cells, row, col):
    v = cells[(str(row), str(col))]
    return None if v == "" else float(v)


# --- criterion 1: golden three-tick fixture ----------------------------------------


def test_criterion_01_golden_fixture_values(golden_trace, golden_expect, tmp_path):
    out = tmp_path / "bundle"
    t0 = time.perf_counter()
    assert main(["ingest-trace", "--trace", str(golden_trace), "--out", str(out)]) == EXIT_OK
    elapsed = time.perf_counter() - t0

    count = _cells(out / "agent_count.csv")
    dur = _cells(out / "agent_duration.csv")
    dist = _cells(out / "agent_distance.csv")
    host = GOLDEN_IDS["H"]
    # exact host-pair values: (records, ticks, meters)
    expected = {
        "G2": (1, 3, 1.70),
        "Y1": (2, 2, 1.00),
        "B1": (1, 2, 0.90),
        "B3": (1, 2, 1.80),
    }
    for name, (c, d, m) in expected.items():
        other = GOLDEN_IDS[name]
        assert _num(count, host, other) == c, f"count host-{name}"
        assert _num(dur, host, other) == d, f"duration host-{name}"
        assert _num(dist, host, other) == pytest.approx(m, abs=1e-6), f"distance host-{name}"

    # host row of the agent-by-type matrices, +-0.01
    bt_count = _cells(out / "agent_by_type_count.csv")
    bt_dur = _cells(out / "agent_by_type_duration.csv")
    bt_dist = _cells(out / "agent_by_type_distance.csv")
    by_type = {
        "green": (0.5, 1.5, 1.70),
        "yellow": (1.0, 1.0, 1.00),
        "blue": (0.67, 1.33, 1.35),
    }
    for t, (c, d, m) in by_type.items():
        assert _num(bt_count, host, t) == pytest.approx(c, abs=0.01), f"count host x {t}"
        assert _num(bt_dur, host, t) == pytest.approx(d, abs=0.01), f"duration host x {t}"
        assert _num(bt_dist, host, t) == pytest.approx(m, abs=0.01), f"distance host x {t}"

    # full type x type duration matrix, +-0.01, including the undefined
    # single-member diagonal and blue-blue = 1/3 (not the rounded 0.34)
    td = _cells(out / "type_duration.csv")
    for (a, b), want in golden_expect.type_duration.items():
        got = _num(td, a, b)
        if want is None:
            assert got is None, f"({a},{b}) should be undefined"
        else:
            assert got == pytest.approx(want, abs=0.01), f"({a},{b})"
    assert _num(td, "blue", "blue") == pytest.approx(1.0 / 3.0, abs=0.01)

    assert elapsed < 1.0, f"golden ingest took {elapsed:.2f} s"
    print(f"criterion 1: PASS - golden fixture values reproduced in {elapsed * 1000:.0f} ms")


# --- criterion 2: pair-universe identity -------------------------------------------


def test_criterion_02_pair_universe_identity():
    t0 = time.perf_counter()
    for n_a in range(51):
        for n_b in range(51):
            assert max_unique_contacts(n_a, n_b) == math.comb(n_a + n_b, 2), (n_a, n_b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS - 2601 exact identities in {elapsed * 1000:.0f} ms")


# --- criteria 3 and 7: twenty random mixing runs ------------------------------------


def _mixing_scenario():
    rooms = {
        "north": {"cells": [[x, 24] for x in range(8, 24)], "capacity": None},
        "south": {"cells": [[x, 4] for x in range(8, 24)], "capacity": None},
        "east": {"cells": [[26, y] for y in range(10, 20)], "capacity": None},
        "west": {"cells": [[3, y] for y in range(10, 20)], "capacity": None},
    }
    hubs = ["north", "south", "east", "west"]
    types = []
    for i, name in enumerate(["alpha", "beta", "gamma", "delta"]):
        home, away = hubs[i], hubs[(i + 2) % 4]
        types.append({
            "name": name,
            "population": 25,
            "arrival": {"start": 0, "interval": 1},
            "workflow": [
                {"kind": "goto", "location": home},
                {"kind": "cycle", "until_tick": 880, "steps": [
                    {"kind": "goto", "location": away},
                    {"kind": "dwell", "duration": {"kind": "uniform", "min": 10, "max": 40}},
                    {"kind": "goto", "location": home},
                    {"kind": "dwell", "duration": {"kind": "uniform", "min": 10, "max": 40}},
                ]},
                {"kind": "depart"},
            ],
        })
    doc = {
        "map": {"cell_size_m": 1.0, "width": 30, "height": 30, "blocked": [],
                "locations": rooms},
        "agent_types": types,
    }
    return parse_scenario(json.dumps(doc))


TICKS = 1000


@pytest.fixture(scope="module")
def mixing_runs():
    """Twenty seeded runs: 100 agents, 4 types, 1000 ticks each."""
    scenario = _mixing_scenario()
    out = []
    for seed in range(20):
        ledger = ContactLedger(ContactConfig(effective_radius=2.0))
        run(scenario, SimConfig(ticks=TICKS, seed=seed, physics_substeps=3),
            ledger.observe)
        ledger.finalize(TICKS - 1)
        out.append(build_matrices(ledger, scenario.populations))
    return out


def test_criterion_03_symmetry_suite(mixing_runs):
    for i, matrices in enumerate(mixing_runs):
        for metric in ("count", "duration", "distance"):
            assert matrices[f"type_{metric}"].is_symmetric(), (i, metric)
            assert matrices[f"agent_{metric}"].is_symmetric(), (i, metric)
    print("criterion 3: PASS - 20 runs, type and agent matrices exactly symmetric")


def test_criterion_07_count_and_duration_bounds(mixing_runs):
    cap = math.ceil(TICKS / 2)
    pairs = 0
    for matrices in mixing_runs:
        count = matrices["agent_count"]
        dur = matrices["agent_duration"]
        assert count.values[count.defined].max(initial=0.0) <= cap
        assert dur.values[dur.defined].max(initial=0.0) <= TICKS
        pairs += int(count.defined.sum())
    print(f"criterion 7: PASS - bounds held over {pairs} pair cells "
          f"(count <= {cap}, duration <= {TICKS})")


# --- criterion 4: neighbor-search oracle --------------------------------------------


def test_criterion_04_grid_matches_brute_force():
    rng = np.random.default_rng(424242)
    n = 200
    ids = np.arange(n, dtype=np.int64)
    radius = 2.0
    checked = 0
    for _ in range(1000):
        pos = rng.uniform(0.0, 30.0, size=(n, 2))
        a, b, d = pairs_within(ids, pos, radius)
        # independent quadratic oracle: full distance matrix, upper triangle
        full = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        i, j = np.nonzero(np.triu(full <= radius, k=1))
        assert np.array_equal(a, i) and np.array_equal(b, j)
        np.testing.assert_allclose(d, full[i, j], atol=1e-9, rtol=0.0)
        checked += len(a)
    print(f"criterion 4: PASS - 1000 frames, {checked} pairs identical to brute force")


# --- criterion 5: determinism --------------------------------------------------------


def test_criterion_05_run_determinism(tmp_path):
    def go(seed, name):
        out = tmp_path / name
        assert main(["run", "--scenario", CLINIC, "--seed", str(seed),
                     "--ticks", "600", "--out", str(out), "--export-frames"]) == EXIT_OK
        return out

    a, b, c = go(42, "a"), go(42, "b"), go(43, "c")
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    assert not filecmp.cmp(a / "frames.csv", c / "frames.csv", shallow=False)
    print(f"criterion 5: PASS - seed 42 twice byte-identical ({len(names)} files); "
          "seed 43 diverges")


# --- criterion 6: compound transmission probability ---------------------------------


def test_criterion_06_probability_grid():
    f_axis = np.linspace(0.0, 10.0, 20)
    p_axis = np.linspace(0.0, 1.0, 20)
    chunks = ContactMatrix(
        "type", "chunks", ["r"], [f"f{i}" for i in range(20)],
        f_axis.reshape(1, 20), np.ones((1, 20), dtype=bool),
    )
    grid = np.vstack([
        transmission_probability(chunks, p).values[0] for p in p_axis
    ])
    assert np.all(grid >= 0.0) and np.all(grid <= 1.0)
    assert np.all(grid[0, :] == 0.0)  # p = 0
    assert np.all(grid[:, 0] == 0.0)  # f = 0
    assert np.all(np.diff(grid, axis=0) >= -1e-12)
    assert np.all(np.diff(grid, axis=1) >= -1e-12)
    print("criterion 6: PASS - 20x20 (p, f) grid in [0,1], nondecreasing, zero edges")


# --- criterion 8: detection throughput ----------------------------------------------


def test_criterion_08_throughput():
    rng = np.random.default_rng(7)
    n, ticks = 5000, 120
    ids = np.arange(n, dtype=np.int64)
    type_ids = (ids % 4).astype(np.int64)
    names = ["a", "b", "c", "d"]
    pos = rng.uniform(0.0, 100.0, size=(n, 2))
    frames = []
    for t in range(ticks):
        pos = np.clip(pos + rng.normal(0.0, 0.3, size=(n, 2)), 0.0, 100.0)
        frames.append(TickFrame(t, ids, type_ids, pos.copy(), names))

    best = math.inf
    for _ in range(3):
        ledger = ContactLedger(ContactConfig(effective_radius=2.0))
        t0 = time.perf_counter()
        for f in frames:
            ledger.observe(f)
        ledger.finalize(ticks - 1)
        best = min(best, time.perf_counter() - t0)
    rate = n * ticks / best
    # soft target 1e6 agent-ticks/s; the hard floor only catches regressions
    assert rate >= 3e5, f"throughput regressed to {rate:.0f} agent-ticks/s"
    verdict = "meets" if rate >= 1e6 else "below"
    print(f"criterion 8: PASS - {rate / 1e6:.2f}M agent-ticks/s "
          f"({verdict} the 1e6 soft target on this machine)")


# --- qualitative review of the shipped clinic ---------------------------------------


def test_clinic_matrix_sanity():
    scenario = load_scenario(CLINIC)
    ledger = ContactLedger(ContactConfig(effective_radius=2.0))
    run(scenario, SimConfig(ticks=1200, seed=42), ledger.observe)
    ledger.finalize(1199)
    matrices = build_matrices(ledger, scenario.populations)

    for metric in ("count", "duration", "distance"):
        m = matrices[f"type_{metric}"]
        assert m.is_symmetric()
        assert np.all(m.values[m.defined] >= 0.0)

    dur = matrices["type_duration"]
    # single-member roles have no within-type pair
    assert dur.cell("clerk", "clerk") is None
    assert dur.cell("physician", "physician") is None
    # role geography: patients share the waiting room, meet the clerk at
    # reception, and see nurses only at the bedside; the clerk never leaves
    # the front desk so clerk-nurse stays empty
    assert dur.cell("patient", "patient") > 0
    assert dur.cell("patient", "clerk") > 0
    assert dur.cell("patient", "patient") > dur.cell("patient", "nurse") > 0
    assert dur.cell("nurse", "nurse") > dur.cell("patient", "patient")
    assert dur.cell("clerk", "nurse") == 0.0
    print("clinic sanity: PASS - nonnegative, symmetric, role orderings plausible")
