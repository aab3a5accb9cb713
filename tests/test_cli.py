import csv
import filecmp
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import contactmix.__main__
from contactmix import cli, contacts
from contactmix.cli import EXIT_FAULT, EXIT_INVALID, EXIT_IO, EXIT_OK, main
from contactmix.engine import SimConfig, Simulation
from contactmix.frames import ROWS
from contactmix.scenario import ScenarioError, parse_scenario

from conftest import GOLDEN_IDS, matrix_from_csv

MATRIX_FILES = [
    "agent_count.csv",
    "agent_duration.csv",
    "agent_distance.csv",
    "agent_by_type_count.csv",
    "agent_by_type_duration.csv",
    "agent_by_type_distance.csv",
    "type_count.csv",
    "type_duration.csv",
    "type_distance.csv",
    "effective_chunks.csv",
    "transmission_probability.csv",
    "hourly_series.csv",
]


def clinic_doc():
    # a small scenario of our own so tests do not depend on shipped data
    return {
        "map": {
            "cell_size_m": 1.0,
            "width": 10,
            "height": 6,
            "blocked": [],
            "locations": {
                "desk": {"cells": [[1, 1]], "capacity": 1},
                "room": {"cells": [[8, 4]], "capacity": None},
            },
        },
        "agent_types": [
            {
                "name": "staff",
                "population": 1,
                "workflow": [
                    {"kind": "goto", "location": "desk"},
                    {"kind": "dwell", "duration": {"kind": "constant", "value": 40}},
                    {"kind": "depart"},
                ],
            },
            {
                "name": "visitor",
                "population": 3,
                "arrival": {"start": 0, "interval": 4},
                "workflow": [
                    {"kind": "goto", "location": "desk"},
                    {"kind": "goto", "location": "room"},
                    {"kind": "dwell", "duration": {"kind": "constant", "value": 10}},
                    {"kind": "depart"},
                ],
            },
        ],
    }


@pytest.fixture
def clinic(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(clinic_doc()), encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_cell(path, row, col):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    j = header.index(col)
    for r in rows[1:]:
        if r[0] == row:
            return r[j]
    raise KeyError(row)


def test_run_writes_full_bundle(clinic, tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", clinic, "--seed", 1, "--ticks", 120,
                   "--out", out, "--export-frames")
    assert code == EXIT_OK
    for name in MATRIX_FILES + ["manifest.json", "bundle.json", "frames.csv"]:
        assert (out / name).is_file(), name
    with open(out / "frames.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "tick,agent_id,type_name,x_m,y_m"


def test_run_manifest_records_effective_parameters(clinic, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--scenario", clinic, "--seed", 7, "--ticks", 50,
            "--radius-m", 1.5, "--chunk-ticks", 30, "--base-p", 0.2,
            "--min-duration-ticks", 2, "--out", out)
    m = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert m["command"] == "run"
    assert m["seed"] == 7 and m["ticks"] == 50
    assert m["radius_m"] == 1.5 and m["chunk_ticks"] == 30
    assert m["base_p"] == 0.2 and m["min_duration_ticks"] == 2
    assert m["populations"] == {"staff": 1, "visitor": 3}
    assert m["bucket_ticks"] == 3600  # 1 s ticks
    assert m["export_frames"] is False
    assert m["agents"] == 4 and m["arrivals"] == 4


def test_run_is_deterministic_per_seed(clinic, tmp_path):
    outs = []
    for name, seed in (("a", 9), ("b", 9), ("c", 10)):
        out = tmp_path / name
        run_cli("run", "--scenario", clinic, "--seed", seed, "--ticks", 100,
                "--out", out, "--export-frames")
        outs.append(out)
    a, b, c = outs
    for name in MATRIX_FILES + ["manifest.json", "bundle.json", "frames.csv"]:
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    assert not filecmp.cmp(a / "frames.csv", c / "frames.csv", shallow=False)


def test_run_then_ingest_reproduces_matrices(clinic, tmp_path):
    sim_out = tmp_path / "sim"
    run_cli("run", "--scenario", clinic, "--seed", 4, "--ticks", 150,
            "--out", sim_out, "--export-frames")
    ing_out = tmp_path / "ing"
    code = run_cli("ingest-trace", "--trace", sim_out / "frames.csv",
                   "--tick-length-s", 1.0, "--out", ing_out)
    assert code == EXIT_OK
    for name in MATRIX_FILES:
        assert filecmp.cmp(sim_out / name, ing_out / name, shallow=False), name


# printable characters other than "," and ":": "Other" and "Separator"
# characters are not printable, the ASCII space excepted
TYPE_NAMES = st.text(
    st.characters(exclude_categories=("C", "Z"), exclude_characters=",:") | st.just(" "),
    min_size=1, max_size=6,
)


@given(names=st.lists(TYPE_NAMES, min_size=2, max_size=2, unique=True),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_any_accepted_type_names_replay_to_the_same_matrices(names, seed, tmp_path_factory):
    """Whatever type names a scenario may hold, its exported frames.csv
    replays through ingest-trace to the same matrices."""
    doc = clinic_doc()
    for spec, name in zip(doc["agent_types"], names):
        spec["name"] = name
    tmp = tmp_path_factory.mktemp("names")
    (tmp / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("run", "--scenario", tmp / "scenario.json", "--seed", seed, "--ticks", 60,
                   "--out", tmp / "sim", "--export-frames") == EXIT_OK
    assert run_cli("ingest-trace", "--trace", tmp / "sim" / "frames.csv",
                   "--out", tmp / "ing") == EXIT_OK
    for name in MATRIX_FILES:
        assert filecmp.cmp(tmp / "sim" / name, tmp / "ing" / name, shallow=False), name


def grouped_and_per_frame(monkeypatch, rows, argv, tmp_path):
    """Run ``argv`` with the ledger searching groups of about ``rows`` rows,
    then with each frame searched alone (one row per group); returns both
    exit codes, both output directories and the sizes of the groups
    searched in the first run."""
    groups = []
    search = contacts.pairs_within_frames

    def counted(frames, radius):
        groups.append(len(frames))
        return search(frames, radius)

    with monkeypatch.context() as mp:
        mp.setattr(contacts, "ROWS", rows)
        mp.setattr(contacts, "pairs_within_frames", counted)
        grouped = run_cli(*argv, "--out", tmp_path / "grouped")
    with monkeypatch.context() as mp:
        mp.setattr(contacts, "ROWS", 1)
        per_frame = run_cli(*argv, "--out", tmp_path / "per_frame")
    return grouped, per_frame, tmp_path / "grouped", tmp_path / "per_frame", groups


@pytest.mark.parametrize("rows", [5, 40, ROWS])
def test_grouped_run_writes_what_the_per_frame_observer_wrote(rows, clinic, monkeypatch,
                                                              tmp_path):
    ticks = 3 * ROWS if rows == ROWS else 150  # empty ticks are a row each
    argv = ["run", "--scenario", clinic, "--seed", 5, "--ticks", ticks, "--export-frames"]
    grouped, per_frame, a, b, groups = grouped_and_per_frame(monkeypatch, rows, argv, tmp_path)
    assert grouped == per_frame == EXIT_OK
    assert len(groups) >= 3 and sum(groups) == ticks
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("rows", [5, ROWS])
def test_a_run_that_faults_mid_group_leaves_the_same_frames(rows, monkeypatch, tmp_path, capsys):
    """The frames made before the fault reach frames.csv, as they did one by one."""
    def dwell(seconds):
        return {"kind": "dwell", "duration": {"kind": "constant", "value": seconds}}

    # the keeper ends its workflow holding P, which the visitor then waits for
    doc = {
        "map": {
            "cell_size_m": 1.0, "width": 12, "height": 6, "blocked": [],
            "locations": {
                "P": {"cells": [[2, 2]], "capacity": 1},
                "R": {"cells": [[9, 4]], "capacity": None},
            },
        },
        "agent_types": [
            {"name": "keeper", "population": 1, "workflow": [
                {"kind": "goto", "location": "R"}, dwell(20), {"kind": "goto", "location": "P"},
            ]},
            {"name": "visitor", "population": 1, "workflow": [
                {"kind": "goto", "location": "R"}, dwell(45), {"kind": "goto", "location": "P"},
                {"kind": "depart"},
            ]},
        ],
    }
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["run", "--scenario", path, "--ticks", 500, "--export-frames"]
    grouped, per_frame, a, b, groups = grouped_and_per_frame(monkeypatch, rows, argv, tmp_path)
    assert grouped == per_frame == EXIT_FAULT
    assert "has ended its workflow" in capsys.readouterr().err
    lines = (a / "frames.csv").read_text(encoding="utf-8").splitlines()[1:]
    frames = len({line.split(",")[0] for line in lines})
    # a fault reads no records, so the frames still queued are never searched:
    # fewer than a group's rows, so none with full-size groups
    assert frames > 40 and 0 <= frames - sum(groups) < rows
    assert len(groups) == 0 if rows == ROWS else len(groups) >= 3
    assert filecmp.cmp(a / "frames.csv", b / "frames.csv", shallow=False)


def test_zero_population_scenario(tmp_path):
    doc = {
        "map": {
            "cell_size_m": 1.0, "width": 4, "height": 4, "blocked": [],
            "locations": {"spot": {"cells": [[1, 1]], "capacity": None}},
        },
        "agent_types": [{
            "name": "ghost", "population": 0,
            "workflow": [{"kind": "goto", "location": "spot"}, {"kind": "depart"}],
        }],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", path, "--ticks", 10, "--out", out) == EXIT_OK
    rows, cols, values, _ = matrix_from_csv(
        (out / "agent_count.csv").read_text(encoding="utf-8"))
    assert rows == [] and cols == [] and values.size == 0
    # the declared type still appears, with an undefined diagonal (n < 2)
    assert read_cell(out / "type_count.csv", "ghost", "ghost") == ""


def test_unreachable_location_exits_2(tmp_path, capsys):
    doc = {
        "map": {
            "cell_size_m": 1.0, "width": 8, "height": 8,
            "blocked": [[3, 3], [3, 4], [3, 5], [4, 3], [4, 5], [5, 3], [5, 4], [5, 5]],
            "locations": {
                "lobby": {"cells": [[0, 0]], "capacity": None},
                "vault": {"cells": [[4, 4]], "capacity": None},
            },
        },
        "agent_types": [{
            "name": "walker", "population": 1,
            "workflow": [
                {"kind": "goto", "location": "lobby"},
                {"kind": "goto", "location": "vault"},
            ],
        }],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 20, "--out", tmp_path / "o")
    assert code == EXIT_FAULT
    err = capsys.readouterr().err
    assert "walker" in err and "vault" in err


def test_capacity_deadlock_exits_2(tmp_path, capsys):
    def walker(name, first, then):
        return {"name": name, "population": 1, "workflow": [
            {"kind": "queue", "location": first},
            {"kind": "goto", "location": then},
            {"kind": "depart"},
        ]}
    doc = {
        "map": {
            "cell_size_m": 1.0, "width": 12, "height": 6, "blocked": [],
            "locations": {
                "P": {"cells": [[2, 2]], "capacity": 1},
                "Q": {"cells": [[9, 2]], "capacity": 1},
            },
        },
        "agent_types": [walker("east", "P", "Q"), walker("west", "Q", "P")],
    }
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 2000, "--out", tmp_path / "o")
    assert code == EXIT_FAULT
    err = capsys.readouterr().err
    assert "deadlock" in err
    assert "agent 0 (east)" in err and "agent 1 (west)" in err
    assert "'P'" in err and "'Q'" in err


def test_waiting_on_an_idle_holder_exits_2(tmp_path, capsys):
    # agent 0's workflow ends at P, which it then holds for good
    doc = {
        "map": {
            "cell_size_m": 1.0, "width": 12, "height": 6, "blocked": [],
            "locations": {
                "P": {"cells": [[2, 2]], "capacity": 1},
                "R": {"cells": [[6, 4]], "capacity": None},
            },
        },
        "agent_types": [
            {"name": "keeper", "population": 1, "workflow": [{"kind": "goto", "location": "P"}]},
            {"name": "visitor", "population": 1, "workflow": [
                {"kind": "goto", "location": "R"},
                {"kind": "goto", "location": "P"},
                {"kind": "dwell", "duration": {"kind": "constant", "value": 3}},
                {"kind": "depart"},
            ]},
        ],
    }
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 2000, "--out", tmp_path / "o")
    assert code == EXIT_FAULT
    err = capsys.readouterr().err
    assert "agent 1 (visitor) holds no slot and waits for 'P'" in err
    assert "agent 0 (keeper) holds 'P' and has ended its workflow" in err


def test_malformed_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"map": {}}', encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 5, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a,b", "a:b"])
def test_type_name_with_a_separator_exits_1(name, clinic, tmp_path, capsys):
    """Names are written unquoted: a "," would split a CSV cell or trace line,
    and a ":" would make two hourly series labels collide."""
    doc = json.loads(clinic.read_text(encoding="utf-8"))
    doc["agent_types"][1]["name"] = name
    clinic.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", clinic, "--ticks", 5, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: agent_types[1]: name {name!r}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("blocked", [None, 5, True, 1e308, "", {}], ids=repr)
def test_blocked_cells_that_are_not_a_list_exit_1(blocked, tmp_path, capsys):
    """Once a TypeError traceback for null, a number or a bool, while "" and
    {} read as no blocked cells."""
    doc = clinic_doc()
    doc["map"]["blocked"] = blocked
    with pytest.raises(ScenarioError, match=r"^map\.blocked must be a list$"):
        parse_scenario(json.dumps(doc))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 5, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == "error: map.blocked must be a list\n"
    assert not (tmp_path / "o").exists()


FAST_RUN = """
import resource, sys
# 1 GiB of address space: a wall table that grew with the tick's travel
# would need gigabytes here, and fails at once instead of taking them
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))
from contactmix import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_very_fast_agent_type_runs(tmp_path):
    """A tick's travel at 1000 m/s crosses the map many times over; the wall
    table stops at the map's extent instead of growing with that travel."""
    doc = clinic_doc()
    for spec in doc["agent_types"]:
        spec["desired_speed"] = {"kind": "constant", "value": 1000.0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FAST_RUN, "run", "--scenario", str(path), "--ticks", "5",
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["arrivals"] == 3


SHIPPED_CLINIC = Path(__file__).resolve().parents[1] / "src" / "contactmix" / "data" / "clinic.json"


def shipped_clinic_at_speed(tmp_path, desired_speed):
    doc = json.loads(SHIPPED_CLINIC.read_text(encoding="utf-8"))
    for spec in doc["agent_types"]:
        spec["desired_speed"] = desired_speed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("desired_speed", [
    {"kind": "constant", "value": 1e308}, {"kind": "exponential", "mean": 1e308},
])
def test_a_speed_whose_substep_overflows_exits_1(desired_speed, tmp_path, capsys):
    """Once an IndexError traceback: the relaxation term overflowed to inf
    and the speed cap made the velocity NaN."""
    path = shipped_clinic_at_speed(tmp_path, desired_speed)
    code = run_cli("run", "--scenario", path, "--ticks", 60, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert re.match(r"error: agent_types\['patient'\]\.desired_speed: drew \S+e\+30[78] m/s", err), err
    assert not (tmp_path / "o").exists()


def test_a_huge_speed_that_fits_runs(tmp_path):
    path = shipped_clinic_at_speed(tmp_path, {"kind": "constant", "value": 1e200})
    code = run_cli("run", "--scenario", path, "--ticks", 60, "--out", tmp_path / "o")
    assert code == EXIT_OK


def shipped_clinic_with_radius(tmp_path, radius):
    doc = json.loads(SHIPPED_CLINIC.read_text(encoding="utf-8"))
    doc["agent_types"][0]["radius"] = radius  # the patients
    path = tmp_path / f"scenario-{radius!r}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("radius", [200, 1e3, 1e308, 2**63])
def test_a_radius_whose_forces_overflow_exits_1(radius, tmp_path, capsys):
    """Once a RuntimeWarning from np.exp and an IndexError traceback from
    containment, or at 1e308 a ValueError from the pair search."""
    path = shipped_clinic_with_radius(tmp_path, radius)
    code = run_cli("run", "--scenario", path, "--ticks", 40, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: agent_types['patient'].radius: "), err
    assert not (tmp_path / "o").exists()


def test_the_largest_accepted_radius_runs(tmp_path):
    doc = json.loads(SHIPPED_CLINIC.read_text(encoding="utf-8"))

    def accepted(radius):
        doc["agent_types"][0]["radius"] = radius
        try:
            Simulation(parse_scenario(json.dumps(doc)), SimConfig(ticks=40))
        except ScenarioError:
            return False
        return True

    lo, hi = 1.0, 200.0  # accepted, rejected
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in np.exp or after it
        code = run_cli("run", "--scenario", shipped_clinic_with_radius(tmp_path, lo),
                       "--ticks", 40, "--out", tmp_path / "o")
    assert code == EXIT_OK
    code = run_cli("run", "--scenario", shipped_clinic_with_radius(tmp_path, hi),
                   "--ticks", 40, "--out", tmp_path / "o2")
    assert code == EXIT_INVALID


# (where in the scenario document, key at fault): json reads NaN, Infinity
# and 1e999 as floats, and the integer 10**400 is beyond the float range
NUMERIC_FIELDS = {
    "cell_size_m": (lambda d: d["map"], "cell_size_m"),
    "anchor": (lambda d: d["map"]["locations"]["desk"].setdefault("anchor", [1.5, 1.5]), 0),
    "radius": (lambda d: d["agent_types"][0], "radius"),
    "desired_speed": (lambda d: d["agent_types"][0].setdefault(
        "desired_speed", {"kind": "constant", "value": 1.3}), "value"),
    "duration": (lambda d: d["agent_types"][0]["workflow"][1]["duration"], "value"),
    "tick_length_s": (lambda d: d.setdefault("defaults", {}), "tick_length_s"),
}


@pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
@pytest.mark.parametrize("value", [
    "NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="10**400"),
])
def test_non_finite_scenario_number_exits_1_naming_the_key(field, value, tmp_path, capsys):
    doc = clinic_doc()
    where, key = NUMERIC_FIELDS[field]
    where(doc)[key] = "@"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"@"', value), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 5, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and field in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("anchor", [[1e10, 1e10], [-1e10, 1.5], [1.5, 1e300]])
def test_anchor_beyond_the_float_range_in_cells_exits_1(anchor, tmp_path, capsys):
    """Finite numbers whose cell index (anchor / cell_size_m) is infinite."""
    doc = clinic_doc()
    doc["map"]["cell_size_m"] = 1e-300
    doc["map"]["locations"]["desk"]["anchor"] = anchor
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 5, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == (f"error: map.locations['desk']: anchor {anchor} "
                   "does not fall inside the location cells\n"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cell_size", [1e307, 1e300, 1e160])
def test_cell_size_whose_squared_map_extent_overflows_exits_1(cell_size, tmp_path, capsys):
    """Finite cell sizes too large for the engine's squared distances: once an
    OverflowError traceback (1e307), otherwise numpy overflow warnings."""
    doc = clinic_doc()
    doc["map"]["cell_size_m"] = cell_size
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 60, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: map.cell_size_m "), err
    assert not (tmp_path / "o").exists()


def test_a_large_cell_size_that_fits_runs_without_a_warning(tmp_path):
    """Tier-1 turns RuntimeWarning into an error, so a numpy overflow fails this."""
    doc = clinic_doc()
    doc["map"]["cell_size_m"] = 1e100
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 60, "--export-frames",
                   "--out", tmp_path / "o")
    assert code == EXIT_OK


def test_missing_scenario_file_exits_3(tmp_path):
    code = run_cli("run", "--scenario", tmp_path / "nope.json", "--ticks", 5,
                   "--out", tmp_path / "o")
    assert code == EXIT_IO


def test_ingest_golden_trace_matches_hand_values(golden_trace, golden_expect, tmp_path):
    out = tmp_path / "out"
    code = run_cli("ingest-trace", "--trace", golden_trace, "--out", out)
    assert code == EXIT_OK
    for (a, b), want in golden_expect.type_duration.items():
        got = read_cell(out / "type_duration.csv", a, b)
        if want is None:
            assert got == ""
        else:
            # cells are %.6g, so compare at that precision
            assert float(got) == pytest.approx(want, rel=1e-5, abs=1e-5)
    host_col = str(GOLDEN_IDS["H"])
    assert float(read_cell(out / "agent_duration.csv", str(GOLDEN_IDS["G2"]),
                           host_col)) == 3.0


def test_ingest_population_override_extends_universe(golden_trace, tmp_path):
    out = tmp_path / "out"
    code = run_cli("ingest-trace", "--trace", golden_trace,
                   "--populations", "blue=5,ghost=2", "--out", out)
    assert code == EXIT_OK
    m = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert m["populations"]["blue"] == 5
    assert m["populations"]["ghost"] == 2
    # never-observed type appears with all-zero interaction cells
    assert float(read_cell(out / "type_count.csv", "ghost", "host")) == 0.0
    assert float(read_cell(out / "type_count.csv", "ghost", "ghost")) == 0.0
    # larger denominator dilutes the per-pair rate: the host's two records
    # with blue agents average over 1 * 5 pairs instead of 1 * 3
    assert float(read_cell(out / "type_count.csv", "host", "blue")) == \
        pytest.approx(0.4, abs=1e-9)


def test_ingest_population_below_observed_exits_1(golden_trace, tmp_path, capsys):
    code = run_cli("ingest-trace", "--trace", golden_trace,
                   "--populations", "blue=2", "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert "blue" in capsys.readouterr().err


def test_ingest_bad_populations_syntax_exits_1(golden_trace, tmp_path, capsys):
    for spec in ("blue", "blue=abc", "=3", "blue=-1", "blue:red=3"):
        code = run_cli("ingest-trace", "--trace", golden_trace,
                       "--populations", spec, "--out", tmp_path / "o")
        assert code == EXIT_INVALID, spec
        capsys.readouterr()


def test_ingest_bad_populations_exits_1_before_reading_the_trace(tmp_path, capsys):
    """The trace is missing, which would exit 3: the bad value is found first."""
    code = run_cli("ingest-trace", "--trace", tmp_path / "nope.csv", "--populations", "bad",
                   "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == "error: bad --populations entry 'bad'; expected name=count\n"
    assert not (tmp_path / "o").exists()


def test_ingest_populations_type_given_twice_exits_1(golden_trace, tmp_path, capsys):
    """A second count for a type is an error, not a silent override."""
    code = run_cli("ingest-trace", "--trace", golden_trace,
                   "--populations", "blue=3,ghost=1,blue=5", "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == "error: --populations gives type 'blue' twice\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["a:b", "a\tb", "a\x7fb"])
def test_ingest_populations_type_name_rule(name, golden_trace, tmp_path, capsys):
    code = run_cli("ingest-trace", "--trace", golden_trace,
                   "--populations", f"{name}=3", "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith(
        f"error: bad --populations entry {name + '=3'!r}; type name {name!r} must ")
    assert not (tmp_path / "o").exists()


def test_ingest_populations_name_is_kept_as_written(tmp_path):
    """The count holds no "=", so an entry splits at its last one; spaces
    are part of a type name, as in the trace."""
    path = tmp_path / "trace.csv"
    path.write_text("0,1,a=b,0.0,0.0\n0,2, c ,1.0,0.0\n", encoding="utf-8")
    code = run_cli("ingest-trace", "--trace", path,
                   "--populations", "a=b=3, c =2", "--out", tmp_path / "o")
    assert code == EXIT_OK
    m = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    assert m["populations"] == {"a=b": 3, " c ": 2}
    assert read_cell(tmp_path / "o" / "type_count.csv", "a=b", " c ") == "0.166667"  # 1 / (3 * 2)


def test_ingest_tick_jump_names_line(tmp_path, capsys):
    path = tmp_path / "gap.csv"
    path.write_text(
        "tick,agent_id,type_name,x_m,y_m\n"
        "0,1,red,0.0,0.0\n"
        "2,1,red,1.0,0.0\n",
        encoding="utf-8",
    )
    code = run_cli("ingest-trace", "--trace", path, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert "line 3" in capsys.readouterr().err


def test_ingest_non_finite_position_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text(
        "tick,agent_id,type_name,x_m,y_m\n"
        "0,1,red,0.0,0.0\n"
        "0,2,red,nan,0.5\n",
        encoding="utf-8",
    )
    code = run_cli("ingest-trace", "--trace", path, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


REJECTED_TRACES = {
    "type change": ("0,1,red,0.0,0.0\n0,2,red,1.0,0.0\n1,1,red,0.0,0.0\n1,2,blue,1.0,0.0\n",
                    "error: tick 1: agent 2 changed type from 'red' to 'blue'"),
    "negative id": ("0,1,red,0.0,0.0\n0,-5,red,1.0,0.0\n",
                    "error: tick 0: agent -5 is outside the supported id range [0, 2^31)"),
    "id beyond 2^32": ("0,1,red,0.0,0.0\n1,4294967296,red,1.0,0.0\n",
                       "error: tick 1: agent 4294967296 is outside the supported id range"),
    # frames are searched in groups: a rejected frame still comes before a later bad line
    "type change, then a bad line": ("0,1,red,0.0,0.0\n1,1,blue,0.0,0.0\n2,1,red,x,0.0\n",
                                     "error: tick 1: agent 1 changed type from 'red' to 'blue'"),
    "id beyond int64": ("0,1,red,0.0,0.0\n0,99999999999999999999,red,1.0,0.0\n",
                        "error: line 3: agent_id '99999999999999999999' does not fit in 64 bits"),
    # ":" joins two type names in an hourly series label
    "colon in a type name": ("0,1,red,0.0,0.0\n0,2,a:b,1.0,0.0\n",
                             "error: line 3: type_name 'a:b' must not contain ':'"),
    # names are written unquoted, so every character must print as itself
    "tab in a type name": ("0,1,red,0.0,0.0\n1,2,a\tb,1.0,0.0\n",
                           "error: line 3: type_name 'a\\tb' must hold only printable characters"),
    "wide space in a type name": ("0,1,red,0.0,0.0\n0,2,a\u3000b,1.0,0.0\n",
                                  "error: line 3: type_name 'a\\u3000b' must hold only printable"),
    # written as the byte 0xff, which is not UTF-8
    "not UTF-8": ("0,1,red,0.0,0.0\n1,1,red\udcff,0.0,0.0\n",
                  "error: line 3: not valid UTF-8 text"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_TRACES))
def test_ingest_rejected_frame_exits_1_with_one_line(case, tmp_path, capsys):
    text, message = REJECTED_TRACES[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(("tick,agent_id,type_name,x_m,y_m\n" + text).encode("utf-8", "surrogateescape"))
    code = run_cli("ingest-trace", "--trace", path, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message)
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ingest_far_apart_points_warn_nothing(tmp_path):
    """Offsets near 2e300 m overflow when squared; such a pair is simply out of range."""
    path = tmp_path / "far.csv"
    path.write_text("0,1,red,1e300,1e300\n0,2,red,-1e300,1e300\n0,3,red,1e300,1e300\n"
                    "1,1,red,1e300,-1e300\n1,2,red,-1e300,1e300\n", encoding="utf-8")
    assert run_cli("ingest-trace", "--trace", path, "--out", tmp_path / "o") == EXIT_OK
    assert read_cell(tmp_path / "o" / "agent_count.csv", "1", "3") == "1"
    assert read_cell(tmp_path / "o" / "agent_count.csv", "1", "2") == "0"


def test_ingest_missing_trace_exits_3(tmp_path):
    code = run_cli("ingest-trace", "--trace", tmp_path / "nope.csv",
                   "--out", tmp_path / "o")
    assert code == EXIT_IO


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli("run", "--out", tmp_path / "o") == EXIT_INVALID  # no --scenario/--ticks
    assert run_cli("frobnicate") == EXIT_INVALID
    capsys.readouterr()


BAD_NUMBERS = [
    ("--tick-length-s", v) for v in ("0", "-1", "nan", "inf", "x", "1e-320")
] + [
    ("--radius-m", v) for v in ("0", "nan", "inf", "-inf")
] + [
    ("--base-p", v) for v in ("2", "-0.1", "nan", "inf")
] + [
    ("--chunk-ticks", v) for v in ("0", "-5", "1.5")
] + [
    ("--min-duration-ticks", "0"),
]


@pytest.mark.parametrize("command", ["run", "ingest-trace"])
@pytest.mark.parametrize("option, value", BAD_NUMBERS)
def test_bad_numeric_option_exits_1_at_parse_time(command, option, value, clinic, golden_trace,
                                                    tmp_path, capsys):
    out = tmp_path / "o"
    if command == "run":
        argv = ["run", "--scenario", clinic, "--ticks", 50]
    else:
        argv = ["ingest-trace", "--trace", golden_trace]
    code = run_cli(*argv, f"{option}={value}", "--out", out)
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"error: argument {option}:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ingest-trace"])
def test_tiny_tick_length_puts_the_run_in_one_bucket(command, clinic, golden_trace, tmp_path):
    """At 1e-300 s a tick, an hour is a bucket of about 3.6e303 ticks, far
    beyond int64: the whole run falls in bucket 0, as it does at 1e-3 s."""
    if command == "run":
        argv = ["run", "--scenario", clinic, "--ticks", 30]
    else:
        argv = ["ingest-trace", "--trace", golden_trace]
    series = []
    for tick in ("1e-300", "1e-3"):
        out = tmp_path / tick
        assert run_cli(*argv, "--tick-length-s", tick, "--out", out) == EXIT_OK
        m = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert m["bucket_ticks"] == round(3600 / float(tick))  # the caller's, not the clamped
        series.append((out / "hourly_series.csv").read_text(encoding="utf-8"))
    if command == "ingest-trace":  # the trace is the same; only the bucket length moved
        assert series[0] == series[1]
    assert series[0].count("\n") == 2  # the header and bucket 0


@pytest.mark.parametrize("command", ["run", "ingest-trace"])
def test_a_tick_length_too_short_for_an_hour_exits_1(command, clinic, golden_trace, tmp_path,
                                                      capsys):
    """At 1e-320 s a tick, 3600 / tick length overflows: once an OverflowError
    traceback, mid-run from a dwell (run) or after the whole trace
    (ingest-trace)."""
    if command == "run":
        argv = ["run", "--scenario", clinic, "--ticks", 30]
    else:
        argv = ["ingest-trace", "--trace", golden_trace]
    out = tmp_path / "o"
    assert run_cli(*argv, "--tick-length-s", "1e-320", "--out", out) == EXIT_INVALID
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == ["error: argument --tick-length-s: must be finite and > 0, with finitely "
                      "many ticks in an hour, got '1e-320'"]
    assert not out.exists()


def test_a_scenario_tick_length_too_short_for_an_hour_exits_1(tmp_path, capsys):
    doc = clinic_doc()
    doc["defaults"] = {"tick_length_s": 1e-320}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("run", "--scenario", path, "--ticks", 30, "--out", tmp_path / "o")
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == ("error: defaults.tick_length_s must be finite and > 0, "
                                       "with finitely many ticks in an hour\n")
    assert not (tmp_path / "o").exists()


def test_a_dwell_beyond_the_float_range_outlasts_the_run(tmp_path):
    """A 1e308 s dwell at 0.5 s ticks is more ticks than a float holds (once
    an OverflowError traceback mid-run); it runs as a 1e300 s dwell does."""
    bundles = []
    path = tmp_path / "scenario.json"  # one path: the manifest records it
    for seconds in (1e308, 1e300):
        doc = clinic_doc()
        doc["agent_types"][1]["workflow"][2]["duration"]["value"] = seconds
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"o{seconds}"
        argv = ["run", "--scenario", path, "--ticks", 120, "--tick-length-s", 0.5]
        assert run_cli(*argv, "--export-frames", "--out", out) == EXIT_OK
        bundles.append(sorted((f.name, f.read_bytes()) for f in out.iterdir()))
    assert bundles[0] == bundles[1]
    m = json.loads((tmp_path / "o1e+308" / "manifest.json").read_text(encoding="utf-8"))
    assert (m["arrivals"], m["departures"]) == (4, 1)  # the staff member; no visitor leaves


@pytest.mark.parametrize("option, value", [("--ticks", "-1"), ("--seed", "-1"), ("--ticks", "2.5")])
def test_bad_run_count_exits_1_at_parse_time(option, value, clinic, tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["run", "--scenario", clinic, "--ticks", 50, f"{option}={value}", "--out", out]
    assert run_cli(*argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"error: argument {option}:" in err and "Traceback" not in err
    assert not out.exists()


def console_command():
    """The installed ``contactmix`` script, else its source-tree equivalent.

    Without an install there is no script on PATH, so the ``[project.scripts]``
    target is resolved from pyproject.toml and reached through
    ``python -m contactmix`` with the source tree on PYTHONPATH.
    """
    script = shutil.which("contactmix")
    if script:
        return [script], None
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\s*^contactmix\s*=\s*"([\w.]+):(\w+)"', text, re.M)
    assert target, "pyproject.toml declares no contactmix script"
    module, func = target.groups()
    assert getattr(importlib.import_module(module), func) is contactmix.__main__.main
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", module.partition(".")[0]], env


def test_console_entry_point(clinic, tmp_path):
    out = tmp_path / "out"
    command, env = console_command()
    proc = subprocess.run(
        [*command, "run", "--scenario", str(clinic), "--ticks", "30",
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "type_count.csv").is_file()


TRACED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from contactmix import cli
out = sys.argv[3]
assert cli.main(["run", "--scenario", sys.argv[2], "--ticks", "30", "--export-frames",
                 "--out", out]) == 0
assert cli.main(["ingest-trace", "--trace", out + "/frames.csv", "--out", out + "/replay"]) == 0
print(tracer.counters["contacts.agent_ticks"])
"""


def test_benchmark_tracer_installs_and_traces_a_run(clinic, tmp_path):
    """``bench/tracing.py`` rebinds names in the package; a name it rebinds
    that is gone, or changed its call, fails here and not only in the benchmark."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "bench"), str(clinic), str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    frames = (tmp_path / "o" / "frames.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert int(float(proc.stdout)) == 2 * len(frames)  # each row seen by both ledgers


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
