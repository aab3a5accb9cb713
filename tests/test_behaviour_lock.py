"""Behaviour lock: sha256 digests of simulation output, pinned across changes.

Determinism within one process is checked elsewhere; these digests pin the
exact bytes a seeded run produces, so a change that claims to keep behaviour
(a refactor, a faster neighbour search) must leave them unchanged.  A change
that alters output on purpose re-pins them and says why in CHANGES.md.

The ingest digests cover ``ingest-trace`` on a generated trace that takes
the grid detection path (more than 128 wearers), spans several hour buckets
with records crossing bucket edges, and lists wearers in an order that is
not id order (agent-by-type rows follow first appearance).

The crowd digests cover ``run`` on a two-room doorway map with 200 agents,
so the engine's agent-agent search takes the grid path (more than 128
agents present) and a capacity-limited desk keeps a queue going.

Regenerate with ``python tests/test_behaviour_lock.py`` (``PYTHONPATH=src``)
and paste the printed dictionaries over the pinned ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from contactmix import engine
from contactmix.cli import EXIT_OK, main
from contactmix.contacts import ContactConfig, ContactLedger
from contactmix.engine import SimConfig, run

from test_acceptance import _mixing_scenario

CLINIC = Path(__file__).resolve().parents[1] / "src" / "contactmix" / "data" / "clinic.json"

CLINIC_DIGESTS = {
    "agent_by_type_count.csv": "ceb4d7de2a84f3eb2aa0688ec245c2d5536676a773d16479d1684bc40ed6bf2c",
    "agent_by_type_distance.csv": "c4d6c80c5c7ac7d82dedd8480571275589407c8e57242cef8ec66a1ad34a917c",
    "agent_by_type_duration.csv": "a1391c712acb48a987eacd50bd96e332ac922203ed228549c3dd392208839ace",
    "agent_count.csv": "72c0674e7bcdc6ba4af9b34d61d95137edc0bffee3a08da492ef7896240ce73a",
    "agent_distance.csv": "069307c4c686753b33c9275b8c6ac422b74c447fc54d479eda153281fa6dfd77",
    "agent_duration.csv": "5206f63578a609aaf9d9e6f1fbd27f70e93908a80522123f47232f01b54aaed4",
    "bundle.json": "d4252409833448430c09b128430ab763aaece7346ab415efd06d3a9553cde162",
    "effective_chunks.csv": "6cdac35b1612cff61b02db7d5d43bfac1f1a7cbb7272918bd08ec38c6c24491c",
    "frames.csv": "cdb5947cca30bc67671b54d186850d87d91ab4298e60d0b40edc04059b63a26d",
    "hourly_series.csv": "7e484045752e2377bba0c4dfeb7774e5b59fc88fb1432e4a5044580bf423362f",
    "manifest.json": "bdd7089de116a28fe33bf6f9b213cd897a6640e321d58c9c648afca587e16133",
    "transmission_probability.csv": "bc66d0271242d991f90d9eece88b5db4928a76e7311f08b4ee576dc43f8d94fb",
    "type_count.csv": "43178ef2bdcecd497314fcc0f15689494b6022e5f8f463f48d1f161065201132",
    "type_distance.csv": "29342ca41cd2c45e6c9b04ea448f56716cfe96892f3ed3240b448375b76954cc",
    "type_duration.csv": "c4f5c57a27acc42b7d40174fd827edea4efaad0c33d23615f5ab9c09c04a1f10",
}

MIXING_DIGESTS = {
    "dist_sum": "2b853758f32aa191ef658a85f8b56518ef5664aadea44215a584a8f8849e01c9",
    "duration": "d052b9589252ccd4b198fb5e43a24bea48888d7fc5407ba4bf3a539e2f95fd5d",
    "id_a": "402e5cc92dfa43a360bf2022d3367aebf03e8f98f7dd7f26e0086503cd036d85",
    "id_b": "50eebafcc9bc858aac5f8c9cd5792f06eb1f1c41d75e16f0e2f5bf1cf6a32d75",
    "last": "766a99ed5d6f05c0363fa360d888378ce71832c7184d07188baeb50b310dc58c",
    "open": "16a3b4b3e40ff4a66a8b714105f8c7ff564755cbf3188dfd2ceb9dd29f26795f",
    "start": "bc2100e919506574fce09ddabf3385c12a1becf985f3f44382e5799227f0f827",
    "type_a": "099d00b378b7cc7744c718b7be99ac82ccf099ce712f66bb481d29502badbf3b",
    "type_b": "dc4b583453f5b67d3fc994056928f78c5a4ce3bc4c1ea8680f3ca2ff2fc3424c",
}


INGEST_DIGESTS = {
    "agent_by_type_count.csv": "47b5a25564e5551692b3696e77854d184224533f8f73eecfe9a33e0584902521",
    "agent_by_type_distance.csv": "3574dd01cd5855c36e5f2fd710720a008a19d6ffeded0e6007ea635083295d4c",
    "agent_by_type_duration.csv": "209d409c1ed3e7f6c2178c0416d770ff5a01b89d81f26ea6a799a30a6f2d3e42",
    "agent_count.csv": "597fee7e05cb974741b3fdb844b79b336cafe07b14d61f7947965528bdcafb6a",
    "agent_distance.csv": "06fb2fbe0e00c8c41863f8e8881ed961d844f808a499a906c1cce7c9d867e5d0",
    "agent_duration.csv": "6ce668bfc642d7b070e21e2b02f8690fc5b7186cde1fc7578c6c29152cf7271d",
    "bundle.json": "4aeb45b1f1e18fc81092d91a25e68618c18c5ecc61754157db3050645fbd1d9f",
    "effective_chunks.csv": "7a3a49e0b29a30849dfd18ecaf776a334523cd5346d33daf91bf091392880182",
    "hourly_series.csv": "ba0125d1666873cb77156cf1208cdf1c339cac1f27849fef1a0ae62ee45074f6",
    "manifest.json": "507d6b5bbd90865d7de376d897ee3535aa5cc265e15fa040c1c02c4ca6f83a82",
    "trace.csv": "17537951b3cb3735a9ae83d8f8f043eb654cb45511e57956b01a95a59d0f1734",
    "transmission_probability.csv": "4c95bdee0f55e846e4a77e33d9e6e29ca1c3c0976ad6d79aa1be6ab279e38b98",
    "type_count.csv": "05a364e24ed2fbda80c6faee693b81c0e4bdacf154951b7ad2c27568695e6cb0",
    "type_distance.csv": "bfa1f58d71c3c2430966b36f65dfcc123193cada3e37988f44d323da7b70f04c",
    "type_duration.csv": "be92136dbdb5e194a2187de5212da8a3b6ad2fd4d02ae68f9a8b6a200f9296b8",
}

CROWD_DIGESTS = {
    "agent_by_type_count.csv": "26f8097a7b110332b741ef9dbb96d7844cd5396e61f22d09897df66e3dd3c8b2",
    "agent_by_type_distance.csv": "749b515f5e564d013b6c2ccea80edbe2df5a4d61f6fa78117a9bd7f7837591b3",
    "agent_by_type_duration.csv": "720d2b97260e3a9025f53733848f3c5399586b9ac6cfb8d7257f3217158e5e2a",
    "agent_count.csv": "88b421eda0661ec179d16996f9ddd16ca38a6e1db1fd5daa0770c123c66de7c7",
    "agent_distance.csv": "27efe93357e0de40b3e1a546b47ca49d5b869ef33fcc384fb0b181dee392ee13",
    "agent_duration.csv": "4ae5bc133d65f7c198bae2b70507b97c174f8c74457453205efeb65493ea0c2f",
    "bundle.json": "7eaf9fe6234a2d6758c9f30545ee3496a2ec05db93487435b1d309e1505a503b",
    "effective_chunks.csv": "6fc1641bc0595d8a550fe39d0c22e803c1d390bfda56d3ec29337230e4497abd",
    "hourly_series.csv": "b32836c574f2aff9634c384e4bec8ed6480cffbefc909af178313b73b199a27b",
    "manifest.json": "90255213d7a21e56600a58a0b9d20654ea21962da5f02ff0b05729b82a40b106",
    "transmission_probability.csv": "82d17e72a8501580ede51afaaf0c175eed59077820263aff98866e424de99501",
    "type_count.csv": "ba8393f0715cdbe6a02941dacd62370d13660ea9df256632ab5063a28fb61ff7",
    "type_distance.csv": "2e10253f31cc98093a8e5baff29874d3bff7a2b6bc9e18d67f2a84749ec7f3a0",
    "type_duration.csv": "766c996040a8982944b0ad6e773b6f0f40633cc7fc3a64f58d910269f6fd6825",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def clinic_digests(workdir: Path) -> dict[str, str]:
    """Every output file of clinic seed 42, 600 ticks, frames exported."""
    shutil.copyfile(CLINIC, workdir / "clinic.json")
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths keep manifest.json independent of workdir
    try:
        code = main(["run", "--scenario", "clinic.json", "--seed", "42", "--ticks", "600",
                     "--export-frames", "--out", "out"])
    finally:
        os.chdir(cwd)
    assert code == EXIT_OK
    out = workdir / "out"
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}


INGEST_WEARERS = 150
INGEST_TICKS = 240  # four 60-tick buckets at a 60 s tick
INGEST_TYPES = ("porter", "nurse", "patient", "doctor")


def ingest_trace_text() -> str:
    """A seeded badge trace: staggered shifts, random ids, slow random walk.

    Only ``integers``, ``permutation`` and ``random`` draw from the
    generator, and positions are written with three decimals, so the text
    is the same on every platform.
    """
    rng = np.random.default_rng(20261018)
    ids = rng.permutation(5 * INGEST_WEARERS)[:INGEST_WEARERS]
    types = rng.integers(0, len(INGEST_TYPES), size=INGEST_WEARERS)
    arrive = rng.integers(0, 30, size=INGEST_WEARERS)
    leave = rng.integers(200, INGEST_TICKS + 40, size=INGEST_WEARERS)
    pos = rng.random((INGEST_WEARERS, 2)) * 18.0
    lines = ["tick,agent_id,type_name,x_m,y_m"]
    for tick in range(INGEST_TICKS):
        pos = np.clip(pos + (rng.random(pos.shape) - 0.5) * 0.8, 0.0, 18.0)
        for k in rng.permutation(INGEST_WEARERS):
            if arrive[k] <= tick < leave[k]:
                x, y = pos[k]
                lines.append(f"{tick},{ids[k]},{INGEST_TYPES[types[k]]},{x:.3f},{y:.3f}")
    return "\n".join(lines) + "\n"


def ingest_digests(workdir: Path) -> dict[str, str]:
    """The trace and every bundle file of ``ingest-trace`` on it."""
    trace = workdir / "trace.csv"
    trace.write_text(ingest_trace_text(), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(["ingest-trace", "--trace", "trace.csv", "--tick-length-s", "60",
                     "--out", "out"])
    finally:
        os.chdir(cwd)
    assert code == EXIT_OK
    digests = {p.name: _sha(p.read_bytes()) for p in sorted((workdir / "out").iterdir())}
    digests["trace.csv"] = _sha(trace.read_bytes())
    return digests


CROWD_TYPES = 4
CROWD_PER_TYPE = 50  # 200 agents, all present from tick 49
CROWD_TICKS = 100


def crowd_scenario_doc() -> dict:
    """Two rooms joined by one doorway; four types cross it, one of them queues.

    The left room holds an entrance and a canteen, the right room a ward
    and a desk of capacity 2 reached through ``queue``.  Types differ in
    body radius, so the force cutoff follows the largest one.
    """
    width, height, wall_x = 30, 18, 15
    blocked = [[wall_x, y] for y in range(height) if not 7 <= y < 11]

    def block(x0, y0, w, h):
        return [[x, y] for x in range(x0, x0 + w) for y in range(y0, y0 + h)]

    def dwell(lo, hi):
        return {"kind": "dwell", "duration": {"kind": "uniform", "min": lo, "max": hi}}

    locations = {
        "entrance": {"cells": block(2, 2, 4, 3), "capacity": None},
        "canteen": {"cells": block(3, 12, 4, 3), "capacity": None},
        "ward": {"cells": block(20, 3, 5, 3), "capacity": None},
        "desk": {"cells": block(25, 13, 2, 1), "capacity": 2},
    }
    legs = {
        "patient": ["ward", "entrance"],
        "nurse": ["canteen", "ward"],
        "visitor": ["ward", "canteen", "entrance"],
        "clerk": ["desk", "canteen"],
    }
    agent_types = []
    for k, (name, stops) in enumerate(legs.items()):
        body = []
        for loc in stops:
            if loc == "desk":
                body.append({"kind": "queue", "location": "desk"})
            body += [{"kind": "goto", "location": loc}, dwell(2.0 + k, 8.0 + 2 * k)]
        agent_types.append({
            "name": name,
            "population": CROWD_PER_TYPE,
            "arrival": {"start": k % 2, "interval": 1},
            "desired_speed": {"kind": "uniform", "min": 1.0 + 0.1 * k, "max": 1.6},
            "radius": 0.22 + 0.02 * k,
            "workflow": [
                {"kind": "goto", "location": "entrance" if k % 2 == 0 else "canteen"},
                {"kind": "cycle", "until_tick": CROWD_TICKS + 1, "steps": body},
            ],
        })
    return {
        "map": {"cell_size_m": 1.0, "width": width, "height": height,
                "blocked": blocked, "locations": locations},
        "agent_types": agent_types,
        "defaults": {"tick_length_s": 1.0},
    }


def crowd_digests(workdir: Path) -> dict[str, str]:
    """Every bundle file of ``run`` on the two-room crowd, seed 7."""
    (workdir / "crowd.json").write_text(json.dumps(crowd_scenario_doc()), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(["run", "--scenario", "crowd.json", "--seed", "7",
                     "--ticks", str(CROWD_TICKS), "--out", "out"])
    finally:
        os.chdir(cwd)
    assert code == EXIT_OK
    return {p.name: _sha(p.read_bytes()) for p in sorted((workdir / "out").iterdir())}


def mixing_digests() -> dict[str, str]:
    """Ledger columns of one short run of the acceptance mixing scenario."""
    ticks = 300
    ledger = ContactLedger(ContactConfig(effective_radius=2.0))
    run(_mixing_scenario(), SimConfig(ticks=ticks, seed=0, physics_substeps=3), ledger.observe)
    ledger.finalize(ticks - 1)
    cols = ledger.columns()
    return {name: _sha(np.ascontiguousarray(col).tobytes()) for name, col in sorted(cols.items())}


def test_clinic_bundle_and_frames_are_locked(tmp_path):
    assert clinic_digests(tmp_path) == CLINIC_DIGESTS


def test_mixing_ledger_columns_are_locked():
    assert mixing_digests() == MIXING_DIGESTS


def test_ingest_bundle_is_locked(tmp_path):
    assert ingest_digests(tmp_path) == INGEST_DIGESTS


def test_crowd_bundle_is_locked(tmp_path):
    assert crowd_digests(tmp_path) == CROWD_DIGESTS


# The engine runs a tick in Python floats when it is small (``SMALL_TICK_MAX``)
# and on arrays otherwise; each kernel alone must give the pinned bytes.
KERNELS = pytest.mark.parametrize("small_tick_max", [0, 10**9], ids=["array", "small"])


@KERNELS
def test_clinic_bundle_and_frames_are_locked_under_each_kernel(small_tick_max, tmp_path,
                                                                monkeypatch):
    monkeypatch.setattr(engine, "SMALL_TICK_MAX", small_tick_max)
    assert clinic_digests(tmp_path) == CLINIC_DIGESTS


@KERNELS
def test_mixing_ledger_columns_are_locked_under_each_kernel(small_tick_max, monkeypatch):
    monkeypatch.setattr(engine, "SMALL_TICK_MAX", small_tick_max)
    assert mixing_digests() == MIXING_DIGESTS


@KERNELS
def test_crowd_bundle_is_locked_under_each_kernel(small_tick_max, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "SMALL_TICK_MAX", small_tick_max)
    assert crowd_digests(tmp_path) == CROWD_DIGESTS


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(clinic_digests(Path(tmp)))
    pprint.pprint(mixing_digests())
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(ingest_digests(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(crowd_digests(Path(tmp)))
