"""``bundle.json`` as ``_json_text`` writes it, against ``json.dumps``.

``write_bundle`` once built each matrix's nested lists with ``to_json_obj``
and encoded the bundle with ``json.dumps(..., indent=2, sort_keys=True)``.
That path is kept below as the reference: ``_json_text`` must give the
stdlib's text for any nested dicts and lists, and ``write_bundle`` the
reference's ``bundle.json``, byte for byte.
"""

from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactmix.aggregate import (
    ContactMatrix,
    effective_chunks,
    hourly_series,
    transmission_probability,
)
from contactmix.contacts import ContactConfig, ContactLedger
from contactmix.frames import TickFrame
from contactmix.report import _json_chunks, _json_text, build_matrices, write_bundle

from test_aggregate_reference import TYPE_NAMES, random_ledger


def stdlib_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def reference_bundle_json(ledger, populations, manifest, base_p, bucket_length) -> str:
    """``bundle.json`` as ``write_bundle`` wrote it before ``_json_text``."""
    matrices = build_matrices(ledger, populations)
    chunks = effective_chunks(matrices["type_duration"], ledger.config.chunk_length)
    prob = transmission_probability(chunks, base_p)
    series = hourly_series(ledger, bucket_length, {t: populations[t] for t in sorted(populations)})
    by_level: dict = {}
    for key, m in matrices.items():
        level, _, metric = key.rpartition("_")
        by_level.setdefault(level, {})[metric] = m.to_json_obj()
    bundle = {
        "config": dict(manifest),
        "matrices": by_level,
        "effective_chunks": chunks.to_json_obj(),
        "transmission_probability": prob.to_json_obj(),
        "hourly_series": {
            "bucket_length_ticks": bucket_length,
            "series": {f"{a}:{b}": vec.tolist() for (a, b), vec in series.items()},
        },
    }
    return stdlib_text(bundle) + "\n"


# --- the writer against the stdlib -------------------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308,
                  0.1 + 0.2, 1e16, 123456789.0, 1e-7]
TEXTS = ["", "ascii", "café", "日本", "\U0001f600", "tab\there", "nl\n", "\x00\x1f\x7f",
         '"quoted" \\ back', "  ", "\ud800 lone"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=8),
    st.sampled_from(TEXTS),
)
keys = st.one_of(st.text(max_size=6), st.sampled_from(TEXTS))
trees = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(keys, kids, max_size=5),
    ),
    max_leaves=40,
)


@given(trees)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "": [{}]})
@example([math.nan, math.inf, -math.inf, -0.0, None, True, False, 2**100, -(2**70)])
@example({"é": "\x01 ", "A": 1, "a": 0, "B": 2})
@settings(max_examples=300, deadline=None)
def test_json_text_is_stdlib_text(obj):
    assert _json_text(obj) + "\n" == stdlib_text(obj) + "\n"


def test_json_text_rejects_what_json_rejects():
    for bad in (object(), np.int64(3), {"a": {1, 2}}):
        with pytest.raises(TypeError):
            stdlib_text(bad)
        with pytest.raises(TypeError):
            _json_text(bad)


@st.composite
def matrices(draw):
    """A matrix of 0-4 rows and 0-4 columns of special and random values."""
    m, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cell = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    values = np.array(draw(st.lists(cell, min_size=m * k, max_size=m * k)),
                      dtype=np.float64).reshape(m, k)
    defined = np.array(draw(st.lists(st.booleans(), min_size=m * k, max_size=m * k)),
                       dtype=bool).reshape(m, k)
    return ContactMatrix("type", "count", [f"r{i}" for i in range(m)],
                         [f"c{j}" for j in range(k)], values, defined)


@given(matrices(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_matrix_grid_is_stdlib_text_of_its_values(m, depth):
    """A matrix stands for its values grid at any depth of the tree."""
    tree, want = m, m.to_json_obj()["values"]
    for level in range(depth):
        tree, want = {"values": tree, "n": level}, {"values": want, "n": level}
    assert _json_text(tree) == stdlib_text(want)


def test_a_matrix_is_streamed_one_row_per_piece():
    """``write_bundle`` never holds a matrix's text whole: ``_json_chunks``
    yields a values grid one row per piece."""
    rng = np.random.default_rng(0)
    values = rng.integers(0, 5, size=(30, 30)).astype(np.float64)
    m = ContactMatrix("agent", "count", [f"r{i}" for i in range(30)],
                      [f"c{j}" for j in range(30)], values, ~np.eye(30, dtype=bool))
    pieces = list(_json_chunks({"a": [m, m], "b": m}))
    assert "".join(pieces) == stdlib_text({"a": [m.to_json_obj()["values"]] * 2,
                                           "b": m.to_json_obj()["values"]})
    assert max(piece.count(",") for piece in pieces) == 29  # the commas of one row


def test_grid_keeps_negative_zero_and_null():
    values = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 2.5]])
    defined = np.array([[True, True, True], [True, False, True]])
    m = ContactMatrix("type", "count", ["a", "b"], ["x", "y", "z"], values, defined)
    rows = json.loads(_json_text(m), parse_constant=str)
    assert [[repr(v) for v in row] for row in rows] == [
        ["0.0", "-0.0", "'NaN'"], ["'Infinity'", "None", "2.5"]]


# --- write_bundle against the reference -----------------------------------------------


def assert_bundle_matches(led, populations, base_p=0.1, bucket_length=5):
    manifest = {"command": "test", "populations": populations, "radius_m": 2.0,
                "note": "café \x01", "flag": True, "none": None, "ticks": led.horizon}
    with tempfile.TemporaryDirectory() as tmp:
        write_bundle(tmp, led, populations, manifest, base_p, bucket_length)
        got = (Path(tmp) / "bundle.json").read_bytes()
    want = reference_bundle_json(led, populations, manifest, base_p, bucket_length)
    assert got == want.encode("utf-8")


@given(
    n_agents=st.integers(0, 12),
    n_types=st.integers(1, 4),
    n_ticks=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    unseen=st.booleans(),
    base_p=st.sampled_from([0.0, 0.1, 1.0]),
    bucket_length=st.integers(1, 9),
)
@example(n_agents=0, n_types=1, n_ticks=1, seed=0, extra=[0] * 4, unseen=False,
         base_p=0.1, bucket_length=1)  # no agents: 0x0 agent matrices
@settings(max_examples=40, deadline=None)
def test_write_bundle_matches_reference(n_agents, n_types, n_ticks, seed, extra, unseen, base_p,
                                        bucket_length):
    led = random_ledger(n_agents, n_types, n_ticks, seed)
    observed = led.observed_populations()
    populations = {t: observed.get(t, 0) + extra[x] for x, t in enumerate(TYPE_NAMES[:n_types])}
    if unseen:
        populations["never seen"] = extra[0]
    assert_bundle_matches(led, populations, base_p, bucket_length)


def test_write_bundle_matches_reference_with_a_singleton_type():
    """A type with one member leaves its agent-by-type column and type diagonal undefined."""
    led = random_ledger(7, 3, 20, seed=1)
    populations = led.observed_populations()
    assert populations == {"t0": 3, "t1": 3, "t2": 1}
    assert_bundle_matches(led, {**populations, "zz": 0})


# --- memory -----------------------------------------------------------------------------


def churning_ledger(n_agents=40, n_ticks=1200, side=10.0, seed=0):
    """Agents placed anew every tick: most contacts last one tick, so the
    ledger holds about 88k records for few agents and small matrices."""
    rng = np.random.default_rng(seed)
    ids = np.arange(n_agents, dtype=np.int64)
    types = rng.integers(0, 4, size=n_agents).astype(np.int32)
    led = ContactLedger(ContactConfig(effective_radius=2.0))
    for t in range(n_ticks):
        led.observe(TickFrame(t, ids, types, rng.uniform(0.0, side, (n_agents, 2)), list(TYPE_NAMES)))
    led.finalize(n_ticks - 1)
    return led


def test_write_bundle_holds_less_than_twice_the_ledger(tmp_path):
    """The report's temporaries do not scale with records times buckets, and
    ``bundle.json`` is never held whole: ``write_bundle`` allocates less
    than twice the ledger's own five columns above what it started with.
    (Summing an entry per record and bucket, copying the kept columns and
    rendering the whole document once took about three times.)"""
    led = churning_ledger()
    assert led.n_records >= 50_000
    stored = sum(col.nbytes for col in led.stored_columns().values())
    populations = led.observed_populations()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        write_bundle(tmp_path, led, populations, {"command": "test"}, 0.1, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * stored, (peak - start, stored)
