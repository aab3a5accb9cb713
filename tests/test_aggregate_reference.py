"""The columnar builders against per-pair reference loops, bit for bit.

The reference functions below are the aggregation as it was first written:
one ``PairSummary`` object per pair and a Python loop per metric.  The
columnar builders sum the same floats in the same order, so every matrix,
series and CSV must match these loops exactly, not approximately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactmix import aggregate
from contactmix.aggregate import (
    METRICS,
    ContactMatrix,
    agent_by_type,
    agent_matrix,
    hourly_series,
    pair_summaries,
    type_matrix,
)
from contactmix.contacts import ContactConfig, ContactLedger
from contactmix.frames import TickFrame

# --- reference: one object per pair, one loop per metric ------------------------


@dataclass(frozen=True)
class PairSummary:
    id_a: int
    id_b: int
    count: int
    duration: int
    dist_sum: float

    @property
    def mean_distance(self) -> float:
        return self.dist_sum / self.duration


def ref_pair_summaries(ledger, min_duration):
    c = ledger.columns()
    keep = c["duration"] >= min_duration
    if not keep.any():
        return {}
    a, b = c["id_a"][keep], c["id_b"][keep]
    uniq, inv = np.unique((a << 32) | b, return_inverse=True)
    count = np.bincount(inv, minlength=len(uniq))
    dur = np.bincount(inv, weights=c["duration"][keep], minlength=len(uniq))
    dsum = np.bincount(inv, weights=c["dist_sum"][keep], minlength=len(uniq))
    out = {}
    for i, key in enumerate(uniq.tolist()):
        ia, ib = key >> 32, key & 0xFFFFFFFF
        out[(ia, ib)] = PairSummary(ia, ib, int(count[i]), int(dur[i]), float(dsum[i]))
    return out


def ref_agent_matrix(summaries, agent_ids, metric):
    ids = list(agent_ids)
    index = {v: i for i, v in enumerate(ids)}
    m = len(ids)
    values = np.zeros((m, m), dtype=np.float64)
    for s in summaries.values():
        i, j = index[s.id_a], index[s.id_b]
        if metric == "count":
            v = float(s.count)
        elif metric == "duration":
            v = float(s.duration)
        else:
            v = s.mean_distance
        values[i, j] = values[j, i] = v
    return values, ~np.eye(m, dtype=bool)


def ref_agent_by_type(summaries, agent_types, populations, metric):
    ids = list(agent_types)
    type_names = list(populations)
    t_index = {t: j for j, t in enumerate(type_names)}
    m, k = len(ids), len(type_names)
    num = np.zeros((m, k), dtype=np.float64)
    wsum = np.zeros((m, k), dtype=np.float64)
    row = {aid: i for i, aid in enumerate(ids)}
    for s in summaries.values():
        for me, other in ((s.id_a, s.id_b), (s.id_b, s.id_a)):
            i = row[me]
            j = t_index[agent_types[other]]
            if metric == "count":
                num[i, j] += s.count
            elif metric == "duration":
                num[i, j] += s.duration
            else:
                num[i, j] += s.dist_sum
                wsum[i, j] += s.duration
    denom = np.empty((m, k), dtype=np.float64)
    for i, aid in enumerate(ids):
        for j, t in enumerate(type_names):
            denom[i, j] = populations[t] - (1 if agent_types[aid] == t else 0)
    defined = denom > 0
    values = np.zeros((m, k), dtype=np.float64)
    if metric == "distance":
        met = wsum > 0
        values[met] = num[met] / wsum[met]
    else:
        values[defined] = num[defined] / denom[defined]
    return values, defined


def ref_type_matrix(summaries, agent_types, populations, metric):
    type_names = list(populations)
    t_index = {t: j for j, t in enumerate(type_names)}
    k = len(type_names)
    num = np.zeros((k, k), dtype=np.float64)
    wsum = np.zeros((k, k), dtype=np.float64)
    for s in summaries.values():
        i, j = t_index[agent_types[s.id_a]], t_index[agent_types[s.id_b]]
        if metric == "count":
            v = float(s.count)
        elif metric == "duration":
            v = float(s.duration)
        else:
            v = s.dist_sum
        num[i, j] += v
        if i != j:
            num[j, i] += v
        if metric == "distance":
            wsum[i, j] += s.duration
            if i != j:
                wsum[j, i] += s.duration
    pops = np.array([populations[t] for t in type_names], dtype=np.float64)
    denom = np.outer(pops, pops)
    np.fill_diagonal(denom, pops * (pops - 1) / 2.0)
    defined = denom > 0
    values = np.zeros((k, k), dtype=np.float64)
    if metric == "distance":
        met = wsum > 0
        values[met] = num[met] / wsum[met]
        values[~defined] = 0.0
    else:
        values[defined] = num[defined] / denom[defined]
    return values, defined


def ref_hourly_series(ledger, bucket_length, populations):
    type_names = list(populations)
    first = ledger.first_tick if ledger.first_tick is not None else 0
    horizon = ledger.horizon if ledger.horizon is not None else 0
    n_buckets = max(1, -(-(first + horizon) // bucket_length))
    series = {
        (a, b): np.zeros(n_buckets, dtype=np.int64)
        for x, a in enumerate(type_names)
        for b in type_names[x:]
    }
    c = ledger.columns()
    names = ledger.type_names
    for i in range(ledger.n_records):
        ta, tb = names[c["type_a"][i]], names[c["type_b"][i]]
        key = (ta, tb) if (ta, tb) in series else (tb, ta)
        start, last = int(c["start"][i]), int(c["last"][i])
        vec = series[key]
        for bucket in range(start // bucket_length, last // bucket_length + 1):
            lo = max(start, bucket * bucket_length)
            hi = min(last, (bucket + 1) * bucket_length - 1)
            vec[bucket] += hi - lo + 1
    return series


def add_at_hourly_series(ledger, bucket_length, populations):
    """``hourly_series`` as it was before it summed records in slices: one
    ``np.add.at`` over an entry per (record, bucket the record overlaps),
    with every record's derived columns built at once."""
    type_names = list(populations)
    first = ledger.first_tick if ledger.first_tick is not None else 0
    horizon = ledger.horizon if ledger.horizon is not None else 0
    n_buckets = max(1, -(-(first + horizon) // bucket_length))
    k = len(type_names)
    keys = [(a, b) for x, a in enumerate(type_names) for b in type_names[x:]]

    c = ledger.columns()
    t_index = {t: x for x, t in enumerate(type_names)}
    column_of = np.array([t_index.get(t, -1) for t in ledger.type_names], dtype=np.int64)
    xa, xb = column_of[c["type_a"]], column_of[c["type_b"]]
    missing = (xa < 0) | (xb < 0)
    if missing.any():
        i = int(np.argmax(missing))
        ta, tb = ledger.type_names[c["type_a"][i]], ledger.type_names[c["type_b"][i]]
        raise ValueError(f"record involves type {ta!r} or {tb!r} missing from populations")
    lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
    key_of = lo * k - lo * (lo - 1) // 2 + (hi - lo)

    start, last = c["start"], c["last"]
    first_bucket = start // bucket_length
    spans = last // bucket_length - first_bucket + 1
    rec = np.repeat(np.arange(len(start)), spans)
    bucket = first_bucket[rec] + np.arange(len(rec)) - np.repeat(np.cumsum(spans) - spans, spans)
    ticks = (np.minimum(last[rec], (bucket + 1) * bucket_length - 1)
             - np.maximum(start[rec], bucket * bucket_length) + 1)
    totals = np.zeros((len(keys), n_buckets), dtype=np.int64)
    np.add.at(totals, (key_of[rec], bucket), ticks)
    return dict(zip(keys, totals))


def ref_to_csv(m: ContactMatrix) -> str:
    lines = ["," + ",".join(m.col_labels)]
    for i, label in enumerate(m.row_labels):
        cells = [
            f"{float(m.values[i, j]):.6g}" if m.defined[i, j] else ""
            for j in range(len(m.col_labels))
        ]
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def ref_to_json_values(m: ContactMatrix) -> list:
    return [
        [float(m.values[i, j]) if m.defined[i, j] else None
         for j in range(len(m.col_labels))]
        for i in range(len(m.row_labels))
    ]


# --- generated ledgers -------------------------------------------------------------

TYPE_NAMES = ("t0", "t1", "t2", "t3")


def random_ledger(n_agents, n_types, n_ticks, seed):
    """Agents with shuffled ids and staggered presence random-walking in a small box."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(60, size=n_agents, replace=False).astype(np.int64)
    types = rng.integers(0, n_types, size=n_agents).astype(np.int32)
    arrive = rng.integers(0, max(1, n_ticks // 2), size=n_agents)
    pos = rng.uniform(0.0, 5.0, size=(n_agents, 2))
    names = list(TYPE_NAMES[:n_types])
    led = ContactLedger(ContactConfig(effective_radius=2.0))
    for t in range(n_ticks):
        pos += rng.uniform(-0.7, 0.7, size=pos.shape)
        here = rng.permutation(np.nonzero(arrive <= t)[0])
        led.observe(TickFrame(t, ids[here], types[here], pos[here].copy(), names))
    led.finalize(n_ticks - 1)
    return led


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def assert_same(matrix: ContactMatrix, ref: tuple[np.ndarray, np.ndarray]) -> None:
    values, defined = ref
    assert bits(matrix.values) == bits(values)
    assert np.array_equal(matrix.defined, defined)


def check_against_reference(led, min_duration, populations, bucket_length):
    agent_types = {aid: led.type_names[t] for aid, t in led.agents().items()}
    pairs = pair_summaries(led, min_duration=min_duration)
    ref = ref_pair_summaries(led, min_duration)
    assert [(s.id_a, s.id_b, s.count, s.duration) for s in ref.values()] == list(
        zip(pairs.id_a.tolist(), pairs.id_b.tolist(), pairs.count.tolist(),
            pairs.duration.tolist())
    )
    assert bits(pairs.dist_sum) == bits([s.dist_sum for s in ref.values()])

    for metric in METRICS:
        built = [
            (agent_matrix(pairs, list(agent_types), metric),
             ref_agent_matrix(ref, list(agent_types), metric)),
            (agent_matrix(pairs, sorted(agent_types), metric),
             ref_agent_matrix(ref, sorted(agent_types), metric)),
            (agent_by_type(pairs, agent_types, populations, metric),
             ref_agent_by_type(ref, agent_types, populations, metric)),
            (type_matrix(pairs, agent_types, populations, metric),
             ref_type_matrix(ref, agent_types, populations, metric)),
        ]
        for matrix, want in built:
            assert_same(matrix, want)
            assert matrix.to_csv() == ref_to_csv(matrix)
            assert matrix.to_json_obj()["values"] == ref_to_json_values(matrix)

    series = hourly_series(led, bucket_length, populations)
    want = ref_hourly_series(led, bucket_length, populations)
    assert list(series) == list(want)
    for key, vec in want.items():
        assert series[key].dtype == np.int64
        assert np.array_equal(series[key], vec)


@given(
    n_agents=st.integers(0, 14),
    n_types=st.integers(1, 4),
    n_ticks=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
    min_duration=st.integers(1, 4),
    extra=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    bucket_length=st.integers(1, 9),
    reverse_types=st.booleans(),
)
@example(n_agents=0, n_types=1, n_ticks=1, seed=0, min_duration=1, extra=[0] * 4,
         bucket_length=1, reverse_types=False)  # empty ledger
@settings(max_examples=80, deadline=None)
def test_columnar_builders_match_reference(
    n_agents, n_types, n_ticks, seed, min_duration, extra, bucket_length, reverse_types
):
    led = random_ledger(n_agents, n_types, n_ticks, seed)
    observed = led.observed_populations()
    names = sorted(TYPE_NAMES[:n_types], reverse=reverse_types)
    populations = {t: observed.get(t, 0) + extra[x] for x, t in enumerate(names)}
    check_against_reference(led, min_duration, populations, bucket_length)


def test_singleton_type_matches_reference():
    """A type with one member: its own agent-by-type column and type diagonal are undefined."""
    led = random_ledger(7, 3, 20, seed=1)
    populations = led.observed_populations()
    assert populations == {"t0": 3, "t1": 3, "t2": 1}
    for min_duration in (1, 2):
        check_against_reference(led, min_duration, populations, bucket_length=6)


def test_csv_and_json_of_special_values_match_reference():
    values = np.array([
        [0.0, -0.0, np.nan, np.inf],
        [-np.inf, 1e-300, 123456789.0, 1 / 3],
        [2 / 3, 0.1 + 0.2, -5e-7, 1.0],
    ])
    defined = np.array([[True, True, True, False],
                        [True, True, True, True],
                        [False, True, True, True]])
    m = ContactMatrix("type", "count", ["a", "b", "c"], ["w", "x", "y", "z"], values, defined)
    assert m.to_csv() == ref_to_csv(m)
    assert "-0" in m.to_csv().splitlines()[1].split(",")
    got, want = m.to_json_obj()["values"], ref_to_json_values(m)
    assert repr(got) == repr(want)
    empty = ContactMatrix("agent", "count", [], [], np.zeros((0, 0)), np.zeros((0, 0), bool))
    assert empty.to_csv() == ref_to_csv(empty) == ",\n"


# --- the hourly series in slices against the np.add.at version ---------------------------


def lingering_ledger(n_agents, n_types, n_ticks, first, tail, seed):
    """Agents drifting slowly in a small box, so contacts last many ticks,
    and leaving now and then, so a pair also has short records.  Ticks run
    from ``first``; the ledger is finalized ``tail`` ticks after the last."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(60, size=n_agents, replace=False).astype(np.int64)
    types = rng.integers(0, n_types, size=n_agents).astype(np.int32)
    pos = rng.uniform(0.0, 4.0, size=(n_agents, 2))
    names = list(TYPE_NAMES[:n_types])
    led = ContactLedger(ContactConfig(effective_radius=2.0))
    for t in range(first, first + n_ticks):
        pos += rng.uniform(-0.2, 0.2, size=pos.shape)
        here = np.nonzero(rng.random(n_agents) < 0.95)[0]
        led.observe(TickFrame(t, ids[here], types[here], pos[here].copy(), names))
    led.finalize(first + n_ticks - 1 + tail)
    return led


def assert_series_match(led, bucket_length, populations, slice_size):
    """``hourly_series`` with ``slice_size`` records per slice gives what the
    ``np.add.at`` version gives: the same keys, int64 totals, or the same error."""
    try:
        want = add_at_hourly_series(led, bucket_length, populations)
    except ValueError as e:
        with mock.patch.object(aggregate, "SERIES_SLICE", slice_size), \
                pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            hourly_series(led, bucket_length, populations)
        return
    with mock.patch.object(aggregate, "SERIES_SLICE", slice_size):
        got = hourly_series(led, bucket_length, populations)
    assert list(got) == list(want)
    for key, vec in want.items():
        assert got[key].dtype == np.int64
        assert np.array_equal(got[key], vec), key


@given(
    n_agents=st.integers(0, 10),
    n_types=st.integers(1, 4),
    n_ticks=st.integers(1, 60),
    first=st.integers(0, 12),
    tail=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    bucket_length=st.integers(1, 13),
    slice_size=st.sampled_from([1, 2, 3, 7, 64, aggregate.SERIES_SLICE]),
    drop=st.integers(0, 4),  # the type left out of populations; 4 keeps them all
)
@example(n_agents=0, n_types=1, n_ticks=1, first=0, tail=0, seed=0, bucket_length=1,
         slice_size=1, drop=4)  # no records
@settings(max_examples=150, deadline=None)
def test_hourly_series_matches_the_add_at_version(n_agents, n_types, n_ticks, first, tail, seed,
                                                  bucket_length, slice_size, drop):
    led = lingering_ledger(n_agents, n_types, n_ticks, first, tail, seed)
    populations = {t: 1 for x, t in enumerate(TYPE_NAMES[:n_types]) if x != drop}
    assert_series_match(led, bucket_length, {**populations, "never seen": 0}, slice_size)


def test_hourly_series_cases_the_generator_must_reach():
    """Records inside one bucket and across 1 to many bucket edges, records
    that end on the horizon, and slices of 1 record up to all of them."""
    led = lingering_ledger(9, 3, 80, first=5, tail=0, seed=3)
    c = led.stored_columns()
    end = c["start"] + c["duration"]
    for bucket_length in (1, 4, 17, 85, 200):
        edges = (end - 1) // bucket_length - c["start"] // bucket_length
        assert (edges == 0).any() or bucket_length == 1
        populations = led.observed_populations()
        for slice_size in (1, 2, 5, len(end) - 1, len(end)):
            assert_series_match(led, bucket_length, populations, slice_size)
    assert edges.max() == 0 and (end == 85).any() and led.n_records > 20
    assert (((end - 1) // 4 - c["start"] // 4) >= 5).any()


def test_hourly_series_names_the_first_record_with_a_missing_type_in_any_slice():
    """Agent 7, the one "t2", comes within range of the others at tick 6 only:
    its records, (1, 7) first, follow three "t0"/"t1" records, past the first slices."""
    led = ContactLedger(ContactConfig(effective_radius=2.0))
    ids, types = np.array([3, 5, 1, 7]), np.array([0, 0, 1, 2], dtype=np.int32)
    for t in range(12):
        x7 = 1.5 if t >= 6 else 40.0
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [x7, 0.5]])
        led.observe(TickFrame(t, ids, types, pos, ["t0", "t1", "t2"]))
    led.finalize(11)
    assert led.n_records == 6
    populations = {"t0": 2, "t1": 1}
    with pytest.raises(ValueError, match="^record involves type 't1' or 't2' missing"):
        add_at_hourly_series(led, 4, populations)
    for slice_size in (1, 2, 3, 4, 6):
        assert_series_match(led, 4, populations, slice_size)


def test_hourly_series_of_a_ledger_without_records():
    led = ContactLedger(ContactConfig(effective_radius=1.0))
    far = np.array([[0.0, 0.0], [50.0, 0.0]])
    for t in range(7):
        led.observe(TickFrame(t, np.array([4, 9]), np.array([0, 1]), far, ["a", "b"]))
    led.finalize(11)
    assert led.n_records == 0
    for slice_size in (1, aggregate.SERIES_SLICE):
        assert_series_match(led, 5, {"a": 1, "b": 1, "c": 2}, slice_size)
        assert_series_match(led, 5, {}, slice_size)


# --- the errors the builders raise ---------------------------------------------------


@pytest.fixture
def small():
    led = random_ledger(8, 3, 12, seed=5)
    agent_types = {aid: led.type_names[t] for aid, t in led.agents().items()}
    pops = led.observed_populations()
    pairs = pair_summaries(led)
    assert len(pairs) > 0
    return led, pairs, agent_types, pops


def test_unknown_metric_rejected(small):
    _, pairs, agent_types, pops = small
    for build in (lambda m: agent_matrix(pairs, list(agent_types), m),
                  lambda m: agent_by_type(pairs, agent_types, pops, m),
                  lambda m: type_matrix(pairs, agent_types, pops, m)):
        with pytest.raises(ValueError, match="unknown metric 'speed'"):
            build("speed")


def test_duplicate_agent_ids_rejected(small):
    _, pairs, agent_types, _ = small
    ids = list(agent_types)
    with pytest.raises(ValueError, match="unique"):
        agent_matrix(pairs, ids + ids[:1], "count")


@pytest.mark.parametrize("end", ["id_a", "id_b"])
def test_unknown_agent_named(small, end):
    """Either end of a pair missing from the roster is named, first pair first."""
    _, pairs, agent_types, pops = small
    missing = int(getattr(pairs, end)[0])
    ids = [aid for aid in agent_types if aid != missing]
    roster = {aid: agent_types[aid] for aid in ids}
    want = f"unknown agent {missing}$"
    with pytest.raises(ValueError, match=want):
        agent_matrix(pairs, ids, "count")
    with pytest.raises(ValueError, match=want):
        agent_by_type(pairs, roster, pops, "duration")
    with pytest.raises(ValueError, match=want):
        type_matrix(pairs, roster, pops, "distance")


def test_type_missing_from_populations_rejected(small):
    led, pairs, agent_types, pops = small
    dropped = led.type_names[0]
    partial = {t: n for t, n in pops.items() if t != dropped}
    for build in (agent_by_type, type_matrix):
        with pytest.raises(ValueError, match=f"type {dropped!r} missing from populations"):
            build(pairs, agent_types, partial, "count")
    with pytest.raises(ValueError, match="missing from populations"):
        hourly_series(led, 5, partial)
