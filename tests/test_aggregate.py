import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmix.aggregate import (
    agent_by_type,
    agent_matrix,
    effective_chunks,
    hourly_series,
    pair_summaries,
    rescale_per_day,
    transmission_probability,
    type_matrix,
)
from contactmix.contacts import ContactConfig, ContactLedger
from contactmix.frames import TickFrame

from conftest import (
    GOLDEN_AGENTS, GOLDEN_IDS, GOLDEN_TYPE_OF, matrix_from_csv, max_unique_contacts,
)

GOLDEN_POPS = {"host": 1, "green": 2, "yellow": 2, "blue": 3}


def golden_ledger(golden):
    led = ContactLedger(ContactConfig(effective_radius=2.0))
    for f in golden:
        led.observe(f)
    led.finalize(2)
    return led


def golden_agent_types():
    return {GOLDEN_IDS[n]: GOLDEN_TYPE_OF[n] for n in GOLDEN_AGENTS}


# --- max_unique_contacts --------------------------------------------------------


def enumerate_pairs(n_a, n_b):
    """Count unordered pairs of labeled agents the slow way."""
    agents = [("a", i) for i in range(n_a)] + [("b", i) for i in range(n_b)]
    return sum(1 for _ in itertools.combinations(agents, 2))


def test_max_unique_contacts_examples():
    assert max_unique_contacts(2, 3) == 10 == enumerate_pairs(2, 3)
    assert max_unique_contacts(1, 1) == 1
    assert max_unique_contacts(0, 7) == math.comb(7, 2)


def test_pair_bound_identity_exhaustive():
    for n_a in range(51):
        for n_b in range(51):
            assert max_unique_contacts(n_a, n_b) == math.comb(n_a + n_b, 2)


def test_max_unique_contacts_rejects_negative():
    with pytest.raises(ValueError):
        max_unique_contacts(-1, 2)


# --- pair summaries -------------------------------------------------------------


def test_golden_pair_summaries(golden, golden_expect):
    led = golden_ledger(golden)
    pairs = pair_summaries(led)
    for name, (count, dur, dist) in golden_expect.host_pairs.items():
        i = pairs.row(0, GOLDEN_IDS[name])
        assert pairs.row(GOLDEN_IDS[name], 0) == i
        assert pairs.count[i] == count
        assert pairs.duration[i] == dur
        assert pairs.mean_distance[i] == pytest.approx(dist, abs=1e-9)
    # pairs with no contact never appear
    assert pairs.row(0, GOLDEN_IDS["G1"]) is None
    assert pairs.row(0, GOLDEN_IDS["Y2"]) is None


def test_min_duration_filter(golden):
    led = golden_ledger(golden)
    s2 = pair_summaries(led, min_duration=2)
    assert s2.row(0, GOLDEN_IDS["Y1"]) is None  # both records are 1 tick
    for name in ("G2", "B1", "B3"):
        assert s2.row(0, GOLDEN_IDS[name]) is not None
    s4 = pair_summaries(led, min_duration=4)
    assert len(s4) == 0
    with pytest.raises(ValueError):
        pair_summaries(led, min_duration=0)


def test_filter_monotonicity(golden):
    led = golden_ledger(golden)
    prev = pair_summaries(led, min_duration=1)
    for tau in (2, 3, 4):
        cur = pair_summaries(led, min_duration=tau)
        for i in range(len(cur)):
            j = prev.row(cur.id_a[i], cur.id_b[i])
            assert j is not None
            assert cur.count[i] <= prev.count[j]
            assert cur.duration[i] <= prev.duration[j]
        prev = cur


def test_unfinalized_ledger_rejected(golden):
    led = ContactLedger(ContactConfig(effective_radius=2.0))
    led.observe(golden[0])
    with pytest.raises(ValueError, match="finalize"):
        pair_summaries(led)


# --- agent x agent ---------------------------------------------------------------


def test_golden_agent_duration_matrix(golden):
    led = golden_ledger(golden)
    m = agent_matrix(pair_summaries(led), [GOLDEN_IDS[n] for n in GOLDEN_AGENTS],
                     "duration")
    row_h = [m.cell("0", str(GOLDEN_IDS[n])) for n in GOLDEN_AGENTS]
    assert row_h[0] is None  # diagonal undefined
    assert row_h[1:] == [0, 3, 2, 0, 2, 0, 2]
    assert m.cell(str(GOLDEN_IDS["G1"]), str(GOLDEN_IDS["B2"])) == 2
    assert m.is_symmetric()


def test_agent_matrix_unknown_agent_rejected(golden):
    led = golden_ledger(golden)
    with pytest.raises(ValueError, match="unknown"):
        agent_matrix(pair_summaries(led), [0, 1], "duration")


def test_agent_matrix_metrics(golden):
    led = golden_ledger(golden)
    ids = [GOLDEN_IDS[n] for n in GOLDEN_AGENTS]
    summaries = pair_summaries(led)
    count = agent_matrix(summaries, ids, "count")
    assert count.cell("0", str(GOLDEN_IDS["Y1"])) == 2
    dist = agent_matrix(summaries, ids, "distance")
    assert dist.cell("0", str(GOLDEN_IDS["G2"])) == pytest.approx(1.70, abs=1e-9)
    # never-in-contact pairs carry 0, not undefined
    assert dist.cell("0", str(GOLDEN_IDS["G1"])) == 0.0
    with pytest.raises(ValueError):
        agent_matrix(summaries, ids, "speed")


# --- agent x type ------------------------------------------------------------------


def test_golden_host_by_type(golden, golden_expect):
    led = golden_ledger(golden)
    summaries = pair_summaries(led)
    metrics = {}
    for metric in ("count", "duration", "distance"):
        metrics[metric] = agent_by_type(
            summaries, golden_agent_types(), GOLDEN_POPS, metric
        )
    for tname, (count, dur, dist) in golden_expect.host_by_type.items():
        assert metrics["count"].cell("0", tname) == pytest.approx(count, abs=1e-9)
        assert metrics["duration"].cell("0", tname) == pytest.approx(dur, abs=1e-9)
        assert metrics["distance"].cell("0", tname) == pytest.approx(dist, abs=1e-9)
    # the host is alone in its type: own-type column undefined
    assert metrics["count"].cell("0", "host") is None
    # G1 met only B2: green x blue defined, green x yellow zero
    g1 = str(GOLDEN_IDS["G1"])
    assert metrics["count"].cell(g1, "blue") == pytest.approx(2 / 3, abs=1e-9)
    assert metrics["count"].cell(g1, "yellow") == 0.0


def test_agent_by_type_population_must_cover_roster(golden):
    led = golden_ledger(golden)
    with pytest.raises(ValueError):
        agent_by_type(pair_summaries(led), golden_agent_types(),
                      {"host": 1, "green": 2, "yellow": 2}, "count")


# --- type x type ---------------------------------------------------------------------


def test_golden_type_duration_matrix(golden, golden_expect):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "duration")
    for (ta, tb), want in golden_expect.type_duration.items():
        got = m.cell(ta, tb)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9), (ta, tb)
        assert m.cell(tb, ta) == got
    # (blue, blue) is exactly 1/3: one 2-tick record over C(3,2) pairs
    assert m.cell("blue", "blue") == pytest.approx(0.34, abs=0.01)


def test_golden_type_count_matrix(golden):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "count")
    # host-G2 is the only host-green contact: 1 / (1*2)
    assert m.cell("host", "green") == pytest.approx(0.5, abs=1e-9)
    # host-Y1 re-entered: 2 contacts / 2
    assert m.cell("host", "yellow") == pytest.approx(1.0, abs=1e-9)
    # one blue-blue contact (B1-B2): ordered sum 2 over 2*C(3,2) pairs
    assert m.cell("blue", "blue") == pytest.approx(1 / 3, abs=1e-9)


def test_type_distance_is_duration_weighted(golden):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "distance")
    # host-blue records: B1 (2 ticks, 0.90) and B3 (2 ticks, 1.80)
    assert m.cell("host", "blue") == pytest.approx(1.35, abs=1e-9)
    # no normalization by population for distances
    assert m.cell("host", "green") == pytest.approx(1.70, abs=1e-9)


def test_aggregation_level_consistency(golden):
    """Averaging agent-by-type rows over a type's members gives the type row.

    For types A != B: mean over members of A of (row sums before dividing)
    equals the type cell times n_B; with the per-partner denominators this
    collapses to: sum of member numerators / (n_A * n_B) = type cell.
    """
    led = golden_ledger(golden)
    summaries = pair_summaries(led)
    agent_types = golden_agent_types()
    for metric in ("count", "duration"):
        by_type = agent_by_type(summaries, agent_types, GOLDEN_POPS, metric)
        tm = type_matrix(summaries, agent_types, GOLDEN_POPS, metric)
        for ta in GOLDEN_POPS:
            members = [str(GOLDEN_IDS[n]) for n in GOLDEN_AGENTS
                       if GOLDEN_TYPE_OF[n] == ta]
            for tb in GOLDEN_POPS:
                if ta == tb:
                    continue
                cells = [by_type.cell(m, tb) for m in members]
                assert all(c is not None for c in cells)
                assert sum(cells) / len(cells) == pytest.approx(
                    tm.cell(ta, tb), abs=1e-9
                )


def test_type_matrix_symmetry_and_conservation_random():
    rng = np.random.default_rng(7)
    type_names = ["a", "b", "c", "d"]
    pops = {t: int(n) for t, n in zip(type_names, rng.integers(2, 8, size=4))}
    total = sum(pops.values())
    ids = np.arange(total, dtype=np.int64)
    tids = np.repeat(np.arange(4), [pops[t] for t in type_names]).astype(np.int32)
    led = ContactLedger(ContactConfig(effective_radius=2.0))
    pos = rng.uniform(0, 6, size=(total, 2))
    for t in range(60):
        pos += rng.uniform(-1.0, 1.0, size=pos.shape)
        led.observe(TickFrame(t, ids, tids, pos.copy(), type_names))
    led.finalize(59)
    summaries = pair_summaries(led)
    agent_types = {int(i): type_names[tids[i]] for i in ids}

    for metric in ("count", "duration", "distance"):
        m = type_matrix(summaries, agent_types, pops, metric)
        assert m.is_symmetric()
        vals = [v for row in m.values.tolist() for v in row]
        assert all(v >= 0 for v, d in zip(vals, m.defined.ravel().tolist()) if d)

    # conservation: cross cell * (n_a * n_b) equals the brute-force pair sum
    m = type_matrix(summaries, agent_types, pops, "duration")
    mc = type_matrix(summaries, agent_types, pops, "count")
    for ta in type_names:
        for tb in type_names:
            if ta == tb:
                continue
            raw_dur = raw_cnt = 0
            for i, j, dur, cnt in zip(summaries.id_a.tolist(), summaries.id_b.tolist(),
                                      summaries.duration.tolist(), summaries.count.tolist()):
                pair = {agent_types[i], agent_types[j]}
                if pair == {ta, tb}:
                    raw_dur += dur
                    raw_cnt += cnt
            assert m.cell(ta, tb) * pops[ta] * pops[tb] == pytest.approx(
                raw_dur, abs=1e-9
            )
            assert mc.cell(ta, tb) * pops[ta] * pops[tb] == pytest.approx(
                raw_cnt, abs=1e-9
            )


def test_singleton_type_diagonal_undefined(golden):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "count")
    assert m.cell("host", "host") is None
    assert m.to_json_obj()["values"][m.row_labels.index("host")][
        m.col_labels.index("host")
    ] is None


# --- CSV / JSON forms -------------------------------------------------------------


def test_csv_round_trip(golden):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "duration")
    text = m.to_csv()
    first = text.splitlines()[0]
    assert first.startswith(",")
    rows, cols, values, defined = matrix_from_csv(text)
    assert rows == m.row_labels and cols == m.col_labels
    hh = m.row_labels.index("host")
    assert not defined[hh][hh]
    bb = m.row_labels.index("blue")
    assert values[bb][bb] == pytest.approx(1 / 3, abs=1e-6)
    np.testing.assert_array_equal(defined, m.defined)


def test_csv_six_significant_digits(golden):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "duration")
    row = dict(zip(m.col_labels,
                   m.to_csv().splitlines()[1 + m.row_labels.index("green")]
                   .split(",")[1:]))
    assert row["blue"] == "1.16667"
    assert row["host"] == "1.5"


# --- hourly series -----------------------------------------------------------------


def ledger_with_one_record(start, last, bucket_radius=2.0):
    led = ContactLedger(ContactConfig(effective_radius=bucket_radius))
    ids = np.array([1, 2], dtype=np.int64)
    tids = np.zeros(2, dtype=np.int32)
    near = np.array([[0.0, 0.0], [1.0, 0.0]])
    far = np.array([[0.0, 0.0], [50.0, 0.0]])
    for t in range(last + 2):
        pos = near if start <= t <= last else far
        led.observe(TickFrame(t, ids, tids, pos, ["w"]))
    led.finalize(last + 1)
    return led


def test_hourly_series_boundary_split():
    led = ledger_with_one_record(55, 64)
    series = hourly_series(led, 60)
    vec = series[("w", "w")]
    assert vec[0] == 5 and vec[1] == 5
    assert vec.sum() == 10


def test_hourly_series_conservation(golden):
    led = golden_ledger(golden)
    series = hourly_series(led, 2, GOLDEN_POPS)
    # bucket sums must equal raw (unnormalized) per-type-pair durations
    totals = {}
    c, names = led.columns(), led.type_names
    for type_a, type_b, duration in zip(c["type_a"].tolist(), c["type_b"].tolist(),
                                        c["duration"].tolist()):
        key = tuple(sorted((names[type_a], names[type_b])))
        totals[key] = totals.get(key, 0) + duration
    for pair, vec in series.items():
        want = totals.get(tuple(sorted(pair)), 0)
        assert vec.sum() == want


def test_hourly_series_empty_ledger():
    led = ContactLedger(ContactConfig(effective_radius=1.0))
    led.finalize(9)
    series = hourly_series(led, 5, {"w": 3})
    assert set(series) == {("w", "w")}
    assert series[("w", "w")].sum() == 0


@pytest.mark.parametrize("bucket_length", [2**63, 10**30])
def test_hourly_series_bucket_beyond_int64(golden, bucket_length):
    """A bucket longer than the run holds all of it, however long: a length
    past int64 gives the series of a length just past the horizon."""
    for led in (golden_ledger(golden), ledger_with_one_record(55, 64)):
        want = hourly_series(led, led.horizon + 7)
        got = hourly_series(led, bucket_length)
        assert got.keys() == want.keys()
        for pair, vec in want.items():
            assert got[pair].tobytes() == vec.tobytes()


def test_hourly_series_validation(golden):
    led = golden_ledger(golden)
    with pytest.raises(ValueError):
        hourly_series(led, 0)
    with pytest.raises(ValueError, match="missing"):
        hourly_series(led, 10, {"host": 1})


# --- exposure ------------------------------------------------------------------------


def test_effective_chunks_values(golden):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "duration")
    f = effective_chunks(m, 2)
    assert f.cell("host", "green") == pytest.approx(0.75, abs=1e-12)
    assert f.cell("host", "host") is None
    with pytest.raises(ValueError):
        effective_chunks(m, 0)
    with pytest.raises(ValueError):
        effective_chunks(f, 2)  # metric is no longer duration


def test_effective_chunks_arithmetic():
    # duration 30, chunk 15 -> exactly 2; duration 5 -> 1/3; zero stays zero
    from contactmix.aggregate import ContactMatrix

    m = ContactMatrix(
        "type", "duration", ["a", "b"], ["a", "b"],
        np.array([[30.0, 5.0], [5.0, 0.0]]), np.ones((2, 2), dtype=bool),
    )
    f = effective_chunks(m, 15)
    assert f.cell("a", "a") == pytest.approx(2.0)
    assert f.cell("a", "b") == pytest.approx(1 / 3, abs=1e-12)
    assert f.cell("b", "b") == 0.0


def test_transmission_probability_values():
    from contactmix.aggregate import ContactMatrix

    f = ContactMatrix(
        "type", "chunks", ["a", "b"], ["a", "b"],
        np.array([[0.0, 2.0], [2.0, 1.0]]), np.ones((2, 2), dtype=bool),
    )
    p = transmission_probability(f, 0.1)
    assert p.cell("a", "a") == 0.0
    assert p.cell("a", "b") == pytest.approx(0.19, abs=1e-12)
    p1 = transmission_probability(f, 1.0)
    assert p1.cell("b", "b") == 1.0
    p0 = transmission_probability(f, 0.0)
    assert p0.cell("a", "b") == 0.0


def test_transmission_probability_domain():
    from contactmix.aggregate import ContactMatrix

    f = ContactMatrix(
        "type", "chunks", ["a"], ["a"], np.array([[1.0]]), np.ones((1, 1), dtype=bool)
    )
    with pytest.raises(ValueError):
        transmission_probability(f, -0.1)
    with pytest.raises(ValueError):
        transmission_probability(f, 1.1)
    bad = ContactMatrix(
        "type", "chunks", ["a"], ["a"], np.array([[-1.0]]), np.ones((1, 1), dtype=bool)
    )
    with pytest.raises(ValueError):
        transmission_probability(bad, 0.5)


@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 10.0, allow_nan=False),
    st.floats(0.0, 10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_transmission_probability_monotone(p1, p2, f1, f2):
    from contactmix.aggregate import ContactMatrix

    def prob(p, f):
        m = ContactMatrix(
            "type", "chunks", ["a"], ["a"],
            np.array([[f]]), np.ones((1, 1), dtype=bool),
        )
        return transmission_probability(m, p).cell("a", "a")

    lo_p, hi_p = sorted((p1, p2))
    lo_f, hi_f = sorted((f1, f2))
    assert 0.0 <= prob(p1, f1) <= 1.0
    assert prob(lo_p, f1) <= prob(hi_p, f1) + 1e-15
    assert prob(p1, lo_f) <= prob(p1, hi_f) + 1e-15
    # strictly below 1 for p < 1, up to float64 resolution: once
    # (1 - p) ** f underflows past one ulp, 1 - x rounds to exactly 1
    if p1 < 1.0 and (1.0 - p1) ** f1 >= 1e-15:
        assert prob(p1, f1) < 1.0


# --- per-day rescaling ----------------------------------------------------------------


def test_rescale_per_day(golden):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "duration")
    day = rescale_per_day(m, horizon_ticks=3, tick_length=1.0)
    assert day.cell("host", "green") == pytest.approx(1.5 * 86400 / 3, abs=1e-6)
    dist = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS,
                       "distance")
    with pytest.raises(ValueError):
        rescale_per_day(dist, horizon_ticks=3, tick_length=1.0)


@pytest.mark.parametrize("tick_length", [0.0, -1.0, math.nan, math.inf])
def test_rescale_per_day_rejects_a_tick_length_that_is_not_finite_and_positive(
    golden, tick_length
):
    led = golden_ledger(golden)
    m = type_matrix(pair_summaries(led), golden_agent_types(), GOLDEN_POPS, "duration")
    with pytest.raises(ValueError, match="^tick_length must be finite and > 0$"):
        rescale_per_day(m, horizon_ticks=3, tick_length=tick_length)
