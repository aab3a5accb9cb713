import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmix import contacts
from contactmix.contacts import (
    ContactConfig,
    ContactLedger,
    FrameError,
    NonMonotonicTickError,
    pair_key,
    pairs_within,
    pairs_within_frames,
)
from contactmix.frames import TickFrame, TraceFormatError, read_frames, write_frames

from conftest import GOLDEN_RADIUS, brute_force_pairs, golden_trace_text, replay_records


def frame(tick, ids, positions, type_ids=None, type_names=None):
    ids = np.asarray(ids, dtype=np.int64)
    if type_ids is None:
        type_ids = np.zeros(len(ids), dtype=np.int32)
    if type_names is None:
        type_names = ["only"]
    return TickFrame(
        tick, ids, np.asarray(type_ids, dtype=np.int32),
        np.asarray(positions, dtype=np.float64), type_names,
    )


# --- pairs_within -------------------------------------------------------------


def test_boundary_is_inclusive():
    got = pairs_within(np.array([1, 2]), np.array([[0.0, 0.0], [0.0, 2.0]]), 2.0)
    assert [(int(a), int(b)) for a, b, _ in zip(*got)] == [(1, 2)]
    a, b, d = got
    assert d[0] == pytest.approx(2.0, abs=1e-12)


def test_just_beyond_radius_excluded():
    a, b, d = pairs_within(np.array([1, 2]), np.array([[0.0, 0.0], [0.0, 2.01]]), 2.0)
    assert len(a) == 0


def test_grid_matches_brute_force_uniform_box():
    rng = np.random.default_rng(99)
    ids = np.arange(200, dtype=np.int64)
    rng.shuffle(ids)
    pos = rng.uniform(0.0, 30.0, size=(200, 2))
    a, b, d = pairs_within(ids, pos, 2.0)
    got = sorted(zip(a.tolist(), b.tolist(), d.tolist()))
    want = brute_force_pairs(ids.tolist(), pos.tolist(), 2.0)
    assert [(x, y) for x, y, _ in got] == [(x, y) for x, y, _ in want]
    np.testing.assert_allclose(
        [g[2] for g in got], [w[2] for w in want], rtol=0, atol=1e-9
    )


def test_output_sorted_by_pair():
    rng = np.random.default_rng(3)
    ids = rng.permutation(50).astype(np.int64)
    pos = rng.uniform(0, 5, size=(50, 2))
    a, b, _ = pairs_within(ids, pos, 2.0)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert pairs == sorted(pairs)
    assert all(x < y for x, y in pairs)


def test_empty_and_singleton_frames():
    a, b, d = pairs_within(np.array([], dtype=np.int64), np.empty((0, 2)), 2.0)
    assert len(a) == len(b) == len(d) == 0
    a, b, d = pairs_within(np.array([7]), np.array([[1.0, 1.0]]), 2.0)
    assert len(a) == 0


def test_coincident_agents_found():
    a, b, d = pairs_within(np.array([4, 9]), np.zeros((2, 2)), 0.5)
    assert a.tolist() == [4] and b.tolist() == [9]
    assert d[0] == 0.0


@pytest.mark.parametrize("n", [10, 200])
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_a_radius_that_is_not_finite_and_positive_is_rejected(radius, n):
    rng = np.random.default_rng(n)
    ids, pos = np.arange(n, dtype=np.int64), rng.uniform(0.0, 5.0, size=(n, 2))
    with pytest.raises(ValueError, match=r"^radius must be finite and > 0$"):
        pairs_within(ids, pos, radius)
    with pytest.raises(ValueError, match=r"^radius must be finite and > 0$"):
        pairs_within_frames([frame(0, ids, pos)], radius)


@given(
    st.integers(2, 300),
    st.floats(0.3, 5.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_grid_matches_brute_force_property(n, radius, seed):
    rng = np.random.default_rng(seed)
    ids = rng.choice(10 * n, size=n, replace=False).astype(np.int64)
    # cluster some points to stress duplicate cells and zero distances
    pos = rng.uniform(-20, 20, size=(n, 2))
    clones = rng.integers(0, n, size=n // 4)
    pos[clones] = pos[rng.integers(0, n, size=n // 4)]
    a, b, d = pairs_within(ids, pos, radius)
    got = [(x, y) for x, y in zip(a.tolist(), b.tolist())]
    want = [(x, y) for x, y, _ in brute_force_pairs(ids.tolist(), pos.tolist(), radius)]
    assert got == want


# Pairs are sorted by one packed int64 key while the id span w (max - min + 1)
# has w^2 < 2^62, that is w < 2^31, and by np.lexsort beyond.
@pytest.mark.parametrize("n", [40, 300])
@pytest.mark.parametrize("base, width", [
    (0, 2**31 - 1), (0, 2**31), (-2**40, 2**31 - 1), (-2**40, 2**31), (-7, 5000),
    (-2**63, 2**64),
])
def test_sort_on_both_sides_of_the_packing_limit(n, base, width, monkeypatch):
    rng = np.random.default_rng(n)
    ids = base + 1 + rng.choice(min(width - 2, 10**6), size=n, replace=False)
    ids[:2] = base, base + width - 1
    pos = rng.uniform(0.0, np.sqrt(n * 4.0), size=(n, 2))
    pos[:2] = pos[2], pos[2] + 0.5  # the extreme ids meet each other and a third
    order = rng.permutation(n)
    ids, pos = ids[order], pos[order]
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or lexsort(keys))
    a, b, d = pairs_within(ids, pos, 2.0)
    assert bool(lexsorts) == (width >= 2**31)
    want = brute_force_pairs(ids.tolist(), pos.tolist(), 2.0)
    assert (base, base + width - 1) in [(x, y) for x, y, _ in want]
    assert list(zip(a.tolist(), b.tolist())) == [(x, y) for x, y, _ in want]
    np.testing.assert_allclose(d, [w[2] for w in want], rtol=0, atol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [2.0, 1e-300])
def test_far_points_warn_nothing_and_keep_their_pairs(radius):
    """Points whose offsets overflow when squared and whose cells overflow
    an int64 (at a tiny radius, whose cell quotient is inf), among ordinary
    ones: the search keeps every pair in range, with the same bytes for the
    frame alone and in a batch."""
    rng = np.random.default_rng(4)
    pos = rng.uniform(0.0, 20.0, size=(130, 2))
    pos[:4] = [[1e300, 1e300], [1e300, 1e300], [-1e300, 5.0], [1e300, -1e300]]
    pos[4:7] = [[1e15, 3.0], [1e15, 3.0], [-1e15, -1e15]]
    pos[7] = pos[8]
    ids = np.arange(130, dtype=np.int64)[::-1].copy()
    ga, gb, gd = pairs_within(ids, pos, radius)
    [(ta, tb, td)] = pairs_within_frames([frame(0, ids, pos)], radius)
    assert np.array_equal(ga, ta) and np.array_equal(gb, tb) and np.array_equal(gd, td)
    pairs = set(zip(ga.tolist(), gb.tolist()))
    assert {(128, 129), (124, 125), (121, 122)} <= pairs


# --- ledger semantics ----------------------------------------------------------


def make_ledger(radius=2.0, **kw):
    return ContactLedger(ContactConfig(effective_radius=radius, **kw))


def records_by_pair(led):
    """(id_a, id_b) -> the pair's records in record order, each a dict of
    its ``led.columns()`` entries as Python scalars, with ``mean``."""
    c = {k: v.tolist() for k, v in led.columns().items()}
    out: dict = {}
    for i in range(led.n_records):
        r = {k: v[i] for k, v in c.items()}
        r["mean"] = r["dist_sum"] / r["duration"]
        out.setdefault((r["id_a"], r["id_b"]), []).append(r)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        ContactConfig(effective_radius=0.0)
    with pytest.raises(ValueError):
        ContactConfig(min_duration=0)
    with pytest.raises(ValueError):
        ContactConfig(chunk_length=0)


@pytest.mark.parametrize("name, value", [
    ("min_duration", 1.5), ("min_duration", True), ("chunk_length", 2.5), ("chunk_length", True),
])
def test_config_rejects_a_count_that_is_not_an_int(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1 tick$"):
        ContactConfig(**{name: value})


@pytest.mark.parametrize("name", ["effective_radius"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_config_rejects_non_positive_or_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        ContactConfig(**{name: value})

def test_running_mean_and_duration(golden):
    led = make_ledger()
    for f in golden[:1]:
        led.observe(f)
    rec = records_by_pair(led)[(0, 2)]  # host-G2
    assert len(rec) == 1
    assert rec[0]["duration"] == 1
    assert rec[0]["mean"] == pytest.approx(1.50, abs=1e-12)

    led.observe(golden[1])
    rec = records_by_pair(led)[(0, 2)]
    assert rec[0]["duration"] == 2
    assert rec[0]["mean"] == pytest.approx(1.75, abs=1e-12)
    assert rec[0]["open"]

    led.observe(golden[2])
    rec = records_by_pair(led)[(0, 2)]
    assert rec[0]["duration"] == 3
    assert rec[0]["mean"] == pytest.approx(1.70, abs=1e-12)
    assert rec[0]["start"] == 0
    assert rec[0]["last"] == 2


def test_reentry_creates_new_record(golden):
    led = make_ledger()
    for f in golden:
        led.observe(f)
    recs = records_by_pair(led)[(0, 3)]  # host-Y1: ticks {0} and {2}
    assert len(recs) == 2
    assert (recs[0]["start"], recs[0]["last"], recs[0]["duration"]) == (0, 0, 1)
    assert recs[0]["mean"] == pytest.approx(0.90, abs=1e-12)
    assert not recs[0]["open"]
    assert (recs[1]["start"], recs[1]["duration"]) == (2, 1)
    assert recs[1]["mean"] == pytest.approx(1.10, abs=1e-12)
    assert recs[1]["open"]


def test_leaving_radius_closes_record(golden):
    led = make_ledger()
    for f in golden:
        led.observe(f)
    recs = records_by_pair(led)[(0, 5)]  # host-B1: ticks {0, 1}, out at 2
    assert len(recs) == 1
    assert (recs[0]["duration"], recs[0]["open"]) == (2, False)
    assert recs[0]["mean"] == pytest.approx(0.90, abs=1e-12)
    assert recs[0]["last"] == 1


def test_finalize_closes_and_is_idempotent(golden):
    led = make_ledger()
    for f in golden:
        led.observe(f)
    open_before = int(led.columns()["open"].sum())
    assert open_before > 0
    led.finalize(2)
    snap = led.columns()
    assert not snap["open"].any()
    led.finalize(2)
    again = led.columns()
    assert again.keys() == snap.keys()
    assert all(np.array_equal(again[k], snap[k]) for k in snap)
    durations = snap["duration"].tolist()
    led.finalize(5)
    assert led.columns()["duration"].tolist() == durations


def test_finalize_cannot_rewind(golden):
    led = make_ledger()
    for f in golden:
        led.observe(f)
    with pytest.raises(ValueError):
        led.finalize(1)


def test_non_monotonic_tick_rejected(golden):
    led = make_ledger()
    led.observe(golden[0])
    with pytest.raises(NonMonotonicTickError):
        led.observe(golden[2])  # skipped tick 1
    # re-observing the same tick is also rejected
    led.observe(golden[1])
    with pytest.raises(NonMonotonicTickError):
        led.observe(golden[1])


def ledger_state(led):
    cols = {k: (v.dtype, v.tolist()) for k, v in led.columns().items()}
    return (cols, list(led.type_names), led.agents(), led.first_tick, led.last_tick)


# each frame for tick 1 adds a new agent 7 and a new type before its fault,
# which the message names
REJECTED_FRAMES = {
    "type change": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                          type_ids=[1, 0, 0], type_names=["other", "only"]),
                    "tick 1: agent 9 changed type from 'only' to 'other'"),
    "negative id": (frame(1, [4, 7, 9, -5], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.2, 0.0]],
                          type_ids=[0, 1, 0, 0], type_names=["only", "other"]),
                    r"tick 1: agent -5 is outside the supported id range \[0, 2\^31\)"),
    "id 2^31": (frame(1, [4, 7, 9, 2**31], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.2, 0.0]],
                      type_ids=[0, 1, 0, 0], type_names=["only", "other"]),
                r"tick 1: agent 2147483648 is outside the supported id range \[0, 2\^31\)"),
    "non-finite position": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, np.nan]],
                                  type_ids=[0, 1, 0], type_names=["only", "other"]),
                            "tick 1: agent 9 has a non-finite position"),
    "skipped tick": (frame(2, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                           type_ids=[0, 1, 0], type_names=["only", "other"]),
                     "tick 2: expected tick 1"),
    "repeated id": (frame(1, [4, 7, 7, 9], [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [1.0, 0.0]],
                          type_ids=[0, 1, 1, 0], type_names=["only", "other"]),
                    "tick 1: agent 7 appears twice"),
    "type index past the names": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                                        type_ids=[0, 1, 2], type_names=["only", "other"]),
                                  "tick 1: agent 9 has type index 2, outside the frame's "
                                  "2 type names"),
    "negative type index": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                                  type_ids=[0, -1, 0], type_names=["only", "other"]),
                            "tick 1: agent 7 has type index -1, outside the frame's "
                            "2 type names"),
    "fewer positions than ids": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0]],
                                       type_ids=[0, 1, 0], type_names=["only", "other"]),
                                 r"tick 1: 3 ids but 3 type ids and positions of shape \(2, 2\)"),
    "fewer type ids than ids": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                                      type_ids=[0, 1], type_names=["only", "other"]),
                                r"tick 1: 3 ids but 2 type ids and positions of shape \(3, 2\)"),
    # type names the trace and scenario formats reject
    "type name with ','": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                                 type_ids=[0, 1, 0], type_names=["only", "a,b"]),
                           "tick 1: type name 'a,b' must not contain ','"),
    "type name with ':'": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                                 type_ids=[1, 0, 1], type_names=["c:d", "only"]),
                           "tick 1: type name 'c:d' must not contain ':'"),
    "empty type name": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                              type_ids=[0, 1, 0], type_names=["only", ""]),
                        "tick 1: type name '' must not be empty"),
    "type name with a tab": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                                   type_ids=[0, 1, 0], type_names=["only", "a\tb"]),
                             r"tick 1: type name 'a\\tb' must hold only printable characters"),
    "type name with a newline": (frame(1, [4, 7, 9], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
                                       type_ids=[0, 1, 0], type_names=["only", "a\nb"]),
                                 r"tick 1: type name 'a\\nb' must hold only printable "
                                 "characters"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_FRAMES))
def test_rejected_frame_leaves_ledger_unchanged(case):
    led = make_ledger()
    led.observe(frame(0, [4, 9], [[0.0, 0.0], [1.0, 0.0]]))
    before = ledger_state(led)
    bad, message = REJECTED_FRAMES[case]
    with pytest.raises(FrameError, match=f"^{message}$"):
        led.observe(bad)
    assert ledger_state(led) == before
    # so the corrected frame for tick 1 is accepted
    led.observe(frame(1, [4, 9], [[0.0, 0.0], [1.0, 0.0]]))
    led.finalize(1)
    c = led.columns()
    assert list(zip(c["id_a"].tolist(), c["id_b"].tolist(), c["duration"].tolist())) == [(4, 9, 2)]
    assert (led.type_names, led.agents()) == (["only"], {4: 0, 9: 0})


def test_type_change_rejected(golden):
    led = make_ledger()
    led.observe(golden[0])
    bad = frame(1, [0], [[0.0, 0.0]], type_ids=[1], type_names=["host", "green"])
    with pytest.raises(FrameError, match="tick 1: agent 0 changed type from 'host' to 'green'"):
        led.observe(bad)


def test_absent_agents_close_naturally():
    led = make_ledger()
    led.observe(frame(0, [1, 2], [[0.0, 0.0], [1.0, 0.0]]))
    led.observe(frame(1, [1], [[0.0, 0.0]]))  # agent 2 off-site
    recs = records_by_pair(led)[(1, 2)]
    assert len(recs) == 1 and not recs[0]["open"]
    assert recs[0]["duration"] == 1


def test_observed_populations(golden):
    led = make_ledger()
    for f in golden:
        led.observe(f)
    assert led.observed_populations() == {"host": 1, "green": 2, "yellow": 2, "blue": 3}


def test_ledger_matches_offline_replay(golden):
    led = make_ledger()
    for f in golden:
        led.observe(f)
    led.finalize(2)
    want = replay_records(golden, GOLDEN_RADIUS)
    got = records_by_pair(led)
    assert set(got) == set(want)
    for key, recs in got.items():
        assert len(recs) == len(want[key])
        for r, w in zip(recs, want[key]):
            assert r["start"] == w["start"]
            assert r["last"] == w["last"]
            assert r["duration"] == w["duration"]
            mean = sum(w["distances"]) / len(w["distances"])
            assert r["mean"] == pytest.approx(mean, abs=1e-9)


# random walks: ledger vs the offline oracle, gap and count-bound properties


@st.composite
def random_walk_frames(draw):
    n = draw(st.integers(2, 12))
    ticks = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(100, size=n, replace=False)).astype(np.int64)
    type_names = ["walker", "runner", "sitter"][: draw(st.integers(2, 3))]
    types = rng.integers(0, len(type_names), size=n).astype(np.int32)
    pos = rng.uniform(0, 8, size=(n, 2))
    frames = []
    for t in range(ticks):
        pos = pos + rng.uniform(-1.5, 1.5, size=pos.shape)
        present = rng.random(n) > 0.15  # some agents blink off-site
        if not present.any():
            present[0] = True
        frames.append(
            TickFrame(
                t,
                ids[present],
                types[present],
                pos[present].copy(),
                type_names,
            )
        )
    return frames


@given(random_walk_frames())
@settings(max_examples=40, deadline=None)
def test_ledger_replay_property(frames):
    led = make_ledger(radius=2.0)
    for f in frames:
        led.observe(f)
    last = frames[-1].tick

    # the derived columns, read before finalize
    c = led.columns()
    assert {k: v.dtype for k, v in c.items()} == {
        "id_a": np.int64, "id_b": np.int64, "type_a": np.int32, "type_b": np.int32,
        "start": np.int64, "last": np.int64, "duration": np.int64,
        "dist_sum": np.float64, "open": np.bool_,
    }
    latest = {(a, b) for a, b, _ in brute_force_pairs(frames[-1].ids, frames[-1].positions, 2.0)}
    is_open = c["open"]
    assert int(is_open.sum()) == len(latest)
    assert set(zip(c["id_a"][is_open].tolist(), c["id_b"][is_open].tolist())) == latest
    np.testing.assert_array_equal(c["last"], c["start"] + c["duration"] - 1)
    assert (c["last"][is_open] == last).all()
    roster = {int(i): f.type_names[t] for f in frames for i, t in zip(f.ids, f.type_ids)}
    for ids, types in ((c["id_a"], c["type_a"]), (c["id_b"], c["type_b"])):
        assert [led.type_names[t] for t in types] == [roster[i] for i in ids.tolist()]

    led.finalize(last)
    assert not led.columns()["open"].any()

    want = replay_records(frames, 2.0)
    per_pair = records_by_pair(led)

    assert set(per_pair) == set(want)
    horizon = last + 1
    for key, recs in per_pair.items():
        oracle = want[key]
        assert len(recs) == len(oracle)
        for r, w in zip(recs, oracle):
            assert (r["start"], r["last"], r["duration"]) == (
                w["start"], w["last"], w["duration"],
            )
            assert r["duration"] == r["last"] - r["start"] + 1
            mean = sum(w["distances"]) / len(w["distances"])
            assert r["mean"] == pytest.approx(mean, abs=1e-9)
        # gap >= 2 between consecutive records of a pair
        for prev, nxt in zip(recs, recs[1:]):
            assert nxt["start"] >= prev["last"] + 2
        assert len(recs) <= math.ceil(horizon / 2)
        assert sum(r["duration"] for r in recs) <= horizon


# queued ledger vs the per-frame ledger it replaced


class PerFrameLedger(ContactLedger):
    """The reference: ``observe`` as it was before frames were queued.  Each
    frame is checked, searched alone with ``pairs_within`` and folded into
    the records at once, so the inherited views never find a queue."""

    def observe(self, frame):
        if self.finalized:
            raise ValueError("ledger is finalized")
        if not np.isfinite(frame.positions).all():
            bad = frame.ids[np.argmin(np.isfinite(frame.positions).all(axis=1))]
            raise FrameError(f"tick {frame.tick}: agent {bad} has a non-finite position")
        if self.last_tick is not None and frame.tick != self.last_tick + 1:
            raise NonMonotonicTickError(f"tick {frame.tick}: expected tick {self.last_tick + 1}")
        roster = self._check_roster(frame)

        if roster is not None:
            self.type_names, new = roster
            self._type_of.update(new)
            self._last_roster = (frame.ids, frame.type_ids, frame.type_names)
        if self.first_tick is None:
            self.first_tick = frame.tick
        self.last_tick = frame.tick

        a, b, dist = pairs_within(frame.ids, frame.positions, self.config.effective_radius)
        keys = pair_key(a, b)

        idx = np.empty(len(keys), dtype=np.int64)
        cont = np.zeros(len(keys), dtype=bool)
        n_open = len(self._open_keys)
        if n_open:
            pos = np.minimum(np.searchsorted(self._open_keys, keys), n_open - 1)
            cont = self._open_keys[pos] == keys
            idx[cont] = rec = self._open_idx[pos[cont]]
            self._duration[rec] += 1
            self._dist_sum[rec] += dist[cont]

        fresh = ~cont
        k = int(fresh.sum())
        self._ensure(k)
        sl = slice(self._n, self._n + k)
        self._id_a[sl] = a[fresh]
        self._id_b[sl] = b[fresh]
        self._start[sl] = frame.tick
        self._duration[sl] = 1
        self._dist_sum[sl] = dist[fresh]
        idx[fresh] = np.arange(self._n, self._n + k, dtype=np.int64)
        self._n += k
        self._open_keys, self._open_idx = keys, idx


QUEUE_IDS = [0, 1, 2, 3, 5, 8, 13, 2**31 - 1]  # the largest id sorts by lexsort
QUEUE_NAMES = ["a", "b", "c"]


@st.composite
def queued_ledger_script(draw):
    """Frames for a ledger to observe, each maybe followed by a read, and
    maybe a frame it must reject before it.  Agents sit on a half-metre
    grid, so pairs meet at the radius, leave and meet again; ticks may be
    empty."""
    first = draw(st.integers(0, 5))
    script, known = [], {}
    for tick in range(first, first + draw(st.integers(1, 30))):
        present = draw(st.lists(st.sampled_from(QUEUE_IDS), max_size=8, unique=True))
        cells = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                              min_size=len(present), max_size=len(present)))
        names = QUEUE_NAMES if draw(st.booleans()) else draw(st.permutations(QUEUE_NAMES))
        ids = np.array(present, dtype=np.int64)
        type_ids = np.array([names.index(QUEUE_NAMES[i % 3]) for i in present], dtype=np.int32)
        positions = np.array(cells, dtype=np.float64).reshape(-1, 2) * 0.5
        good = TickFrame(tick, ids, type_ids, positions, names)
        fault = draw(st.sampled_from([None, None, "position", "tick", "id", "type"]))
        if fault == "tick" and tick > first:
            bad = TickFrame(tick + draw(st.sampled_from([-1, 1, 2])), ids, type_ids,
                            positions, names)
        elif fault in ("tick", "type"):
            if known:  # one known agent with another type
                agent = draw(st.sampled_from(sorted(known)))
                other = (QUEUE_NAMES.index(known[agent]) + 1) % 3
                bad = TickFrame(tick, np.array([agent]), np.array([other], dtype=np.int32),
                                np.zeros((1, 2)), QUEUE_NAMES)
            else:
                fault = None
        elif fault == "id":
            bad = TickFrame(tick, np.append(ids, draw(st.sampled_from([-1, 2**31]))),
                            np.append(type_ids, 0), np.vstack([positions, [[0.0, 0.0]]]), names)
        elif fault is not None:
            spoilt = np.vstack([positions, [[0.0, 0.0]]])
            spoilt[draw(st.integers(0, len(ids)))] = draw(st.sampled_from([np.nan, np.inf]))
            bad = TickFrame(tick, np.append(ids, 99), np.append(type_ids, 0), spoilt, names)
        if fault is not None:
            script.append(("reject", bad))
        script.append(("observe", good))
        known.update((i, QUEUE_NAMES[i % 3]) for i in present)
        script.append(("read", draw(st.sampled_from([None, None, "n_records", "columns"]))))
    return script


def outcome(fn):
    """What ``fn()`` raised, as (type, message), or None."""
    try:
        fn()
    except ValueError as e:
        return type(e), str(e)
    return None


def bits(columns):
    return {name: (col.dtype.str, col.tobytes()) for name, col in columns.items()}


@given(queued_ledger_script(), st.sampled_from([1, 2, 3, 7, 2048]), st.floats(0.5, 2.0),
       st.sampled_from([np.int64, np.int32, np.uint64]))
@settings(max_examples=150, deadline=None)
def test_queued_ledger_matches_the_per_frame_ledger(script, rows, radius, id_type):
    """Column for column and bit for bit, at every read and at the end; a
    rejected frame raises the reference's error at its own ``observe`` and
    leaves the same roster and ticks.  The queued ledger may see its
    accepted frames' ids in another integer type: the reference keys int32
    ids wrongly, as two int32 ids do not fit in one int32 ``pair_key``."""
    queued, per_frame = make_ledger(radius), PerFrameLedger(ContactConfig(effective_radius=radius))
    with mock.patch.object(contacts, "ROWS", rows):
        for step, arg in script:
            if step != "read":
                mine = arg if step == "reject" else TickFrame(
                    arg.tick, arg.ids.astype(id_type), arg.type_ids, arg.positions, arg.type_names)
                got = outcome(lambda: queued.observe(mine))
                assert got == outcome(lambda: per_frame.observe(arg))
                assert (got is None) == (step == "observe")
            elif arg == "n_records":
                assert queued.n_records == per_frame.n_records
            elif arg == "columns":
                assert bits(queued.columns()) == bits(per_frame.columns())
            state = (queued.type_names, queued.agents(), queued.first_tick, queued.last_tick)
            assert state == (per_frame.type_names, per_frame.agents(),
                             per_frame.first_tick, per_frame.last_tick)
        queued.finalize(queued.last_tick + 1)
        per_frame.finalize(per_frame.last_tick + 1)
        assert bits(queued.columns()) == bits(per_frame.columns())
        assert bits(queued.stored_columns()) == bits(per_frame.stored_columns())
        late = script[-2][1]
        assert outcome(lambda: queued.observe(late)) == outcome(lambda: per_frame.observe(late))


# --- trace format ---------------------------------------------------------------


def test_trace_round_trip(golden):
    buf = io.StringIO()
    write_frames(buf, golden)
    text = buf.getvalue()
    assert text == golden_trace_text()
    back = list(read_frames(io.StringIO(text)))
    assert len(back) == len(golden)
    for f, g in zip(back, golden):
        assert f.tick == g.tick
        np.testing.assert_array_equal(f.ids, g.ids)
        np.testing.assert_array_equal(f.positions, g.positions)  # repr round-trip
        assert [f.type_names[i] for i in f.type_ids] == [
            g.type_names[i] for i in g.type_ids
        ]


def test_trace_header_optional():
    body = golden_trace_text(header=False)
    frames = list(read_frames(io.StringIO(body)))
    assert [f.tick for f in frames] == [0, 1, 2]


def test_trace_must_start_at_zero():
    with pytest.raises(TraceFormatError, match="line 1"):
        list(read_frames(io.StringIO("1,0,a,0.0,0.0\n")))


def test_trace_tick_jump_reports_line():
    text = "tick,agent_id,type_name,x_m,y_m\n0,0,a,0.0,0.0\n2,0,a,0.0,0.0\n"
    with pytest.raises(TraceFormatError, match="line 3"):
        list(read_frames(io.StringIO(text)))


def test_trace_bad_field_reports_line():
    text = "0,0,a,0.0,0.0\n1,zero,a,0.0,0.0\n"
    with pytest.raises(TraceFormatError, match="line 2"):
        list(read_frames(io.StringIO(text)))


@pytest.mark.parametrize("x, y", [("nan", "0.0"), ("0.0", "inf"), ("-Infinity", "1.5")])
def test_trace_non_finite_position_reports_line(x, y):
    text = f"0,0,a,0.0,0.0\n0,1,a,{x},{y}\n"
    with pytest.raises(TraceFormatError, match="line 2: position .* is not finite"):
        list(read_frames(io.StringIO(text)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observe_rejects_non_finite_position(bad):
    led = make_ledger()
    led.observe(frame(0, [4, 9], [[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="tick 1: agent 9 has a non-finite position"):
        led.observe(frame(1, [4, 9], [[0.0, 0.0], [1.0, bad]]))
    # the rejected frame left the ledger untouched: tick 1 is still next
    led.observe(frame(1, [4, 9], [[0.0, 0.0], [1.0, 0.0]]))
    led.finalize(1)
    assert led.columns()["duration"].tolist() == [2]


def test_trace_duplicate_agent_rejected():
    text = "0,7,a,0.0,0.0\n0,7,a,1.0,1.0\n"
    with pytest.raises(TraceFormatError, match="line 2"):
        list(read_frames(io.StringIO(text)))


def test_empty_tick_placeholder_round_trips():
    frames = [
        frame(0, [1], [[0.0, 0.0]]),
        frame(1, [], np.empty((0, 2))),
        frame(2, [1], [[1.0, 1.0]]),
    ]
    buf = io.StringIO()
    write_frames(buf, frames)
    text = buf.getvalue()
    assert "\n1,,,,\n" in text
    back = list(read_frames(io.StringIO(text)))
    assert [f.tick for f in back] == [0, 1, 2]
    assert len(back[1]) == 0


# --- throughput smoke (full benchmark lives in the acceptance suite) -----------


def test_dense_frame_observe_is_vectorized():
    rng = np.random.default_rng(0)
    n = 2000
    ids = np.arange(n, dtype=np.int64)
    led = make_ledger()
    import time

    pos = rng.uniform(0, 100, size=(n, 2))
    t0 = time.perf_counter()
    for t in range(20):
        pos += rng.uniform(-0.5, 0.5, size=pos.shape)
        led.observe(TickFrame(t, ids, np.zeros(n, dtype=np.int32), pos.copy(), ["x"]))
    dt = time.perf_counter() - t0
    # 40k agent-ticks; a hard fail here means a Python-loop regression
    assert dt < 2.0
    assert led.n_records > 0
