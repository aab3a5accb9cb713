"""The block trace reader and batched detection against the per-line and
per-frame code they replaced.

``read_frames`` parses ``ROWS`` lines at a time with ``np.loadtxt`` and
falls back to a line loop for a block it cannot vouch for.  The reference
below is the line loop as it was before blocks, with the rules since added
that a type name holds no ":" and only printable characters: on every
generated trace,
valid or with one fault, both must yield the same frames, and the same
frames before a ``TraceFormatError`` with the same message.

``pairs_within_frames`` searches many frames in one grid; each frame must
get the bytes its own ``pairs_within`` call gives.
"""

from __future__ import annotations

import io
from math import isfinite

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmix import contacts, frames
from contactmix.contacts import pairs_within, pairs_within_frames
from contactmix.frames import TRACE_HEADER, TickFrame, TraceFormatError, read_frames


def reference_read_frames(lines):
    """The line-at-a-time reader that ``read_frames`` replaced."""
    type_names: list[str] = []
    type_index: dict[str, int] = {}

    expected_tick = 0
    cur_tick = None
    ids: list[int] = []
    types: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    seen: set[int] = set()

    def flush():
        frame = TickFrame(
            tick=cur_tick,
            ids=np.array(ids, dtype=np.int64),
            type_ids=np.array(types, dtype=np.int32),
            positions=np.column_stack([xs, ys]) if ids else np.empty((0, 2)),
            type_names=type_names,
        )
        ids.clear(), types.clear(), xs.clear(), ys.clear(), seen.clear()
        return frame

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line_no == 1 and line == TRACE_HEADER:
            continue
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TraceFormatError(line_no, f"expected 5 comma-separated fields, got {len(parts)}")
        try:
            tick = int(parts[0])
        except ValueError:
            raise TraceFormatError(line_no, f"tick {parts[0]!r} is not an integer") from None
        if cur_tick is None:
            if tick != expected_tick:
                raise TraceFormatError(line_no, f"ticks must start at 0, got {tick}")
            cur_tick = tick
        elif tick != cur_tick:
            if tick != cur_tick + 1:
                raise TraceFormatError(
                    line_no, f"tick jumped from {cur_tick} to {tick}; ticks must be dense"
                )
            yield flush()
            cur_tick = tick

        if parts[1] == "":
            if any(parts[2:]):
                raise TraceFormatError(line_no, "placeholder line must leave all agent fields empty")
            continue  # explicit empty tick
        try:
            agent_id = int(parts[1])
        except ValueError:
            raise TraceFormatError(line_no, f"agent_id {parts[1]!r} is not an integer") from None
        if agent_id in seen:
            raise TraceFormatError(line_no, f"agent {agent_id} appears twice in tick {tick}")
        seen.add(agent_id)
        type_name = parts[2]
        if not type_name:
            raise TraceFormatError(line_no, "type_name '' must not be empty")
        if ":" in type_name:
            raise TraceFormatError(line_no, f"type_name {type_name!r} must not contain ':'")
        if not type_name.isprintable():
            raise TraceFormatError(
                line_no, f"type_name {type_name!r} must hold only printable characters")
        try:
            x, y = float(parts[3]), float(parts[4])
        except ValueError:
            raise TraceFormatError(line_no, "positions must be numbers") from None
        if not (isfinite(x) and isfinite(y)):
            raise TraceFormatError(line_no, f"position ({parts[3]}, {parts[4]}) is not finite")
        if type_name not in type_index:
            type_index[type_name] = len(type_names)
            type_names.append(type_name)
        ids.append(agent_id)
        types.append(type_index[type_name])
        xs.append(x)
        ys.append(y)

    if cur_tick is not None:
        yield flush()


def outcome(reader, lines):
    """Every frame a reader yields, as comparable bytes, then its error or None.

    Type ids are resolved to names at the end, since all frames share one
    growing name list.
    """
    got = []
    error = None
    try:
        for f in reader(iter(lines)):
            got.append(f)
    except (TraceFormatError, OverflowError) as e:  # the reference overflows on an id beyond int64
        error = f"{type(e).__name__}: {e}"
    names = got[-1].type_names if got else []
    return [
        (f.tick, f.ids.dtype, f.ids.tobytes(), f.type_ids.dtype, f.positions.dtype,
         f.positions.shape, f.positions.tobytes(), [names[t] for t in f.type_ids.tolist()])
        for f in got
    ], list(names), error


def assert_same(lines):
    want = outcome(reference_read_frames, lines)
    assert outcome(read_frames, lines) == want
    return want


TYPES = ["nurse", "patient", "a" * 40, "head nurse", "ward #3", '"quoted"', "it's"]


def trace_lines(rng, ticks=40, max_agents=12, header=True, blanks=False,
                first_empty=False, last_empty=False, long_tick=None):
    """A valid trace: each tick has a random subset of agents, in random order."""
    lines = [TRACE_HEADER + "\n"] if header else []
    type_of = rng.integers(0, len(TYPES), size=10_000)
    for tick in range(ticks):
        n = int(rng.integers(0, max_agents + 1))
        if (tick == 0 and first_empty) or (tick == ticks - 1 and last_empty):
            n = 0
        if tick == long_tick:
            n = 3 * frames.ROWS + 5
        if n == 0:
            lines.append(f"{tick},,,,\n")
        for aid in rng.choice(10_000, size=n, replace=False).tolist():
            x, y = rng.uniform(-50.0, 50.0, size=2).tolist()
            lines.append(f"{tick},{aid},{TYPES[type_of[aid]]},{x!r},{round(y, 2)}\n")
        if blanks and rng.random() < 0.2:
            lines.append(str(rng.choice(["\n", "   \n", "\t\n"])))
    return lines


@pytest.fixture(params=[3, 7, 64], ids=lambda r: f"ROWS={r}")
def rows(request, monkeypatch):
    monkeypatch.setattr(frames, "ROWS", request.param)
    return request.param


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("header", [True, False])
def test_valid_traces_read_the_same(rows, seed, header):
    rng = np.random.default_rng([seed, rows])
    lines = trace_lines(rng, header=header, blanks=seed % 2 == 1,
                        first_empty=seed < 2, last_empty=seed in (1, 3))
    got, names, error = assert_same(lines)
    assert error is None and len(got) == 40


def test_a_tick_longer_than_a_block_reads_the_same(rows):
    lines = trace_lines(np.random.default_rng(rows), ticks=6, long_tick=2)
    got, _, error = assert_same(lines)
    assert error is None and len(got[2][2]) == 8 * (3 * rows + 5)


def test_default_block_size_reads_the_same():
    lines = trace_lines(np.random.default_rng(5), ticks=30, max_agents=200, long_tick=4)
    assert len(lines) > 3 * frames.ROWS
    assert assert_same(lines)[2] is None


def inject(lines, k, fault):
    """The trace with data line k (0-based, after the header) broken by ``fault``."""
    body = lines[1:]
    tick, aid, name, x, y = body[k].rstrip("\n").split(",")
    if fault == "6 fields":
        body[k] = f"{tick},{aid},{name},{x},{y},1\n"
    elif fault == "float tick":
        body[k] = f"{tick}.0,{aid},{name},{x},{y}\n"
    elif fault == "id with underscore":
        body[k] = f"{tick},1_000,{name},{x},{y}\n"
    elif fault == "NaN":
        body[k] = f"{tick},{aid},{name},nan,{y}\n"
    elif fault == "duplicate id":
        prev = body[k - 1].split(",")
        body[k] = f"{tick},{prev[1]},{name},{x},{y}\n"
    elif fault == "tick jump":
        for j in range(k, len(body)):
            t, rest = body[j].split(",", 1)
            body[j] = f"{int(t) + 1},{rest}"
    elif fault == "empty type":
        body[k] = f"{tick},{aid},,{x},{y}\n"
    elif fault == "colon in type":
        body[k] = f"{tick},{aid},{name}:{name},{x},{y}\n"
    elif fault == "tab in type":
        body[k] = f"{tick},{aid},{name}\t{name},{x},{y}\n"
    return lines[:1] + body


FAULTS = ["6 fields", "float tick", "id with underscore", "NaN", "duplicate id",
          "tick jump", "empty type", "colon in type", "tab in type"]


@pytest.mark.parametrize("fault", FAULTS)
def test_one_fault_reads_the_same(rows, fault):
    # three ticks of 20 agents, ids from 1001, so that "1_000" is no duplicate
    lines = [TRACE_HEADER + "\n"]
    for tick in range(3):
        lines += [f"{tick},{1001 + i},{TYPES[i % 3]},{i * 0.5!r},1.25\n" for i in range(20)]
    # the fault sits on the last line of a block, on the first line of the
    # next one (line k + 2 counts the header), and mid-block
    for k in (rows - 2, rows - 1, rows, 2 * rows + 1, 21, 20):
        if k >= 60:
            continue
        if fault == "duplicate id" and k % 20 == 0:
            continue  # the line before belongs to the previous tick
        if fault == "tick jump" and k % 20 != 0:
            continue  # a tick can only jump where a new one starts
        _, _, error = assert_same(inject(lines, k, fault))
        if fault == "id with underscore":
            assert error is None  # int() accepts it, and so does the reader
        else:
            assert error.startswith(f"TraceFormatError: line {k + 2}:"), (k, error)


SPELLINGS = [" 5", "5 ", "+5", "-0", "05", "5\t", "\x0c5", "\xa05", "5 ", "٥",
             "5_0", "0x5", "5.0", "5e0", ".5", "5.", "1e400", "-inf", "nan", "", "5\r", "five"]
# np.loadtxt reads "Ǿ5" as 4625 and skips \x1c-\x1f as spaces
ODD_CHARACTERS = [chr(c) for c in range(1, 128) if chr(c) not in ",\n"] + [
    "\x85", "\xa0", "\xe9", "Ǿ", "ݡ", " ", "　", "﻿"]


@pytest.mark.parametrize("column", range(5))
def test_field_spellings_read_the_same(column):
    spellings = SPELLINGS + [s for c in ODD_CHARACTERS for s in (c + "5", "5" + c, c)]
    for spelling in spellings:
        line = ["0", "1", "nurse", "0.5", "0.25"]
        line[column] = spelling
        lines = ["0,0,nurse,0.0,0.0\n", ",".join(line) + "\n", "1,,,,\n", "2,0,nurse,1.0,1.0\n"]
        assert_same(lines)


# Traces with an id beyond int64, and the line it is on.  The reference's
# int64 cast raises OverflowError; read_frames names the line instead, after
# the same frames.
BEYOND_INT64 = {
    "0,99999999999999999999,a,1.0,2.0\n": 1,
    "0,1,a,1.0,2.0\n1,2,a,1.0,2.0\n1,-9223372036854775809,a,1.0,2.0\n": 3,
}


def assert_id_beyond_int64_named(lines, line_no):
    got, names, error = outcome(read_frames, lines)
    want, want_names, want_error = outcome(reference_read_frames, lines)
    assert want_error.startswith("OverflowError")
    assert (got, names) == (want, want_names)
    bad = lines[line_no - 1].split(",")[1]
    assert error == f"TraceFormatError: line {line_no}: agent_id {bad!r} does not fit in 64 bits"


@pytest.mark.parametrize("text", [
    "0,0,a,1.0,2.0\r\n1,,,,\r\n2,0,a,1.0,2.0\r\n",  # a placeholder then ends in "\r"
    "0,0,a,1.0,2.0\r\n1,0,a,1.0,2.0\r\n",
    "tick,agent_id,type_name,x_m,y_m\r\n0,0,a,1.0,2.0\n",
    "0,,,,\n0,,,,\n0,1,a,1.0,2.0\n0,,,,\n1,,,,\n",  # placeholders inside a tick
    "0,,,,\n1,,x,,\n",
    "0,1,a,1.0,2.0\n\n\n",
    "\n\n",
    TRACE_HEADER + "\n",
    "0,1,a,1.0,2.0",  # no final newline
    "0,1,a,1.0,2.0\n1,2,a,1.0,2.0 2,3,a,1.0,2.0\n",
    "0,1,a,1.0,2.0\n1,2,a,1.0,2.0\x850,3,a,1.0,2.0\n",
    "0,99999999999999999999,a,1.0,2.0\n",
    "0,1,a,1.0,2.0\n1,2,a,1.0,2.0\n1,-9223372036854775809,a,1.0,2.0\n",
    "-1,1,a,1.0,2.0\n",
])
def test_odd_traces_read_the_same(text):
    lines = io.StringIO(text, newline="\n").readlines()  # split at "\n" only
    for rows_per_block in (1, 2, frames.ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frames, "ROWS", rows_per_block)
            if text in BEYOND_INT64:
                assert_id_beyond_int64_named(lines, BEYOND_INT64[text])
            else:
                assert_same(lines)


def test_largest_int64_ids_read_the_same():
    lines = ["0,9223372036854775807,a,1.0,2.0\n", "0,-9223372036854775808,a,1.0,2.0\n"]
    got, _, error = assert_same(lines)
    assert error is None and len(got) == 1


# --- batched detection -----------------------------------------------------------


def frame_of(ids, pos):
    ids = np.asarray(ids, dtype=np.int64)
    return TickFrame(0, ids, np.zeros(len(ids), dtype=np.int32),
                     np.asarray(pos, dtype=np.float64).reshape(-1, 2), ["only"])


def assert_batch_matches(batch, radius):
    got = pairs_within_frames(batch, radius)
    assert len(got) == len(batch)
    for f, (a, b, d) in zip(batch, got):
        wa, wb, wd = pairs_within(f.ids, f.positions, radius)
        assert (a.dtype, b.dtype, d.dtype) == (wa.dtype, wb.dtype, wd.dtype)
        assert a.tobytes() == wa.tobytes()
        assert b.tobytes() == wb.tobytes()
        assert d.tobytes() == wd.tobytes()
    return got


def random_frame(rng, n, side=30.0, id_range=10_000):
    ids = rng.choice(id_range, size=n, replace=False)
    return frame_of(ids, rng.uniform(0.0, side, size=(n, 2)))


def test_batch_matches_per_frame_on_both_sides_of_the_brute_force_size():
    rng = np.random.default_rng(8)
    sizes = [0, 1, 2, 40, 128, 129, 300, 0, 5]
    got = assert_batch_matches([random_frame(rng, n) for n in sizes], 2.0)
    assert sum(len(a) for a, _, _ in got) > 100


def test_batch_of_empty_single_and_coincident_frames():
    assert pairs_within_frames([], 2.0) == []
    coincident = frame_of([4, 1, 9], [[1.0, 1.0]] * 3)
    at_radius = frame_of([7, 3], [[0.0, 0.0], [0.0, 2.0]])  # the boundary counts
    batch = [frame_of([], []), frame_of([5], [[0.0, 0.0]]), coincident, at_radius]
    got = assert_batch_matches(batch, 2.0)
    assert [len(a) for a, _, _ in got] == [0, 0, 3, 1]
    assert_batch_matches(batch[:2], 2.0)  # fewer than two points in all


def test_batch_pairs_at_the_radius_across_cell_edges():
    # 200 points on a lattice of the radius: every neighbour sits exactly at
    # the radius, across a cell edge
    xy = np.stack(np.meshgrid(np.arange(20) * 2.0, np.arange(10) * 2.0), -1).reshape(-1, 2)
    f = frame_of(np.arange(200)[::-1], xy)
    got = assert_batch_matches([f, f], 2.0)
    assert len(got[0][0]) == 19 * 10 + 20 * 9


def test_batch_with_ids_that_need_the_lexsort():
    rng = np.random.default_rng(3)
    big = frame_of([0, 2**31 - 1, 5, 2**31 - 2], [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [9, 9]])
    assert_batch_matches([big, random_frame(rng, 150), big], 2.0)
    negative = frame_of([-3, 7, -9], [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    assert_batch_matches([negative, random_frame(rng, 30)], 2.0)


def test_batch_far_apart_is_searched_frame_by_frame(monkeypatch):
    rng = np.random.default_rng(4)
    far = random_frame(rng, 150)
    # cells are clipped to +-2^29, so one frame's keys span about 2^58, and
    # twenty frames would pass 2^62: the batch is split
    far.positions[:3] += 1e18
    calls = []
    per_frame = contacts.pairs_within
    monkeypatch.setattr(contacts, "pairs_within",
                        lambda *a: calls.append(1) or per_frame(*a))
    batch = [random_frame(rng, 140), far] + [random_frame(rng, 20) for _ in range(18)]
    pairs_within_frames(batch, 2.0)
    assert len(calls) == 20
    pairs_within_frames(batch[:3], 2.0)  # three such frames fit in one search
    assert len(calls) == 20
    monkeypatch.undo()
    assert_batch_matches(batch, 2.0)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 220), min_size=1, max_size=6),
    radius=st.sampled_from([0.5, 2.0, 3.7]),
    side=st.sampled_from([3.0, 30.0, 400.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_matches_per_frame_property(sizes, radius, side, seed):
    rng = np.random.default_rng(seed)
    batch = [random_frame(rng, n, side=side) for n in sizes]
    assert_batch_matches(batch, radius)
