"""Proximity contact detection and the per-pair contact ledger.

Two agents are in contact during a tick when their distance is at or below
the effective radius (the boundary counts).  While a pair stays in range the
ledger keeps one open record per pair and folds each tick into a running
duration and running mean distance.  The tick the pair separates, the record
is closed but kept; if the pair meets again later a fresh record is opened,
so one pair can contribute several contacts over a run.

Pairs come from one search, the cell list of Allen & Tildesley (ch. 5):
the candidates are the points in the same or adjacent cells of a uniform
grid with cell edge equal to the radius, one distance test keeps those in
range and one sort orders them by (frame, id_a, id_b).  ``pairs_within`` is
the one-frame case of the batch ``pairs_within_frames`` searches, so both
give the same bytes.

The ledger checks each frame as it is observed and queues it.  One
``pairs_within_frames`` call searches the queue once it holds ``ROWS`` rows
(an empty tick counts as one) or the records are read, and the frames are
folded in one by one, in tick order, so grouping never changes a record.

Frames must arrive in dense tick order.  Closed records are never revised.
A frame the ledger cannot accept raises ``FrameError`` and changes nothing.

The ledger stores five columns per record, which ``stored_columns()``
returns: ``id_a``, ``id_b``, ``start``, ``duration`` and ``dist_sum``.
``columns()`` adds four derived when read: ``last`` is ``start + duration -
1`` (a record grows by one tick per frame), ``open`` marks the records of the
latest frame's pairs until ``finalize``, and ``type_a``/``type_b`` come from
the roster, since an agent never changes type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frames import ROWS, TickFrame, check_type_name

_ID_LIMIT = 2**31  # ids are packed two-per-int64 by pair_key


def pair_key(a, b):
    """One int64 per id pair (ids in [0, 2^31)) that sorts as (a, b)."""
    return (a << 32) | b


class FrameError(ValueError):
    """The ledger rejected a frame; it is left as it was before the frame."""


class NonMonotonicTickError(FrameError):
    """Frames were observed out of dense tick order."""


@dataclass(frozen=True)
class ContactConfig:
    effective_radius: float = 2.0  # m
    min_duration: int = 1  # ticks; applied at aggregation, never at logging
    chunk_length: int = 900  # ticks per exposure chunk

    def __post_init__(self) -> None:
        if not (math.isfinite(self.effective_radius) and self.effective_radius > 0):
            raise ValueError("effective_radius must be finite and > 0")
        for name in ("min_duration", "chunk_length"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1 tick")


def _expand_blocks(
    g_start: np.ndarray, g_count: np.ndarray, ga: np.ndarray, gb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) index pairs of the cross product of cell groups ga x gb.

    Groups are runs in the cell-sorted order; g_start/g_count describe them.
    Returns positions into that sorted order.
    """
    na, nb = g_count[ga], g_count[gb]
    m = na * nb
    total = int(m.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    t = np.arange(total, dtype=np.int64)
    t -= np.repeat(np.cumsum(m) - m, m)
    r = np.repeat(nb, m)
    q, r = np.divmod(t, r, out=(t, r))
    q += np.repeat(g_start[ga], m)
    r += np.repeat(g_start[gb], m)
    return q, r


# Cell indices are clipped to +-this before the int64 cast, so that one
# frame's cell keys stay below 2^61: a far point overflows neither the cast
# nor the key.  Clipping never moves two points further apart in cells, so
# every pair in range still shares or neighbours a cell.
_CELL_LIMIT = 2**29
# Packed int64 keys, of cells and of pairs, stay below this, so a stencil
# offset added to a cell key cannot overflow.
_KEY_LIMIT = 2**62


def _stencil_candidates(key: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of points in the same or adjacent cells, each
    unordered cell pair visited once.

    ``key`` is each point's cell ``cx * stride + cy``, with every cy in
    [1, stride - 2] so that no neighbour offset wraps into another column.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    g_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    g_count = np.diff(g_start, append=len(key))
    uniq = key[g_start]

    # group pairs: each cell with itself (full product), then its forward
    # neighbours E, NE, N, SE in grid terms
    self_g = np.nonzero(g_count >= 2)[0]
    ga, gb = [self_g], [self_g]
    for off in (stride, stride + 1, 1, stride - 1):
        pos = np.searchsorted(uniq, uniq + off)
        pos_c = np.minimum(pos, len(uniq) - 1)
        ok = uniq[pos_c] == uniq + off
        ga.append(np.nonzero(ok)[0])
        gb.append(pos[ok])
    i, j = _expand_blocks(g_start, g_count, np.concatenate(ga), np.concatenate(gb))
    # a forward neighbour's key is larger, so its points sort after the
    # cell's: i < j keeps every cross-cell pair and a cell's upper triangle
    keep = i < j
    i, j = i[keep], j[keep]
    return order[i], order[j]


@np.errstate(over="ignore")  # an offset or square beyond the float range is inf: out of range
def _in_range(
    ids: np.ndarray, positions: np.ndarray, radius: float, cand_i: np.ndarray,
    cand_j: np.ndarray, frame: np.ndarray, n_frames: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidate pairs (i, j) within radius as (id_a, id_b, distance,
    frame), sorted by (frame, id_a, id_b), with id_a < id_b elementwise.

    ``frame`` gives each point's frame in a batch of ``n_frames``.  Ids are
    unique within a frame, so no two pairs share a sort key.
    """
    if len(cand_i) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0), empty.copy()
    # component-wise gathers beat 2-D row gathers on this hot path
    px, py = np.ascontiguousarray(positions[:, 0]), np.ascontiguousarray(positions[:, 1])
    # d2 = dx * dx + dy * dy, in place: the same operations, so the same bits
    d2 = px[cand_i]
    d2 -= px[cand_j]
    d2 *= d2
    dy = py[cand_i]
    dy -= py[cand_j]
    dy *= dy
    d2 += dy
    keep = d2 <= radius * radius
    cand_i, cand_j = cand_i[keep], cand_j[keep]
    dist = np.sqrt(d2[keep])
    del d2, dy  # one per candidate: freed before the per-pair arrays are made

    a, b = ids[cand_i], ids[cand_j]
    a, b = np.minimum(a, b), np.maximum(a, b)
    frame = frame[cand_i]
    # (frame, a - base, b - base) packed in one int64 where it fits
    base = int(ids.min())
    width = int(ids.max()) - base + 1
    if n_frames * width * width < _KEY_LIMIT:
        key = (a - base) * width + (b - base)
        key += frame * (width * width)
        order = np.argsort(key)
    else:
        order = np.lexsort((b, a, frame))
    return a[order], b[order], dist[order], frame[order]


def _grid_search(
    ids: np.ndarray, positions: np.ndarray, radius: float, frame: np.ndarray, n_frames: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """``_in_range`` of the pairs in the same or adjacent cells of a uniform
    grid with cell edge equal to the radius, so that any pair in range is a
    candidate.  In a batch the cell key packs (frame, cx, cy), and each
    frame's range of keys is wider than a stencil offset reaches, so every
    candidate pairs two points of one frame.  Returns None when a batch's
    keys would not fit in an int64.  Raises ValueError unless the radius
    is finite and > 0.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and > 0")
    if len(ids) < 2:
        empty = np.empty(0, dtype=np.int64)
        return _in_range(ids, positions, radius, empty, empty, frame, n_frames)
    with np.errstate(over="ignore"):  # a quotient beyond the float range is inf, then clipped
        cells = np.floor(positions / radius)
    np.clip(cells, -_CELL_LIMIT, _CELL_LIMIT, out=cells)
    cells = cells.astype(np.int64)
    cx = cells[:, 0] - cells[:, 0].min()
    cy = cells[:, 1] - cells[:, 1].min() + 1
    stride = int(cy.max()) + 2  # keeps dy = +/-1 from wrapping into the next column
    span = (int(cx.max()) + 2) * stride  # one frame's keys, room for the stencil
    if n_frames * span >= _KEY_LIMIT:
        return None
    key = cx * stride + cy
    key += frame * span
    cand_i, cand_j = _stencil_candidates(key, stride)
    return _in_range(ids, positions, radius, cand_i, cand_j, frame, n_frames)


def pairs_within(
    ids: np.ndarray, positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All unordered pairs with distance <= radius, sorted by (min id, max id):
    ``_grid_search`` of this one frame, whose cell keys always fit.  Returns
    (id_a, id_b, distance) with id_a < id_b elementwise.
    """
    return _grid_search(ids, positions, radius, np.zeros(len(ids), dtype=np.int64), 1)[:3]


def pairs_within_frames(
    frames: Sequence[TickFrame], radius: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``pairs_within(frame.ids, frame.positions, radius)`` for each frame,
    with the same bytes, from one ``_grid_search`` over all of them.

    A batch whose cell keys would not fit in an int64 (points far apart
    in very many frames) is searched frame by frame.
    """
    frame = np.repeat(np.arange(len(frames), dtype=np.int64), [len(f) for f in frames])
    found = _grid_search(
        np.concatenate([f.ids for f in frames] + [np.empty(0, dtype=np.int64)], dtype=np.int64),
        np.concatenate([f.positions for f in frames] + [np.empty((0, 2))]),
        radius, frame, len(frames),
    )
    if found is None:
        return [pairs_within(f.ids, f.positions, radius) for f in frames]
    a, b, dist, frame = found
    ends = np.cumsum(np.bincount(frame, minlength=len(frames))).tolist()
    return [(a[s:e], b[s:e], dist[s:e]) for s, e in zip([0] + ends[:-1], ends)]


class ContactLedger:
    """Columnar store of contact records, updated a group of frames at a time."""

    _GROW = 1024
    _STORED = ("_id_a", "_id_b", "_start", "_duration", "_dist_sum")

    def __init__(self, config: ContactConfig):
        self.config = config
        self._cap = self._GROW
        self._id_a = np.empty(self._cap, dtype=np.int64)
        self._id_b = np.empty(self._cap, dtype=np.int64)
        self._start = np.empty(self._cap, dtype=np.int64)
        self._duration = np.empty(self._cap, dtype=np.int64)
        self._dist_sum = np.empty(self._cap, dtype=np.float64)
        self._n = 0

        # the latest folded frame's pairs (sorted keys) and their open records
        self._open_keys = self._open_idx = np.empty(0, dtype=np.int64)
        # frames checked but not yet searched, and their rows (an empty tick is one)
        self._queue: list[TickFrame] = []
        self._queued_rows = 0

        self.type_names: list[str] = []
        self._type_of: dict[int, int] = {}  # agent id -> type index
        self._last_roster: tuple[np.ndarray, np.ndarray, list[str]] | None = None
        self.first_tick: int | None = None
        self.last_tick: int | None = None
        self.horizon: int | None = None
        self.finalized = False

    # -- bookkeeping -------------------------------------------------------

    def _ensure(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._cap:
            return
        while self._cap < need:
            self._cap *= 2
        for name in self._STORED:
            old = getattr(self, name)
            grown = np.empty(self._cap, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _check_roster(self, frame: TickFrame) -> tuple[list[str], dict[int, int]] | None:
        """The type list and new agents after this frame; None if the roster repeats.

        Raises FrameError for a new type name that ``check_type_name``
        rejects, an id outside [0, 2^31) or given twice, a type index outside
        ``frame.type_names``, or a changed type."""
        # Hot path: most frames repeat the previous roster verbatim.
        prev = self._last_roster
        if (
            prev is not None
            and prev[2] is frame.type_names
            and np.array_equal(prev[0], frame.ids)
            and np.array_equal(prev[1], frame.type_ids)
        ):
            return None
        # Frame-local type indices are remapped onto the ledger's own list.
        names = list(self.type_names)
        for name in frame.type_names:
            if name not in names:
                problem = check_type_name(name)
                if problem:
                    raise FrameError(f"tick {frame.tick}: type name {name!r} {problem}")
                names.append(name)
        remap = {local: names.index(name) for local, name in enumerate(frame.type_names)}
        ids = frame.ids.tolist()
        if len(set(ids)) < len(ids):
            values, counts = np.unique(frame.ids, return_counts=True)
            raise FrameError(f"tick {frame.tick}: agent {values[counts > 1][0]} appears twice")
        new: dict[int, int] = {}
        for agent_id, local in zip(ids, frame.type_ids.tolist()):
            if not (0 <= agent_id < _ID_LIMIT):
                raise FrameError(f"tick {frame.tick}: agent {agent_id} is outside "
                                 "the supported id range [0, 2^31)")
            t = remap.get(local)
            if t is None:
                raise FrameError(f"tick {frame.tick}: agent {agent_id} has type index "
                                 f"{local}, outside the frame's {len(remap)} type names")
            known = self._type_of.get(agent_id)
            if known is None:
                new[agent_id] = t
            elif known != t:
                raise FrameError(f"tick {frame.tick}: agent {agent_id} changed type "
                                 f"from {names[known]!r} to {names[t]!r}")
        return names, new

    # -- the per-tick update -------------------------------------------------

    def observe(self, frame: TickFrame) -> None:
        """Check one frame and queue it; every check runs before any state changes.

        The roster and the ticks take the frame at once; its pairs reach the
        records with its queue (see the module docstring), so a caller must
        not change a frame's arrays after passing it.
        """
        if self.finalized:
            raise ValueError("ledger is finalized")
        n = len(frame.ids)
        if frame.positions.shape != (n, 2) or len(frame.type_ids) != n:
            raise FrameError(f"tick {frame.tick}: {n} ids but {len(frame.type_ids)} type ids "
                             f"and positions of shape {frame.positions.shape}")
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

        self._queue.append(frame)
        self._queued_rows += max(n, 1)
        if self._queued_rows >= ROWS:
            self._flush()

    def _flush(self) -> None:
        """Search the queued frames for pairs at once, then fold them in order."""
        queue, self._queue, self._queued_rows = self._queue, [], 0
        found = pairs_within_frames(queue, self.config.effective_radius) if queue else []
        for frame, (a, b, dist) in zip(queue, found):
            self._fold(frame.tick, a, b, dist)

    def _fold(self, tick: int, a: np.ndarray, b: np.ndarray, dist: np.ndarray) -> None:
        """Fold one frame's pairs, sorted by (id_a, id_b), into the records."""
        keys = pair_key(a, b)

        # continuing pairs extend their open record; pairs that left simply drop out
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
        self._start[sl] = tick
        self._duration[sl] = 1
        self._dist_sum[sl] = dist[fresh]
        idx[fresh] = np.arange(self._n, self._n + k, dtype=np.int64)
        self._n += k

        # After the update the open set is exactly this frame's pair set.
        self._open_keys, self._open_idx = keys, idx

    def finalize(self, last_tick: int) -> None:
        """Close every open record; safe to call more than once."""
        if self.last_tick is not None and last_tick < self.last_tick:
            raise ValueError(
                f"finalize tick {last_tick} precedes last observed tick {self.last_tick}"
            )
        self._flush()
        self._open_keys = self._open_idx = np.empty(0, dtype=np.int64)
        first = self.first_tick if self.first_tick is not None else 0
        self.horizon = last_tick - first + 1
        self.finalized = True

    # -- views ---------------------------------------------------------------

    @property
    def n_records(self) -> int:
        self._flush()
        return self._n

    def stored_columns(self) -> dict[str, np.ndarray]:
        """The five stored columns, trimmed to the records logged so far."""
        self._flush()
        return {name[1:]: getattr(self, name)[: self._n] for name in self._STORED}

    def columns(self) -> dict[str, np.ndarray]:
        """Trimmed columns of every record logged so far: five stored, four derived."""
        c = self.stored_columns()
        is_open = np.zeros(self._n, dtype=bool)
        is_open[self._open_idx] = True
        return {
            **c,
            "type_a": self.types_of(c["id_a"]),
            "type_b": self.types_of(c["id_b"]),
            "last": c["start"] + c["duration"] - 1,
            "open": is_open,
        }

    def types_of(self, ids: np.ndarray) -> np.ndarray:
        """The type index of each agent id, from the roster; every id must be in it."""
        roster = np.fromiter(self._type_of, dtype=np.int64, count=len(self._type_of))
        types = np.fromiter(self._type_of.values(), dtype=np.int32, count=len(roster))
        order = np.argsort(roster)
        return types[order][np.searchsorted(roster[order], ids)]

    def agents(self) -> dict[int, int]:
        """Agent id -> type index, in order of first appearance."""
        return dict(self._type_of)

    def observed_populations(self) -> dict[str, int]:
        counts = {name: 0 for name in self.type_names}
        for t in self._type_of.values():
            counts[self.type_names[t]] += 1
        return counts
