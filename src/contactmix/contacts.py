"""Proximity contact detection and the per-pair contact ledger.

Two agents are in contact during a tick when their distance is at or below
the effective radius (the boundary counts).  While a pair stays in range the
ledger keeps one open record per pair and folds each tick into a running
duration and running mean distance.  The tick the pair separates, the record
is closed but kept; if the pair meets again later a fresh record is opened,
so one pair can contribute several contacts over a run.

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

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frames import TickFrame

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
    tick_length: float = 1.0  # s
    min_duration: int = 1  # ticks; applied at aggregation, never at logging
    chunk_length: int = 900  # ticks per exposure chunk

    def __post_init__(self) -> None:
        for name in ("effective_radius", "tick_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
        if self.min_duration < 1:
            raise ValueError("min_duration must be >= 1 tick")
        if self.chunk_length < 1:
            raise ValueError("chunk_length must be >= 1 tick")


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
    q, r = np.divmod(t, np.repeat(nb, m))
    q += np.repeat(g_start[ga], m)
    r += np.repeat(g_start[gb], m)
    return q, r


# Up to this many points every pair is a candidate: with about 3 neighbours
# per point the upper triangle beats building a grid (2-vCPU VM: 26 against
# 182 us at n = 14, 83 against 174 us at n = 128); the grid wins by n = 160.
BRUTE_FORCE_MAX_N = 128


@functools.lru_cache(maxsize=2)  # one n per tick is typical; each entry is O(n^2)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


# Cell indices are clipped to +-this before the int64 cast, so that a far
# point neither overflows the cast nor the packed key cx * stride + cy.
# Clipping never moves two points further apart in cells, so every pair in
# range still shares or neighbours a cell.
_CELL_LIMIT = 2**30


@np.errstate(over="ignore")  # a quotient beyond the float range is inf, then clipped
def _grid_candidates(positions: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) from same or adjacent grid cells of edge radius."""
    cells = np.floor(positions / radius)
    np.clip(cells, -_CELL_LIMIT, _CELL_LIMIT, out=cells)
    cells = cells.astype(np.int64)
    cx = cells[:, 0] - cells[:, 0].min()
    cy = cells[:, 1] - cells[:, 1].min() + 1
    stride = cy.max() + 2  # keeps dy = +/-1 from wrapping into the next column
    return _stencil_candidates(cx * stride + cy, stride)


def _stencil_candidates(key: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of points in the same or adjacent cells, each
    unordered cell pair visited once.

    ``key`` is each point's cell ``cx * stride + cy``, with every cy in
    [1, stride - 2] so that no neighbour offset wraps into another column.
    """
    order = np.argsort(key, kind="stable")
    uniq, g_start, g_count = np.unique(key[order], return_index=True, return_counts=True)

    parts_i = []
    parts_j = []

    # same cell: full product, upper triangle kept below
    self_g = np.nonzero(g_count >= 2)[0]
    i, j = _expand_blocks(g_start, g_count, self_g, self_g)
    keep = i < j
    parts_i.append(i[keep])
    parts_j.append(j[keep])

    # forward neighbours: E, NE, N, SE in grid terms
    for off in (stride, stride + 1, 1, stride - 1):
        pos = np.searchsorted(uniq, uniq + off)
        pos_c = np.minimum(pos, len(uniq) - 1)
        ok = uniq[pos_c] == uniq + off
        i, j = _expand_blocks(g_start, g_count, np.nonzero(ok)[0], pos[ok])
        parts_i.append(i)
        parts_j.append(j)

    return order[np.concatenate(parts_i)], order[np.concatenate(parts_j)]


@np.errstate(over="ignore")  # an offset or square beyond the float range is inf: out of range
def offsets_within(
    cand_i: np.ndarray, cand_j: np.ndarray, px: np.ndarray, py: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distance test of ``pairs_within`` on candidate pairs.

    Returns (dx, dy, d2, within): the offsets p[i] - p[j], their squared
    length, and the mask d2 <= radius**2.  Callers that filter candidates
    with it keep exactly the pairs, and the distances, a search would.
    """
    dx = px[cand_i] - px[cand_j]
    dy = py[cand_i] - py[cand_j]
    d2 = dx * dx + dy * dy
    return dx, dy, d2, d2 <= radius * radius


def pairs_within(
    ids: np.ndarray, positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All unordered pairs with distance <= radius, sorted by (min id, max id).

    Up to BRUTE_FORCE_MAX_N points, every pair of the upper triangle is a
    candidate.  Above that a uniform grid with cell edge equal to the radius
    supplies them, so any qualifying pair sits in the same or an adjacent
    cell (3x3 neighbourhood).  Occupied cells are matched group-to-group,
    visiting each unordered cell pair once: a cell against itself plus its
    four forward neighbours of the stencil.  Both paths share the distance
    filter and the final sort, so they return the same bytes.
    Returns (id_a, id_b, distance) with id_a < id_b elementwise.
    """
    n = len(ids)
    empty = np.empty(0, dtype=np.int64)
    if n < 2:
        return empty, empty.copy(), np.empty(0, dtype=np.float64)

    if n <= BRUTE_FORCE_MAX_N:
        cand_i, cand_j = _upper_triangle(n)
    else:
        cand_i, cand_j = _grid_candidates(positions, radius)
    if len(cand_i) == 0:
        return empty, empty.copy(), np.empty(0, dtype=np.float64)

    # component-wise gathers beat 2-D row gathers on this hot path
    px, py = np.ascontiguousarray(positions[:, 0]), np.ascontiguousarray(positions[:, 1])
    _, _, d2, in_range = offsets_within(cand_i, cand_j, px, py, radius)
    cand_i, cand_j = cand_i[in_range], cand_j[in_range]
    dist = np.sqrt(d2[in_range])

    ids_i = ids[cand_i]
    ids_j = ids[cand_j]
    a = np.minimum(ids_i, ids_j)
    b = np.maximum(ids_i, ids_j)
    # a <= b elementwise, so these two bounds cover all four extremes
    if len(a) and a.min() >= 0 and int(b.max()) < _ID_LIMIT:
        order_out = np.argsort(pair_key(a, b), kind="stable")
    else:
        order_out = np.lexsort((b, a))
    return a[order_out], b[order_out], dist[order_out]


# Packed int64 keys stay below this, so a stencil offset added to one
# cannot overflow.
_KEY_LIMIT = 2**62


def pairs_within_frames(
    frames: Sequence[TickFrame], radius: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``pairs_within(frame.ids, frame.positions, radius)`` for each frame,
    with the same bytes, from one grid search over all of them.

    The cell key packs (frame, cx, cy) into one int64, and each frame's range
    of keys is wider than a stencil offset reaches, so every candidate pairs
    two points of one frame.  The exact distance test runs on the original
    coordinates, and the pairs are sorted by (frame, id_a, id_b).  A batch
    whose keys would not fit in an int64 (coordinates far apart, or very
    many frames) is searched frame by frame.
    """
    sizes = [len(f) for f in frames]
    pos = np.concatenate([f.positions for f in frames] + [np.empty((0, 2))])
    with np.errstate(over="ignore"):  # an inf quotient does not fit: frame by frame
        cells = np.floor(pos / radius)
    fits = sum(sizes) >= 2 and np.abs(cells).max() < _KEY_LIMIT  # False on NaN
    if fits:
        cells = cells.astype(np.int64)
        lo, hi = cells.min(axis=0), cells.max(axis=0)
        stride = int(hi[1] - lo[1]) + 3  # cy runs from 1 to stride - 2
        span = (int(hi[0] - lo[0]) + 2) * stride  # one frame's keys, room for the stencil
        fits = len(frames) * span < _KEY_LIMIT
    if not fits:
        return [pairs_within(f.ids, f.positions, radius) for f in frames]
    frame = np.repeat(np.arange(len(frames), dtype=np.int64), sizes)
    cells -= lo
    cand_i, cand_j = _stencil_candidates(frame * span + cells[:, 0] * stride + cells[:, 1] + 1,
                                         stride)

    px, py = np.ascontiguousarray(pos[:, 0]), np.ascontiguousarray(pos[:, 1])
    _, _, d2, in_range = offsets_within(cand_i, cand_j, px, py, radius)
    cand_i, cand_j = cand_i[in_range], cand_j[in_range]
    dist = np.sqrt(d2[in_range])
    ids = np.concatenate([f.ids for f in frames])
    ids_i, ids_j = ids[cand_i], ids[cand_j]
    a, b = np.minimum(ids_i, ids_j), np.maximum(ids_i, ids_j)
    frame = frame[cand_i]
    # (frame, a, b) in one int64 where it fits; the keys are unique
    base = int(ids.min())
    width = int(ids.max()) - base + 1
    if len(frames) * width * width < _KEY_LIMIT:
        order = np.argsort((frame * width + (a - base)) * width + (b - base))
    else:
        order = np.lexsort((b, a, frame))
    a, b, dist = a[order], b[order], dist[order]
    ends = np.cumsum(np.bincount(frame, minlength=len(frames))).tolist()
    return [(a[s:e], b[s:e], dist[s:e]) for s, e in zip([0] + ends[:-1], ends)]


@dataclass(frozen=True)
class ContactRecord:
    """A read-only view of one logged contact episode."""

    id_a: int
    id_b: int
    type_a: int
    type_b: int
    start_tick: int
    last_updated_tick: int
    duration: int
    mean_distance: float
    in_session: bool


class ContactLedger:
    """Columnar store of contact records, updated one frame at a time."""

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

        # the latest frame's pairs (sorted keys) and their open records
        self._open_keys = self._open_idx = np.empty(0, dtype=np.int64)

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

        Raises FrameError for an id outside [0, 2^31) or a changed type."""
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
                names.append(name)
        remap = [names.index(name) for name in frame.type_names]
        new: dict[int, int] = {}
        for agent_id, local in zip(frame.ids.tolist(), frame.type_ids.tolist()):
            if not (0 <= agent_id < _ID_LIMIT):
                raise FrameError(f"tick {frame.tick}: agent {agent_id} is outside "
                                 "the supported id range [0, 2^31)")
            t = remap[local]
            known = self._type_of.get(agent_id)
            if known is None:
                new[agent_id] = t
            elif known != t:
                raise FrameError(f"tick {frame.tick}: agent {agent_id} changed type "
                                 f"from {names[known]!r} to {names[t]!r}")
        return names, new

    # -- the per-tick update -------------------------------------------------

    def observe(
        self,
        frame: TickFrame,
        _pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Fold one frame into the ledger; every check runs before any state changes.

        ``_pairs``, if given, is what ``pairs_within`` returns for this frame
        at the ledger's radius (``pairs_within_frames`` gives it for a batch);
        the ledger then uses it instead of searching.
        """
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

        if _pairs is None:
            _pairs = pairs_within(frame.ids, frame.positions, self.config.effective_radius)
        a, b, dist = _pairs
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
        self._start[sl] = frame.tick
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
        self._open_keys = self._open_idx = np.empty(0, dtype=np.int64)
        first = self.first_tick if self.first_tick is not None else 0
        self.horizon = last_tick - first + 1
        self.finalized = True

    # -- views ---------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self._n

    def stored_columns(self) -> dict[str, np.ndarray]:
        """The five stored columns, trimmed to the records logged so far."""
        return {name[1:]: getattr(self, name)[: self._n] for name in self._STORED}

    def columns(self) -> dict[str, np.ndarray]:
        """Trimmed columns of every record logged so far: five stored, four derived."""
        c = self.stored_columns()
        is_open = np.zeros(self._n, dtype=bool)
        is_open[self._open_idx] = True
        roster = np.fromiter(self._type_of, dtype=np.int64, count=len(self._type_of))
        types = np.fromiter(self._type_of.values(), dtype=np.int32, count=len(roster))
        order = np.argsort(roster)
        roster, types = roster[order], types[order]
        return {
            **c,
            "type_a": types[np.searchsorted(roster, c["id_a"])],
            "type_b": types[np.searchsorted(roster, c["id_b"])],
            "last": c["start"] + c["duration"] - 1,
            "open": is_open,
        }

    def records(self) -> list[ContactRecord]:
        c = self.columns()
        return [
            ContactRecord(
                id_a=int(c["id_a"][i]),
                id_b=int(c["id_b"][i]),
                type_a=int(c["type_a"][i]),
                type_b=int(c["type_b"][i]),
                start_tick=int(c["start"][i]),
                last_updated_tick=int(c["last"][i]),
                duration=int(c["duration"][i]),
                mean_distance=float(c["dist_sum"][i] / c["duration"][i]),
                in_session=bool(c["open"][i]),
            )
            for i in range(self._n)
        ]

    def records_between(self, id_a: int, id_b: int) -> list[ContactRecord]:
        lo, hi = min(id_a, id_b), max(id_a, id_b)
        return [r for r in self.records() if r.id_a == lo and r.id_b == hi]

    def agents(self) -> dict[int, int]:
        """Agent id -> type index, in order of first appearance."""
        return dict(self._type_of)

    def observed_populations(self) -> dict[str, int]:
        counts = {name: 0 for name in self.type_names}
        for t in self._type_of.values():
            counts[self.type_names[t]] += 1
        return counts
