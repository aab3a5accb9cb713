"""Roll contact records up into summaries, matrices and exposure estimates.

Levels:

* the pair table: per unordered agent pair, the number of contacts, the
  total in-contact ticks and the distance sum, as columns sorted by pair;
* agent x agent matrices (diagonal undefined);
* agent x type rows, where count and duration are divided by the number of
  potential partners of that type (the agent itself excluded);
* type x type matrices, where a cross cell divides by n_a * n_b and a
  diagonal cell by the number of unordered pairs within the type.

A minimum-duration filter drops short records here, at reporting time.
Logging itself is never filtered.  Cells that have no defined value (the
agent diagonal, a type with nobody else to meet) carry an explicit
undefined marker rather than a number.

Every matrix is filled from the pair table by indexing and ``bincount``,
which adds a cell's entries in the order they are listed; the builders list
them in the order of a per-pair loop, so the float sums are bit-identical
to it.

Exposure: a duration matrix divided into fixed-length chunks gives the
expected chunk count f per cell, and a per-chunk transmission probability p
compounds to 1 - (1 - p) ** f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from .contacts import ContactLedger, pair_key

METRICS = ("count", "duration", "distance")

# Records that ``hourly_series`` sums per ``bincount`` call: its temporaries
# stay this size however many records the ledger holds.
SERIES_SLICE = 1 << 15


@dataclass(frozen=True)
class PairTable:
    """Aggregated contact history of every unordered agent pair that met.

    One row per pair, sorted by the key (id_a, id_b) with id_a < id_b:
    ``count`` records, ``duration`` total in-contact ticks and ``dist_sum``
    the sum of per-tick distances, each summed over the pair's records in
    record order.
    """

    id_a: np.ndarray
    id_b: np.ndarray
    count: np.ndarray
    duration: np.ndarray
    dist_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.id_a)

    @property
    def mean_distance(self) -> np.ndarray:
        """Duration-weighted mean distance across each pair's records."""
        return self.dist_sum / self.duration

    def row(self, id_a: int, id_b: int) -> int | None:
        """Row of the pair (ids in either order), or None if it never met."""
        keys = pair_key(self.id_a, self.id_b)
        key = pair_key(min(id_a, id_b), max(id_a, id_b))
        i = int(np.searchsorted(keys, key))
        return i if i < len(keys) and keys[i] == key else None


def pair_summaries(ledger: ContactLedger, min_duration: int | None = None) -> PairTable:
    """Collapse records per pair, dropping records shorter than min_duration."""
    if not ledger.finalized:
        raise ValueError("finalize the ledger before aggregating")
    tau = ledger.config.min_duration if min_duration is None else min_duration
    if tau < 1:
        raise ValueError("min_duration must be >= 1 tick")
    c = ledger.stored_columns()
    id_a, id_b, duration, dist_sum = c["id_a"], c["id_b"], c["duration"], c["dist_sum"]
    keep = duration >= tau
    if not keep.all():  # at the default of one tick every record is kept, uncopied
        id_a, id_b, duration, dist_sum = id_a[keep], id_b[keep], duration[keep], dist_sum[keep]
    # np.unique(..., return_inverse=True) by hand: it holds about 26 bytes per
    # record at once where np.unique held 50, and the bincounts still read the
    # records in their order, which fixes the float sums
    key = pair_key(id_a, id_b)
    order = np.argsort(key)
    key = key[order]
    first = np.empty(len(key), dtype=bool)  # the first record of each pair, in key order
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    uniq = key[first]
    np.cumsum(first, out=key)  # the key buffer now holds each sorted record's pair, + 1
    key -= 1
    inv = np.empty_like(key)
    inv[order] = key
    del order, key, first
    n = len(uniq)
    return PairTable(
        id_a=uniq >> 32,  # pair_key's halves
        id_b=uniq & 0xFFFFFFFF,
        count=np.bincount(inv, minlength=n),
        duration=np.bincount(inv, weights=duration, minlength=n).astype(np.int64),
        dist_sum=np.bincount(inv, weights=dist_sum, minlength=n),
    )


@dataclass
class ContactMatrix:
    """A labelled matrix with an explicit defined-cell mask."""

    level: str
    metric: str
    row_labels: list[str]
    col_labels: list[str]
    values: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        shape = (len(self.row_labels), len(self.col_labels))
        assert self.values.shape == shape and self.defined.shape == shape

    def cell(self, row: str, col: str) -> float | None:
        i, j = self.row_labels.index(row), self.col_labels.index(col)
        return float(self.values[i, j]) if self.defined[i, j] else None

    def is_symmetric(self) -> bool:
        return (
            self.row_labels == self.col_labels
            and bool(np.array_equal(self.defined, self.defined.T))
            and bool(np.array_equal(self.values[self.defined], self.values.T[self.defined]))
        )

    def cell_texts(self, fmt: Callable[[float], str], undefined: str) -> Iterator[list[str]]:
        """Each cell's text, one row at a time: ``fmt`` of its value, or ``undefined``.

        Each distinct value is formatted once: values are told apart by their
        bits, so -0.0 and 0.0 keep their own text.
        """
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        bits, inv = np.unique(values.view(np.int64), return_inverse=True)
        text = np.array([*map(fmt, bits.view(np.float64).tolist()), undefined], dtype=object)
        for row in np.where(self.defined, inv.reshape(values.shape), len(bits)):
            yield text[row].tolist()

    def to_csv(self) -> str:
        """Labels in the first row and column; cells ``%.6g``, undefined ones empty."""
        lines = ["," + ",".join(self.col_labels)]
        lines += [label + "," + ",".join(row)
                  for label, row in zip(self.row_labels, self.cell_texts("{:.6g}".format, ""))]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict[str, Any]:
        values = np.asarray(self.values, dtype=np.float64).tolist()
        for i, j in zip(*np.nonzero(~self.defined)):
            values[i][j] = None
        return {
            "level": self.level,
            "metric": self.metric,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "values": values,
        }


# --- matrix builders ---------------------------------------------------------


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")


def _positions(ids: np.ndarray, pairs: PairTable) -> tuple[np.ndarray, np.ndarray]:
    """Index into ``ids`` of each pair's two agents.

    The ValueError names the first agent ``ids`` lacks, in key order and
    id_a before id_b.
    """
    order = np.argsort(ids, kind="stable")
    srt = np.append(ids[order], np.iinfo(np.int64).max)  # sentinel keeps positions in range
    pos_a, pos_b = np.searchsorted(srt, pairs.id_a), np.searchsorted(srt, pairs.id_b)
    ok_a, ok_b = srt[pos_a] == pairs.id_a, srt[pos_b] == pairs.id_b
    if not (ok_a.all() and ok_b.all()):
        k = int(np.argmin(ok_a & ok_b))
        missing = pairs.id_b[k] if ok_a[k] else pairs.id_a[k]
        raise ValueError(f"summary references unknown agent {missing}")
    return order[pos_a], order[pos_b]


def _type_positions(
    agent_types: Mapping[int, str], type_names: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Agent ids in mapping order and the column of each one's type."""
    t_index = {t: j for j, t in enumerate(type_names)}
    for aid, t in agent_types.items():
        if t not in t_index:
            raise ValueError(f"agent {aid} has type {t!r} missing from populations")
    ids = np.fromiter(agent_types, dtype=np.int64, count=len(agent_types))
    own = np.fromiter((t_index[t] for t in agent_types.values()), dtype=np.int64,
                      count=len(agent_types))
    return ids, own


def _metric_columns(pairs: PairTable, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair numerator of a metric and its duration weight, as float64."""
    value = {"count": pairs.count, "duration": pairs.duration, "distance": pairs.dist_sum}
    return value[metric].astype(np.float64), pairs.duration.astype(np.float64)


def _cell_sums(
    cells: np.ndarray, columns: Iterable[np.ndarray], shape: tuple[int, int]
) -> list[np.ndarray]:
    """Sum each column into its flat cell; bincount adds a cell's entries in listed order."""
    n = shape[0] * shape[1]
    return [np.bincount(cells, weights=col, minlength=n).reshape(shape) for col in columns]


def agent_matrix(pairs: PairTable, agent_ids: Iterable[int], metric: str) -> ContactMatrix:
    """Square agent-level matrix; 0 for pairs that never met, diagonal undefined."""
    _check_metric(metric)
    ids = list(agent_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("agent ids must be unique")
    i, j = _positions(np.array(ids, dtype=np.int64), pairs)
    m = len(ids)
    values = np.zeros((m, m), dtype=np.float64)
    col = pairs.mean_distance if metric == "distance" else _metric_columns(pairs, metric)[0]
    values[i, j] = col
    values[j, i] = col
    defined = ~np.eye(m, dtype=bool)
    labels = [str(v) for v in ids]
    return ContactMatrix("agent", metric, labels, labels, values, defined)


def agent_by_type(
    pairs: PairTable,
    agent_types: Mapping[int, str],
    populations: Mapping[str, int],
    metric: str,
) -> ContactMatrix:
    """Per-agent rows against partner types.

    Count and duration cells divide by the number of potential partners of
    the column type (excluding the agent itself); a cell with no potential
    partner is undefined.  Distance cells are duration-weighted means over
    the partners actually contacted, 0 when there were none.
    """
    _check_metric(metric)
    type_names = list(populations)
    ids, own = _type_positions(agent_types, type_names)
    ia, ib = _positions(ids, pairs)
    m, k = len(ids), len(type_names)
    # A row adds its pairs as id_b first, then as id_a, each in key order:
    # the order a per-pair loop over (a, b) then (b, a) visits them.
    cells = np.concatenate([ib * k + own[ia], ia * k + own[ib]])
    num, wsum = _cell_sums(cells, [np.tile(x, 2) for x in _metric_columns(pairs, metric)], (m, k))

    pops = np.array([populations[t] for t in type_names], dtype=np.float64)
    denom = np.tile(pops, (m, 1))
    denom[np.arange(m), own] -= 1  # the agent itself is no potential partner
    defined = denom > 0
    values = np.zeros((m, k), dtype=np.float64)
    if metric == "distance":
        met = wsum > 0
        values[met] = num[met] / wsum[met]
    else:
        values[defined] = num[defined] / denom[defined]
    return ContactMatrix(
        "agent_by_type", metric, [str(v) for v in agent_types], type_names, values, defined
    )


def type_matrix(
    pairs: PairTable,
    agent_types: Mapping[int, str],
    populations: Mapping[str, int],
    metric: str,
) -> ContactMatrix:
    """Type-level mixing matrix, normalized per potential pair.

    A cross cell (a, b) divides the group total by n_a * n_b.  A diagonal
    cell divides by the unordered pair count n_a * (n_a - 1) / 2 and is
    undefined when the type has fewer than two members.  Distance cells are
    duration-weighted means over all records between the two groups.
    """
    _check_metric(metric)
    type_names = list(populations)
    ids, own = _type_positions(agent_types, type_names)
    ia, ib = _positions(ids, pairs)
    k = len(type_names)
    ta, tb = own[ia], own[ib]
    # each unordered cell sums its pairs in key order, then is mirrored
    cells = np.minimum(ta, tb) * k + np.maximum(ta, tb)
    num, wsum = _cell_sums(cells, _metric_columns(pairs, metric), (k, k))
    lower = np.tril_indices(k, -1)
    num[lower] = num.T[lower]
    wsum[lower] = wsum.T[lower]

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
    return ContactMatrix("type", metric, type_names, type_names, values, defined)


# --- time series -------------------------------------------------------------


def hourly_series(
    ledger: ContactLedger,
    bucket_length: int,
    populations: Mapping[str, int] | None = None,
) -> dict[tuple[str, str], np.ndarray]:
    """In-contact ticks per time bucket for every unordered type pair.

    Bucket k covers ticks [k * bucket_length, (k + 1) * bucket_length).  All
    records contribute, regardless of the reporting filter, so the series
    totals match the raw (unnormalized) type durations.
    """
    if not ledger.finalized:
        raise ValueError("finalize the ledger before aggregating")
    if bucket_length < 1:
        raise ValueError("bucket_length must be >= 1 tick")
    type_names = list(populations) if populations is not None else list(ledger.type_names)
    first = ledger.first_tick if ledger.first_tick is not None else 0
    horizon = ledger.horizon if ledger.horizon is not None else 0
    n_buckets = max(1, -(-(first + horizon) // bucket_length))
    # a bucket longer than the run holds all of it; this one keeps the sums
    # below inside int64 however long the caller's is
    bucket_length = min(bucket_length, max(1, first + horizon))
    k = len(type_names)
    keys = [(a, b) for x, a in enumerate(type_names) for b in type_names[x:]]

    t_index = {t: x for x, t in enumerate(type_names)}
    column_of = np.array([t_index.get(t, -1) for t in ledger.type_names], dtype=np.int64)

    # The ticks before t put bucket_length ticks in each bucket below
    # t // bucket_length and t % bucket_length in that bucket.  A record's
    # ticks [start, end) are that profile at end less the one at start:
    # full buckets from start's bucket up to end's, as +1/-1 steps summed
    # along the row, plus end's remainder less start's.  The last column
    # takes the step of a record that ends on the horizon.
    width = n_buckets + 1
    size = len(keys) * width
    partial = np.zeros(size, dtype=np.int64)
    steps = np.zeros(size, dtype=np.int64)
    c = ledger.stored_columns()
    for lo in range(0, ledger.n_records, SERIES_SLICE):
        sl = slice(lo, lo + SERIES_SLICE)
        ta, tb = ledger.types_of(c["id_a"][sl]), ledger.types_of(c["id_b"][sl])
        xa, xb = column_of[ta], column_of[tb]
        missing = (xa < 0) | (xb < 0)
        if missing.any():
            i = int(np.argmax(missing))
            raise ValueError(f"record involves type {ledger.type_names[ta[i]]!r} or "
                             f"{ledger.type_names[tb[i]]!r} missing from populations")
        x, y = np.minimum(xa, xb), np.maximum(xa, xb)
        row = (x * k - x * (x - 1) // 2 + (y - x)) * width  # (x, y)'s position in keys
        start = c["start"][sl]
        b0, r0 = np.divmod(start, bucket_length)
        b1, r1 = np.divmod(start + c["duration"][sl], bucket_length)
        b0 += row
        b1 += row
        # integer-valued float sums of fewer than 2^53 ticks are exact
        partial += (np.bincount(b1, weights=r1, minlength=size)
                    - np.bincount(b0, weights=r0, minlength=size)).astype(np.int64)
        steps += np.bincount(b0, minlength=size) - np.bincount(b1, minlength=size)
    totals = partial.reshape(-1, width) + np.cumsum(steps.reshape(-1, width), axis=1) * bucket_length
    return dict(zip(keys, totals[:, :n_buckets]))


# --- exposure ----------------------------------------------------------------


def _derived(m: ContactMatrix, metric: str, values: np.ndarray) -> ContactMatrix:
    """A matrix with ``m``'s level, labels and defined cells, holding
    ``values`` in the defined cells and 0 elsewhere."""
    return ContactMatrix(m.level, metric, list(m.row_labels), list(m.col_labels),
                         np.where(m.defined, values, 0.0), m.defined.copy())


def effective_chunks(duration_matrix: ContactMatrix, chunk_length: int) -> ContactMatrix:
    """Duration cells divided into chunks of chunk_length ticks (fractional)."""
    if duration_matrix.metric != "duration":
        raise ValueError("effective_chunks expects a duration matrix")
    if chunk_length < 1:
        raise ValueError("chunk_length must be >= 1 tick")
    return _derived(duration_matrix, "chunks", duration_matrix.values / chunk_length)


def transmission_probability(chunks: ContactMatrix, p: float) -> ContactMatrix:
    """Compound per-chunk transmission over f chunks: 1 - (1 - p) ** f."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("per-chunk probability must be in [0, 1]")
    f = chunks.values
    if np.any(f[chunks.defined] < 0):
        raise ValueError("chunk counts must be >= 0")
    return _derived(chunks, "probability", 1.0 - (1.0 - p) ** f)


def rescale_per_day(matrix: ContactMatrix, horizon_ticks: int, tick_length: float) -> ContactMatrix:
    """Scale count or duration cells from one run horizon up to a 24 h day."""
    if matrix.metric == "distance":
        raise ValueError("distance is an average; per-day rescaling does not apply")
    if horizon_ticks < 1:
        raise ValueError("horizon_ticks must be >= 1")
    if not (math.isfinite(tick_length) and tick_length > 0):
        raise ValueError("tick_length must be finite and > 0")
    factor = 86400.0 / (horizon_ticks * tick_length)
    return _derived(matrix, matrix.metric, matrix.values * factor)
