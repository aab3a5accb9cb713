"""Roll contact records up into summaries, matrices and exposure estimates.

Levels:

* pair summaries: per unordered agent pair, the number of contacts, the
  total in-contact ticks and the duration-weighted mean distance;
* agent x agent matrices (diagonal undefined);
* agent x type rows, where count and duration are divided by the number of
  potential partners of that type (the agent itself excluded);
* type x type matrices, where a cross cell divides by n_a * n_b and a
  diagonal cell by the number of unordered pairs within the type.

A minimum-duration filter drops short records here, at reporting time.
Logging itself is never filtered.  Cells that have no defined value (the
agent diagonal, a type with nobody else to meet) carry an explicit
undefined marker rather than a number.

Exposure: a duration matrix divided into fixed-length chunks gives the
expected chunk count f per cell, and a per-chunk transmission probability p
compounds to 1 - (1 - p) ** f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from .contacts import ContactLedger

METRICS = ("count", "duration", "distance")


def max_unique_contacts(n_a: int, n_b: int) -> int:
    """Largest possible number of distinct in-contact pairs across two groups."""
    if n_a < 0 or n_b < 0:
        raise ValueError("group sizes must be >= 0")
    return n_a * n_b + math.comb(n_a, 2) + math.comb(n_b, 2)


@dataclass(frozen=True)
class PairSummary:
    """Aggregated contact history of one unordered agent pair."""

    id_a: int
    id_b: int
    count: int
    duration: int  # total in-contact ticks over all records
    dist_sum: float  # sum of per-tick distances over all records

    @property
    def mean_distance(self) -> float:
        """Duration-weighted mean distance across the pair's records."""
        return self.dist_sum / self.duration


def pair_summaries(
    ledger: ContactLedger, min_duration: int | None = None
) -> dict[tuple[int, int], PairSummary]:
    """Collapse records per pair, dropping records shorter than min_duration."""
    if not ledger.finalized:
        raise ValueError("finalize the ledger before aggregating")
    tau = ledger.config.min_duration if min_duration is None else min_duration
    if tau < 1:
        raise ValueError("min_duration must be >= 1 tick")
    c = ledger.columns()
    keep = c["duration"] >= tau
    if not keep.any():
        return {}
    a, b = c["id_a"][keep], c["id_b"][keep]
    keys = (a << 32) | b
    uniq, inv = np.unique(keys, return_inverse=True)
    count = np.bincount(inv, minlength=len(uniq))
    dur = np.bincount(inv, weights=c["duration"][keep], minlength=len(uniq))
    dsum = np.bincount(inv, weights=c["dist_sum"][keep], minlength=len(uniq))
    out: dict[tuple[int, int], PairSummary] = {}
    for i, key in enumerate(uniq.tolist()):
        ia, ib = key >> 32, key & 0xFFFFFFFF
        out[(ia, ib)] = PairSummary(ia, ib, int(count[i]), int(dur[i]), float(dsum[i]))
    return out


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

    def to_csv(self) -> str:
        """Labels in the first row and column; undefined cells left empty."""
        lines = ["," + ",".join(self.col_labels)]
        for i, label in enumerate(self.row_labels):
            cells = [
                _fmt(self.values[i, j]) if self.defined[i, j] else ""
                for j in range(len(self.col_labels))
            ]
            lines.append(label + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict[str, Any]:
        values = [
            [float(self.values[i, j]) if self.defined[i, j] else None
             for j in range(len(self.col_labels))]
            for i in range(len(self.row_labels))
        ]
        return {
            "level": self.level,
            "metric": self.metric,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "values": values,
        }


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


def matrix_from_csv(text: str) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Inverse of ContactMatrix.to_csv: (rows, cols, values, defined)."""
    lines = [ln for ln in text.splitlines() if ln]
    # an empty matrix serializes as a bare corner cell: header "," with no labels
    cols = [c for c in lines[0].split(",")[1:] if c]
    rows, vals, defined = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(parts[0])
        vals.append([float(p) if p else np.nan for p in parts[1:]])
        defined.append([bool(p) for p in parts[1:]])
    return rows, cols, np.array(vals, dtype=float), np.array(defined, dtype=bool)


# --- matrix builders ---------------------------------------------------------


def agent_matrix(
    summaries: Mapping[tuple[int, int], PairSummary],
    agent_ids: Iterable[int],
    metric: str,
) -> ContactMatrix:
    """Square agent-level matrix; 0 for pairs that never met, diagonal undefined."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    ids = list(agent_ids)
    index = {v: i for i, v in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError("agent ids must be unique")
    m = len(ids)
    values = np.zeros((m, m), dtype=np.float64)
    for s in summaries.values():
        try:
            i, j = index[s.id_a], index[s.id_b]
        except KeyError as e:
            raise ValueError(f"summary references unknown agent {e.args[0]}") from None
        if metric == "count":
            v = float(s.count)
        elif metric == "duration":
            v = float(s.duration)
        else:
            v = s.mean_distance
        values[i, j] = values[j, i] = v
    defined = ~np.eye(m, dtype=bool)
    labels = [str(v) for v in ids]
    return ContactMatrix("agent", metric, labels, labels, values, defined)


def agent_by_type(
    summaries: Mapping[tuple[int, int], PairSummary],
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
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    ids = list(agent_types)
    type_names = list(populations)
    t_index = {t: j for j, t in enumerate(type_names)}
    for aid, t in agent_types.items():
        if t not in t_index:
            raise ValueError(f"agent {aid} has type {t!r} missing from populations")
    m, k = len(ids), len(type_names)
    num = np.zeros((m, k), dtype=np.float64)
    wsum = np.zeros((m, k), dtype=np.float64)  # duration weights for distance cells
    row = {aid: i for i, aid in enumerate(ids)}
    for s in summaries.values():
        for me, other in ((s.id_a, s.id_b), (s.id_b, s.id_a)):
            i = row.get(me)
            if i is None:
                raise ValueError(f"summary references unknown agent {me}")
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
            pot = populations[t] - (1 if agent_types[aid] == t else 0)
            denom[i, j] = pot
    defined = denom > 0
    values = np.zeros((m, k), dtype=np.float64)
    if metric == "distance":
        met = wsum > 0
        values[met] = num[met] / wsum[met]
    else:
        values[defined] = num[defined] / denom[defined]
    return ContactMatrix(
        "agent_by_type", metric, [str(v) for v in ids], type_names, values, defined
    )


def type_matrix(
    summaries: Mapping[tuple[int, int], PairSummary],
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
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    type_names = list(populations)
    t_index = {t: j for j, t in enumerate(type_names)}
    k = len(type_names)
    num = np.zeros((k, k), dtype=np.float64)
    wsum = np.zeros((k, k), dtype=np.float64)
    for s in summaries.values():
        ta = agent_types.get(s.id_a)
        tb = agent_types.get(s.id_b)
        if ta is None or tb is None:
            missing = s.id_a if ta is None else s.id_b
            raise ValueError(f"summary references unknown agent {missing}")
        i, j = t_index[ta], t_index[tb]
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
        if key not in series:
            raise ValueError(f"record involves type {ta!r} or {tb!r} missing from populations")
        start, last = int(c["start"][i]), int(c["last"][i])
        vec = series[key]
        for bucket in range(start // bucket_length, last // bucket_length + 1):
            lo = max(start, bucket * bucket_length)
            hi = min(last, (bucket + 1) * bucket_length - 1)
            vec[bucket] += hi - lo + 1
    return series


# --- exposure ----------------------------------------------------------------


def effective_chunks(duration_matrix: ContactMatrix, chunk_length: int) -> ContactMatrix:
    """Duration cells divided into chunks of chunk_length ticks (fractional)."""
    if duration_matrix.metric != "duration":
        raise ValueError("effective_chunks expects a duration matrix")
    if chunk_length < 1:
        raise ValueError("chunk_length must be >= 1 tick")
    values = np.where(duration_matrix.defined, duration_matrix.values / chunk_length, 0.0)
    return ContactMatrix(
        duration_matrix.level,
        "chunks",
        list(duration_matrix.row_labels),
        list(duration_matrix.col_labels),
        values,
        duration_matrix.defined.copy(),
    )


def transmission_probability(chunks: ContactMatrix, p: float) -> ContactMatrix:
    """Compound per-chunk transmission over f chunks: 1 - (1 - p) ** f."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("per-chunk probability must be in [0, 1]")
    f = chunks.values
    if np.any(f[chunks.defined] < 0):
        raise ValueError("chunk counts must be >= 0")
    values = np.where(chunks.defined, 1.0 - (1.0 - p) ** f, 0.0)
    return ContactMatrix(
        chunks.level,
        "probability",
        list(chunks.row_labels),
        list(chunks.col_labels),
        values,
        chunks.defined.copy(),
    )


def rescale_per_day(matrix: ContactMatrix, horizon_ticks: int, tick_length: float) -> ContactMatrix:
    """Scale count or duration cells from one run horizon up to a 24 h day."""
    if matrix.metric == "distance":
        raise ValueError("distance is an average; per-day rescaling does not apply")
    if horizon_ticks < 1:
        raise ValueError("horizon_ticks must be >= 1")
    factor = 86400.0 / (horizon_ticks * tick_length)
    values = np.where(matrix.defined, matrix.values * factor, 0.0)
    return ContactMatrix(
        matrix.level,
        matrix.metric,
        list(matrix.row_labels),
        list(matrix.col_labels),
        values,
        matrix.defined.copy(),
    )
