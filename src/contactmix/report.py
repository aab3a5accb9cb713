"""Assemble and write the output bundle for a finished ledger.

The bundle directory holds one CSV per matrix (level x metric, plus the
chunk and probability matrices), an hourly in-contact series, a manifest
echoing every effective parameter, and ``bundle.json`` with the whole lot in
one machine-readable object.  All files are written deterministically: same
inputs, same bytes.

``bundle.json`` holds the bytes ``json.dumps(..., indent=2, sort_keys=True)``
gives for the bundle's nested dicts and lists, but ``_json_chunks`` writes
it: with any ``indent`` the stdlib encodes in pure Python, a few generator
calls per matrix cell, where ``_json_chunks`` formats each matrix's distinct
values once and joins its rows.  The document is streamed to its file, one
matrix row at a time, so it is never held whole: at 1000 agents it is about
20 MB of text.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .aggregate import (
    ContactMatrix,
    agent_matrix,
    agent_by_type,
    effective_chunks,
    hourly_series,
    pair_summaries,
    transmission_probability,
    type_matrix,
    METRICS,
)
from .contacts import ContactLedger


def build_matrices(
    ledger: ContactLedger, populations: Mapping[str, int]
) -> dict[str, ContactMatrix]:
    """Every level x metric matrix for the ledger, keyed ``level_metric``.

    Type names are sorted on every type axis and ``agent_*`` labels are
    agent ids ascending, so a simulated run and a replay of its exported
    frames produce byte-identical files even though they discover the types
    in a different order.  ``agent_by_type_*`` rows follow the ledger's
    roster, agents in order of first appearance, which a replay keeps.
    """
    pairs = pair_summaries(ledger)
    roster = ledger.agents()
    agent_types = {aid: ledger.type_names[t] for aid, t in roster.items()}
    pops = _canonical(populations)
    out: dict[str, ContactMatrix] = {}
    for metric in METRICS:
        out[f"agent_{metric}"] = agent_matrix(pairs, sorted(roster), metric)
        out[f"agent_by_type_{metric}"] = agent_by_type(pairs, agent_types, pops, metric)
        out[f"type_{metric}"] = type_matrix(pairs, agent_types, pops, metric)
    return out


def _canonical(populations: Mapping[str, int]) -> dict[str, int]:
    """Populations with type names sorted: the order of every type axis."""
    return {name: populations[name] for name in sorted(populations)}


def _series_label(pair: tuple[str, str]) -> str:
    return f"{pair[0]}:{pair[1]}"


def hourly_series_csv(series: dict[tuple[str, str], Any]) -> str:
    pairs = sorted(series)
    lines = ["bucket," + ",".join(_series_label(p) for p in pairs)]
    n_buckets = max((len(v) for v in series.values()), default=0)
    for b in range(n_buckets):
        row = [str(b)] + [str(int(series[p][b])) for p in pairs]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _matrix_obj(m: ContactMatrix) -> dict[str, Any]:
    """``m.to_json_obj()``, with the matrix itself standing for its values
    grid, which ``_json_text`` writes from the arrays."""
    return {
        "level": m.level,
        "metric": m.metric,
        "row_labels": m.row_labels,
        "col_labels": m.col_labels,
        "values": m,
    }


def _assemble(
    matrices: dict[str, ContactMatrix],
    chunks: ContactMatrix,
    prob: ContactMatrix,
    series: dict[tuple[str, str], Any],
    manifest: Mapping[str, Any],
    bucket_length: int,
) -> dict[str, Any]:
    by_level: dict[str, dict[str, Any]] = {}
    for m in matrices.values():
        by_level.setdefault(m.level, {})[m.metric] = _matrix_obj(m)
    return {
        "config": dict(manifest),
        "matrices": by_level,
        "effective_chunks": _matrix_obj(chunks),
        "transmission_probability": _matrix_obj(prob),
        "hourly_series": {
            "bucket_length_ticks": bucket_length,
            "series": {_series_label(p): vec.tolist() for p, vec in series.items()},
        },
    }


def _float_text(v: float) -> str:
    """A float as ``json`` writes it, NaN and the infinities included."""
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _bracketed(parts: Iterable[Iterable[str]], indent: str, open_: str = "[",
               close: str = "]") -> Iterator[str]:
    """Each part's pieces, parts one per line one level deeper than
    ``indent``; no parts as ``[]`` or ``{}``."""
    line = "\n" + indent + "  "
    empty = True
    for part in parts:
        yield open_ + line if empty else "," + line
        yield from part
        empty = False
    yield open_ + close if empty else "\n" + indent + close


def _json_chunks(obj: Any, indent: str = "") -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)`` in pieces,
    byte for byte, for dicts with string keys, lists, tuples and the scalars
    ``json`` writes.  A ``ContactMatrix`` is written as its values grid,
    rows of cells with ``null`` where undefined, one piece per row, so a
    matrix is never held as text whole.

    ``indent`` is the indentation of the line ``obj`` starts on.
    """
    if isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, float):
        yield _float_text(obj)
    elif isinstance(obj, (list, tuple)):
        yield from _bracketed((_json_chunks(v, indent + "  ") for v in obj), indent)
    elif isinstance(obj, dict):
        yield from _bracketed(
            (chain((encode_basestring_ascii(k) + ": ",), _json_chunks(obj[k], indent + "  "))
             for k in sorted(obj)),
            indent, "{", "}",
        )
    elif isinstance(obj, ContactMatrix):
        inner = indent + "  "
        cell = "\n" + inner + "  "
        rows = obj.cell_texts(_float_text, "null")
        yield from _bracketed(
            (("[" + cell + ("," + cell).join(row) + "\n" + inner + "]" if row else "[]",)
             for row in rows),
            indent,
        )
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, as ``_json_chunks`` writes it."""
    return "".join(_json_chunks(obj))


def write_bundle(
    out_dir: str | Path,
    ledger: ContactLedger,
    populations: Mapping[str, int],
    manifest: Mapping[str, Any],
    base_p: float,
    bucket_length: int,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    matrices = build_matrices(ledger, populations)
    chunks = effective_chunks(matrices["type_duration"], ledger.config.chunk_length)
    prob = transmission_probability(chunks, base_p)
    series = hourly_series(ledger, bucket_length, _canonical(populations))

    for key, m in matrices.items():
        (out / f"{key}.csv").write_text(m.to_csv(), encoding="utf-8")
    (out / "effective_chunks.csv").write_text(chunks.to_csv(), encoding="utf-8")
    (out / "transmission_probability.csv").write_text(prob.to_csv(), encoding="utf-8")
    (out / "hourly_series.csv").write_text(hourly_series_csv(series), encoding="utf-8")
    (out / "manifest.json").write_text(
        json.dumps(dict(manifest), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    bundle = _assemble(matrices, chunks, prob, series, manifest, bucket_length)
    with (out / "bundle.json").open("w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(bundle))
        fh.write("\n")
