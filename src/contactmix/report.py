"""Assemble and write the output bundle for a finished ledger.

The bundle directory holds one CSV per matrix (level x metric, plus the
chunk and probability matrices), an hourly in-contact series, a manifest
echoing every effective parameter, and ``bundle.json`` with the whole lot in
one machine-readable object.  All files are written deterministically: same
inputs, same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

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


def _assemble(
    matrices: dict[str, ContactMatrix],
    chunks: ContactMatrix,
    prob: ContactMatrix,
    series: dict[tuple[str, str], Any],
    manifest: Mapping[str, Any],
    bucket_length: int,
) -> dict[str, Any]:
    by_level: dict[str, dict[str, Any]] = {}
    for key, m in matrices.items():
        level, _, metric = key.rpartition("_")
        by_level.setdefault(level, {})[metric] = m.to_json_obj()
    return {
        "config": dict(manifest),
        "matrices": by_level,
        "effective_chunks": chunks.to_json_obj(),
        "transmission_probability": prob.to_json_obj(),
        "hourly_series": {
            "bucket_length_ticks": bucket_length,
            "series": {_series_label(p): vec.tolist() for p, vec in series.items()},
        },
    }


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
    (out / "bundle.json").write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
