"""Output checks on a written bundle; each returns a list of problems (empty if fine)."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

METRICS = ("count", "duration", "distance")
MATRIX_CSVS = tuple(
    f"{level}_{metric}.csv"
    for level in ("agent", "agent_by_type", "type")
    for metric in METRICS
) + ("effective_chunks.csv", "transmission_probability.csv")
BUNDLE_FILES = MATRIX_CSVS + ("hourly_series.csv", "bundle.json", "manifest.json")
SYMMETRIC_CSVS = ("agent_count.csv", "agent_duration.csv", "type_count.csv", "type_duration.csv")


def file_set(out: Path, frames: bool) -> list[str]:
    expected = set(BUNDLE_FILES) | ({"frames.csv"} if frames else set())
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    problems = [f"missing {name}" for name in sorted(expected - present)]
    problems += [f"unexpected {name}" for name in sorted(present - expected)]
    return problems


def digest(out: Path) -> str:
    """sha256 over every file of the bundle, by name."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def output_bytes(out: Path) -> tuple[int, int]:
    """(all bytes in the output directory, bytes excluding frames.csv)."""
    sizes = {p.name: p.stat().st_size for p in out.iterdir()}
    total = sum(sizes.values())
    return total, total - sizes.get("frames.csv", 0)


def symmetric(out: Path) -> list[str]:
    problems = []
    for name in SYMMETRIC_CSVS:
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        cols = rows[0][1:]
        labels = [r[0] for r in rows[1:]]
        cells = [r[1:] for r in rows[1:]]
        if labels != cols or any(len(r) != len(cols) for r in cells):
            problems.append(f"{name}: not a square matrix with matching labels")
            continue
        n = len(cols)
        if any(cells[i][j] != cells[j][i] for i in range(n) for j in range(i + 1, n)):
            problems.append(f"{name}: not symmetric")
    return problems


def same_matrices(a: Path, b: Path) -> list[str]:
    """Matrix CSVs of two bundles, compared byte for byte."""
    return [
        f"{name} differs between {a.name} and {b.name}"
        for name in MATRIX_CSVS
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]


def trace_agent_lines(path: Path) -> int:
    """Agent lines of a trace file: header and empty-tick placeholders excluded."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.split(",", 2)[1] not in ("", "agent_id"))
