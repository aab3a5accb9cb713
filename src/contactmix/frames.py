"""Per-tick position frames and the newline-delimited trace format.

One line per present agent: ``tick,agent_id,type_name,x_m,y_m``.  A header
line is optional.  Ticks must be dense integers starting at 0; a tick with no
agents on site is written as a placeholder line with empty agent columns
(``7,,,,``) so density stays checkable.  Malformed or out-of-order lines,
and positions that are not finite numbers, are rejected with their line
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import IO, Iterable, Iterator

import numpy as np

TRACE_HEADER = "tick,agent_id,type_name,x_m,y_m"


class TraceFormatError(ValueError):
    """A trace stream violated the frame format; carries the offending line."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


@dataclass
class TickFrame:
    """All agents present during one tick.

    ``ids`` are unique int64 agent ids, ``type_ids`` index into ``type_names``
    and ``positions`` is an (n, 2) float64 array in meters.
    """

    tick: int
    ids: np.ndarray
    type_ids: np.ndarray
    positions: np.ndarray
    type_names: list[str]

    def __len__(self) -> int:
        return len(self.ids)


def write_frames(fh: IO[str], frames: Iterable[TickFrame], header: bool = True) -> None:
    """Write frames as trace lines; floats use repr so they read back exactly."""
    if header:
        fh.write(TRACE_HEADER + "\n")
    for frame in frames:
        if len(frame) == 0:
            fh.write(f"{frame.tick},,,,\n")
            continue
        names = frame.type_names
        for i in range(len(frame)):
            x, y = frame.positions[i]
            fh.write(
                f"{frame.tick},{frame.ids[i]},{names[frame.type_ids[i]]},"
                f"{float(x)!r},{float(y)!r}\n"
            )


def read_frames(lines: Iterable[str]) -> Iterator[TickFrame]:
    """Parse trace lines into frames, enforcing dense ticks from 0.

    Type indices are assigned in order of first appearance, and every frame
    shares one growing type-name list.
    """
    type_names: list[str] = []
    type_index: dict[str, int] = {}

    expected_tick = 0
    cur_tick: int | None = None
    ids: list[int] = []
    types: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    seen: set[int] = set()

    def flush() -> TickFrame:
        frame = TickFrame(
            tick=cur_tick,  # type: ignore[arg-type]
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
            raise TraceFormatError(line_no, "type_name must not be empty")
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
