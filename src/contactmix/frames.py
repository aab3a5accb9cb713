"""Per-tick position frames and the newline-delimited trace format.

One line per present agent: ``tick,agent_id,type_name,x_m,y_m``.  A header
line is optional.  Ticks must be dense integers starting at 0; a tick with no
agents on site is written as a placeholder line with empty agent columns
(``7,,,,``) so density stays checkable.  Malformed or out-of-order lines,
type names that ``check_type_name`` rejects, ids that do not fit in an
int64, positions that are not finite and text that is not UTF-8 are
rejected with their line number.

``read_frames`` reads ``ROWS`` lines at a time.  Each block is parsed by one
``np.loadtxt`` call and validated with array operations: integer ticks and
ids, dense ticks continuing from the block before, no id twice in a tick
(the open tick's rows are carried into the next block for this), finite
positions and type names ``check_type_name`` accepts.  A failing block is read
again by the line-by-line parser, from the same state, so errors keep their
line numbers and messages and the same frames come before them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
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
        names, tick = frame.type_names, frame.tick
        fh.write("".join(
            f"{tick},{i},{names[t]},{x!r},{y!r}\n"
            for i, t, (x, y) in zip(frame.ids.tolist(), frame.type_ids.tolist(),
                                    np.asarray(frame.positions, dtype=np.float64).tolist())
        ))


def check_type_name(name: str) -> str | None:
    """Why ``name`` cannot be a type name, or None if it can.

    Names are written unquoted into CSV cells and trace lines, and ":" joins
    two of them in an hourly series label, so a name is not empty, holds no
    "," or ":" and only printable characters (``str.isprintable``: no
    newline, tab or other control character).
    """
    if not name:
        return "must not be empty"
    for sep in ",:":
        if sep in name:
            return f"must not contain {sep!r}"
    if not name.isprintable():
        return "must hold only printable characters"
    return None


# Lines parsed per block.  Bigger blocks parse no faster, but every row of a
# block is held as Python strings while it is parsed: on a 330k-line trace,
# 32k-row blocks raised peak RSS by 16% where 2048-row blocks left it level.
ROWS = 2048

# One trace line as np.loadtxt reads it.  The type column must be object: a
# "U" field reads every name as '' and a "U8" field truncates longer ones.
_ROW = np.dtype([("tick", np.int64), ("id", np.int64), ("type", object),
                 ("x", np.float64), ("y", np.float64)])
_PLACEHOLDER_TAIL = ",,,,"
# np.loadtxt skips these around a number as spaces, where int() and float()
# reject them; it also reads some non-ASCII letters as digits.
_LOADTXT_SPACES = "\x1c\x1d\x1e\x1f"
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # ids are stored as int64


def read_frames(lines: Iterable[str]) -> Iterator[TickFrame]:
    """Parse trace lines into frames, enforcing dense ticks from 0.

    Type indices are assigned in order of first appearance, and every frame
    shares one growing type-name list.  Lines are parsed ``ROWS`` at a time;
    the last tick of a block stays open until a later line closes it.

    A line holding a lone surrogate is rejected as not UTF-8: a file opened
    with ``errors="surrogateescape"`` decodes each byte that is not UTF-8
    to one, so the error names the line it is on.
    """
    reader = _Reader()
    it = iter(lines)
    first_line = 1
    while block := list(islice(it, ROWS)):
        frames = reader.parse_block(block, first_line)
        if frames is None:
            yield from reader.scan(block, first_line)
        else:
            yield from frames
        first_line += len(block)
    if reader.tick is not None:
        yield reader.frame(reader.tick, reader.ids, reader.types, reader.xy)


class _Reader:
    """What ``read_frames`` knows between blocks: the type names so far, and
    the open tick with its rows.

    ``parse_block`` reads a block with one ``np.loadtxt`` call and checks it
    in bulk; it changes nothing unless the whole block is valid.  Where it
    cannot vouch for a block, ``scan`` reads it again line by line, as the
    reader always did, so an error names its line, and the frames before it
    are yielded, exactly as before.  On ASCII text without the separators
    \\x1c-\\x1f, ``np.loadtxt`` accepts a subset of what ``int`` and
    ``float`` accept, with equal values ("1_000" or a stray "\\r" go to
    ``scan``), and keeps type names verbatim, so both paths give the same
    frames.  Other blocks go to ``scan`` whole.
    """

    def __init__(self) -> None:
        self.type_names: list[str] = []
        self.type_index: dict[str, int] = {}
        self.tick: int | None = None  # the open tick: its rows follow
        self.ids = np.empty(0, dtype=np.int64)
        self.types = np.empty(0, dtype=np.int32)
        self.xy = np.empty((0, 2))

    def frame(self, tick: int, ids: np.ndarray, types: np.ndarray, xy: np.ndarray) -> TickFrame:
        return TickFrame(tick=tick, ids=ids, type_ids=types, positions=xy,
                         type_names=self.type_names)

    def parse_block(self, block: list[str], first_line: int) -> list[TickFrame] | None:
        """The frames this block closes, or None if the block needs ``scan``."""
        if first_line == 1 and block[0].rstrip("\n") == TRACE_HEADER:
            block = block[1:]
        text = "".join(block)
        if not text.isascii() or any(c in text for c in _LOADTXT_SPACES):
            return None
        agent = None  # per parsed row, False for a placeholder line
        if _PLACEHOLDER_TAIL in text:
            block, agent = _fill_placeholders(block)
        with warnings.catch_warnings():
            # "input contained no data", or on numpy 1.x an integer read via
            # a float ("1.0"): either sends the block to scan
            warnings.simplefilter("error")
            try:
                rows = np.loadtxt(block, dtype=_ROW, delimiter=",", comments=None, ndmin=1)
            except (ValueError, Warning):
                return None
        tick = rows["tick"]
        prev = self.tick if self.tick is not None else -1
        steps = np.diff(tick, prepend=prev)
        if not ((steps >= 0) & (steps <= 1)).all() or (self.tick is None and tick[0] != 0):
            return None  # ticks must be dense, from 0
        if agent is not None:
            rows = rows[agent]
        xy = np.column_stack([rows["x"], rows["y"]])
        if not np.isfinite(xy).all():
            return None
        row_tick = np.concatenate([np.full(len(self.ids), prev), rows["tick"]])
        ids = np.concatenate([self.ids, rows["id"]])
        order = np.lexsort((ids, row_tick))
        t, i = row_tick[order], ids[order]
        if ((t[1:] == t[:-1]) & (i[1:] == i[:-1])).any():
            return None  # an id twice in one tick
        names = rows["type"].tolist()
        try:
            new_types = np.fromiter(map(self.type_index.__getitem__, names),
                                    dtype=np.int32, count=len(names))
        except KeyError:  # a name not seen before, or one scan rejects
            first_seen = dict.fromkeys(names)
            if any(check_type_name(name) for name in first_seen):
                return None
            for name in first_seen:  # every check has passed: commit
                if name not in self.type_index:
                    self.type_index[name] = len(self.type_names)
                    self.type_names.append(name)
            new_types = np.fromiter(map(self.type_index.__getitem__, names),
                                    dtype=np.int32, count=len(names))

        types = np.concatenate([self.types, new_types])
        xy = np.concatenate([self.xy, xy])
        first = self.tick if self.tick is not None else 0
        last = int(tick[-1])
        # the first row of each tick; every tick but the last is closed
        starts = np.searchsorted(row_tick, np.arange(first, last + 1)).tolist()
        frames = [self.frame(first + k, ids[s:e], types[s:e], xy[s:e])
                  for k, (s, e) in enumerate(zip(starts, starts[1:]))]
        s = starts[-1]
        self.tick, self.ids, self.types, self.xy = last, ids[s:], types[s:], xy[s:]
        return frames

    def scan(self, block: list[str], first_line: int) -> Iterator[TickFrame]:
        """Parse the block one line at a time, raising at the first bad line."""
        type_names, type_index = self.type_names, self.type_index
        cur_tick = self.tick
        ids: list[int] = self.ids.tolist()
        types: list[int] = self.types.tolist()
        xs: list[float] = self.xy[:, 0].tolist()
        ys: list[float] = self.xy[:, 1].tolist()
        seen: set[int] = set(ids)

        def flush() -> TickFrame:
            frame = self.frame(
                cur_tick,  # type: ignore[arg-type]
                np.array(ids, dtype=np.int64),
                np.array(types, dtype=np.int32),
                np.column_stack([xs, ys]) if ids else np.empty((0, 2)),
            )
            ids.clear(), types.clear(), xs.clear(), ys.clear(), seen.clear()
            return frame

        for line_no, raw in enumerate(block, start=first_line):
            line = raw.rstrip("\n")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate: see read_frames
                    raise TraceFormatError(line_no, "not valid UTF-8 text") from None
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
                if tick != 0:
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
            if not _INT64_MIN <= agent_id <= _INT64_MAX:
                raise TraceFormatError(line_no, f"agent_id {parts[1]!r} does not fit in 64 bits")
            if agent_id in seen:
                raise TraceFormatError(line_no, f"agent {agent_id} appears twice in tick {tick}")
            seen.add(agent_id)
            type_name = parts[2]
            problem = check_type_name(type_name)
            if problem:
                raise TraceFormatError(line_no, f"type_name {type_name!r} {problem}")
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

        self.tick = cur_tick
        self.ids = np.array(ids, dtype=np.int64)
        self.types = np.array(types, dtype=np.int32)
        self.xy = np.column_stack([xs, ys]) if ids else np.empty((0, 2))


def _fill_placeholders(block: list[str]) -> tuple[list[str], np.ndarray]:
    """The block's non-blank lines with each placeholder line ``t,,,,`` given
    dummy agent fields so that ``np.loadtxt`` reads its tick, and a mask that
    is False on those rows.  Any other line ending in ",,,," has more than
    five fields once filled, which ``np.loadtxt`` rejects."""
    lines = [line for line in block if line.strip()]
    agent = np.ones(len(lines), dtype=bool)
    for k, line in enumerate(lines):
        text = line.rstrip("\n")
        if text.endswith(_PLACEHOLDER_TAIL):
            lines[k] = text[: -len(_PLACEHOLDER_TAIL)] + ",0,-,0,0"
            agent[k] = False
    return lines, agent
