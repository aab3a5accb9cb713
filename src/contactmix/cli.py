"""Command line front end.

``contactmix run`` simulates a scenario and writes the contact-matrix
bundle; ``contactmix ingest-trace`` replays a recorded position trace
through the same contact pipeline.  Exit codes: 0 success, 1 invalid input
(scenario, trace or usage), 2 a fault during simulation (an unreachable
location, or a capacity deadlock: waiters for a slot whose holders wait on
each other in a cycle or have ended their workflow), 3 an I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Iterator

from .contacts import ContactConfig, ContactLedger, FrameError, pairs_within_frames
from .engine import SimConfig, SimulationFault, run
from .frames import ROWS, TickFrame, TraceFormatError, read_frames, write_frames
from .report import write_bundle
from .scenario import ScenarioError, load_scenario, round_half_up

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAULT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are invalid input, not a runtime fault
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


# argparse types: a bad value is reported as "argument --X: ..." at parse time
def _number(text: str, ok, what: str, cast=float):
    try:
        value = cast(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    return _number(text, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def _probability(text: str) -> float:
    return _number(text, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _positive_int(text: str) -> int:
    return _number(text, lambda v: v >= 1, "an integer >= 1", int)


def _non_negative_int(text: str) -> int:
    return _number(text, lambda v: v >= 0, "an integer >= 0", int)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radius-m", type=_positive_float, default=2.0,
                   help="contact radius in meters (boundary inclusive)")
    p.add_argument("--min-duration-ticks", type=_positive_int, default=1,
                   help="drop contacts shorter than this many ticks at reporting time")
    p.add_argument("--chunk-ticks", type=_positive_int, default=900,
                   help="exposure chunk length in ticks")
    p.add_argument("--base-p", type=_probability, default=0.1,
                   help="per-chunk transmission probability")
    p.add_argument("--out", required=True, help="output directory for the bundle")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contactmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write contact matrices")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--seed", type=_non_negative_int, default=0)
    p_run.add_argument("--ticks", type=_non_negative_int, required=True,
                       help="simulation horizon in ticks")
    p_run.add_argument("--tick-length-s", type=_positive_float, default=None,
                       help="override the scenario's tick length")
    p_run.add_argument("--export-frames", action="store_true",
                       help="also write the per-tick position trace (frames.csv)")
    _add_common(p_run)

    p_ing = sub.add_parser("ingest-trace", help="replay a position trace into contact matrices")
    p_ing.add_argument("--trace", required=True, help="trace CSV path")
    p_ing.add_argument("--tick-length-s", type=_positive_float, default=1.0)
    p_ing.add_argument("--populations", default=None,
                       help="override type populations, e.g. 'patient=12,nurse=4'")
    _add_common(p_ing)
    return parser


def _contact_config(args: argparse.Namespace, tick_length: float) -> ContactConfig:
    return ContactConfig(
        effective_radius=args.radius_m,
        tick_length=tick_length,
        min_duration=args.min_duration_ticks,
        chunk_length=args.chunk_ticks,
    )


def _bucket_length(tick_length: float) -> int:
    return max(1, round_half_up(3600.0 / tick_length))


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    tick_length = args.tick_length_s if args.tick_length_s is not None else scenario.tick_length
    config = SimConfig(ticks=args.ticks, seed=args.seed, tick_length=tick_length)
    contact_cfg = _contact_config(args, tick_length)
    ledger = ContactLedger(contact_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frames_fh = None
    try:
        if args.export_frames:
            frames_fh = (out / "frames.csv").open("w", encoding="utf-8")
            frames_fh.write("tick,agent_id,type_name,x_m,y_m\n")

        def observer(frame):
            ledger.observe(frame)
            if frames_fh is not None:
                write_frames(frames_fh, [frame], header=False)

        summary = run(scenario, config, observer)
    finally:
        if frames_fh is not None:
            frames_fh.close()

    ledger.finalize(args.ticks - 1)
    populations = scenario.populations
    manifest: dict[str, Any] = {
        "command": "run",
        "scenario": args.scenario,
        "seed": args.seed,
        "ticks": args.ticks,
        "tick_length_s": tick_length,
        "radius_m": args.radius_m,
        "min_duration_ticks": args.min_duration_ticks,
        "chunk_ticks": args.chunk_ticks,
        "base_p": args.base_p,
        "bucket_ticks": _bucket_length(tick_length),
        "export_frames": bool(args.export_frames),
        "populations": populations,
        "agents": summary.agents,
        "arrivals": summary.arrivals,
        "departures": summary.departures,
    }
    write_bundle(out, ledger, populations, manifest, args.base_p, _bucket_length(tick_length))
    return EXIT_OK


def _parse_populations(spec: str | None) -> dict[str, int]:
    if not spec:
        return {}
    out: dict[str, int] = {}
    for item in spec.split(","):
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _UsageError(f"bad --populations entry {item!r}; expected name=count")
        try:
            count = int(value)
        except ValueError:
            raise _UsageError(f"bad --populations count in {item!r}") from None
        if count < 0:
            raise _UsageError(f"population for {name!r} must be >= 0")
        out[name] = count
    return out


def _frame_groups(frames: Iterable[TickFrame]) -> Iterator[list[TickFrame]]:
    """Consecutive frames in groups of about ROWS rows, an empty tick counting
    as its one placeholder line, so that each group is searched for pairs at
    once.  On a bad trace line the frames read before it come out first: a
    frame the ledger rejects is then reported ahead of the later line."""
    group: list[TickFrame] = []
    rows = 0
    try:
        for frame in frames:
            if group and rows + max(len(frame), 1) > ROWS:
                yield group
                group, rows = [], 0
            group.append(frame)
            rows += max(len(frame), 1)
    except TraceFormatError:
        yield group
        raise
    yield group


def cmd_ingest(args: argparse.Namespace) -> int:
    contact_cfg = _contact_config(args, args.tick_length_s)
    ledger = ContactLedger(contact_cfg)
    # bytes that are not UTF-8 reach read_frames, which names their line
    with open(args.trace, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for group in _frame_groups(read_frames(fh)):
            pairs = pairs_within_frames(group, contact_cfg.effective_radius)
            for frame, frame_pairs in zip(group, pairs):
                ledger.observe(frame, _pairs=frame_pairs)
    last_tick = ledger.last_tick if ledger.last_tick is not None else -1
    ledger.finalize(last_tick)

    populations = ledger.observed_populations()
    override = _parse_populations(args.populations)
    for name, count in override.items():
        observed = populations.get(name, 0)
        if count < observed:
            raise _UsageError(
                f"--populations gives {count} for {name!r} but the trace shows {observed}"
            )
        populations[name] = count

    manifest: dict[str, Any] = {
        "command": "ingest-trace",
        "trace": args.trace,
        "ticks": last_tick + 1,
        "tick_length_s": args.tick_length_s,
        "radius_m": args.radius_m,
        "min_duration_ticks": args.min_duration_ticks,
        "chunk_ticks": args.chunk_ticks,
        "base_p": args.base_p,
        "bucket_ticks": _bucket_length(args.tick_length_s),
        "populations": populations,
    }
    write_bundle(args.out, ledger, populations, manifest, args.base_p,
                 _bucket_length(args.tick_length_s))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        return cmd_ingest(args)
    except (_UsageError, ScenarioError, TraceFormatError, FrameError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except SimulationFault as e:
        print(f"fault: {e}", file=sys.stderr)
        return EXIT_FAULT
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
