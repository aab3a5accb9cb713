"""Command line front end.

``contactmix run`` simulates a scenario and writes the contact-matrix
bundle; ``contactmix ingest-trace`` replays a recorded position trace
through the same contact pipeline.  Both hand each frame to
``ContactLedger.observe``, which checks it at once and searches it for
contacts with its group; ``run --export-frames`` writes each frame to
``frames.csv`` as it is made.  Exit codes: 0 success, 1 invalid input
(scenario, trace or usage), 2 a fault during simulation (an unreachable
location, or a capacity deadlock: waiters for a slot whose holders wait on
each other in a cycle or have ended their workflow), 3 an I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from .contacts import ContactConfig, ContactLedger, FrameError
from .engine import SimConfig, Simulation, SimulationFault
from .frames import (
    TRACE_HEADER, TickFrame, TraceFormatError, check_type_name, read_frames, write_frames,
)
from .report import write_bundle
from .scenario import (
    TICK_LENGTH_RULE, ScenarioError, load_scenario, round_half_up, valid_tick_length,
)

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


def _tick_length(text: str) -> float:
    return _number(text, valid_tick_length, TICK_LENGTH_RULE)


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
    p_run.add_argument("--tick-length-s", type=_tick_length, default=None,
                       help="override the scenario's tick length")
    p_run.add_argument("--export-frames", action="store_true",
                       help="also write the per-tick position trace (frames.csv)")
    _add_common(p_run)

    p_ing = sub.add_parser("ingest-trace", help="replay a position trace into contact matrices")
    p_ing.add_argument("--trace", required=True, help="trace CSV path")
    p_ing.add_argument("--tick-length-s", type=_tick_length, default=1.0)
    p_ing.add_argument("--populations", default=None,
                       help="override type populations, e.g. 'patient=12,nurse=4'")
    _add_common(p_ing)
    return parser


def _ledger(args: argparse.Namespace) -> ContactLedger:
    return ContactLedger(ContactConfig(
        effective_radius=args.radius_m,
        min_duration=args.min_duration_ticks,
        chunk_length=args.chunk_ticks,
    ))


def _write_outputs(
    args: argparse.Namespace, ledger: ContactLedger, populations: dict[str, int],
    tick_length: float, manifest: dict[str, Any],
) -> int:
    """Write the bundle of a finished ledger.  ``manifest`` holds the
    command's own entries; this adds the ones every command writes."""
    bucket_length = max(1, round_half_up(3600.0 / tick_length))  # one hour
    manifest.update({
        "tick_length_s": tick_length,
        "radius_m": args.radius_m,
        "min_duration_ticks": args.min_duration_ticks,
        "chunk_ticks": args.chunk_ticks,
        "base_p": args.base_p,
        "bucket_ticks": bucket_length,
        "populations": populations,
    })
    write_bundle(args.out, ledger, populations, manifest, args.base_p, bucket_length)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    sim = Simulation(scenario, SimConfig(ticks=args.ticks, seed=args.seed,
                                         tick_length=args.tick_length_s))
    ledger = _ledger(args)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = (out / "frames.csv").open("w", encoding="utf-8") if args.export_frames else nullcontext()
    with trace as frames_fh:
        if frames_fh is not None:
            frames_fh.write(TRACE_HEADER + "\n")

        def observe(frame: TickFrame) -> None:
            ledger.observe(frame)
            if frames_fh is not None:
                write_frames(frames_fh, [frame], header=False)

        summary = sim.run(observe)

    ledger.finalize(args.ticks - 1)
    return _write_outputs(args, ledger, scenario.populations, sim.tick_length, {
        "command": "run",
        "scenario": args.scenario,
        "seed": args.seed,
        "ticks": args.ticks,
        "export_frames": bool(args.export_frames),
        "agents": summary.agents,
        "arrivals": summary.arrivals,
        "departures": summary.departures,
    })


def _parse_populations(spec: str | None) -> dict[str, int]:
    if not spec:
        return {}
    out: dict[str, int] = {}
    for item in spec.split(","):
        # the count holds no "=", a type name may; the name is kept as written
        name, sep, value = item.rpartition("=")
        if not sep or not name:
            raise _UsageError(f"bad --populations entry {item!r}; expected name=count")
        problem = check_type_name(name)
        if problem:
            raise _UsageError(f"bad --populations entry {item!r}; type name {name!r} {problem}")
        if name in out:
            raise _UsageError(f"--populations gives type {name!r} twice")
        try:
            count = int(value)
        except ValueError:
            raise _UsageError(f"bad --populations count in {item!r}") from None
        if count < 0:
            raise _UsageError(f"population for {name!r} must be >= 0")
        out[name] = count
    return out


def cmd_ingest(args: argparse.Namespace) -> int:
    override = _parse_populations(args.populations)  # before the trace is read
    ledger = _ledger(args)
    # bytes that are not UTF-8 reach read_frames, which names their line
    with open(args.trace, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for frame in read_frames(fh):
            ledger.observe(frame)
    last_tick = ledger.last_tick if ledger.last_tick is not None else -1
    ledger.finalize(last_tick)

    populations = ledger.observed_populations()
    for name, count in override.items():
        observed = populations.get(name, 0)
        if count < observed:
            raise _UsageError(
                f"--populations gives {count} for {name!r} but the trace shows {observed}"
            )
        populations[name] = count
    return _write_outputs(args, ledger, populations, args.tick_length_s, {
        "command": "ingest-trace",
        "trace": args.trace,
        "ticks": last_tick + 1,
    })


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
