"""Layered end-to-end benchmark for contactmix.

Run from the root of a source checkout (no install needed)::

    python3 bench/run.py --workload clinic --seed 1 --seconds 40 --trace 0

``--workload`` is ``clinic``, ``crowd``, ``sensor_trace`` or ``all``.  Each
workload's inputs are generated from ``--seed`` before anything is timed.
Every CLI invocation runs ``contactmix.cli.main`` in a fresh child process
(``bench/child.py``) with ``PYTHONPATH=src`` and numpy's thread pools at one
thread, so peak RSS and the import part of set-up are per invocation.

With ``--trace 0`` the run repeats untraced invocations for ``--seconds``
(at least three) and reports the medians of the end-to-end metrics.  With
``--trace 1`` untraced and traced invocations alternate over the window; the
traced ones give the per-layer metrics (medians again), and the tracing
overhead is the traced median wall time minus the untraced one.

Checks, all outside the timed region:

* every invocation exits 0, writes the full bundle file set and reproduces
  the first invocation's sha256 over all bundle files;
* the first bundle's agent and type count/duration matrices are symmetric;
* on ``clinic``, replaying the first run's ``frames.csv`` through
  ``ingest-trace`` reproduces its matrix CSVs byte for byte;
* in traced invocations, the agent-ticks the ledger saw equal the
  workload's stated agent-ticks.

A failed invocation counts in ``error_rate`` = failed / attempted.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it state the workload, its
size, the machine and every metric with its unit.  A fuller record, with
each invocation's figures, goes to
``.bench_work/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
WORK_ROOT = Path(".bench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_UNTRACED = 3  # per run, whatever --seconds says; a traced run also tries one traced
RUN_LIMIT_S = 165  # every child is stopped by then, so a run ends within 180 s
HARD_STOP_S = 120  # no new invocation after this


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Session:
    """The invocations of one workload run, with their checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.argv, self.agent_ticks = workloads.prepare(name, seed, work)
        self.frames = "--export-frames" in self.argv
        self.simulate = None
        if self.argv[0] == "run":
            self.simulate = {
                "scenario": self.argv[self.argv.index("--scenario") + 1],
                "ticks": int(self.argv[self.argv.index("--ticks") + 1]),
                "seed": seed,
            }
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None  # sha256 of the first good bundle
        self.manifest: dict = {}
        self.output_bytes = 0
        self.report_bytes = 0
        self._n = 0

    def _fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{label}: {p}" for p in problems]

    def _invoke(self, argv: list[str], traced: bool, simulate: dict | None) -> tuple[dict | None, Path]:
        """Run main(argv + --out) in a child; return (result or None, output dir)."""
        self._n += 1
        label = f"invocation {self._n}"
        out = self.work / f"out{self._n}"
        spec_path = self.work / f"spec{self._n}.json"
        result_path = self.work / f"result{self._n}.json"
        spans_path = self.work / f"spans{self._n}.json"
        spec = {
            "argv": argv + ["--out", str(out)],
            "simulate": simulate,
            "result": str(result_path),
            "spans": str(spans_path) if traced else None,
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path)],
                env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self._fail(label, [f"no result within {timeout:.0f} s"])
            return None, out
        if proc.returncode != 0 or not result_path.is_file():
            self._fail(label, [f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"])
            return None, out
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result["rc"] != 0:
            self._fail(label, [f"main returned {result['rc']}: {proc.stderr.strip()[-400:]}"])
            return None, out
        if traced:
            result["layers"], result["counters"] = tracing.layer_metrics(spans_path)
        return result, out

    def measured(self, traced: bool) -> dict | None:
        """One checked invocation of the workload; None when it failed."""
        result, out = self._invoke(self.argv, traced, self.simulate)
        label = f"invocation {self._n}"
        try:
            if result is None:
                return None
            problems = checks.file_set(out, self.frames)
            if not problems:
                sha = checks.digest(out)
                if self.reference is None:
                    problems = self._first_bundle(out)
                    self.reference = sha
                elif sha != self.reference:
                    problems.append(f"bundle sha256 {sha[:12]} differs from the first run's "
                                    f"{self.reference[:12]}")
            if traced:
                seen = result["counters"].get("contacts.agent_ticks", 0)
                if seen != self.agent_ticks:
                    problems.append(f"the ledger saw {seen} agent-ticks, expected {self.agent_ticks}")
            if problems:
                self._fail(label, problems)
                return None
            self.output_bytes, self.report_bytes = checks.output_bytes(out)
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _first_bundle(self, out: Path) -> list[str]:
        """Checks that need only one bundle per run; also reads its manifest."""
        problems = checks.symmetric(out)
        self.manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        if self.frames:
            self.agent_ticks = checks.trace_agent_lines(out / "frames.csv")
            replay, replay_out = self._invoke(
                ["ingest-trace", "--trace", str(out / "frames.csv"),
                 "--tick-length-s", str(self.manifest["tick_length_s"])],
                traced=False, simulate=None,
            )
            if replay is None:
                problems.append("replaying frames.csv failed")
            else:
                problems += checks.same_matrices(out, replay_out)
            shutil.rmtree(replay_out, ignore_errors=True)
        return problems

    def window(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """(untraced, traced) invocations until the next would overrun ``seconds``.

        With ``trace`` the two kinds alternate, so both see the same stretch
        of machine time and their difference is the tracing overhead.
        """
        untraced: list[dict] = []
        traced: list[dict] = []
        took: list[float] = []
        t0 = time.perf_counter()
        while (len(untraced) < MIN_UNTRACED or (trace and len(took) < 2)
               or time.perf_counter() - t0 + _median(took) <= seconds):
            if self.failed > 2 and self.failed * 2 > self.attempted:
                break  # a broken program fails every time; stop early
            if time.perf_counter() - t0 > HARD_STOP_S:
                break
            with_trace = trace and len(took) % 2 == 1
            t = time.perf_counter()
            r = self.measured(with_trace)
            took.append(time.perf_counter() - t)
            if r is not None:
                (traced if with_trace else untraced).append(r)
        return untraced, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(Session(name, seed, work), seconds, trace, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(s: Session, seconds: float, trace: bool, spec: dict) -> dict:
    untraced, traced = s.window(seconds, trace)
    wall = _median([r["wall_s"] for r in untraced])
    e2e = {
        "wall_s": wall,
        "agent_ticks_per_s": (s.agent_ticks or 0) / wall if wall else 0.0,
        "setup_s": _median([r["setup_s"] for r in untraced]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
    }
    if trace:
        reported = spec["per_layer"]
        values = dict.fromkeys((m["name"] for m in reported), 0.0)  # when no traced run succeeded
        if traced:
            # median_low keeps counts whole: it picks one of the traced runs' values
            values = {m: statistics.median_low([r["layers"][m] for r in traced])
                      for m in traced[0]["layers"]}
            values["trace.wall_s"] = _median([r["wall_s"] for r in traced])
            values["trace.overhead_s"] = values["trace.wall_s"] - wall
        values["report.bytes_written"] = s.report_bytes
    else:
        values, reported = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}

    stamp = {
        "workload": s.name,
        "seed": s.seed,
        "size": workloads.SIZES[s.name],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "agents": s.manifest.get("agents", sum(s.manifest.get("populations", {}).values())),
        "ticks": s.manifest.get("ticks"),
        "agent_ticks": s.agent_ticks,
        "output_bytes": s.output_bytes,
    }
    return {
        "stamp": stamp,
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "error_rate": s.failed / s.attempted,
        "problems": s.problems,
        "end_to_end": e2e,
        "untraced": [_sample(r) for r in untraced],
        "traced": [_sample(r) | {"layers": r["layers"]} for r in traced],
        "metrics": metrics,
    }


def _sample(r: dict) -> dict:
    return {k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def _print_result(res: dict) -> None:
    st = res["stamp"]
    print(f"workload {st['workload']} (seed {st['seed']}): {st['size']}")
    print("  " + " ".join(f"{k}={st[k]}" for k in
                          ("nproc", "python", "numpy", "agents", "ticks", "agent_ticks",
                           "output_bytes")))
    replay = ", one of them the frames.csv replay" if st["workload"] == "clinic" else ""
    print(f"  invocations: {len(res['untraced'])} untraced and {len(res['traced'])} traced "
          f"measured; {res['attempted']} attempted in all{replay}")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {res['error_rate']:14.6g} ratio "
          f"({res['failed']} of {res['attempted']} invocations failed)")
    for p in res["problems"]:
        print(f"  FAILED {st['workload']} {p}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/contactmix/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of a contactmix checkout "
              "(src/contactmix and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seed = args.seed % (1 << 31)  # the simulator takes seeds in [0, 2^31)

    names = sorted(workloads.SIZES) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, seed, args.seconds, bool(args.trace), spec) for n in names}

    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for n, res in results.items():
        _print_result(res)
        (results_dir / f"{n}-seed{seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n", encoding="utf-8"
        )

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
