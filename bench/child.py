"""One CLI invocation in a fresh process: ``python3 bench/child.py SPEC.json``.

The spec names the argv for ``contactmix.cli.main``, whether to trace, and
where to write the result.  The child times, in this order:

* ``setup_s``: ``import contactmix``, plus for ``run`` workloads
  ``load_scenario`` and ``Simulation(...)`` construction (built and dropped;
  ``main`` then does its own);
* ``wall_s``: the ``main(argv)`` call, which returns once the bundle is
  written.

It reports the process's peak resident set after ``main`` returns.  With
tracing on, the wrappers go in after set-up and the spans are written once,
at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    import contactmix
    from contactmix import cli

    setup_s = time.perf_counter() - t0
    sim = spec.get("simulate")
    if sim is not None:
        t1 = time.perf_counter()
        scenario = contactmix.load_scenario(sim["scenario"])
        contactmix.Simulation(scenario, contactmix.SimConfig(ticks=sim["ticks"], seed=sim["seed"]))
        setup_s += time.perf_counter() - t1
        del scenario

    entry = cli.main
    tracer = None
    if spec.get("spans"):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap("cli.main", cli.main)

    t2 = time.perf_counter()
    rc = entry(spec["argv"])
    wall_s = time.perf_counter() - t2

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    if tracer is not None:
        tracer.dump(Path(spec["spans"]))
    Path(spec["result"]).write_text(
        json.dumps({"rc": rc, "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
