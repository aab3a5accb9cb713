"""Measure proximity-detection and contact-logging throughput.

Five thousand agents random-walk a 100 m x 100 m site.  The ledger queues
the frames it observes and searches each group of at least ``ROWS`` (2048)
rows for all pairs within two meters in one grid search, then folds them
into its running records tick by tick; a 5000-agent frame fills a group on
its own.  The figure to watch is agent-ticks per second: how much simulated
crowd-time one core can digest.
"""

import time

import numpy as np

from contactmix import ContactConfig, ContactLedger, TickFrame, pairs_within

N_AGENTS = 5000
TICKS = 120
RADIUS = 2.0

rng = np.random.default_rng(7)
ids = np.arange(N_AGENTS, dtype=np.int64)
type_ids = (ids % 4).astype(np.int64)
names = ["a", "b", "c", "d"]

pos = rng.uniform(0.0, 100.0, size=(N_AGENTS, 2))
frames = []
for t in range(TICKS):
    pos = np.clip(pos + rng.normal(0.0, 0.3, size=(N_AGENTS, 2)), 0.0, 100.0)
    frames.append(TickFrame(t, ids, type_ids, pos.copy(), names))
print(f"{N_AGENTS} agents x {TICKS} ticks, radius {RADIUS} m, "
      f"density {N_AGENTS / 10000:.2f} agents/m^2")

# detection alone: the uniform-grid pair search on one frame
reps = 50
pairs_within(ids, frames[-1].positions, RADIUS)  # warm up
t0 = time.perf_counter()
for _ in range(reps):
    a, b, d = pairs_within(ids, frames[-1].positions, RADIUS)
per_frame = (time.perf_counter() - t0) / reps
print(f"detection: {per_frame * 1000:.2f} ms/frame ({len(a)} pairs), "
      f"{N_AGENTS / per_frame / 1e6:.2f}M agent-ticks/s")

# detection + logging: the ledger's grouped search and record update, best of three passes
best = float("inf")
for _ in range(3):
    ledger = ContactLedger(ContactConfig(effective_radius=RADIUS))
    t0 = time.perf_counter()
    for frame in frames:
        ledger.observe(frame)
    ledger.finalize(TICKS - 1)
    best = min(best, time.perf_counter() - t0)

rate = N_AGENTS * TICKS / best
print(f"detection + logging: {best:.2f} s for {N_AGENTS * TICKS} agent-ticks, "
      f"{ledger.n_records} records")
print(f"throughput: {rate / 1e6:.2f}M agent-ticks/s")
