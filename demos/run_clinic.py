"""Simulate the shipped outpatient-clinic scenario and read its mixing matrices.

Six patients queue at reception, wait, and get treated in a six-bed bay
staffed by nurses, assistants, a physician and a nephrologist, while a
housekeeper loops through the public rooms.  Every tick the engine logs who
is within two meters of whom; afterwards the contact ledger is collapsed
into count / duration / distance matrices at three aggregation levels.
"""

from importlib import resources
from pathlib import Path

from contactmix import (
    ContactConfig,
    ContactLedger,
    SimConfig,
    build_matrices,
    effective_chunks,
    load_scenario,
    run,
    transmission_probability,
)

TICKS = 1800  # half an hour at one-second ticks

scenario = load_scenario(str(resources.files("contactmix") / "data" / "clinic.json"))
print(f"clinic: {len(scenario.agent_types)} agent types, "
      f"{sum(scenario.populations.values())} agents, "
      f"{scenario.map.width}x{scenario.map.height} m floor")

# The ledger is just another frame observer; anything that wants the raw
# positions could be chained in the same callback.
ledger = ContactLedger(ContactConfig(effective_radius=2.0))
summary = run(scenario, SimConfig(ticks=TICKS, seed=42), ledger.observe)
ledger.finalize(TICKS - 1)

print(f"simulated {TICKS} ticks: {summary.arrivals} arrivals, "
      f"{summary.departures} departures, {ledger.n_records} contact episodes")

matrices = build_matrices(ledger, scenario.populations)

print("\nmean contact ticks per type pair (undefined cells blank):")
print(matrices["type_duration"].to_csv())

# Chop cumulative exposure into 15-minute chunks and compound a 10 %
# per-chunk transmission chance through them.
chunks = effective_chunks(matrices["type_duration"], chunk_length=900)
prob = transmission_probability(chunks, p=0.10)
print("transmission probability per type pair (p=0.10 per 15 min):")
print(prob.to_csv())

out = Path(__file__).parent / "output" / "clinic"
out.mkdir(parents=True, exist_ok=True)
for name, matrix in matrices.items():
    (out / f"{name}.csv").write_text(matrix.to_csv(), encoding="utf-8")
print(f"wrote {len(matrices)} matrix files to {out}")
