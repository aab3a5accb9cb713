"""Proximity-contact extraction and mixing matrices for agent simulations.

The package simulates workflow-driven pedestrian motion on a gridded floor
plan, records person-to-person proximity contacts from the resulting (or any
externally recorded) position stream, and aggregates them into contact
matrices at the agent, agent-by-type and type-by-type levels.
"""

from .aggregate import (
    ContactMatrix,
    PairTable,
    agent_by_type,
    agent_matrix,
    effective_chunks,
    hourly_series,
    pair_summaries,
    rescale_per_day,
    transmission_probability,
    type_matrix,
)
from .contacts import (
    ContactConfig,
    ContactLedger,
    FrameError,
    NonMonotonicTickError,
    pairs_within,
)
from .engine import (
    ForceParameters,
    SimConfig,
    Simulation,
    SimulationFault,
    run,
    social_force_step,
)
from .frames import TickFrame, TraceFormatError, read_frames, write_frames
from .report import build_matrices, write_bundle
from .routing import NoRouteError, plan_route, shortest_cell_path
from .scenario import (
    Distribution,
    EnvironmentMap,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ContactConfig",
    "ContactLedger",
    "ContactMatrix",
    "Distribution",
    "EnvironmentMap",
    "ForceParameters",
    "FrameError",
    "NoRouteError",
    "NonMonotonicTickError",
    "PairTable",
    "Scenario",
    "ScenarioError",
    "SimConfig",
    "Simulation",
    "SimulationFault",
    "TickFrame",
    "TraceFormatError",
    "agent_by_type",
    "agent_matrix",
    "build_matrices",
    "effective_chunks",
    "hourly_series",
    "load_scenario",
    "pair_summaries",
    "pairs_within",
    "parse_scenario",
    "plan_route",
    "read_frames",
    "rescale_per_day",
    "run",
    "social_force_step",
    "serialize_scenario",
    "shortest_cell_path",
    "transmission_probability",
    "type_matrix",
    "write_bundle",
    "write_frames",
]
