"""The exported surface: ``contactmix.__all__`` and the names README documents."""

import re
from pathlib import Path

import contactmix

README = Path(__file__).resolve().parents[1] / "README.md"

# What the README Library section exports, in its order
DOCUMENTED = (
    "load_scenario", "SimConfig", "run", "ContactConfig", "ContactLedger", "build_matrices",
    "effective_chunks", "transmission_probability", "pairs_within", "plan_route",
    "social_force_step", "pair_summaries", "PairTable", "agent_matrix", "agent_by_type",
    "type_matrix", "hourly_series", "rescale_per_day", "read_frames",
)


def test_every_exported_name_resolves_once():
    names = contactmix.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(contactmix, n)]
    assert missing == []


def test_the_documented_library_is_exported():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [n for n in DOCUMENTED if not re.search(rf"\b{n}\b", library)] == []
    assert [n for n in DOCUMENTED if n not in contactmix.__all__] == []
