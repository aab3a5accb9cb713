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


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_the_documented_library_is_exported():
    library = library_section()
    assert [n for n in DOCUMENTED if not re.search(rf"\b{n}\b", library)] == []
    assert [n for n in DOCUMENTED if n not in contactmix.__all__] == []


def test_the_library_example_runs(monkeypatch, capsys):
    """The Library section's code block runs as written from the repository
    root, where its scenario path points, and prints a type-by-type CSV."""
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    monkeypatch.chdir(README.parent)
    exec(compile(block, str(README), "exec"), {})
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if line]
    names = rows[0][1:]
    assert rows[0][0] == "" and len(names) > 1
    assert [row[0] for row in rows[1:]] == names
    assert all(len(row) == len(names) + 1 for row in rows)
