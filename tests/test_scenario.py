import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmix.scenario import (
    ENDLESS_DWELL,
    Cycle,
    Depart,
    Distribution,
    Dwell,
    GoTo,
    Queue,
    ScenarioError,
    load_scenario,
    parse_scenario,
    round_half_up,
    sample_duration,
    serialize_scenario,
    valid_tick_length,
)

MINIMAL = {
    "map": {
        "cell_size_m": 1.0,
        "width": 4,
        "height": 4,
        "locations": {"room": {"cells": [[1, 1]], "capacity": None}},
    },
    "agent_types": [
        {
            "name": "visitor",
            "population": 2,
            "workflow": [
                {"kind": "goto", "location": "room"},
                {"kind": "dwell", "duration": {"kind": "constant", "value": 10}},
                {"kind": "depart"},
            ],
        }
    ],
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


def test_minimal_document_parses():
    s = parse_scenario(json.dumps(MINIMAL))
    assert s.type_names == ["visitor"]
    assert s.populations == {"visitor": 2}
    assert s.tick_length == 1.0
    t = s.agent_types[0]
    assert t.arrival == (0, 0)
    assert t.workflow == (
        GoTo("room"),
        Dwell(Distribution("constant", (10.0,))),
        Depart(),
    )
    assert s.map.locations["room"].anchor == (1.5, 1.5)


def test_unknown_location_named_in_error():
    d = doc()
    d["agent_types"][0]["workflow"][0]["location"] = "bed_9"
    with pytest.raises(ScenarioError, match="bed_9"):
        parse_scenario(json.dumps(d))


def test_duplicate_type_names_rejected():
    d = doc()
    d["agent_types"].append(json.loads(json.dumps(d["agent_types"][0])))
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(json.dumps(d))


@pytest.mark.parametrize("name", ["a,b", "a:b", ":", "nurse,"])
def test_type_name_with_a_separator_rejected(name):
    d = doc()
    d["agent_types"][0]["name"] = name
    with pytest.raises(ScenarioError, match=r"agent_types\[0\]: name .* must not contain"):
        parse_scenario(json.dumps(d))


@pytest.mark.parametrize("name", ["a\nb", "a\tb", "nurse\x7f", "\u2028", "a\u00a0b"])
def test_type_name_with_a_character_that_is_not_printable_rejected(name):
    d = doc()
    d["agent_types"][0]["name"] = name
    with pytest.raises(ScenarioError,
                       match=r"agent_types\[0\]: name .* must hold only printable characters"):
        parse_scenario(json.dumps(d))


def test_syntax_error_reports_position():
    with pytest.raises(ScenarioError, match=r"line \d+ column \d+"):
        parse_scenario('{\n  "map": [,]\n}')


def test_unknown_keys_rejected():
    d = doc(extra_key=1)
    with pytest.raises(ScenarioError, match="extra_key"):
        parse_scenario(json.dumps(d))


def test_bad_distribution_parameters_rejected():
    d = doc()
    d["agent_types"][0]["workflow"][1]["duration"] = {"kind": "uniform", "min": 5, "max": 2}
    with pytest.raises(ScenarioError, match="min <= max"):
        parse_scenario(json.dumps(d))
    d["agent_types"][0]["workflow"][1]["duration"] = {"kind": "normal", "mean": 5}
    with pytest.raises(ScenarioError, match="normal"):
        parse_scenario(json.dumps(d))


def test_blocked_location_cell_rejected():
    d = doc()
    d["map"]["blocked"] = [[1, 1]]
    with pytest.raises(ScenarioError, match="blocked"):
        parse_scenario(json.dumps(d))


def test_overlapping_locations_rejected():
    d = doc()
    d["map"]["locations"]["other"] = {"cells": [[1, 1]], "capacity": None}
    with pytest.raises(ScenarioError, match="belongs"):
        parse_scenario(json.dumps(d))


def test_out_of_range_cell_rejected():
    d = doc()
    d["map"]["locations"]["room"]["cells"] = [[9, 9]]
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario(json.dumps(d))


def test_anchor_must_lie_inside_location():
    d = doc()
    d["map"]["locations"]["room"]["anchor"] = [3.5, 3.5]
    with pytest.raises(ScenarioError, match="anchor"):
        parse_scenario(json.dumps(d))


def test_workflow_must_start_with_goto_or_queue():
    d = doc()
    d["agent_types"][0]["workflow"].insert(
        0, {"kind": "dwell", "duration": {"kind": "constant", "value": 1}}
    )
    with pytest.raises(ScenarioError, match="first step"):
        parse_scenario(json.dumps(d))


def test_depart_only_terminal():
    d = doc()
    d["agent_types"][0]["workflow"].insert(1, {"kind": "depart"})
    with pytest.raises(ScenarioError, match="final step"):
        parse_scenario(json.dumps(d))


def test_queue_requires_following_goto():
    d = doc()
    d["agent_types"][0]["workflow"] = [
        {"kind": "queue", "location": "room"},
        {"kind": "dwell", "duration": {"kind": "constant", "value": 1}},
    ]
    with pytest.raises(ScenarioError, match="queue"):
        parse_scenario(json.dumps(d))


def test_cycles_do_not_nest():
    inner = {"kind": "cycle", "repeat": 2, "steps": [{"kind": "goto", "location": "room"}]}
    d = doc()
    d["agent_types"][0]["workflow"] = [
        {"kind": "goto", "location": "room"},
        {"kind": "cycle", "repeat": 2, "steps": [inner]},
    ]
    with pytest.raises(ScenarioError, match="nest"):
        parse_scenario(json.dumps(d))


def test_arrival_forms():
    d = doc()
    d["agent_types"][0]["arrival"] = [3, 7]
    s = parse_scenario(json.dumps(d))
    assert s.agent_types[0].arrival == (3, 7)
    d["agent_types"][0]["arrival"] = {"start": 2, "interval": 5}
    s = parse_scenario(json.dumps(d))
    assert s.agent_types[0].arrival == (2, 7)
    d["agent_types"][0]["arrival"] = [1]
    with pytest.raises(ScenarioError, match="arrival list"):
        parse_scenario(json.dumps(d))


def test_round_trip_fixpoint():
    s = parse_scenario(json.dumps(MINIMAL))
    text = serialize_scenario(s)
    assert serialize_scenario(parse_scenario(text)) == text
    s2 = parse_scenario(text)
    assert s2 == s


def test_shipped_clinic_round_trips(tmp_path):
    import contactmix

    path = f"{list(contactmix.__path__)[0]}/data/clinic.json"
    s = load_scenario(path)
    assert len(s.agent_types) == 7
    assert set(s.type_names) == {
        "patient", "clerk", "housekeeper", "assistant", "nurse", "physician", "nephrologist",
    }
    text = Path(path).read_text(encoding="utf-8")
    # the shipped file is already in canonical form
    assert serialize_scenario(s) == text
    assert serialize_scenario(parse_scenario(serialize_scenario(s))) == serialize_scenario(s)


def replaced(node, at, value):
    """A copy of ``node`` whose node at key path ``at`` is ``value``."""
    if not at:
        return value
    node = node.copy()
    node[at[0]] = replaced(node[at[0]], at[1:], value) if at[1:] else value
    return node


def cycle(**count):
    return {"kind": "cycle", "steps": [{"kind": "goto", "location": "room"}], **count}


VISITOR = ("agent_types", 0)
CYCLE = (*VISITOR, "workflow", 1)


def case(at, value, message):
    return pytest.param(at, value, message, id=message.split()[0])


# (key path in MINIMAL, value, message): each count takes one rule
V = "agent_types['visitor']"
BAD_COUNTS = [
    case(CYCLE, cycle(repeat=True), f"{V}.workflow[1].repeat must be an integer >= 1"),
    case(CYCLE, cycle(until_tick=False), f"{V}.workflow[1].until_tick must be an integer >= 0"),
    case(CYCLE, cycle(repeat=0), f"{V}.workflow[1].repeat must be an integer >= 1"),
    case(CYCLE, cycle(until_tick=2.0), f"{V}.workflow[1].until_tick must be an integer >= 0"),
    case((*VISITOR, "population"), True, f"{V}.population must be an integer >= 0"),
    case((*VISITOR, "arrival"), [0, -1], f"{V}.arrival[1] must be an integer >= 0"),
    case((*VISITOR, "arrival"), {"interval": False},
         f"{V}.arrival.interval must be an integer >= 0"),
    case((*VISITOR, "workflow"), [], f"{V}.workflow must be a non-empty list"),
    case(("map", "locations", "room", "capacity"), 0,
         "map.locations['room'].capacity must be an integer >= 1"),
    case(("map", "height"), True, "map.height must be an integer >= 1"),
]


@pytest.mark.parametrize("at, value, message", BAD_COUNTS)
def test_a_count_that_is_not_an_integer_at_its_bound_is_rejected(at, value, message):
    """A bool is not a count: ``"repeat": true`` and ``"until_tick": false``
    once parsed."""
    with pytest.raises(ScenarioError) as e:
        parse_scenario(json.dumps(replaced(MINIMAL, at, value)))
    assert str(e.value) == message


def test_a_cycle_in_place_of_the_dwell_parses():
    s = parse_scenario(json.dumps(replaced(MINIMAL, CYCLE, cycle(repeat=2))))
    assert s.agent_types[0].workflow[1] == Cycle((GoTo("room"),), repeat=2)


SHIPPED_CLINIC = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "contactmix" / "data" / "clinic.json")
    .read_text(encoding="utf-8"))


def key_paths(node, at=()):
    """The key path of ``node`` and of every node under it, containers too."""
    yield at
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from key_paths(v, at + (k,))


@pytest.mark.parametrize("value", [None, True, -1, 0.5, "x", [], {}, [0]], ids=repr)
def test_any_node_of_the_clinic_replaced_parses_or_is_rejected(value):
    """Each node of the shipped clinic, containers included, swapped for
    ``value``: the document parses or raises ``ScenarioError``, nothing else.
    A ``map.blocked`` of null, a number or a bool was once a TypeError."""
    crashes = []
    for at in key_paths(SHIPPED_CLINIC):
        try:
            parse_scenario(json.dumps(replaced(SHIPPED_CLINIC, at, value)))
        except ScenarioError:
            pass
        except Exception as e:  # any other exception is the failure
            crashes.append(f"{list(at)}: {type(e).__name__}: {e}")
    assert not crashes, crashes[:5]


# --- sample_duration ----------------------------------------------------------


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(3.5) == 4
    assert round_half_up(-0.4) == 0


def test_constant_duration_rounding():
    rng = np.random.default_rng(0)
    d = Distribution("constant", (10.0,))
    assert sample_duration(d, rng, 1.0) == 10
    assert sample_duration(d, rng, 4.0) == 3  # 2.5 ticks rounds up
    assert sample_duration(d, rng, 3.0) == 3


def test_degenerate_uniform_is_constant():
    rng = np.random.default_rng(0)
    d = Distribution("uniform", (5.0, 5.0))
    assert all(sample_duration(d, rng, 1.0) == 5 for _ in range(20))


def test_uniform_mean_within_three_standard_errors():
    rng = np.random.default_rng(1234)
    d = Distribution("uniform", (0.0, 100.0))
    n = 100_000
    samples = [d.sample(rng) for _ in range(n)]
    se = (100.0 / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(sum(samples) / n - 50.0) <= 3 * se


def test_identical_stream_state_identical_result():
    d = Distribution("uniform", (2.0, 9.0))
    a = sample_duration(d, np.random.default_rng(7), 1.0)
    b = sample_duration(d, np.random.default_rng(7), 1.0)
    assert a == b


def test_sample_duration_nonnegative_integer():
    rng = np.random.default_rng(3)
    for dist in (
        Distribution("exponential", (4.0,)),
        Distribution("triangular", (0.0, 1.0, 6.0)),
        Distribution("uniform", (0.0, 2.0)),
    ):
        for _ in range(200):
            t = sample_duration(dist, rng, 0.7)
            assert isinstance(t, int) and t >= 0


@pytest.mark.parametrize("dist, tick_length", [
    (Distribution("constant", (1e308,)), 0.5),  # the quotient overflows
    (Distribution("constant", (1.0,)), 1e-320),
    (Distribution("triangular", (0.0, 0.0, sys.float_info.max)), 1.0),  # numpy draws -inf
    (Distribution("exponential", (1e308,)), 1.0),  # and, now and then, inf
])
def test_a_dwell_beyond_the_float_range_outlasts_any_run(dist, tick_length):
    """Once an OverflowError from ``round_half_up``: a draw or quotient that
    is not finite lasts ``ENDLESS_DWELL`` ticks, at least the tick count of
    any finite dwell."""
    rng = np.random.default_rng(5)
    ticks = [sample_duration(dist, rng, tick_length) for _ in range(50)]
    assert ENDLESS_DWELL in ticks
    assert all(t == ENDLESS_DWELL or 0 <= t < ENDLESS_DWELL for t in ticks)
    assert ENDLESS_DWELL > 10**308


def test_a_tick_length_counts_finitely_many_ticks_in_an_hour():
    """3600 / t overflows for t below about 2.0e-305 s."""
    assert valid_tick_length(1e-300) and valid_tick_length(3e-305)
    for t in (1e-305, 1e-320, 5e-324, 0.0, -1.0, math.inf, math.nan):
        assert not valid_tick_length(t), t


def test_a_scenario_tick_length_too_short_for_an_hour_is_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["defaults"] = {"tick_length_s": 1e-320}
    with pytest.raises(ScenarioError, match=r"^defaults\.tick_length_s must be .* an hour$"):
        parse_scenario(json.dumps(doc))
    doc["defaults"] = {"tick_length_s": 3e-305}
    assert parse_scenario(json.dumps(doc)).tick_length == 3e-305


# --- property: serialized form is a fixpoint over generated scenarios --------

names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
durations = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v},
              st.floats(0, 50, allow_nan=False)),
    st.builds(lambda a, w: {"kind": "uniform", "min": a, "max": a + w},
              st.floats(0, 20, allow_nan=False), st.floats(0, 20, allow_nan=False)),
    st.builds(lambda m: {"kind": "exponential", "mean": m},
              st.floats(0.1, 30, allow_nan=False)),
)


@st.composite
def scenario_docs(draw):
    width = draw(st.integers(3, 8))
    height = draw(st.integers(3, 8))
    loc_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
            min_size=len(loc_names),
            max_size=len(loc_names),
            unique=True,
        )
    )
    locations = {
        n: {"cells": [list(c)], "capacity": draw(st.one_of(st.none(), st.integers(1, 4)))}
        for n, c in zip(loc_names, cells)
    }
    steps = [{"kind": "goto", "location": draw(st.sampled_from(loc_names))}]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["goto", "dwell"]))
        if kind == "goto":
            steps.append({"kind": "goto", "location": draw(st.sampled_from(loc_names))})
        else:
            steps.append({"kind": "dwell", "duration": draw(durations)})
    if draw(st.booleans()):
        steps.append({"kind": "depart"})
    return {
        "map": {
            "cell_size_m": draw(st.sampled_from([0.5, 1.0, 2.0])),
            "width": width,
            "height": height,
            "locations": locations,
        },
        "agent_types": [
            {
                "name": "mover",
                "population": draw(st.integers(0, 5)),
                "arrival": draw(st.integers(0, 9)),
                "workflow": steps,
            }
        ],
        "defaults": {"tick_length_s": draw(st.sampled_from([0.5, 1.0, 2.0]))},
    }


@given(scenario_docs())
@settings(max_examples=60, deadline=None)
def test_round_trip_fixpoint_property(document):
    s = parse_scenario(json.dumps(document))
    text = serialize_scenario(s)
    s2 = parse_scenario(text)
    assert s2 == s
    assert serialize_scenario(s2) == text
