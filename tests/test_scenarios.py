import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from borda_dynamics.errors import ScenarioBuildError, ScenarioFormatError
from borda_dynamics.move_graph import build_cover_graph
from borda_dynamics.scenarios import (
    ScenarioConfig,
    build_gadget,
    build_traveling_wave,
    load_scenario,
    parse_scenario,
)
from borda_dynamics.verifiers import load_suite
from borda_dynamics.weak_orders import antipode, parse_order
from reference import find_cycle

G3 = build_cover_graph(3)
CYCLE4 = find_cycle(G3, 4)


def o(text, m=3):
    return parse_order(text, m)


# --- builders -----------------------------------------------------------------

def test_wave_builder_layout():
    sc = build_traveling_wave(8, CYCLE4)
    assert sc.network.n == 8
    assert sc.persistent.pins == {}
    for i in range(8):
        assert sc.network.weights[i][(i - 1) % 8] == 1
        assert sc.initial[i] == CYCLE4[i % 4]


def test_wave_builder_rejects_mismatched_lengths():
    with pytest.raises(ScenarioBuildError):
        build_traveling_wave(6, CYCLE4)  # 4 does not divide 6
    with pytest.raises(ScenarioBuildError):
        build_traveling_wave(2, CYCLE4)


def test_wave_builder_rejects_non_cycles():
    not_adjacent = (o("x>y>z"), o("x>z>y"), o("(xyz)"), o("(xy)>z"))
    with pytest.raises(ScenarioBuildError):
        build_traveling_wave(4, not_adjacent)
    repeated = (CYCLE4[0], CYCLE4[1], CYCLE4[0], CYCLE4[1])
    with pytest.raises(ScenarioBuildError):
        build_traveling_wave(4, repeated)


def test_wave_builder_rejects_a_cycle_state_on_another_alternative_count():
    mixed = (o("x>y>z"), o("(xy)>z"), o("y>x>z>u", 4), o("(xyz)"))
    with pytest.raises(ScenarioBuildError, match="^cycle state 2 is on 4 alternatives, state 0 on 3$"):
        build_traveling_wave(4, mixed)


def test_wave_builder_rejects_a_two_state_cycle():
    with pytest.raises(ScenarioBuildError, match="^move-graph cycle must have at least 3 states$"):
        build_traveling_wave(4, CYCLE4[:2])


def test_gadget_builder_layout():
    rho = o("x>y>z")
    sc = build_gadget(3, rho, Fraction(1, 10))
    assert sc.network.names == ("i", "j", "p", "q")
    assert sc.network.weights[0][1] == Fraction(9, 10)
    assert sc.network.weights[0][2] == Fraction(1, 10)
    assert sc.network.weights[1][0] == Fraction(9, 10)
    assert sc.network.weights[1][3] == Fraction(1, 10)
    assert sc.persistent.pins == {2: rho, 3: antipode(rho)}
    assert sc.initial[:2] == (rho, antipode(rho))


def test_gadget_builder_eps_bounds():
    rho = o("x>y>z")
    with pytest.raises(ScenarioBuildError):
        build_gadget(3, rho, Fraction(0))
    with pytest.raises(ScenarioBuildError):
        build_gadget(3, rho, Fraction(1))
    # eps = 1/2 builds fine; oscillation is just not promised there
    assert build_gadget(3, rho, Fraction(1, 2)).m == 3


def test_gadget_builder_rejects_a_base_order_on_another_alternative_count():
    with pytest.raises(ScenarioBuildError, match="^base order is over 4 alternatives, expected 3$"):
        build_gadget(3, o("x>y>z>u", 4), Fraction(1, 10))


def test_gadget_builder_rejects_tied_base_order():
    with pytest.raises(ScenarioBuildError):
        build_gadget(3, o("(xy)>z"), Fraction(1, 10))


# --- scenario JSON -----------------------------------------------------------------

def test_bundled_scenarios_parse_and_run(scenario_dir):
    for path in sorted(scenario_dir.glob("*.json")):
        if path.name.startswith("suite_"):
            continue
        sc = load_scenario(path)
        assert sc.label == path.stem
        assert sum(sc.network.weights[0]) == 1
        report = sc.run()  # must finish within the default budget
        assert report.period >= 1


def test_gadget_scenario_file_matches_builder(scenario_dir):
    # the file lists its two contrarian camps as pins on an order and its antipode
    from_file = load_scenario(scenario_dir / "gadget.json")
    built = build_gadget(3, o("x>y>z"), Fraction(1, 10))
    assert from_file.label == "gadget"
    assert from_file == dataclasses.replace(built, label=from_file.label)


@pytest.mark.parametrize("ell,k", [(4, 4), (8, 4), (12, 12)])
def test_wave_scenario_file_matches_builder(scenario_dir, ell, k):
    # the suite's waves are these files; each is the builder's ell-ring along
    # the first k-cycle the search finds, under the file's own label
    from_file = load_scenario(scenario_dir / f"traveling_wave_{ell}.json")
    built = build_traveling_wave(ell, find_cycle(G3, k))
    assert from_file.label == f"traveling_wave_{ell}"
    assert from_file == dataclasses.replace(built, label=from_file.label)


def minimal_doc():
    return {
        "m": 3,
        "network": {
            "nodes": ["a", "b"],
            "edges": [
                {"from": "b", "to": "a", "weight": "1"},
                {"from": "a", "to": "b", "weight": "1"},
            ],
        },
        "initial": {"a": "x>y>z", "b": "z>y>x"},
        "variant": "S",
    }


def test_parse_minimal_document():
    sc = parse_scenario(minimal_doc())
    assert sc.network.weights[0][1] == 1
    assert sc.schedule.kind == "synchronous"
    assert sc.max_steps == 10_000


def field_error(doc):
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(doc)
    return err.value.path


def test_decimal_weights_rejected_with_field_path():
    doc = minimal_doc()
    doc["network"]["edges"][0]["weight"] = "0.5"
    assert field_error(doc) == "network.edges[0].weight"


def test_float_weights_rejected():
    doc = minimal_doc()
    doc["network"]["edges"][1]["weight"] = 0.5
    assert field_error(doc) == "network.edges[1].weight"


def test_negative_weights_rejected_with_field_path():
    # the row still sums to 1, so only the sign check can name the edge
    doc = minimal_doc()
    doc["network"]["nodes"].append("c")
    doc["network"]["edges"] += [{"from": "c", "to": "a", "weight": "-1/10"},
                                {"from": "c", "to": "c", "weight": "1"}]
    doc["network"]["edges"][0]["weight"] = "11/10"
    doc["initial"]["c"] = "x>y>z"
    assert field_error(doc) == "network.edges[2].weight"


def test_row_sum_validation_addresses_edges():
    doc = minimal_doc()
    doc["network"]["edges"][0]["weight"] = "1/2"
    assert field_error(doc) == "network.edges"


def test_duplicate_edge_rejected():
    doc = minimal_doc()
    doc["network"]["edges"].append({"from": "b", "to": "a", "weight": "0"})
    assert field_error(doc).startswith("network.edges[2]")


def test_unknown_nodes_are_addressed():
    doc = minimal_doc()
    doc["initial"]["zz"] = "x>y>z"
    assert field_error(doc) == "initial.zz"
    doc = minimal_doc()
    doc["network"]["edges"][0]["from"] = "nope"
    assert field_error(doc) == "network.edges[0].from"


def test_missing_initial_states_rejected():
    doc = minimal_doc()
    del doc["initial"]["b"]
    assert field_error(doc) == "initial"


def test_pinned_node_in_initial_rejected():
    # a pinned node starts at its pin, so `initial` lists only the free nodes
    doc = minimal_doc()
    doc["pins"] = {"a": "(xyz)"}
    assert field_error(doc) == "initial.a"
    doc["initial"]["a"] = "(xyz)"
    assert field_error(doc) == "initial.a"


def test_pin_defaults_into_initial():
    doc = minimal_doc()
    doc["pins"] = {"a": "(xyz)"}
    del doc["initial"]["a"]
    sc = parse_scenario(doc)
    assert sc.persistent.pins == {0: o("(xyz)")}
    assert sc.initial[0] == o("(xyz)")


def test_normalize_with_weight_rejected():
    doc = minimal_doc()
    doc["network"]["normalize"] = True
    assert field_error(doc) == "network.edges[0].weight"


def test_normalized_network():
    doc = minimal_doc()
    doc["network"]["normalize"] = True
    doc["network"]["edges"] = [{"from": "a", "to": "b"}]
    sc = parse_scenario(doc)
    assert sc.network.weights[0][1] == 1
    assert sc.network.weights[1][0] == 1


def test_variant_parsing():
    doc = minimal_doc()
    doc["variant"] = "seq:[a,b,a]"
    sc = parse_scenario(doc)
    assert sc.schedule.kind == "sequence"
    assert sc.schedule.nodes == (0, 1, 0)

    doc["variant"] = "uniform:42"
    assert parse_scenario(doc).schedule.seed == 42

    doc["variant"] = "sometimes"
    assert field_error(doc) == "variant"

    doc["variant"] = {"kind": "S"}
    assert field_error(doc) == "variant"


def test_policy_and_max_steps():
    doc = minimal_doc()
    doc["policy"] = {"no_move_on_ambiguity": True}
    doc["max_steps"] = 50
    sc = parse_scenario(doc)
    assert sc.policy.allow_no_move_on_ambiguity
    assert sc.max_steps == 50
    doc["max_steps"] = 0
    assert field_error(doc) == "max_steps"


def test_invalid_json_is_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)


def test_a_repeated_key_is_refused_naming_it(scenario_dir, tmp_path):
    # json keeps the last of a repeated key: this gadget would start at
    # (z>y>x, z>y>x), a fixed point, instead of its period-2 orbit
    text = (scenario_dir / "gadget.json").read_text()
    path = tmp_path / "gadget.json"
    path.write_text(text.replace('"i": "x>y>z"', '"i": "x>y>z", "i": "z>y>x"'))
    with pytest.raises(ScenarioFormatError, match="^.*gadget.json: cannot read JSON: duplicate key 'i'$"):
        load_scenario(path)


# --- malformed documents ------------------------------------------------------------------

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Integers fall on both sides of every integer bound a reader checks (`m` in
# 2..6, `max_steps` > 0); no integer field sets a cost at load time.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2048, 2048)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def shipped(name):
    """A shipped document; a suite's scenario file names are made absolute."""
    doc = json.loads((SCENARIO_DIR / name).read_text())
    for entry in doc.get("entries", []):
        entry["scenario"] = str(SCENARIO_DIR / entry["scenario"])
    return doc


SCENARIO_DOCS = [shipped(p.name) for p in sorted(SCENARIO_DIR.glob("*.json")) if "suite" not in p.name]
SUITE_DOCS = [shipped("suite_default.json"), shipped("suite_controls.json")]


def field_paths(doc, prefix=()):
    """Every key or index path in a JSON document, the root `()` included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from field_paths(value, prefix + (key,))


def with_one_field_replaced(data, docs):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(docs))))
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    value = data.draw(JSON_VALUES)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scenario_with_a_field_replaced_parses_or_names_the_field(data):
    doc = with_one_field_replaced(data, SCENARIO_DOCS)
    try:
        sc = parse_scenario(doc)
    except ScenarioFormatError:
        return
    assert len(sc.initial) == sc.network.n


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_suite_with_a_field_replaced_loads_or_names_the_field(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "suite.json"
    path.write_text(json.dumps(with_one_field_replaced(data, SUITE_DOCS)))
    try:
        entries = load_suite(path)
    except ScenarioFormatError:
        return
    assert all(isinstance(entry.scenario, ScenarioConfig) for entry in entries)

