import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from borda_dynamics import cli

CLI = [sys.executable, "-m", "borda_dynamics"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd
    )


# --- enumerate -------------------------------------------------------------------

def test_enumerate_m3_lists_thirteen_rows():
    proc = run_cli("enumerate", "3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "id,order,scores,antipode,degree"
    assert len(lines) == 14
    assert lines[1] == "0,x>y>z,2;1;0,z>y>x,2"


def test_enumerate_m4_lists_seventy_five_rows():
    proc = run_cli("enumerate", "4")
    assert len(proc.stdout.strip().splitlines()) == 76


def test_enumerate_dot():
    proc = run_cli("export-dot", "--move-graph", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph move_graph_m3 {")
    assert proc.stdout.count("label=") == 13


def test_enumerate_has_no_dot_flag():
    proc = run_cli("enumerate", "3", "--dot")
    assert proc.returncode == 2
    assert "--dot" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_enumerate_rejects_out_of_range():
    proc = run_cli("enumerate", "9")
    assert proc.returncode == 2


# --- simulate ---------------------------------------------------------------------

def test_simulate_consensus(scenario_dir):
    proc = run_cli("simulate", str(scenario_dir / "consensus_triangle.json"))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert (doc["mu"], doc["period"]) == (0, 1)


def test_simulate_traveling_wave(scenario_dir):
    proc = run_cli("simulate", str(scenario_dir / "traveling_wave_4.json"))
    doc = json.loads(proc.stdout)
    assert (doc["mu"], doc["period"]) == (0, 4)


def test_simulate_gadget_with_csv(scenario_dir, tmp_path):
    csv_path = tmp_path / "trace.csv"
    proc = run_cli(
        "simulate", str(scenario_dir / "gadget.json"), "--csv", str(csv_path)
    )
    doc = json.loads(proc.stdout)
    assert doc["period"] == 2
    assert doc["min_margin"] == "1/10"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "time,i,j,p,q"
    assert len(lines) == 1 + doc["mu"] + doc["period"] + 1  # header + steps + closure row
    assert lines[1].startswith("0,x>y>z,z>y>x")


def test_simulate_missing_file_names_path():
    proc = run_cli("simulate", "scenarios/no_such_scenario.json")
    assert proc.returncode == 2
    assert "no_such_scenario.json" in proc.stderr


def test_simulate_budget_exceeded_exit_code(scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / "gadget.json").read_text())
    doc["variant"] = "uniform:3"
    doc["max_steps"] = 3
    path = tmp_path / "tiny_budget.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3
    assert "budget" in proc.stderr.lower()


def test_simulate_field_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "m": 3,
        "network": {"nodes": ["a"], "edges": [{"from": "a", "to": "a", "weight": "0.9"}]},
        "initial": {"a": "x>y>z"},
        "variant": "S",
    }))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 2
    assert "network.edges[0].weight" in proc.stderr


def test_simulate_uniform_schedule_converges(scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / "gadget.json").read_text())
    doc["variant"] = "uniform:3"
    path = tmp_path / "gadget_async.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("simulate", str(path))
    out = json.loads(proc.stdout)
    assert out["period"] == 1
    assert out["orbit"][0]["i"] == out["orbit"][0]["j"]


#: every option that names an output file: the argv before its path
OUTPUT_OPTIONS = {
    "verify-out": ("verify", "suite_controls.json", "--out"),
    "simulate-report": ("simulate", "gadget.json", "--report"),
    "simulate-csv": ("simulate", "gadget.json", "--csv"),
    "enumerate-out": ("enumerate", "3", "--out"),
}


@pytest.mark.parametrize("argv", OUTPUT_OPTIONS.values(), ids=OUTPUT_OPTIONS.keys())
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_an_unwritable_output_path_is_an_input_error_naming_it(scenario_dir, tmp_path, argv, where):
    # exit 1 would read as "claims failed", and "missing file" as a missing input;
    # every output is opened before any is written, so the report that
    # `simulate --csv` sends to stdout is not left behind either
    command, subject, option = argv
    if command != "enumerate":
        subject = str(scenario_dir / subject)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    proc = run_cli(command, subject, option, str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"input error: cannot write {out}: ")


def test_an_unwritable_csv_path_leaves_an_existing_report_file_as_it_was(scenario_dir, tmp_path):
    report = tmp_path / "rep.json"
    report.write_bytes(b"an earlier report\n" * 1000)
    gadget = str(scenario_dir / "gadget.json")
    proc = run_cli("simulate", gadget, "--report", str(report), "--csv", str(tmp_path / "missing" / "x.csv"))
    assert proc.returncode == 2
    assert report.read_bytes() == b"an earlier report\n" * 1000
    # once every output opens, the longer earlier file is replaced, not overwritten in place
    assert run_cli("simulate", gadget, "--report", str(report), "--csv", str(tmp_path / "x.csv")).returncode == 0
    assert report.read_text() == run_cli("simulate", gadget).stdout


@pytest.mark.parametrize("same", ["same-path", "hard-link"])
def test_two_outputs_to_one_file_are_an_input_error_that_keeps_the_file(scenario_dir, tmp_path, same):
    # otherwise the CSV truncates the report written just before it
    report = tmp_path / "out.txt"
    report.write_bytes(b"an earlier report\n")
    csv = report
    if same == "hard-link":
        csv = tmp_path / "link.txt"
        os.link(report, csv)
    proc = run_cli("simulate", str(scenario_dir / "gadget.json"), "--report", str(report), "--csv", str(csv))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"input error: cannot write {csv}: it is the same file as {report}\n")
    assert report.read_bytes() == b"an earlier report\n"


@pytest.mark.parametrize("mode", ["w", "a"], ids=["redirected", "appended"])
def test_a_file_output_to_the_file_stdout_writes_is_an_input_error(scenario_dir, tmp_path, mode):
    # as `simulate gadget.json --csv F > F` (or `>> F`): the CSV would truncate the report on stdout
    out = tmp_path / "out.txt"
    out.write_bytes(b"an earlier report\n")
    with open(out, mode) as stdout:
        proc = subprocess.run(CLI + ["simulate", str(scenario_dir / "gadget.json"), "--csv", str(out)],
                              stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (2, f"input error: cannot write {out}: it is the same file as stdout\n")
    assert out.read_bytes() == (b"" if mode == "w" else b"an earlier report\n")


@pytest.mark.parametrize("csv", ["-", os.devnull], ids=["stdout-twice", "device-twice"])
def test_stdout_may_share_its_file_with_stdout_or_a_device(scenario_dir, tmp_path, csv):
    gadget = str(scenario_dir / "gadget.json")
    out = tmp_path / "out.txt" if csv == "-" else Path(os.devnull)
    with open(out, "w") as stdout:
        proc = subprocess.run(CLI + ["simulate", gadget, "--csv", csv], stdout=stdout, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if csv == "-":
        assert out.read_text() == run_cli("simulate", gadget, "--csv", "-").stdout


def test_a_device_is_written_without_truncating_it():
    # ftruncate fails on a character device, so only regular files are truncated
    proc = run_cli("enumerate", "3", "--out", os.devnull)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_a_closed_stdout_is_an_input_error_without_a_traceback(scenario_dir):
    # the read end is closed before the child starts, so its first write to stdout fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(CLI + ["simulate", str(scenario_dir / "traveling_wave_8.json"), "--csv", "-"],
                              stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "input error: cannot write stdout: Broken pipe\n"


#: two `cli.main` calls, each with stdout on a pipe whose read end is closed;
#: prints each call's exit code and the process's open descriptors after it
REFUSED_TWICE = """
import os, sys
from borda_dynamics import cli
for _ in range(2):
    read, write = os.pipe()
    os.close(read)
    os.dup2(write, sys.stdout.fileno())
    os.close(write)
    code = cli.main(["enumerate", "3"])
    print(code, len(os.listdir("/proc/self/fd")), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_refused_stdout_leaves_no_descriptor_open():
    proc = subprocess.run([sys.executable, "-c", REFUSED_TWICE], capture_output=True, text=True)
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("input error:")]
    (first, before), (second, after) = (line.split() for line in lines)
    assert (first, second) == ("2", "2"), proc.stderr
    assert after == before, proc.stderr


# --- verify ---------------------------------------------------------------------------

def test_verify_default_suite(scenario_dir):
    proc = run_cli("verify", str(scenario_dir / "suite_default.json"))
    assert proc.returncode == 0
    results = json.loads(proc.stdout)
    assert len(results) == 10
    assert all(r["passed"] and r["matched_expectation"] for r in results)


def test_verify_controls_suite_exit_zero(scenario_dir):
    proc = run_cli("verify", str(scenario_dir / "suite_controls.json"))
    assert proc.returncode == 0
    results = json.loads(proc.stdout)
    assert all(not r["passed"] and r["matched_expectation"] for r in results)


def test_verify_unexpected_failure_exits_one(scenario_dir, tmp_path):
    manifest = {
        "entries": [
            {
                "label": "corrupted_but_expected_to_pass",
                "verifier": "traveling_wave",
                "scenario": str(scenario_dir / "wave_corrupted.json"),
                "args": {"expected_k": 4},
                "expect": "pass",
            }
        ]
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(manifest))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    results = json.loads(proc.stdout)
    assert not results[0]["matched_expectation"]


def test_verify_missing_scenario_exits_two(tmp_path):
    manifest = {
        "entries": [
            {
                "label": "ghost",
                "verifier": "traveling_wave",
                "scenario": "ghost_scenario.json",
                "args": {"expected_k": 4},
            }
        ]
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(manifest))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "ghost_scenario.json" in proc.stderr


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
WAVE = str(SCENARIOS / "traveling_wave_4.json")


def scenario(**fields):
    """The gadget scenario with some top-level fields replaced."""
    return {**json.loads((SCENARIOS / "gadget.json").read_text()), **fields}


def suite(**fields):
    """A one-entry traveling-wave suite with some entry fields replaced."""
    entry = {"label": "wave", "verifier": "traveling_wave", "scenario": WAVE,
             "args": {"expected_k": 4}}
    return {"entries": [{**entry, **fields}]}


def case(command, document, field, name=None):
    return pytest.param(command, document, field, id=name or field)


def gadget_with(*path, value):
    """The gadget scenario with the field at key path `path` set to `value`."""
    doc = scenario()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def triangle_with_edge(src, dst):
    """The consensus triangle, a normalize network, with the edge src-dst listed after its own three."""
    doc = json.loads((SCENARIOS / "consensus_triangle.json").read_text())
    doc["network"]["edges"].append({"from": src, "to": dst})
    return doc


def triangle_with_node(name):
    """The consensus triangle, a normalize network, with a node `name` that no edge touches."""
    doc = json.loads((SCENARIOS / "consensus_triangle.json").read_text())
    doc["network"]["nodes"].append(name)
    doc["initial"][name] = "y>(xz)"
    return doc


MALFORMED = [
    case("simulate", scenario(initial=["x>y>z", "z>y>x"]), "initial"),
    case("simulate", scenario(policy=[{"no_move_on_ambiguity": True}]), "policy"),
    case("simulate", scenario(max_steps=True), "max_steps"),
    # each fact has one spelling: pin records, a label field, a variant
    # object and a pinned node's start in `initial` are refused
    case("simulate", scenario(persistent={"pins": [{"node": "p", "order": "x>y>z"}]}), "persistent"),
    case("simulate", scenario(label="gadget"), "label"),
    case("simulate", scenario(variant={"kind": "S"}), "variant", "variant-object"),
    case("simulate", gadget_with("initial", "p", value="x>y>z"), "initial.p", "pinned-node-in-initial"),
    # a key given twice in one object is refused, not read as its last value
    case("simulate", json.dumps(scenario()).replace('"p": "x>y>z"', '"p": "x>y>z", "p": "z>y>x"'), "doc.json",
         "repeated-key-in-scenario"),
    case("verify", json.dumps(suite()).replace('"expected_k": 4', '"expected_k": 4, "expected_k": 8'), "doc.json",
         "repeated-key-in-suite"),
    # contrarian camps are pins: a `camps` block is a key that no reader reads
    case("simulate", scenario(camps={"plus": ["p"], "minus": ["q"], "rho": "x>y>z"}), "camps"),
    case("verify", suite(scenario={"builder": "traveling_wave", "m": 3, "ell": 4, "cycle_length": 4}),
         "entries[0].scenario", "scenario-object"),
    case("verify", suite(scenario=[WAVE]), "entries[0].scenario", "scenario-list"),
    case("verify", suite(args={"expected_k": 4, "eps": "1/10"}), "entries[0].args", "unknown-arg"),
    case("verify", suite(args={}), "entries[0].args", "missing-arg"),
    case("verify", suite(args=[]), "entries[0].args", "args-list"),
    case("verify", {"entries": ["wave"]}, "entries[0]", "entry-string"),
    case("verify", suite(label=["wave"]), "entries[0].label", "label-list"),
    case("verify", suite(verifier="robustness", args={"trials": "20", "seed": 7}),
         "entries[0].args.trials", "trials-string"),
    case("verify", suite(verifier="robustness", args={"trials": 0, "seed": 7}), "entries[0]", "trials-zero"),
    case("verify", suite(verifier="robustness", args={"trials": -3, "seed": 7}), "entries[0]", "trials-negative"),
    case("verify", suite()["entries"], "document", "suite-list"),
    case("verify", scenario(), "entries", "suite-is-a-scenario"),
    case("verify", {}, "entries", "suite-empty-object"),
    case("verify", {"entries": []}, "entries", "suite-no-entries"),
    case("verify", suite(expect="maybe"), "entries[0].expect", "expect-maybe"),
    case("simulate", scenario(alternatives=3), "alternatives", "alternatives-int"),
    case("simulate", scenario(network={"nodes": ["i", "j"], "edges": [
        {"from": ["j"], "to": "i", "weight": "1"}]}), "network.edges[0].from", "edge-from-list"),
    case("simulate", scenario(pins=["p"]), "pins", "pins-list"),
    case("simulate", gadget_with("pins", "p", value={"node": "p", "order": "x>y>z"}), "pins.p", "pin-record"),
    case("simulate", scenario(m=7), "m", "m-7"),
    case("simulate", scenario(network={"nodes": [], "edges": []}), "network", "zero-nodes"),
    case("simulate", scenario(network={"nodes": [], "edges": [], "normalize": True}), "network",
         "normalize-zero-nodes"),
    case("simulate", gadget_with("pins", "p", value="x>>y"), "pins.p", "pin-order-syntax"),
    case("simulate", gadget_with("initial", "i", value="x>y"), "initial.i", "initial-order-on-m2"),
    # 4,301 digits pass the weight pattern but not CPython's int-string limit
    case("simulate", gadget_with("network", "edges", 0, "weight", value="1" * 4301), "network.edges[0].weight",
         "weight-over-4300-digits"),
    case("simulate", gadget_with("network", "edges", 0, "weight", value="9/10\n"), "network.edges[0].weight",
         "weight-trailing-newline"),
    case("simulate", gadget_with("network", "edges", 0, "weight", value="\u0669/10"), "network.edges[0].weight",
         "weight-arabic-indic-digit"),
    case("simulate", scenario(variant="seq:[i,p]"), "variant", "seq-pinned-node"),
    case("simulate", scenario(variant="seq:[]"), "variant", "seq-empty"),
    case("simulate", scenario(variant="A"), "variant", "variant-A-without-schedule"),
    case("simulate", scenario(variant="uniform:x"), "variant", "uniform-seed-not-integer"),
    case("simulate", scenario(variant="uniform:" + "1" * 4301), "variant", "uniform-seed-over-4300-digits"),
    case("simulate", scenario(variant="uniform:1_0"), "variant", "uniform-seed-underscore"),
    case("simulate", scenario(variant="uniform:\u0663"), "variant", "uniform-seed-arabic-indic-digit"),
    case("simulate", scenario(variant="uniform: 5 "), "variant", "uniform-seed-spaces"),
    case("simulate", scenario(variant="seq:i,j"), "variant", "seq-no-brackets"),
    case("simulate", scenario(variant="seq:]]i,j[["), "variant", "seq-brackets-reversed"),
    case("simulate", scenario(variant="seq:[i,,j]"), "variant", "seq-empty-name"),
    case("simulate", scenario(variant="uniform:1", pins={"p": "x>y>z", "i": "x>y>z", "q": "z>y>x", "j": "z>y>x"},
                              initial={}), "variant", "uniform-every-node-pinned"),
    case("simulate", scenario(alternatives="a>c"), "alternatives", "alternatives-order-syntax"),
    case("simulate", scenario(network={"nodes": ["i", "i"], "edges": []}), "network.nodes", "node-twice"),
    # normalize edges are undirected: one listed again, either way round, or a self-loop is refused
    case("simulate", triangle_with_edge("a", "b"), "network.edges[3]", "normalize-edge-twice"),
    case("simulate", triangle_with_edge("b", "a"), "network.edges[3]", "normalize-edge-reversed"),
    case("simulate", triangle_with_edge("b", "b"), "network.edges[3]", "normalize-self-loop"),
    case("simulate", triangle_with_node("d"), "network.nodes", "normalize-isolated-node"),
    case("verify", suite(verifier="unreachable_persistence",
                         scenario=str(SCENARIOS / "unreachable_pins.json"),
                         args={"alt_pins": {"a": "(xyz)"}}), "entries[0]", "alt-pins-free-node"),
    case("verify", suite(verifier="unreachable_persistence",
                         scenario=str(SCENARIOS / "unreachable_pins.json"),
                         args={"alt_pins": {"p": "(xyz"}}), "entries[0].args.alt_pins.p", "alt-pins-order-syntax"),
    case("verify", suite(verifier="single_peaked_invariance",
                         scenario=str(SCENARIOS / "consensus_triangle.json"), args={"axis": "xy"}),
         "entries[0].args.axis", "axis-partial"),
    case("verify", suite(verifier="single_peaked_invariance",
                         scenario=str(SCENARIOS / "consensus_triangle.json"), args={"axis": [0, 1, 2]}),
         "entries[0].args.axis", "axis-list"),
    # a key that no reader reads is refused, not run as if it were absent
    case("simulate", scenario(polciy={"no_move_on_ambiguity": True}), "polciy"),
    case("simulate", scenario(max_step=50), "max_step"),
    case("simulate", gadget_with("network", "normalise", value=True), "network.normalise"),
    case("simulate", gadget_with("network", "edges", 0, "wieght", value="9/10"), "network.edges[0].wieght"),
    case("simulate", scenario(pinz={"p": "x>y>z", "q": "z>y>x"}), "pinz"),
    case("simulate", scenario(policy={"no_move_on_ambiguity": True, "no_move": False}), "policy.no_move"),
    case("verify", {**suite(), "entires": []}, "entires"),
    case("verify", suite(expcet="fail"), "entries[0].expcet"),
]


@pytest.mark.parametrize("command, document, field", MALFORMED)
def test_malformed_field_exits_two_with_its_path(tmp_path, command, document, field):
    # a document given as text is written as it is: a Python dict cannot repeat a key
    (tmp_path / "doc.json").write_text(document if isinstance(document, str) else json.dumps(document))
    proc = run_cli(command, "doc.json", cwd=tmp_path)
    assert proc.returncode == 2
    assert f"input error: {field}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_exits_three_when_the_forced_sweep_is_over_budget(tmp_path):
    # a 4-cycle a-b-c-d whose every start at x>y>z>u settles: a and c hear
    # camp p and b and d camp q at 9/10, so the sweep of the closed class
    # would take 75^4 starts
    ring = "abcd"
    edges = [{"from": ring[(k + d) % 4], "to": ring[k], "weight": "1/20"} for k in range(4) for d in (1, 3)]
    edges += [{"from": "pq"[k % 2], "to": ring[k], "weight": "9/10"} for k in range(4)]
    edges += [{"from": camp, "to": camp, "weight": "1"} for camp in "pq"]
    (tmp_path / "ring.json").write_text(json.dumps({
        "m": 4,
        "network": {"nodes": [*ring, "p", "q"], "edges": edges},
        "pins": {"p": "x>y>z>u", "q": "u>z>y>x"},
        "initial": {node: "x>y>z>u" for node in ring},
        "variant": "S",
    }))
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite(verifier="forced_even_period", scenario="ring.json", args={})))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 3
    assert "budget exceeded: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_names_the_entry_and_file_of_a_bad_scenario(tmp_path):
    bad = scenario()
    bad["network"]["edges"][0]["weight"] = "0.9"
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite(verifier="forced_even_period", scenario="bad.json", args={})))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "input error: entries[0].scenario: bad.json: network.edges[0].weight: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("verifier, args", [
    ("traveling_wave", {"expected_k": 2}),
    ("even_period_lifting", {}),
    ("robustness", {"trials": 2, "seed": 7}),
    ("single_peaked_invariance", {"axis": "xyz"}),
])
def test_verify_refuses_a_zero_node_scenario(tmp_path, verifier, args):
    empty = {"m": 3, "network": {"nodes": [], "edges": []}, "initial": {}, "variant": "S"}
    (tmp_path / "empty.json").write_text(json.dumps(empty))
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite(verifier=verifier, scenario="empty.json", args=args)))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "input error: entries[0].scenario: empty.json: network: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_unknown_verifier_exits_two(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"entries": [{"label": "x", "verifier": "nope", "scenario": {}}]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "nope" in proc.stderr


# --- export-dot ---------------------------------------------------------------------------

def test_export_dot_network(scenario_dir):
    proc = run_cli("export-dot", "--scenario", str(scenario_dir / "gadget.json"))
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph influence {")
    assert '[label="9/10"]' in proc.stdout


def test_export_dot_rejects_out_of_range():
    proc = run_cli("export-dot", "--move-graph", "9")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_export_dot_move_graph(tmp_path):
    out = tmp_path / "h3.dot"
    proc = run_cli("export-dot", "--move-graph", "3", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().startswith("graph move_graph_m3 {")


# --- determinism -----------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["gadget.json", "traveling_wave_4.json"])
def test_simulate_output_is_byte_identical(scenario_dir, tmp_path, name):
    runs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        proc = run_cli("simulate", str(scenario_dir / name), "--csv", str(csv_path))
        runs.append((proc.stdout, csv_path.read_bytes()))
    assert runs[0] == runs[1]


def test_verify_output_is_byte_identical(scenario_dir):
    first = run_cli("verify", str(scenario_dir / "suite_default.json"))
    second = run_cli("verify", str(scenario_dir / "suite_default.json"))
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


# criterion 14: verify output stays byte-identical while the behaviour is kept
VERIFY_DIGESTS = {
    "suite_default.json": "7f04586450c0b38456db02db2eca6b83f89f78e49ad3c6c950af7cf7faa809f5",
    "suite_controls.json": "f7e343e075d87139045fc0a818b95a92c7c251f99fb9185484fa5c4b2f126f92",
}


@pytest.mark.parametrize("name, digest", VERIFY_DIGESTS.items())
def test_verify_stdout_digest_is_frozen(scenario_dir, name, digest):
    proc = subprocess.run(CLI + ["verify", str(scenario_dir / name)], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_main_calls_in_one_process_share_the_parser(scenario_dir, capsys):
    simulate = ["simulate", str(scenario_dir / "gadget.json"), "--csv", "-"]
    assert cli.main(simulate) == 0
    first = capsys.readouterr().out
    for bad in (["simulate"], ["simulate", "a.json", "--nope"], ["nope"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(bad)
        assert exit_info.value.code == 2
    capsys.readouterr()
    assert cli.main(simulate) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()
    for name, digest in VERIFY_DIGESTS.items():
        for _ in range(2):
            assert cli.main(["verify", str(scenario_dir / name)]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("consensus_triangle.json", "af1cf801c0eaf1c21140a68421177f08e5bbed70ae57fbf81bdce3cdeaeea23e"),
    ("gadget.json", "18b2ac4c885fb50a7ef4dd0478c7a39392b817369ab7c279c566b0ef2756e697"),
    ("gadget_single_camp.json", "7ebbd8fb2560fefd63fe0929af6555b47dfac792522b79095e137249698a085f"),
    ("star_frozen.json", "a48939759d0e79af2e9b4330a4ab5eed2e78d803ef7fcc099b276dcc09cb498e"),
    ("traveling_wave_4.json", "9d1d93cb9a6d17ddbb307e5475c7b0b31d9e27ecbd4241e1717840465745a624"),
    ("traveling_wave_12.json", "607fc43f5f9329e8892f5f766a6a62581af5395be578d44b3dddc99814235b0b"),
    ("traveling_wave_8.json", "2be09c17db44f66e2c14285b562ffac4e1dffe3f7ff4c765c8e8cea63c7e1840"),
    ("unreachable_pins.json", "bb126e01318cdfb22e522a3e5975e751d4ca80d8722c3ce38bfad8051c7784e6"),
    ("wave_corrupted.json", "d425da1355adcf23c5f75c3041e898327273c66134e3ee06d28eabb36237d22c"),
])
def test_simulate_stdout_digest_is_frozen(scenario_dir, name, digest):
    proc = subprocess.run(CLI + ["simulate", str(scenario_dir / name), "--csv", "-"], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("consensus_triangle.json", "94e3406c93599623a6eff8f01083c34f84a98d91e124360e092ba49903b434b5"),
    ("gadget.json", "1fb6ce23e8e079c735f484c0b8e6e0eee194905ea2eff874604bb36a5e41ad71"),
    ("gadget_single_camp.json", "1fb6ce23e8e079c735f484c0b8e6e0eee194905ea2eff874604bb36a5e41ad71"),
    ("star_frozen.json", "41814fe807163242d0cc7a1e2dadf1c2a31e00240eb89361e763c7a278cfd93d"),
    ("traveling_wave_4.json", "9da62c7e647a8c09d824fc41638eb422a9827ee9f35b00c98b46866df30f717b"),
    ("traveling_wave_12.json", "6bae67af4afe943a149e813f7a263a42ecaef062172b8887eea58789c2bec342"),
    ("traveling_wave_8.json", "3438fd8e74e16090e710ead8675ce5b8354fa4ebdca7a938c020b40ab42c6fe2"),
    ("unreachable_pins.json", "1a8eae311088942734c1d9d0587890dc3f365ad8f723c4928a112d000ab9d75a"),
    ("wave_corrupted.json", "9da62c7e647a8c09d824fc41638eb422a9827ee9f35b00c98b46866df30f717b"),
])
def test_export_dot_stdout_digest_is_frozen(scenario_dir, name, digest):
    proc = subprocess.run(CLI + ["export-dot", "--scenario", str(scenario_dir / name)], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (("2",), "0f5c27c38d7270dc3bd5ed6e18252a07aa4e5a08d036b6f4a2e0f3a115f98f60"),
    (("3",), "377cedafa7405280ac36e7e24a652ec6916a55f021d2910cf99fb700e32ab5b5"),
    (("4",), "53b34dbe2df2846b62cbaa5b457cb958e45eb961b77506a0868cd6e55a8a8ec4"),
    (("5",), "67a1add241eeea0df92399183ec0917bc1d4a67438237e0714d432aa8a772eb4"),
    (("6",), "b1f323428f6b1411df9eee0616ef88a8c08d3ad470e990137de7ffd4af98129d"),
])
def test_enumerate_stdout_digest_is_frozen(args, digest):
    proc = subprocess.run(CLI + ["enumerate", *args], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("m, digest", [
    ("2", "c36bc3a3c6d369c10e3a01a6b6b94926e182220622c765c3ffa03a06952c74dd"),
    ("3", "4d4b7534b373feee630c893983ebbc32343ef48652e578a98229dde8a62cfd3c"),
    ("4", "7a80d4546484206b0360d2663b00ad07669268a67c1c301a53bd1fbea872d6cd"),
    ("5", "efe19d0527e34d77a53268003eb53fa5c174b4fe1012e05d00e6a1ac7da5f4c0"),
    ("6", "a45b03df9fa0f9b5246d8f56bee49b7e086f9cd0870c63e973b90ad4fbceb2b6"),
])
def test_export_dot_move_graph_stdout_digest_is_frozen(m, digest):
    proc = subprocess.run(CLI + ["export-dot", "--move-graph", m], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("epsilon_sweep.py", "fcab971ea5f945d82f895641250cf936ecef0f87ff0091d3e149c024ba7693b3"),
    ("orbit_census.py", "d39704841599dc7d548fe603f9694ad19c758c995dd61ef204e46746b1379a7e"),
    ("single_peaked_trials.py", "4696e9a33912852bc1941354b751f101772ccf93248bbcbf6e1015f2cc5e371b"),
])
def test_script_stdout_digest_is_frozen(scenario_dir, name, digest):
    proc = subprocess.run([sys.executable, str(scenario_dir.parent / "scripts" / name)], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
