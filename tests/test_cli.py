import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    proc = run_cli("enumerate", "3", "--dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph move_graph_m3 {")
    assert proc.stdout.count("label=") == 13


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
    doc["variant"] = {"kind": "A", "schedule": "uniform:3"}
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
        "variant": {"kind": "S"},
    }))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 2
    assert "network.edges[0].weight" in proc.stderr


def test_simulate_uniform_schedule_converges(scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / "gadget.json").read_text())
    doc["variant"] = {"kind": "A", "schedule": "uniform:3"}
    path = tmp_path / "gadget_async.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("simulate", str(path))
    out = json.loads(proc.stdout)
    assert out["period"] == 1
    assert out["orbit"][0]["i"] == out["orbit"][0]["j"]


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
WAVE = {"builder": "traveling_wave", "m": 3, "ell": 4, "cycle_length": 4}


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


MALFORMED = [
    case("simulate", scenario(initial=["x>y>z", "z>y>x"]), "initial"),
    case("simulate", scenario(policy=[{"no_move_on_ambiguity": True}]), "policy"),
    case("simulate", scenario(persistent=[{"node": "p", "order": "x>y>z"}]), "persistent"),
    case("simulate", scenario(max_steps=True), "max_steps"),
    case(
        "simulate",
        scenario(persistent={"camps": {"plus": "p", "minus": ["q"], "rho": "x>y>z"}}),
        "persistent.camps.plus",
    ),
    case("verify", suite(scenario={"builder": "traveling_wave", "m": 3, "ell": 4}),
         "entries[0].scenario.cycle_length"),
    case("verify", suite(scenario={"builder": "traveling_wave", "m": 3, "cycle_length": 4}),
         "entries[0].scenario.ell"),
    case("verify", suite(scenario={**WAVE, "cycle_length": "4"}), "entries[0].scenario.cycle_length",
         "cycle_length-string"),
    case("verify", suite(scenario={**WAVE, "ell": "4"}), "entries[0].scenario.ell", "ell-string"),
    case("verify", suite(scenario={**WAVE, "m": "3"}), "entries[0].scenario.m", "builder-m-string"),
    case("verify", suite(scenario={**WAVE, "cycle_length": 14}), "entries[0].scenario.cycle_length",
         "cycle_length-above-order-count"),
    case("verify", suite(scenario={**WAVE, "ell": 1028}), "entries[0].scenario.ell", "ell-above-1024"),
    case("verify", suite(scenario={"builder": "gadget", "initial": ["x>y>z"]}),
         "entries[0].scenario.initial", "gadget-one-initial-order"),
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
    case("simulate", scenario(alternatives=3), "alternatives", "alternatives-int"),
    case("simulate", scenario(network={"nodes": ["i", "j"], "edges": [
        {"from": ["j"], "to": "i", "weight": "1"}]}), "network.edges[0].from", "edge-from-list"),
    case("simulate", scenario(persistent={"pins": ["p"]}), "persistent.pins[0]", "pin-string"),
    case("simulate", scenario(m=7), "m", "m-7"),
    case("simulate", scenario(variant={"kind": "A", "schedule": "seq:[i,p]"}), "variant.schedule",
         "seq-pinned-node"),
    case("verify", suite(verifier="unreachable_persistence",
                         scenario=str(SCENARIOS / "unreachable_pins.json"),
                         args={"alt_pins": {"a": "(xyz)"}}), "entries[0]", "alt-pins-free-node"),
    case("verify", suite(verifier="single_peaked_invariance",
                         scenario=str(SCENARIOS / "consensus_triangle.json"), args={"axis": [0, 1]}),
         "entries[0].args.axis", "axis-partial"),
]


@pytest.mark.parametrize("command, document, field", MALFORMED)
def test_malformed_field_exits_two_with_its_path(tmp_path, command, document, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    proc = run_cli(command, str(path))
    assert proc.returncode == 2
    assert f"input error: {field}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_exits_three_when_the_cycle_search_runs_out(tmp_path):
    # 64 <= 75 orders, so the length passes the load-time bound, but the
    # search for a 64-cycle in the m = 4 graph is stopped by its budget
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite(scenario={**WAVE, "m": 4, "ell": 64, "cycle_length": 64})))
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


def test_verify_unknown_verifier_exits_two(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"entries": [{"label": "x", "verifier": "nope", "scenario": {}}]}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "nope" in proc.stderr


def test_verify_evidence_names_alternatives_as_the_scenario_does(scenario_dir, tmp_path):
    gadget = json.loads((scenario_dir / "gadget.json").read_text())
    gadget["alternatives"] = "abc"
    gadget["persistent"]["camps"]["rho"] = "a>b>c"
    gadget["initial"] = {"i": "a>b>c", "j": "c>b>a"}
    (tmp_path / "gadget_abc.json").write_text(json.dumps(gadget))
    leaf = {
        "m": 3,
        "alternatives": "abc",
        "network": {"nodes": ["hub", "leaf"], "edges": [
            {"from": "hub", "to": "hub", "weight": "1"},
            {"from": "hub", "to": "leaf", "weight": "1"},
        ]},
        "persistent": {"pins": [{"node": "hub", "order": "a>b>c"}]},
        "initial": {"leaf": "(abc)"},
        "variant": {"kind": "S"},
    }
    (tmp_path / "leaf_abc.json").write_text(json.dumps(leaf))
    entries = [
        {"verifier": "forced_even_period", "scenario": "gadget_abc.json"},
        {"verifier": "even_period_lifting", "scenario": "gadget_abc.json"},
        {"verifier": "single_peaked_invariance", "scenario": "leaf_abc.json",
         "args": {"axis": "abc"}, "expect": "fail"},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"entries": entries}))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 0, proc.stderr
    forced, lifting, single_peaked = (r["evidence"] for r in json.loads(proc.stdout))
    strict = {"a>b>c", "a>c>b", "b>a>c", "b>c>a", "c>a>b", "c>b>a"}
    assert {(fp["i"], fp["j"]) for fp in forced["fixed_points"]} == {(s, s) for s in strict}
    assert forced["witness_initial"] == {"i": "a>b>c", "j": "c>b>a", "p": "a>b>c", "q": "c>b>a"}
    assert set("".join(lifting["witness"].values())) <= set("abc()>")
    assert single_peaked["first_state_violation"]["state"] == "a>(bc)"


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
@pytest.mark.parametrize("name, digest", [
    ("suite_default.json", "9c6e24b111691c49c737064625ec3ab1f84f0ce3c454706a21dde58cdecad24a"),
    ("suite_controls.json", "07e95870aa396c96e0f2adf7950ccdacf4f297ca06b318c62396e62a81f9bd37"),
])
def test_verify_stdout_digest_is_frozen(scenario_dir, name, digest):
    proc = subprocess.run(CLI + ["verify", str(scenario_dir / name)], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("consensus_triangle.json", "af1cf801c0eaf1c21140a68421177f08e5bbed70ae57fbf81bdce3cdeaeea23e"),
    ("gadget.json", "18b2ac4c885fb50a7ef4dd0478c7a39392b817369ab7c279c566b0ef2756e697"),
    ("gadget_single_camp.json", "7ebbd8fb2560fefd63fe0929af6555b47dfac792522b79095e137249698a085f"),
    ("star_frozen.json", "a48939759d0e79af2e9b4330a4ab5eed2e78d803ef7fcc099b276dcc09cb498e"),
    ("traveling_wave_4.json", "9d1d93cb9a6d17ddbb307e5475c7b0b31d9e27ecbd4241e1717840465745a624"),
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
    (("2", "--dot"), "c36bc3a3c6d369c10e3a01a6b6b94926e182220622c765c3ffa03a06952c74dd"),
    (("3",), "377cedafa7405280ac36e7e24a652ec6916a55f021d2910cf99fb700e32ab5b5"),
    (("3", "--dot"), "4d4b7534b373feee630c893983ebbc32343ef48652e578a98229dde8a62cfd3c"),
    (("4",), "53b34dbe2df2846b62cbaa5b457cb958e45eb961b77506a0868cd6e55a8a8ec4"),
    (("4", "--dot"), "7a80d4546484206b0360d2663b00ad07669268a67c1c301a53bd1fbea872d6cd"),
    (("5",), "67a1add241eeea0df92399183ec0917bc1d4a67438237e0714d432aa8a772eb4"),
    (("5", "--dot"), "efe19d0527e34d77a53268003eb53fa5c174b4fe1012e05d00e6a1ac7da5f4c0"),
    (("6",), "b1f323428f6b1411df9eee0616ef88a8c08d3ad470e990137de7ffd4af98129d"),
    (("6", "--dot"), "a45b03df9fa0f9b5246d8f56bee49b7e086f9cd0870c63e973b90ad4fbceb2b6"),
])
def test_enumerate_stdout_digest_is_frozen(args, digest):
    proc = subprocess.run(CLI + ["enumerate", *args], capture_output=True)
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
