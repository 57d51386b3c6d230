"""Configuration document parsing and validation."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_engine import EventCheckedSimulation

from hasim.cluster import PowerState, VmLifecycle, to_milli
from hasim.config import ConfigError, load_cluster_config, load_scenario
from hasim.controller import ControllerParams
from hasim.engine import (
    DESTRUCTIVE_CRASH,
    INJECTION_KINDS,
    LOAD_SPIKE,
    NON_DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    FailureInjection,
    TimingParams,
)
from hasim.provisioning import BootProfile
from hasim.telemetry import TelemetryParams

VALID_DOC = {
    "hosts": [
        {"host_id": "alfa01", "cpu_count": 4, "ram_mb": 16384},
        {"host_id": "alfa02", "cpu_count": 4, "ram_mb": 16384},
        {"host_id": "alfa03", "cpu_count": 4, "ram_mb": 16384},
        {"host_id": "alfa04", "cpu_count": 4, "ram_mb": 16384},
    ],
    "vms": [
        {"vm_id": "gridce", "mac": "52:54:00:00:00:01", "bound_host": "alfa01",
         "boot_profile": "compute"},
    ],
    "profiles": {"compute": {"pxe_setup_s": 10, "boot_s": 70, "install_s": 352}},
}


def doc(**overrides):
    merged = json.loads(json.dumps(VALID_DOC))
    merged.update(overrides)
    return json.dumps(merged)


def test_valid_config_loads():
    config = load_cluster_config(doc())
    assert len(config.hosts) == 4
    assert len(config.vms) == 1
    assert config.vms[0].bound_host == "alfa01"
    # Defaults applied for omitted parameter blocks.
    assert config.controller.scan_period_s == 60
    assert config.telemetry.detection_latency_s == 70
    assert config.timing.boot_jitter_s == 10


def test_zero_vms_is_valid():
    config = load_cluster_config(doc(vms=[]))
    assert config.vms == []


def test_threshold_defaults_to_cpu_count():
    config = load_cluster_config(doc())
    assert all(h.load_threshold == 4000 for h in config.hosts)


def test_explicit_threshold_respected():
    document = json.loads(doc())
    document["hosts"][0]["load_threshold"] = 6.5
    config = load_cluster_config(json.dumps(document))
    assert config.hosts[0].load_threshold == 6500


def test_dangling_host_reference_names_offender():
    document = json.loads(doc())
    document["vms"][0]["bound_host"] = "ghost"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert any("ghost" in p for p in exc.value.problems)


def test_dangling_profile_reference_names_offender():
    document = json.loads(doc())
    document["vms"][0]["boot_profile"] = "nope"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert any("nope" in p for p in exc.value.problems)


def test_duplicate_mac_rejected():
    document = json.loads(doc())
    document["vms"].append({"vm_id": "other", "mac": "52:54:00:00:00:01",
                            "bound_host": "alfa02", "boot_profile": "compute"})
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert any("duplicate mac" in p for p in exc.value.problems)


def test_duplicate_ids_rejected():
    document = json.loads(doc())
    document["hosts"].append(document["hosts"][0])
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert any("duplicate host_id" in p for p in exc.value.problems)


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(doc(extra_block={}))
    assert any("unknown key 'extra_block'" in p for p in exc.value.problems)

    document = json.loads(doc())
    document["hosts"][0]["cpus"] = 8
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert any("unknown key 'cpus'" in p for p in exc.value.problems)


def test_bad_mac_rejected():
    document = json.loads(doc())
    document["vms"][0]["mac"] = "not-a-mac"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert any("mac" in p for p in exc.value.problems)


def test_nonpositive_threshold_rejected():
    document = json.loads(doc())
    document["hosts"][0]["load_threshold"] = 0
    with pytest.raises(ConfigError):
        load_cluster_config(json.dumps(document))


@pytest.mark.parametrize("block,key", [
    ("hosts", "host_id"), ("hosts", "cpu_count"), ("hosts", "ram_mb"),
    ("vms", "vm_id"), ("vms", "mac"), ("vms", "bound_host"), ("vms", "boot_profile")])
def test_null_required_key_is_missing(block, key):
    # Not a silently dropped machine: a null required value is reported.
    document = json.loads(doc())
    document[block][0][key] = None
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert f"{block}[0]: missing required key '{key}'" in exc.value.problems


def test_parse_failure_reported():
    with pytest.raises(ConfigError) as exc:
        load_cluster_config("{not json")
    assert any("parse error" in p for p in exc.value.problems)


def test_multiple_problems_collected():
    document = json.loads(doc())
    document["vms"][0]["bound_host"] = "ghost"
    document["vms"][0]["boot_profile"] = "nope"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert len(exc.value.problems) >= 2


def test_t1_below_scan_period_rejected():
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(doc(controller={"scan_period_s": 60, "t1_s": 30}))
    assert any("t1_s" in p for p in exc.value.problems)


def test_controller_phase_must_fit_scan_period():
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(doc(timing={"controller_phase_s": 60}))
    assert any("controller_phase_s" in p for p in exc.value.problems)


def test_referential_integrity_full_graph():
    config = load_cluster_config(doc())
    state = config.build_state()
    # Every binding edge resolves both ways.
    for vm in state.vms.values():
        assert vm.bound_host in state.hosts
        assert vm.vm_id in state.hosts[vm.bound_host].hosted_vms
        assert vm.boot_profile in config.profiles
    for host in state.hosts.values():
        for vm_id in host.hosted_vms:
            assert state.vms[vm_id].bound_host == host.host_id


def test_build_state_returns_independent_copies():
    config = load_cluster_config(doc())
    s1, s2 = config.build_state(), config.build_state()
    s1.hosts["alfa01"].hosted_vms.clear()
    assert s2.hosts["alfa01"].hosted_vms == ["gridce"]


def test_scenario_loads_inline_cluster():
    scenario = load_scenario(json.dumps({
        "cluster": json.loads(doc()),
        "injections": [
            {"at": 100, "kind": "non_destructive_crash", "vm": "gridce"},
        ],
        "horizon_s": 600,
    }))
    assert scenario.horizon_s == 600
    assert scenario.replications == 1
    assert scenario.injections[0].vm_id == "gridce"


def test_scenario_loads_cluster_by_path(tmp_path):
    (tmp_path / "cluster.json").write_text(doc())
    scenario = load_scenario(json.dumps({
        "cluster": "cluster.json",
        "injections": [],
        "horizon_s": 100,
    }), base_dir=tmp_path)
    assert len(scenario.config.hosts) == 4


def test_scenario_rejects_unknown_targets():
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps({
            "cluster": json.loads(doc()),
            "injections": [{"at": 10, "kind": "destructive_crash", "vm": "missing"}],
            "horizon_s": 600,
        }))
    assert any("missing" in p for p in exc.value.problems)


def test_scenario_rejects_injection_past_horizon():
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps({
            "cluster": json.loads(doc()),
            "injections": [{"at": 700, "kind": "non_destructive_crash",
                            "vm": "gridce"}],
            "horizon_s": 600,
        }))
    assert any("exceeds horizon" in p for p in exc.value.problems)


def test_scenario_injection_problems_keep_their_index():
    # A rejected injection still counts: the unknown vm is the second one.
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps({
            "cluster": json.loads(doc()),
            "injections": [{"at": "x", "kind": "destructive_crash", "vm": "gridce"},
                           {"at": 10, "kind": "destructive_crash", "vm": "ghost"}],
            "horizon_s": 600,
        }))
    assert exc.value.problems == ["injections[0].at: expected an integer",
                                  "injections[1]: unknown vm 'ghost'"]


def test_scenario_rejects_bad_injection_kind():
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps({
            "cluster": json.loads(doc()),
            "injections": [{"at": 10, "kind": "meteor_strike", "vm": "gridce"}],
            "horizon_s": 600,
        }))
    assert any("kind" in p for p in exc.value.problems)


def test_smoothing_key_is_unknown():
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(doc(telemetry={"smoothing": {"alpha": 0.5}}))
    assert exc.value.problems == ["telemetry: unknown key 'smoothing'"]


def test_rng_seed_key_is_unknown():
    # Runs are seeded by the scenario's seed, --seed or the caller; never by timing.
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(doc(timing={"rng_seed": 12345}))
    assert exc.value.problems == ["timing: unknown key 'rng_seed'"]


@pytest.mark.parametrize("key,value,problem", [
    ("load_threshold", "x", "hosts[0].load_threshold: expected a number"),
    ("load_threshold", 0, "hosts[0].load_threshold: must be > 0.0"),
    ("cpu_count", 0, "hosts[0].cpu_count: must be >= 1"),
    ("ram_mb", "x", "hosts[0].ram_mb: expected an integer"),
])
def test_rejected_host_is_not_an_unknown_bound_host(key, value, problem):
    # gridce is bound to hosts[0]; the host's own problem is the only one.
    document = json.loads(doc())
    document["hosts"][0][key] = value
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert exc.value.problems == [problem]


def test_undeclared_bound_host_is_still_unknown():
    document = json.loads(doc())
    document["hosts"][0]["cpu_count"] = 0
    document["vms"][0]["bound_host"] = "ghost"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert exc.value.problems == ["hosts[0].cpu_count: must be >= 1",
                                  "vm 'gridce': unknown bound_host 'ghost'"]


def test_running_vm_on_powered_off_host_is_rejected():
    # gridce is bound to hosts[0]; unrejected, it would beat from a dead host.
    document = json.loads(doc())
    document["hosts"][0]["power_state"] = "off"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert exc.value.problems == ["vm 'gridce': running on powered-off host 'alfa01'"]
    document["vms"][0]["lifecycle"] = "halted"
    load_cluster_config(json.dumps(document))


def test_detection_latency_must_exceed_heartbeat_period():
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(doc(telemetry={"detection_latency_s": 10}))
    assert exc.value.problems == [
        "telemetry: detection_latency_s must be > 10 (the heartbeat period)"]
    config = load_cluster_config(doc(telemetry={"detection_latency_s": 11}))
    assert config.telemetry.detection_latency_s == 11


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_numbers_rejected(literal):
    # Python's json module accepts NaN and Infinity; 1e400 overflows to inf and
    # a 401-digit integer cannot be converted to a float at all.
    text = doc().replace('"vm_id": "gridce"',
                         f'"vm_id": "gridce", "load_contribution": {literal}')
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(text)
    assert exc.value.problems == ["vms[0].load_contribution: expected a finite number"]
    text = doc().replace('"host_id": "alfa01"',
                         f'"host_id": "alfa01", "load_threshold": {literal}')
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(text)
    assert "hosts[0].load_threshold: expected a finite number" in exc.value.problems


@pytest.mark.parametrize("key", ["cluster", "horizon_s"])
def test_scenario_null_required_key_is_missing(key):
    document = {"cluster": json.loads(doc()), "horizon_s": 600, key: None}
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps(document))
    assert exc.value.problems == [f"top level: missing required key '{key}'"]


def test_scenario_null_optional_key_is_default():
    scenario = load_scenario(json.dumps({"cluster": json.loads(doc()), "horizon_s": 600,
                                         "replications": None, "seed": None,
                                         "injections": None}))
    assert (scenario.replications, scenario.seed, scenario.injections) == (1, 0, [])


@pytest.mark.parametrize("block,key,field,default", [
    ("hosts", "load_threshold", "load_threshold", 4.0),
    ("hosts", "power_state", "power_state", PowerState.ON),
    ("vms", "lifecycle", "lifecycle", VmLifecycle.RUNNING),
    ("vms", "reinstall_allowed", "reinstall_allowed", True),
    ("vms", "load_contribution", "load_contribution", 1.0)])
def test_null_optional_key_is_default(block, key, field, default):
    # A null optional value once dropped its machine without a problem. The
    # default loads are given in units.
    document = json.loads(doc())
    document[block][0][key] = None
    config = load_cluster_config(json.dumps(document))
    assert (len(config.hosts), len(config.vms)) == (4, 1)
    if key.startswith("load_"):
        default = to_milli(default)
    assert getattr(getattr(config, block)[0], field) == default


def test_scenario_rejects_negative_seed():
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps({"cluster": json.loads(doc()), "horizon_s": 600,
                                  "seed": -5}))
    assert exc.value.problems == ["seed: must be >= 0"]



def scenario_problems(injections, cluster=None, **top):
    """The problems of a scenario over `cluster` (VALID_DOC by default)."""
    document = {"cluster": json.loads(doc()) if cluster is None else cluster,
                "horizon_s": 600, "injections": injections, **top}
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps(document))
    return exc.value.problems


def test_cluster_problem_hides_no_injection_problem(tmp_path):
    cluster = json.loads(doc())
    cluster["vms"][0]["load_contribution"] = "x"
    injections = [{"at": 10, "kind": "physical_host_failure", "host": "ghost"},
                  {"at": 9000, "kind": "destructive_crash", "vm": "gridce"}]
    expected = ["cluster: vms[0].load_contribution: expected a number",
                "injections[0]: unknown host 'ghost'",
                "injections[1]: at=9000 exceeds horizon_s"]
    assert scenario_problems(injections, cluster) == expected
    (tmp_path / "cluster.json").write_text(json.dumps(cluster))
    with pytest.raises(ConfigError) as exc:
        load_scenario(json.dumps({"cluster": "cluster.json", "horizon_s": 600,
                                  "injections": injections}), base_dir=tmp_path)
    assert exc.value.problems == expected


def test_injections_target_declared_ids_of_rejected_machines():
    # Rejected records keep their ids declared: only their own problems show.
    cluster = json.loads(doc())
    cluster["hosts"][1]["cpu_count"] = 0
    cluster["vms"][0]["mac"] = None
    injections = [{"at": 10, "kind": "physical_host_failure", "host": "alfa02"},
                  {"at": 20, "kind": "destructive_crash", "vm": "gridce"}]
    assert scenario_problems(injections, cluster) == [
        "cluster: hosts[1].cpu_count: must be >= 1",
        "cluster: vms[0]: missing required key 'mac'"]


def test_injections_are_not_checked_against_a_cluster_that_is_no_object():
    assert scenario_problems([{"at": 10, "kind": "destructive_crash", "vm": "x"}],
                             cluster=[1]) == [
        "cluster: expected an object or a path string"]


def test_injection_missing_at_reports_its_other_problems():
    assert scenario_problems([{"kind": "destructive_crash", "extra": 1}]) == [
        "injections[0]: unknown key 'extra'",
        "injections[0]: missing required key 'at'",
        "injections[0]: missing required key 'vm'"]


def test_glitch_missing_hosts_is_one_problem():
    assert scenario_problems([{"at": 10, "kind": "power_glitch"}]) == [
        "injections[0]: missing required key 'hosts'"]


def test_rejected_optional_value_keeps_the_vm_for_cross_checks():
    document = json.loads(doc())
    document["vms"][0].update(load_contribution="x", bound_host="ghost")
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert exc.value.problems == ["vms[0].load_contribution: expected a number",
                                  "vm 'gridce': unknown bound_host 'ghost'"]


def test_lifecycle_has_the_power_state_wording():
    document = json.loads(doc())
    document["vms"][0]["lifecycle"] = "booting"
    document["hosts"][0]["power_state"] = "standby"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(json.dumps(document))
    assert exc.value.problems == ["hosts[0].power_state: must be 'on' or 'off'",
                                  "vms[0].lifecycle: must be 'running' or 'halted'"]


@pytest.mark.parametrize("literal,problem", [
    ("0.0005", "expected a multiple of 0.001"), ("6.4001", "expected a multiple of 0.001"),
    ("1e308", "expected a number below 1e305"), ("1" + "0" * 305, "expected a number below 1e305")])
def test_loads_must_be_whole_milli_units(literal, problem):
    # 1e308 * 1000 overflows to inf, which has no nearest int.
    text = doc().replace('"vm_id": "gridce"',
                         f'"vm_id": "gridce", "load_contribution": {literal}')
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(text)
    assert exc.value.problems == [f"vms[0].load_contribution: {problem}"]
    text = doc().replace('"host_id": "alfa01"', f'"host_id": "alfa01", "load_threshold": {literal}')
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(text)
    assert exc.value.problems == [f"hosts[0].load_threshold: {problem}"]


def test_loads_parse_exactly_in_milli_units():
    document = json.loads(doc())
    document["hosts"][0]["load_threshold"] = 6.4
    document["vms"][0]["load_contribution"] = 0.1
    config = load_cluster_config(json.dumps(document))
    assert (config.hosts[0].load_threshold, config.vms[0].load_contribution) == (6400, 100)
    spike = {"at": 0, "kind": "load_spike", "host": "alfa02", "extra_load": 2,
             "duration_s": 10}
    scenario = load_scenario(json.dumps({"cluster": document, "horizon_s": 60,
                                         "injections": [spike]}))
    assert scenario.injections[0].extra_load == 2000


def test_cpu_count_beyond_float_range_is_a_problem():
    # Its default threshold, float(cpu_count), once raised OverflowError.
    text = doc().replace('"cpu_count": 4', '"cpu_count": 1' + "0" * 400, 1)
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(text)
    assert exc.value.problems == ["hosts[0].cpu_count: expected a finite number"]


def test_unreadable_cluster_path_is_one_problem(tmp_path):
    (tmp_path / "latin1.json").write_bytes(b'{"hosts": "\xe9"}')
    for path, reason in (("latin1.json", "'utf-8' codec can't decode byte 0xe9"),
                         ("a\0b", "embedded null byte"),
                         ("missing.json", "No such file or directory")):
        with pytest.raises(ConfigError) as exc:
            load_scenario(json.dumps({"cluster": path, "horizon_s": 600}),
                          base_dir=tmp_path)
        [problem] = exc.value.problems
        assert problem.startswith(f"cluster: cannot read {path!r}: ") and reason in problem

PARAM_BLOCKS = [("controller", ControllerParams), ("telemetry", TelemetryParams),
                ("timing", TimingParams), ("profiles", BootProfile)]


REMOVED_KEYS = [("timing", "rng_seed"), ("profiles", "name")]


def bad_field_cases():
    for block, cls in PARAM_BLOCKS:
        for f in dataclasses.fields(cls):
            boolean = isinstance(f.default, bool)
            # true is a valid boolean, so boolean fields get 1 instead.
            for value in ("x", -1, 1 if boolean else True, 1.5):
                yield block, f.name, value, boolean
    # A deleted field's key is one unknown-key problem, whatever its value.
    for block, name in REMOVED_KEYS:
        for value in ("x", -1, True, 1.5):
            yield block, name, value, False


@pytest.mark.parametrize("block,name,value,boolean", list(bad_field_cases()))
def test_bad_parameter_value_is_one_problem(block, name, value, boolean):
    if block == "profiles":
        where = "profiles['compute']"
        document = doc(profiles={"compute": {name: value}})
    else:
        where, document = block, doc(**{block: {name: value}})
    minimum = 0 if block == "timing" else 1
    if (block, name) in REMOVED_KEYS:
        with pytest.raises(ConfigError) as exc:
            load_cluster_config(document)
        assert exc.value.problems == [f"{where}: unknown key '{name}'"]
        return
    if boolean:
        message = "expected a boolean"
    elif value == -1:
        message = f"must be >= {minimum}"
    else:
        message = "expected an integer"
    with pytest.raises(ConfigError) as exc:
        load_cluster_config(document)
    assert exc.value.problems == [f"{where}.{name}: {message}"]


# -- fuzz: any JSON under the parameter blocks is rejected or runs ------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def mostly(likely, rarely):
    """likely seven times in eight."""
    return st.integers(0, 7).flatmap(lambda i: rarely if i == 7 else likely)


def param_block(cls):
    """Mostly an object over some of the block's keys with mostly plausible
    values, so that many documents parse; otherwise arbitrary JSON."""
    values = {f.name: mostly(st.booleans() if isinstance(f.default, bool)
                             else st.integers(0, 200), JSON_VALUES)
              for f in dataclasses.fields(cls)}
    return mostly(st.fixed_dictionaries({}, optional=values), JSON_VALUES)


FUZZ_CLUSTER = {
    "hosts": [{"host_id": "h1", "cpu_count": 2, "ram_mb": 1},
              {"host_id": "h2", "cpu_count": 2, "ram_mb": 1}],
    "vms": [{"vm_id": "v1", "mac": "52:54:00:00:00:01", "bound_host": "h1",
             "boot_profile": "p"},
            {"vm_id": "v2", "mac": "52:54:00:00:00:02", "bound_host": "h1",
             "boot_profile": "p"}],
}
FUZZ_INJECTIONS = [FailureInjection(30, DESTRUCTIVE_CRASH, "v1"),
                   FailureInjection(50, PHYSICAL_HOST_FAILURE, host_id="h1")]


# Durations beyond the int64 range once made the duration draw raise.
@example(controller={}, telemetry={}, timing={},
         profiles={"p": {"boot_s": 2**64, "install_s": 2**64}})
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(controller=param_block(ControllerParams), telemetry=param_block(TelemetryParams),
       timing=param_block(TimingParams),
       profiles=mostly(st.fixed_dictionaries({"p": param_block(BootProfile)}),
                       JSON_VALUES))
def test_parameter_blocks_are_rejected_or_run(controller, telemetry, timing, profiles):
    document = dict(FUZZ_CLUSTER, controller=controller, telemetry=telemetry,
                    timing=timing, profiles=profiles)
    try:
        config = load_cluster_config(json.dumps(document))
    except ConfigError:
        return
    report = EventCheckedSimulation(config, FUZZ_INJECTIONS, 600).run()
    assert len(report.episodes) == 2


# -- fuzz: any hosts, VMs and injections are rejected or run ------------------


def plausible(values):
    """values 29 times in 30; otherwise arbitrary JSON."""
    return st.integers(0, 29).flatmap(lambda i: JSON_VALUES if i == 0 else values)


def machine(required, optional):
    """An object with mostly plausible required values and optional keys that
    are absent, null, plausible or, rarely, arbitrary JSON."""
    return st.fixed_dictionaries(
        {k: plausible(v) for k, v in required.items()},
        optional={k: plausible(st.none() | v) for k, v in optional.items()})


def quarters(lo, hi):
    return st.integers(lo, hi).map(lambda q: q * 0.25)


@st.composite
def scenario_docs(draw):
    host_ids = [f"h{i}" for i in range(draw(st.integers(1, 3)))]
    vm_ids = [f"v{j}" for j in range(draw(st.integers(0, 3)))]
    hosts = [draw(machine(
        {"host_id": st.just(h), "cpu_count": st.integers(1, 4), "ram_mb": st.integers(1, 8)},
        {"load_threshold": quarters(1, 16), "power_state": st.sampled_from(["on", "off"])}))
        for h in host_ids]
    vms = [draw(machine(
        {"vm_id": st.just(v), "mac": st.just(f"52:54:00:00:00:{j:02x}"),
         "bound_host": st.sampled_from(host_ids), "boot_profile": st.just("p")},
        {"lifecycle": st.sampled_from(["running", "halted"]),
         "reinstall_allowed": st.booleans(), "load_contribution": quarters(0, 8)}))
        for j, v in enumerate(vm_ids)]
    at, vm, host = st.integers(0, 600), st.sampled_from(vm_ids or ["v0"]), \
        st.sampled_from(host_ids)
    bodies = {
        NON_DESTRUCTIVE_CRASH: {"at": at, "vm": vm},
        DESTRUCTIVE_CRASH: {"at": at, "vm": vm},
        PHYSICAL_HOST_FAILURE: {"at": at, "host": host},
        POWER_GLITCH: {"at": at, "hosts": st.lists(host, min_size=1, max_size=3)},
        LOAD_SPIKE: {"at": at, "host": host, "extra_load": quarters(0, 16),
                     "duration_s": st.integers(1, 400)},
    }
    injection = st.sampled_from(INJECTION_KINDS).flatmap(
        lambda kind: machine({"kind": st.just(kind), **bodies[kind]}, {}))
    injections = draw(st.lists(injection, max_size=4))
    return {"cluster": {"hosts": draw(plausible(st.just(hosts))),
                        "vms": draw(plausible(st.just(vms))), "profiles": {"p": {}}},
            "injections": draw(plausible(st.none() | st.just(injections))),
            "horizon_s": 600}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(document=scenario_docs())
def test_machines_and_injections_are_rejected_or_run(document):
    try:
        scenario = load_scenario(json.dumps(document))
    except ConfigError:
        return
    # Every machine and injection the document lists is kept.
    cluster, config = document["cluster"], scenario.config
    assert [h.host_id for h in config.hosts] == [h["host_id"] for h in cluster["hosts"] or []]
    assert [v.vm_id for v in config.vms] == [v["vm_id"] for v in cluster["vms"] or []]
    assert len(scenario.injections) == len(document["injections"] or [])
    sim = EventCheckedSimulation(config, scenario.injections, scenario.horizon_s)
    sim.run()
    assert sim.now <= scenario.horizon_s
