"""The column reader of `hasim.config` against the record-at-a-time reader
it replaced, kept in `reader_oracle.py`.

Both read the same documents: the two fuzz generators of test_config.py, a
seeded generator of malformed scenario documents, and the benchmark's
`steady` cluster broken at one record. They must give equal problem lists in
the same order, equal ids declared by `hosts` and `vms` (rejected records
included), and equal scenarios and configurations.
"""

import copy
import importlib.util
import json
import random
from functools import partial
from pathlib import Path

import pytest
import reader_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import FUZZ_CLUSTER, JSON_VALUES, mostly, param_block, scenario_docs

from hasim import config
from hasim.config import ConfigError
from hasim.controller import ControllerParams
from hasim.engine import INJECTION_KINDS, TimingParams
from hasim.presets import PRESETS
from hasim.provisioning import BootProfile
from hasim.telemetry import TelemetryParams

ROOT = Path(__file__).resolve().parent.parent
MALFORMED_DOCUMENTS = 6000
LONG_LIST_DOCUMENTS = 30


def outcome(load, text: str, base_dir: Path | None):
    try:
        return load(text, base_dir)
    except ConfigError as exc:
        return exc.problems


def assert_same_reading(doc, base_dir: Path | None = None) -> None:
    """Both readers give the same scenario or problems for the document and,
    where its cluster is an object, the same cluster, problems and ids."""
    text = json.dumps(doc)
    assert outcome(config.load_scenario, text, base_dir) == \
        outcome(oracle.load_scenario, text, base_dir)
    if isinstance(doc, dict) and isinstance(doc.get("cluster"), dict):
        found, expected = [], []
        cluster = json.loads(json.dumps(doc["cluster"]))  # NaN and 10**400 as read
        assert config._read_cluster(cluster, found) == oracle._read_cluster(cluster, expected)
        assert found == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(document=scenario_docs())
def test_machine_and_injection_fuzz_reads_alike(document):
    assert_same_reading(document)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(controller=param_block(ControllerParams), telemetry=param_block(TelemetryParams),
       timing=param_block(TimingParams),
       profiles=mostly(st.fixed_dictionaries({"p": param_block(BootProfile)}),
                       JSON_VALUES))
def test_parameter_block_fuzz_reads_alike(controller, telemetry, timing, profiles):
    cluster = dict(FUZZ_CLUSTER, controller=controller, telemetry=telemetry,
                   timing=timing, profiles=profiles)
    assert_same_reading({"cluster": cluster, "horizon_s": 600})


# -- seeded malformed scenario documents ----------------------------------------

BAD_VALUES = [None, "", "x", 0, -1, 1.5, 0.0001, True, False, [], {}, ["h0"], {"a": 1},
              float("nan"), float("inf"), 10**400, 1e308, 2**64, "52:54:00:00:00:zz",
              "52:54:00:00:00:01\n", "52:54:00:00:00:0G", "off", "running", "waiting"]


def valid_scenario(rng: random.Random) -> dict:
    host_ids = [f"h{i}" for i in range(rng.randint(1, 4))]
    hosts = []
    for host_id in host_ids:
        host = {"host_id": host_id, "cpu_count": rng.randint(1, 16), "ram_mb": 4096}
        if rng.random() < 0.3:
            host["load_threshold"] = rng.choice([2, 2.5, 8, 0.75])
        if rng.random() < 0.2:
            host["power_state"] = rng.choice(["on", "off"])
        hosts.append(host)
    vms = []
    for j in range(rng.randint(0, 6)):
        vm = {"vm_id": f"v{j}", "mac": f"52:54:00:00:00:{j:02X}",
              "bound_host": rng.choice(host_ids), "boot_profile": "p"}
        for key, values in (("lifecycle", ["running", "halted"]),
                            ("reinstall_allowed", [True, False]),
                            ("load_contribution", [0, 1, 0.25, 1.5, 2])):
            if rng.random() < 0.3:
                vm[key] = rng.choice(values)
        vms.append(vm)
    injections = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(INJECTION_KINDS)
        body = {"at": rng.randint(0, 700), "kind": kind}
        if kind in ("non_destructive_crash", "destructive_crash"):
            body["vm"] = rng.choice([v["vm_id"] for v in vms] or ["v0"])
        elif kind == "power_glitch":
            body["hosts"] = rng.sample(host_ids, rng.randint(1, len(host_ids)))
        else:
            body["host"] = rng.choice(host_ids)
        if kind == "load_spike":
            body.update(extra_load=rng.choice([1, 0.5]), duration_s=rng.randint(1, 300))
        injections.append(body)
    cluster = {"hosts": hosts, "vms": vms, "profiles": {"p": {"boot_s": 60}},
               "controller": {"scan_period_s": 60}, "telemetry": {}, "timing": {}}
    return {"cluster": cluster, "injections": injections, "horizon_s": 600,
            "replications": 1, "seed": rng.randint(0, 9)}


def corrupt(value, rng: random.Random, share: float):
    """The value with each nested value replaced by a bad one, dropped, or
    joined by an unknown key, each with probability about `share`."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            roll = rng.random()
            if roll < share / 2:
                out[key] = rng.choice(BAD_VALUES)
            elif roll < share * 3 / 4:
                continue
            else:
                out[key] = corrupt(item, rng, share)
        if rng.random() < share / 4:
            out[rng.choice(["extra", "vm_ids", "load"])] = 1
        return out
    if isinstance(value, list):
        return [rng.choice(BAD_VALUES) if rng.random() < share / 4 else corrupt(item, rng, share)
                for item in value]
    return value


def malformed_scenario(rng: random.Random, share: float, files: Path) -> dict:
    doc = corrupt(valid_scenario(rng), rng, share)
    if isinstance(doc.get("cluster"), dict) and rng.random() < 0.1:
        # The cluster given by path: as written, or unparsable, no object or missing.
        name = f"c{rng.randrange(10**9)}.json"
        text = rng.choice([json.dumps(doc["cluster"]), "{", "[1, 2]", None])
        if text is not None:
            (files / name).write_text(text)
        doc["cluster"] = name
    return doc


def malformed_documents(count: int, files: Path):
    """`count` documents, the first half with 30 % and the rest with 8 % of
    their values malformed, seeded."""
    rng = random.Random(20261019)
    for i in range(count):
        yield malformed_scenario(rng, 0.3 if i < count // 2 else 0.08, files)


def assert_malformed_documents_read_alike(documents, files: Path) -> None:
    accepted = rejected = 0
    for doc in documents:
        assert_same_reading(copy.deepcopy(doc), files)
        try:
            config.load_scenario(json.dumps(doc), files)
            accepted += 1
        except ConfigError:
            rejected += 1
    assert accepted and rejected > accepted


def quick_malformed_documents(files: Path) -> list[dict]:
    """The first 150 of each half of the slow test's documents."""
    documents = list(malformed_documents(MALFORMED_DOCUMENTS, files))
    half = MALFORMED_DOCUMENTS // 2
    return documents[:150] + documents[half:half + 150]


def test_malformed_documents_read_alike(tmp_path):
    assert_malformed_documents_read_alike(quick_malformed_documents(tmp_path), tmp_path)


@pytest.mark.slow
def test_all_malformed_documents_read_alike(tmp_path):
    assert_malformed_documents_read_alike(malformed_documents(MALFORMED_DOCUMENTS, tmp_path),
                                          tmp_path)


# -- long lists with one problem ------------------------------------------------


def bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def long_list_documents(count: int):
    """`count` copies of the bench `steady` scenario of seed 1 (200 hosts x
    2000 VMs), each broken once at a random record: one value replaced by a
    bad one, one unknown key added, or the record replaced by a non-object;
    seeded."""
    text = json.dumps(bench_workloads().steady_scenario(1))
    non_objects = [value for value in BAD_VALUES if not isinstance(value, dict)]
    rng = random.Random(20261020)
    for _ in range(count):
        doc = json.loads(text)
        records = doc["cluster"][rng.choice(["hosts", "vms"])]
        i, roll = rng.randrange(len(records)), rng.randrange(3)
        if roll == 0:
            records[i][rng.choice(list(records[i]))] = rng.choice(BAD_VALUES)
        elif roll == 1:
            records[i][rng.choice(["extra", "vm_ids", "load"])] = 1
        else:
            records[i] = rng.choice(non_objects)
        yield doc


def test_long_lists_with_one_problem_read_alike():
    for doc in long_list_documents(LONG_LIST_DOCUMENTS):
        assert_same_reading(doc)


def test_valid_lists_never_leave_the_column_path(tmp_path, monkeypatch):
    # A host or VM list is read record by record exactly when a problem
    # names one of its records: a column test that rejects a value its kind
    # accepts would send valid lists to the record path.
    read_by_record = set()
    record = config._Reader.record

    def counted(self, body, spec, where):
        if spec is config._HOST or spec is config._VM:
            read_by_record.add(where.partition("[")[0])
        return record(self, body, spec, where)

    monkeypatch.setattr(config._Reader, "record", counted)
    workloads = bench_workloads()
    scenarios = [(json.dumps(doc), tmp_path)
                 for doc in [*quick_malformed_documents(tmp_path),
                             *long_list_documents(LONG_LIST_DOCUMENTS),
                             workloads.steady_scenario(1), workloads.storm_scenario(1)]]
    scenarios += [(path.read_text(), path.parent)
                  for path in sorted((ROOT / "scenarios").glob("power_glitch*.json"))]
    clusters = [json.loads((ROOT / "scenarios" / "cluster_basic.json").read_text()),
                *(preset.cluster_doc for preset in PRESETS.values())]
    reads = [partial(config.load_scenario, *scenario) for scenario in scenarios] + \
        [partial(config.parse_cluster_config, cluster) for cluster in clusters]
    by_record = by_columns = 0
    for read in reads:
        read_by_record.clear()
        try:
            read()
            problems = []
        except ConfigError as exc:
            problems = exc.problems
        named = {name for name in ("hosts", "vms")
                 if any(p.removeprefix("cluster: ").startswith(f"{name}[") for p in problems)}
        assert read_by_record == named, problems
        by_record += bool(named)
        by_columns += not named
    assert by_record > 30 and by_columns > 30
