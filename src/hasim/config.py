"""Configuration documents: cluster declarations and scenario files.

A cluster configuration is a single JSON document with the top-level keys
`hosts`, `vms`, `profiles`, `controller`, `telemetry` and `timing`. Unknown
keys anywhere in the document are validation errors, which catches typos
when scenarios are written by hand. A scenario file wraps a cluster (inline
or by path), a list of failure injections, a horizon, a replication count
and a seed.

Validation collects every problem instead of stopping at the first, so one
pass over a broken file reports all of it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cluster import (
    MAC_RE,
    ClusterState,
    PhysicalHost,
    PowerState,
    VirtualMachine,
    VmLifecycle,
    default_threshold,
    to_milli,
)
from .controller import ControllerParams
from .engine import (
    DESTRUCTIVE_CRASH,
    INJECTION_KINDS,
    LOAD_SPIKE,
    NON_DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    FailureInjection,
    TimingParams,
    injection_problems,
)
from .provisioning import DEFAULT_PROFILE, BootProfile
from .telemetry import HEARTBEAT_PERIOD_S, TelemetryParams


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; carries all diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ClusterConfig:
    hosts: list[PhysicalHost] = field(default_factory=list)
    vms: list[VirtualMachine] = field(default_factory=list)
    profiles: dict[str, BootProfile] = field(default_factory=dict)
    controller: ControllerParams = field(default_factory=ControllerParams)
    telemetry: TelemetryParams = field(default_factory=TelemetryParams)
    timing: TimingParams = field(default_factory=TimingParams)

    def build_state(self) -> ClusterState:
        """Fresh mutable state from the declarations.

        Every call returns independent host/VM instances, so one config can
        seed many simulation runs.
        """
        hosts = {
            h.host_id: PhysicalHost(h.host_id, h.cpu_count, h.ram_mb,
                                    h.load_threshold, h.power_state, [])
            for h in self.hosts
        }
        vms = {}
        for v in self.vms:
            vms[v.vm_id] = VirtualMachine(v.vm_id, v.mac, v.bound_host,
                                          v.boot_profile, v.lifecycle,
                                          v.reinstall_allowed, v.load_contribution)
            if v.bound_host is not None:
                hosts[v.bound_host].hosted_vms.append(v.vm_id)
        return ClusterState(hosts=hosts, vms=vms)


class _Rejected(Exception):
    """A value of the wrong type or out of bounds; the message says which."""


_TOP_LEVEL = "top level"


class _Reader:
    """Reads JSON objects against specs, collecting every problem.

    A spec maps each key to (kind, required, bound), in reading order. A kind
    is a method of this class that takes the JSON value and the bound, and
    returns the accepted value or raises _Rejected. The kinds that hold
    records read them with this reader, which keeps the ids its hosts and
    VMs declare.
    """

    def __init__(self, problems: list[str], base_dir: Path | None = None):
        self.problems = problems
        self.base_dir = base_dir  # resolves a scenario's cluster path
        self.declared: dict[str, set] = {"hosts": set(), "vms": set()}

    def record(self, body, spec: dict, where: str) -> tuple[dict, bool]:
        """The accepted values of one object, and whether it is complete.

        Null means absent. An absent or rejected optional key is left out of
        the values, so it keeps its default; a missing or rejected required
        key makes the record incomplete. Keys of the top level are named bare.
        """
        if not isinstance(body, dict):
            self.problems.append(f"{where}: expected an object")
            return {}, False
        if not body.keys() <= spec.keys():
            self.problems.extend(f"{where}: unknown key '{key}'"
                                 for key in body if key not in spec)
        values, complete = {}, True
        for key, (kind, required, bound) in spec.items():
            value = body.get(key)
            if value is None:
                if required:
                    self.problems.append(f"{where}: missing required key '{key}'")
                    complete = False
                continue
            try:
                values[key] = kind(self, value, bound)
            except _Rejected as exc:
                at = key if where == _TOP_LEVEL else f"{where}.{key}"
                self.problems.append(f"{at}: {exc}")
                complete = complete and not required
        return values, complete

    def string(self, value, _bound) -> str:
        if not isinstance(value, str) or not value:
            raise _Rejected("expected a non-empty string")
        return value

    def integer(self, value, minimum: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise _Rejected("expected an integer")
        if value < minimum:
            raise _Rejected(f"must be >= {minimum}")
        return value

    def cpu_count(self, value, _bound) -> int:
        """An integer >= 1 that is a threshold too: it is the default one."""
        value = self.integer(value, 1)
        self.load(value, ">")
        return value

    def load(self, value, op: str) -> int:
        """A number of load units, as milli-units: >= 0, or > 0 for op ">"."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _Rejected("expected a number")
        if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
            raise _Rejected("expected a finite number")
        if value < 0 or (op == ">" and value == 0):
            raise _Rejected(f"must be {op} 0.0")
        try:
            return to_milli(value)
        except ValueError as exc:
            raise _Rejected(str(exc)) from None

    def boolean(self, value, _bound) -> bool:
        if not isinstance(value, bool):
            raise _Rejected("expected a boolean")
        return value

    def one_of(self, value, members: tuple):
        for member in members:
            if value == member.value:
                return member
        raise _Rejected("must be " + " or ".join(f"'{m.value}'" for m in members))

    def string_list(self, value, _bound) -> tuple[str, ...]:
        if not isinstance(value, list) or not value or \
                not all(isinstance(s, str) for s in value):
            raise _Rejected("expected a non-empty string list")
        return tuple(value)

    def mac(self, value, _bound) -> str:
        mac = self.string(value, None).lower()
        if not MAC_RE.match(mac):
            raise _Rejected(f"'{mac}' is not a colon-separated 48-bit address")
        return mac

    def machines(self, raw, bound) -> list:
        """bound is (list name, spec, build); a machine's id is its first key."""
        where, spec, build = bound
        if not isinstance(raw, list):
            raise _Rejected("expected a list")
        found = []
        for i, body in enumerate(raw):
            values, complete = self.record(body, spec, f"{where}[{i}]")
            self.declared[where].add(values.get(next(iter(spec))))
            if complete:
                found.append(build(**values))
        return found

    def profiles(self, raw, _bound) -> dict[str, BootProfile]:
        if not isinstance(raw, dict):
            raise _Rejected("expected an object of name -> profile")
        found = {}
        for name, body in raw.items():
            values, complete = self.record(body, _PROFILE, f"profiles['{name}']")
            if complete:
                found[name] = BootProfile(**values)
        return found

    def block(self, raw, where: str):
        cls, spec = _BLOCKS[where]
        return cls(**self.record(raw, spec, where)[0])

    def cluster(self, raw, _bound) -> tuple[ClusterConfig, dict[str, set]]:
        if isinstance(raw, str):
            path = Path(raw)
            if self.base_dir is not None and not path.is_absolute():
                path = self.base_dir / path
            try:
                raw = _decode(path.read_text(encoding="utf-8"))
            except ConfigError as exc:
                raise _Rejected(exc.problems[0]) from exc
            except (OSError, ValueError) as exc:  # undecodable bytes, a NUL byte
                raise _Rejected(f"cannot read {raw!r}: {exc}") from exc
            if not isinstance(raw, dict):
                raise _Rejected(f"{_TOP_LEVEL}: expected an object")
        elif not isinstance(raw, dict):
            raise _Rejected("expected an object or a path string")
        found: list[str] = []
        result = _read_cluster(raw, found)
        self.problems.extend(f"cluster: {p}" for p in found)
        return result

    def injections(self, raw, _bound) -> list[FailureInjection | None]:
        """Each injection, or None for a rejected one, so that all keep their index."""
        if not isinstance(raw, list):
            raise _Rejected("expected a list")
        return [self.injection(body, f"injections[{i}]") for i, body in enumerate(raw)]

    def injection(self, body, where: str) -> FailureInjection | None:
        if not isinstance(body, dict):
            self.problems.append(f"{where}: expected an object")
            return None
        if body.get("kind") not in INJECTION_KINDS:
            self.problems.append(
                f"{where}.kind: expected one of {', '.join(INJECTION_KINDS)}")
            return None
        values, complete = self.record(body, _INJECTIONS[body["kind"]], where)
        if not complete:
            return None
        return FailureInjection(vm_id=values.pop("vm", None),
                                host_id=values.pop("host", None), **values)


_HOST = {
    "host_id": (_Reader.string, True, None),
    "cpu_count": (_Reader.cpu_count, True, None),
    "ram_mb": (_Reader.integer, True, 1),
    "load_threshold": (_Reader.load, False, ">"),
    "power_state": (_Reader.one_of, False, tuple(PowerState)),
}
_VM = {
    "vm_id": (_Reader.string, True, None),
    "mac": (_Reader.mac, True, None),
    "bound_host": (_Reader.string, True, None),
    "boot_profile": (_Reader.string, True, None),
    "lifecycle": (_Reader.one_of, False, (VmLifecycle.RUNNING, VmLifecycle.HALTED)),
    "reinstall_allowed": (_Reader.boolean, False, None),
    "load_contribution": (_Reader.load, False, ">="),
}


def _param_spec(cls, minimum: int) -> dict:
    """Every field of a parameter block is an optional key."""
    return {f.name: (_Reader.boolean, False, None) if isinstance(f.default, bool)
            else (_Reader.integer, False, minimum)
            for f in fields(cls)}


_PROFILE = _param_spec(BootProfile, 1)
_BLOCKS = {"controller": (ControllerParams, _param_spec(ControllerParams, 1)),
           "telemetry": (TelemetryParams, _param_spec(TelemetryParams, 1)),
           "timing": (TimingParams, _param_spec(TimingParams, 0))}


def _host(**values) -> PhysicalHost:
    values.setdefault("load_threshold", default_threshold(values["cpu_count"]))
    return PhysicalHost(**values)


_CLUSTER = {
    "hosts": (_Reader.machines, False, ("hosts", _HOST, _host)),
    "vms": (_Reader.machines, False, ("vms", _VM, VirtualMachine)),
    "profiles": (_Reader.profiles, False, None),
    **{name: (_Reader.block, False, name) for name in _BLOCKS},
}
_AT, _NAME = (_Reader.integer, True, 0), (_Reader.string, True, None)
_CRASH = {"at": _AT, "kind": _NAME, "vm": _NAME}
_INJECTIONS = {
    NON_DESTRUCTIVE_CRASH: _CRASH,
    DESTRUCTIVE_CRASH: _CRASH,
    PHYSICAL_HOST_FAILURE: {"at": _AT, "kind": _NAME, "host": _NAME},
    POWER_GLITCH: {"at": _AT, "kind": _NAME, "hosts": (_Reader.string_list, True, None)},
    LOAD_SPIKE: {"at": _AT, "kind": _NAME, "host": _NAME,
                 "extra_load": (_Reader.load, True, ">="),
                 "duration_s": (_Reader.integer, True, 1)},
}
_SCENARIO = {
    "cluster": (_Reader.cluster, True, None),
    "horizon_s": (_Reader.integer, True, 1),
    "replications": (_Reader.integer, False, 1),
    "seed": (_Reader.integer, False, 0),
    "injections": (_Reader.injections, False, None),
}


def _cross_validate(config: ClusterConfig, problems: list[str], declared: set) -> None:
    for name in ("t1_s", "t2_s", "reinstall_patience_s"):
        if getattr(config.controller, name) < config.controller.scan_period_s:
            problems.append(f"controller: {name} must be >= scan_period_s")
    if config.telemetry.detection_latency_s <= HEARTBEAT_PERIOD_S:
        problems.append("telemetry: detection_latency_s must be > "
                        f"{HEARTBEAT_PERIOD_S} (the heartbeat period)")

    host_ids = set()
    for h in config.hosts:
        if h.host_id in host_ids:
            problems.append(f"duplicate host_id '{h.host_id}'")
        host_ids.add(h.host_id)

    off = {h.host_id for h in config.hosts if h.power_state is PowerState.OFF}
    vm_ids, macs = set(), set()
    for v in config.vms:
        if v.vm_id in vm_ids:
            problems.append(f"duplicate vm_id '{v.vm_id}'")
        vm_ids.add(v.vm_id)
        if v.vm_id in host_ids:
            problems.append(f"vm_id '{v.vm_id}' collides with a host_id")
        if v.mac in macs:
            problems.append(f"duplicate mac '{v.mac}'")
        macs.add(v.mac)
        if v.bound_host not in declared:  # a rejected host is reported already
            problems.append(f"vm '{v.vm_id}': unknown bound_host '{v.bound_host}'")
        elif v.bound_host in off and v.lifecycle is VmLifecycle.RUNNING:
            problems.append(f"vm '{v.vm_id}': running on powered-off host '{v.bound_host}'")
        if v.boot_profile not in config.profiles:
            problems.append(f"vm '{v.vm_id}': unknown profile '{v.boot_profile}'")

    if config.timing.controller_phase_s >= config.controller.scan_period_s:
        problems.append("timing: controller_phase_s must be in [0, scan_period_s)")

    # Jitter must stay below every nominal duration it can apply to,
    # including the default profile used for physical host boots.
    profiles = (DEFAULT_PROFILE, *config.profiles.values())
    if config.timing.boot_jitter_s >= min(p.boot_total_s for p in profiles):
        problems.append("timing: boot_jitter_s must be below the shortest boot total")
    if config.timing.reinstall_jitter_s >= min(p.install_total_s for p in profiles):
        problems.append(
            "timing: reinstall_jitter_s must be below the shortest install total")


def _read_cluster(doc, problems: list[str]) -> tuple[ClusterConfig, dict[str, set]]:
    """The cluster of every complete record, and the ids that `hosts` and
    `vms` declare, rejected records included; problems go to `problems`."""
    reader = _Reader(problems)
    config = ClusterConfig(**reader.record(doc, _CLUSTER, _TOP_LEVEL)[0])
    _cross_validate(config, problems, reader.declared["hosts"])
    return config, reader.declared


def parse_cluster_config(doc: dict) -> ClusterConfig:
    """Validate an already-decoded cluster document."""
    problems: list[str] = []
    config, _ = _read_cluster(doc, problems)
    if problems:
        raise ConfigError(problems)
    return config


def _decode(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep, too many digits
        raise ConfigError([f"parse error: {exc}"]) from exc


def load_cluster_config(text: str) -> ClusterConfig:
    """Parse and validate a cluster configuration JSON document."""
    return parse_cluster_config(_decode(text))


@dataclass
class Scenario:
    config: ClusterConfig
    injections: list[FailureInjection]
    horizon_s: int
    replications: int = 1
    seed: int = 0


def load_scenario(text: str, base_dir: Path | None = None) -> Scenario:
    """Parse and validate a scenario JSON document.

    `cluster` may be an inline cluster object or a path string resolved
    relative to base_dir. Whenever it is an object, injections are checked
    against the ids it declares, so its problems hide none of theirs.
    """
    doc = _decode(text)
    reader = _Reader([], base_dir)
    values, _ = reader.record(doc, _SCENARIO, _TOP_LEVEL)
    injections = values.pop("injections", [])
    if "cluster" in values:
        config, declared = values.pop("cluster")
        reader.problems.extend(injection_problems(
            injections, declared["vms"], declared["hosts"], values.get("horizon_s")))
    if reader.problems:
        raise ConfigError(reader.problems)
    return Scenario(config, injections, **values)
