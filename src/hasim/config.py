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
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Container

from .cluster import (
    MAC_RE,
    ClusterState,
    PhysicalHost,
    PowerState,
    VirtualMachine,
    VmLifecycle,
    default_threshold,
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


class _Reader:
    """Typed field extraction with problem collection."""

    def __init__(self, problems: list[str]):
        self.problems = problems

    def check_keys(self, obj: dict, allowed: Container[str], where: str) -> None:
        for key in obj:
            if key not in allowed:
                self.problems.append(f"{where}: unknown key '{key}'")

    def require(self, obj: dict, key: str, where: str):
        if obj.get(key) is None:  # a null value counts as missing
            self.problems.append(f"{where}: missing required key '{key}'")
            return None
        return obj[key]

    @staticmethod
    def optional(obj: dict, key: str, default):
        """The value of an optional key; absent and null both give `default`."""
        value = obj.get(key)
        return default if value is None else value

    def as_str(self, value, where: str) -> str | None:
        if value is None:
            return None
        if not isinstance(value, str) or not value:
            self.problems.append(f"{where}: expected a non-empty string")
            return None
        return value

    def as_int(self, value, where: str, minimum: int | None = None) -> int | None:
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            self.problems.append(f"{where}: expected an integer")
            return None
        if minimum is not None and value < minimum:
            self.problems.append(f"{where}: must be >= {minimum}")
            return None
        return value

    def as_number(self, value, where: str, minimum: float | None = None,
                  strict: bool = False) -> float | None:
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.problems.append(f"{where}: expected a number")
            return None
        if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
            self.problems.append(f"{where}: expected a finite number")
            return None
        value = float(value)
        if minimum is not None and (value < minimum or (strict and value == minimum)):
            op = ">" if strict else ">="
            self.problems.append(f"{where}: must be {op} {minimum}")
            return None
        return value

    def as_bool(self, value, where: str) -> bool | None:
        if value is None:
            return None
        if not isinstance(value, bool):
            self.problems.append(f"{where}: expected a boolean")
            return None
        return value


# Keys of each parameter block: the fields with a default, each mapped to
# whether it is a boolean (otherwise it is an integer).
_PARAM_KEYS = {cls: {f.name: isinstance(f.default, bool) for f in fields(cls)
                     if f.default is not MISSING}
               for cls in (ControllerParams, TelemetryParams, TimingParams, BootProfile)}


def _parse_params(cls, raw, where: str, reader: _Reader, minimum: int = 1, **fixed):
    """One parameter block over the fields of `cls`; `fixed` fills the rest.

    Keys are optional and null means absent; integers must be >= minimum. An
    absent or rejected value keeps its default, so later checks see valid types.
    """
    values = dict(fixed)
    if raw is not None and not isinstance(raw, dict):
        reader.problems.append(f"{where}: expected an object")
    elif raw is not None:
        keys = _PARAM_KEYS[cls]
        reader.check_keys(raw, keys, where)
        for name, boolean in keys.items():
            value = raw.get(name)
            if value is not None:
                key = f"{where}.{name}"
                value = (reader.as_bool(value, key) if boolean
                         else reader.as_int(value, key, minimum))
                if value is not None:
                    values[name] = value
    return cls(**values)


def _parse_profiles(raw, reader: _Reader) -> dict[str, BootProfile]:
    profiles = {}
    if raw is None:
        return profiles
    if not isinstance(raw, dict):
        reader.problems.append("profiles: expected an object of name -> profile")
        return profiles
    for name, body in raw.items():
        where = f"profiles['{name}']"
        if not isinstance(body, dict):
            reader.problems.append(f"{where}: expected an object")
            continue
        profiles[name] = _parse_params(BootProfile, body, where, reader, name=name)
    return profiles


def _parse_hosts(raw, reader: _Reader) -> tuple[list[PhysicalHost], set[str]]:
    """The valid hosts, and the ids of all hosts, rejected ones too."""
    hosts, declared = [], set()
    if raw is None:
        return hosts, declared
    if not isinstance(raw, list):
        reader.problems.append("hosts: expected a list")
        return hosts, declared
    for i, body in enumerate(raw):
        where = f"hosts[{i}]"
        if not isinstance(body, dict):
            reader.problems.append(f"{where}: expected an object")
            continue
        reader.check_keys(body, {"host_id", "cpu_count", "ram_mb",
                                 "load_threshold", "power_state"}, where)
        host_id = reader.as_str(reader.require(body, "host_id", where),
                                f"{where}.host_id")
        cpu_count = reader.as_int(reader.require(body, "cpu_count", where),
                                  f"{where}.cpu_count", 1)
        ram_mb = reader.as_int(reader.require(body, "ram_mb", where),
                               f"{where}.ram_mb", 1)
        threshold = reader.as_number(body.get("load_threshold"),
                                     f"{where}.load_threshold", 0.0, strict=True)
        power_raw = reader.optional(body, "power_state", "on")
        if power_raw not in ("on", "off"):
            reader.problems.append(f"{where}.power_state: must be 'on' or 'off'")
            power_raw = "on"
        declared.add(host_id)
        if host_id is None or cpu_count is None or ram_mb is None:
            continue
        if threshold is None:
            if body.get("load_threshold") is not None:
                continue  # problem already recorded
            threshold = default_threshold(cpu_count)
        hosts.append(PhysicalHost(host_id, cpu_count, ram_mb, threshold,
                                  PowerState(power_raw)))
    return hosts, declared


def _parse_vms(raw, reader: _Reader) -> list[VirtualMachine]:
    vms = []
    if raw is None:
        return vms
    if not isinstance(raw, list):
        reader.problems.append("vms: expected a list")
        return vms
    for i, body in enumerate(raw):
        where = f"vms[{i}]"
        if not isinstance(body, dict):
            reader.problems.append(f"{where}: expected an object")
            continue
        reader.check_keys(body, {"vm_id", "mac", "bound_host", "boot_profile",
                                 "lifecycle", "reinstall_allowed",
                                 "load_contribution"}, where)
        vm_id = reader.as_str(reader.require(body, "vm_id", where), f"{where}.vm_id")
        mac = reader.as_str(reader.require(body, "mac", where), f"{where}.mac")
        if mac is not None:
            mac = mac.lower()
            if not MAC_RE.match(mac):
                reader.problems.append(
                    f"{where}.mac: '{mac}' is not a colon-separated 48-bit address")
                mac = None
        bound_host = reader.as_str(reader.require(body, "bound_host", where),
                                   f"{where}.bound_host")
        boot_profile = reader.as_str(reader.require(body, "boot_profile", where),
                                     f"{where}.boot_profile")
        lifecycle_raw = reader.optional(body, "lifecycle", "running")
        if lifecycle_raw not in ("running", "halted"):
            reader.problems.append(
                f"{where}.lifecycle: initial lifecycle must be 'running' or 'halted'")
            lifecycle_raw = "running"
        reinstall = reader.as_bool(reader.optional(body, "reinstall_allowed", True),
                                   f"{where}.reinstall_allowed")
        contribution = reader.as_number(reader.optional(body, "load_contribution", 1.0),
                                        f"{where}.load_contribution", 0.0)
        if None in (vm_id, mac, bound_host, boot_profile, reinstall, contribution):
            continue
        vms.append(VirtualMachine(vm_id, mac, bound_host, boot_profile,
                                  VmLifecycle(lifecycle_raw), reinstall,
                                  contribution))
    return vms


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
        if v.boot_profile not in config.profiles:
            problems.append(f"vm '{v.vm_id}': unknown profile '{v.boot_profile}'")

    if config.timing.controller_phase_s >= config.controller.scan_period_s:
        problems.append("timing: controller_phase_s must be in [0, scan_period_s)")

    # Jitter must stay below every nominal duration it can apply to,
    # including the default profile used for physical host boots.
    local_totals = [sum(DEFAULT_PROFILE.local_boot_plan())]
    install_totals = [sum(DEFAULT_PROFILE.install_plan())]
    for profile in config.profiles.values():
        local_totals.append(sum(profile.local_boot_plan()))
        install_totals.append(sum(profile.install_plan()))
    if config.timing.boot_jitter_s >= min(local_totals):
        problems.append("timing: boot_jitter_s must be below the shortest boot total")
    if config.timing.reinstall_jitter_s >= min(install_totals):
        problems.append(
            "timing: reinstall_jitter_s must be below the shortest install total")


TOP_LEVEL_KEYS = {"hosts", "vms", "profiles", "controller", "telemetry", "timing"}


def parse_cluster_config(doc: dict) -> ClusterConfig:
    """Validate an already-decoded cluster document."""
    problems: list[str] = []
    reader = _Reader(problems)
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected an object"])
    reader.check_keys(doc, TOP_LEVEL_KEYS, "top level")
    hosts, declared = _parse_hosts(doc.get("hosts"), reader)
    config = ClusterConfig(
        hosts=hosts,
        vms=_parse_vms(doc.get("vms"), reader),
        profiles=_parse_profiles(doc.get("profiles"), reader),
        controller=_parse_params(ControllerParams, doc.get("controller"),
                                 "controller", reader),
        telemetry=_parse_params(TelemetryParams, doc.get("telemetry"),
                                "telemetry", reader),
        timing=_parse_params(TimingParams, doc.get("timing"), "timing", reader,
                             minimum=0),
    )
    _cross_validate(config, problems, declared)
    if problems:
        raise ConfigError(problems)
    return config


def load_cluster_config(text: str) -> ClusterConfig:
    """Parse and validate a cluster configuration JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc
    return parse_cluster_config(doc)


@dataclass
class Scenario:
    config: ClusterConfig
    injections: list[FailureInjection]
    horizon_s: int
    replications: int = 1
    seed: int = 0


_INJECTION_FIELDS = {
    NON_DESTRUCTIVE_CRASH: {"at", "kind", "vm"},
    DESTRUCTIVE_CRASH: {"at", "kind", "vm"},
    PHYSICAL_HOST_FAILURE: {"at", "kind", "host"},
    POWER_GLITCH: {"at", "kind", "hosts"},
    LOAD_SPIKE: {"at", "kind", "host", "extra_load", "duration_s"},
}


def _parse_injection(body: dict, where: str, reader: _Reader) -> FailureInjection | None:
    if not isinstance(body, dict):
        reader.problems.append(f"{where}: expected an object")
        return None
    kind = body.get("kind")
    if kind not in INJECTION_KINDS:
        reader.problems.append(
            f"{where}.kind: expected one of {', '.join(INJECTION_KINDS)}")
        return None
    reader.check_keys(body, _INJECTION_FIELDS[kind], where)
    at = reader.as_int(reader.require(body, "at", where), f"{where}.at", 0)
    if at is None:
        return None
    if kind in (NON_DESTRUCTIVE_CRASH, DESTRUCTIVE_CRASH):
        vm = reader.as_str(reader.require(body, "vm", where), f"{where}.vm")
        return FailureInjection(at=at, kind=kind, vm_id=vm) if vm else None
    if kind == PHYSICAL_HOST_FAILURE:
        host = reader.as_str(reader.require(body, "host", where), f"{where}.host")
        return FailureInjection(at=at, kind=kind, host_id=host) if host else None
    if kind == POWER_GLITCH:
        hosts = reader.require(body, "hosts", where)
        if not isinstance(hosts, list) or not hosts or \
                not all(isinstance(h, str) for h in hosts):
            reader.problems.append(f"{where}.hosts: expected a non-empty string list")
            return None
        return FailureInjection(at=at, kind=kind, hosts=tuple(hosts))
    host = reader.as_str(reader.require(body, "host", where), f"{where}.host")
    extra = reader.as_number(reader.require(body, "extra_load", where),
                             f"{where}.extra_load", 0.0)
    duration = reader.as_int(reader.require(body, "duration_s", where),
                             f"{where}.duration_s", 1)
    if None in (host, extra, duration):
        return None
    return FailureInjection(at=at, kind=kind, host_id=host, extra_load=extra,
                            duration_s=duration)


def load_scenario(text: str, base_dir: Path | None = None) -> Scenario:
    """Parse and validate a scenario JSON document.

    `cluster` may be an inline cluster object or a path string resolved
    relative to base_dir.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected an object"])
    problems: list[str] = []
    reader = _Reader(problems)
    reader.check_keys(doc, {"cluster", "injections", "horizon_s",
                            "replications", "seed"}, "top level")

    cluster_raw = reader.require(doc, "cluster", "top level")
    config = None
    if isinstance(cluster_raw, str):
        path = Path(cluster_raw)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            config = load_cluster_config(path.read_text())
        except OSError as exc:
            problems.append(f"cluster: cannot read '{cluster_raw}': {exc}")
        except ConfigError as exc:
            problems.extend(f"cluster: {p}" for p in exc.problems)
    elif isinstance(cluster_raw, dict):
        try:
            config = parse_cluster_config(cluster_raw)
        except ConfigError as exc:
            problems.extend(f"cluster: {p}" for p in exc.problems)
    elif cluster_raw is not None:
        problems.append("cluster: expected an object or a path string")

    horizon = reader.as_int(reader.require(doc, "horizon_s", "top level"),
                            "horizon_s", 1)
    replications = reader.as_int(reader.optional(doc, "replications", 1),
                                 "replications", 1)
    seed = reader.as_int(reader.optional(doc, "seed", 0), "seed", 0)

    raw_injections = reader.optional(doc, "injections", [])
    if not isinstance(raw_injections, list):
        problems.append("injections: expected a list")
        raw_injections = []
    parsed = [_parse_injection(body, f"injections[{i}]", reader)
              for i, body in enumerate(raw_injections)]
    if config is not None:
        problems.extend(injection_problems(
            parsed, {v.vm_id for v in config.vms}, {h.host_id for h in config.hosts},
            horizon))
    injections = [inj for inj in parsed if inj is not None]

    if problems:
        raise ConfigError(problems)
    return Scenario(config=config, injections=injections, horizon_s=horizon,
                    replications=replications, seed=seed)
