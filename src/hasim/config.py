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

from .cluster import (
    MAC_RE,
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


class _Rejected(Exception):
    """A value of the wrong type or out of bounds; the message says which."""


_TOP_LEVEL = "top level"
# The value types of a list of records and of column tests; None is an
# absent optional value.
_DICT, _INT, _STRINGS = {dict}, {int}, {str, type(None)}
_BOOLEANS, _NUMBERS = {bool, type(None)}, {int, float, type(None)}


class _Reader:
    """Reads JSON objects against specs, collecting every problem.

    A spec (`_Spec`) gives each key (kind, required, bound), in reading
    order. A kind is a method of this class that takes the JSON value and
    the bound, and returns the accepted value or raises _Rejected. The kinds
    that hold records read them with this reader, which keeps the ids its
    hosts and VMs declare.

    An object is read by `record`, a key at a time, which names every
    problem. A list of hosts or VMs is accepted by `columns`, a key's column
    at a time: each kind's column test returns the values the kind accepts,
    in C-level passes, when it accepts every value in the column. A list
    with any problem is read by `record` instead, a record at a time.
    """

    def __init__(self, problems: list[str], base_dir: Path | None = None):
        self.problems = problems
        self.base_dir = base_dir  # resolves a scenario's cluster path
        self.declared: dict[str, set] = {"hosts": set(), "vms": set()}

    def record(self, body, spec: _Spec, where: str) -> tuple[dict, bool]:
        """The accepted values of one object, and whether it is complete.

        Null means absent. An absent or rejected optional key is left out of
        the values, so it keeps its default; a missing or rejected required
        key makes the record incomplete. Keys of the top level are named bare.
        """
        if not isinstance(body, dict):
            self.problems.append(f"{where}: expected an object")
            return {}, False
        if not body.keys() <= spec.keys:
            self.problems.extend(f"{where}: unknown key '{key}'"
                                 for key in body if key not in spec.keys)
        values, complete = {}, True
        if not body and spec.last_required < 0:  # nothing to read, nothing missing
            return values, complete
        for _, key, kind, required, bound, _, _ in spec.entries:
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

    def columns(self, bodies: list, spec: _Spec) -> list[list] | None:
        """The column of accepted values of each spec key up to the last one
        read, an absent optional value being the key's default, when every
        record is an object of spec keys with every required key and each
        key's column test accepts its column; else None."""
        if not _DICT.issuperset(map(type, bodies)):
            return None
        present = set().union(*bodies)
        if not present <= spec.keys:
            return None
        # The columns end with the last key read; the machine class gives
        # the keys after it their defaults.
        columns, left = [], len(present)
        for pos, key, _, required, bound, test, default in spec.entries:
            if not left and pos > spec.last_required:
                break
            if key in present:
                left -= 1
                # A required key's test rejects None, an absent value.
                column = test(self, [body.get(key) for body in bodies], bound)
                if column is None:
                    return None
                if default is not None and None in column:
                    column = [default if value is None else value for value in column]
            elif required:
                return None
            else:
                column = [default] * len(bodies)
            columns.append(column)
        return columns

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

    # Column tests: the values the kind accepts if it accepts every value in
    # the column, else None. Only the tests of optional keys' kinds accept
    # None, an absent value.

    def all_strings(self, column: list, _bound) -> list | None:
        try:
            return column if all(map(str.__len__, column)) else None
        except TypeError:  # a value that is no string
            return None

    def all_integers(self, column: list, minimum: int) -> list | None:
        if _INT.issuperset(map(type, column)) and min(column) >= minimum:
            return column
        return None

    def all_cpu_counts(self, column: list, _bound) -> list | None:
        """Below 1e305, an integer >= 1 is a threshold too."""
        if _INT.issuperset(map(type, column)) and min(column) >= 1 and max(column) < 1e305:
            return column
        return None

    def all_booleans(self, column: list, _bound) -> list | None:
        return column if _BOOLEANS.issuperset(map(type, column)) else None

    def all_loads(self, column: list, op: str) -> list | None:
        """Each distinct (type, value) is read once: 1 and 1.0 give 1000,
        and True is no number."""
        if not _NUMBERS.issuperset(map(type, column)):
            return None
        try:
            loads = {key: self.load(key[1], op)
                     for key in set(zip(map(type, column), column)) if key[1] is not None}
        except _Rejected:
            return None
        return list(map(loads.get, zip(map(type, column), column)))

    def all_of(self, column: list, members: tuple) -> list | None:
        if not _STRINGS.issuperset(map(type, column)):
            return None
        try:
            found = {value: self.one_of(value, members)
                     for value in set(column) if value is not None}
        except _Rejected:
            return None
        return list(map(found.get, column))

    def all_macs(self, column: list, _bound) -> list | None:
        try:
            macs = list(map(str.lower, column))
        except TypeError:  # a value that is no string
            return None
        return macs if all(map(MAC_RE.match, macs)) else None

    # Kinds that hold records.

    def machines(self, raw, bound) -> list:
        """bound is (list name, spec, build); a machine's id is its first key,
        and build makes the machines of `columns`' columns. A list `columns`
        does not accept is read by `record`, to name its problems, and build
        makes each complete record's machine from one-row columns."""
        where, spec, build = bound
        if not isinstance(raw, list):
            raise _Rejected("expected a list")
        columns = self.columns(raw, spec)
        if columns is not None:
            self.declared[where].update(columns[0])
            return build(columns)
        found = []
        for i, body in enumerate(raw):
            values, complete = self.record(body, spec, f"{where}[{i}]")
            self.declared[where].add(values.get(spec.entries[0][1]))
            if complete:
                found += build([[values.get(key, default)]
                                for _, key, *_, default in spec.entries])
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


class _Spec:
    """`{key: (kind, required, bound)}` in reading order, with each key's
    checks bound once in `entries`: its position, key, kind, whether it is
    required, its bound, its kind's column test and its default.
    `last_required` is the position of the last required key, or -1.

    A machine spec names the first fields of its machine class, in order,
    and takes their defaults; every other default is None."""

    def __init__(self, entries: dict, cls=None):
        self.keys = frozenset(entries)
        defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING} \
            if cls else {}
        self.entries = [(pos, key, kind, required, bound, _COLUMNS.get(kind), defaults.get(key))
                        for pos, (key, (kind, required, bound)) in enumerate(entries.items())]
        self.last_required = max((pos for pos, _, _, required, *_ in self.entries if required),
                                 default=-1)


_COLUMNS = {_Reader.string: _Reader.all_strings, _Reader.integer: _Reader.all_integers,
            _Reader.cpu_count: _Reader.all_cpu_counts, _Reader.load: _Reader.all_loads,
            _Reader.boolean: _Reader.all_booleans, _Reader.one_of: _Reader.all_of,
            _Reader.mac: _Reader.all_macs}


def _hosts(columns: list[list]) -> list[PhysicalHost]:
    """The hosts of `machines`' columns, which end before the threshold when
    no record has one. An absent threshold is the default of the cpu_count."""
    ids, cpu_counts, rams, *optional = columns
    thresholds = optional.pop(0) if optional else [None] * len(ids)
    if None in thresholds:
        thresholds = [default_threshold(cpu) if threshold is None else threshold
                      for cpu, threshold in zip(cpu_counts, thresholds)]
    return list(map(PhysicalHost, ids, cpu_counts, rams, thresholds, *optional))


def _vms(columns: list[list]) -> list[VirtualMachine]:
    return list(map(VirtualMachine, *columns))


_HOST = _Spec({
    "host_id": (_Reader.string, True, None),
    "cpu_count": (_Reader.cpu_count, True, None),
    "ram_mb": (_Reader.integer, True, 1),
    "load_threshold": (_Reader.load, False, ">"),
    "power_state": (_Reader.one_of, False, tuple(PowerState)),
}, PhysicalHost)
_VM = _Spec({
    "vm_id": (_Reader.string, True, None),
    "mac": (_Reader.mac, True, None),
    "bound_host": (_Reader.string, True, None),
    "boot_profile": (_Reader.string, True, None),
    "lifecycle": (_Reader.one_of, False, (VmLifecycle.RUNNING, VmLifecycle.HALTED)),
    "reinstall_allowed": (_Reader.boolean, False, None),
    "load_contribution": (_Reader.load, False, ">="),
}, VirtualMachine)


def _param_spec(cls, minimum: int) -> _Spec:
    """Every field of a parameter block is an optional key."""
    return _Spec({f.name: (_Reader.boolean, False, None) if isinstance(f.default, bool)
                  else (_Reader.integer, False, minimum)
                  for f in fields(cls)})


_PROFILE = _param_spec(BootProfile, 1)
_BLOCKS = {"controller": (ControllerParams, _param_spec(ControllerParams, 1)),
           "telemetry": (TelemetryParams, _param_spec(TelemetryParams, 1)),
           "timing": (TimingParams, _param_spec(TimingParams, 0))}
_CLUSTER = _Spec({
    "hosts": (_Reader.machines, False, ("hosts", _HOST, _hosts)),
    "vms": (_Reader.machines, False, ("vms", _VM, _vms)),
    "profiles": (_Reader.profiles, False, None),
    **{name: (_Reader.block, False, name) for name in _BLOCKS},
})
_AT, _NAME = (_Reader.integer, True, 0), (_Reader.string, True, None)
_CRASH = _Spec({"at": _AT, "kind": _NAME, "vm": _NAME})
_INJECTIONS = {
    NON_DESTRUCTIVE_CRASH: _CRASH,
    DESTRUCTIVE_CRASH: _CRASH,
    PHYSICAL_HOST_FAILURE: _Spec({"at": _AT, "kind": _NAME, "host": _NAME}),
    POWER_GLITCH: _Spec({"at": _AT, "kind": _NAME,
                         "hosts": (_Reader.string_list, True, None)}),
    LOAD_SPIKE: _Spec({"at": _AT, "kind": _NAME, "host": _NAME,
                       "extra_load": (_Reader.load, True, ">="),
                       "duration_s": (_Reader.integer, True, 1)}),
}
_SCENARIO = _Spec({
    "cluster": (_Reader.cluster, True, None),
    "horizon_s": (_Reader.integer, True, 1),
    "replications": (_Reader.integer, False, 1),
    "seed": (_Reader.integer, False, 0),
    "injections": (_Reader.injections, False, None),
})


def _cross_validate(config: ClusterConfig, problems: list[str], declared: set) -> None:
    controller = config.controller
    scan = controller.scan_period_s
    if min(controller.t1_s, controller.t2_s, controller.reinstall_patience_s) < scan:
        for name in ("t1_s", "t2_s", "reinstall_patience_s"):
            if getattr(controller, name) < scan:
                problems.append(f"controller: {name} must be >= scan_period_s")
    if config.telemetry.detection_latency_s <= HEARTBEAT_PERIOD_S:
        problems.append("telemetry: detection_latency_s must be > "
                        f"{HEARTBEAT_PERIOD_S} (the heartbeat period)")

    host_ids, off = set(), set()
    for h in config.hosts:
        if h.host_id in host_ids:
            problems.append(f"duplicate host_id '{h.host_id}'")
        host_ids.add(h.host_id)
        if h.power_state is PowerState.OFF:
            off.add(h.host_id)

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

    timing = config.timing
    if timing.controller_phase_s >= scan:
        problems.append("timing: controller_phase_s must be in [0, scan_period_s)")

    # Jitter must stay below every nominal duration it can apply to,
    # including the default profile used for physical host boots.
    boot, install = DEFAULT_PROFILE.boot_total_s, DEFAULT_PROFILE.install_total_s
    for profile in config.profiles.values():
        boot, install = min(boot, profile.boot_total_s), min(install, profile.install_total_s)
    if timing.boot_jitter_s >= boot:
        problems.append("timing: boot_jitter_s must be below the shortest boot total")
    if timing.reinstall_jitter_s >= install:
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
