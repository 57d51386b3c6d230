"""hasim: deterministic cluster simulator for escalating VM recovery.

A monitored cluster of physical hosts and virtual machines is driven by a
recovery controller that escalates reboot -> restart -> reinstall on failed
VMs and places restarted VMs on the least-loaded host under its load
threshold. The discrete-event engine injects failures and measures recovery
times; everything is reproducible from a seed.
"""

from .cluster import (
    ClusterState,
    PhysicalHost,
    PowerState,
    VirtualMachine,
    VmLifecycle,
    check_state_invariants,
    default_threshold,
    host_load,
)
from .config import (
    ClusterConfig,
    ConfigError,
    Scenario,
    load_cluster_config,
    load_scenario,
    parse_cluster_config,
)
from .controller import (
    Action,
    ControllerParams,
    EscalationRecord,
    HostView,
    Phase,
    VmInfo,
    choose_host,
    tick,
)
from .engine import (
    DESTRUCTIVE_CRASH,
    LOAD_SPIKE,
    NON_DESTRUCTIVE_CRASH,
    PHYSICAL_HOST_FAILURE,
    POWER_GLITCH,
    Episode,
    FailureInjection,
    KindStats,
    SimReport,
    Simulation,
    TimingParams,
    sample_duration,
    summarize,
)
from .presets import replicate_experiment
from .provisioning import BootProfile, Provisioner
from .telemetry import (
    Monitor,
    MonitorSnapshot,
    TelemetryParams,
    serialize_snapshot,
)

__version__ = "0.1.0"
