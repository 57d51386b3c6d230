"""Network-boot provisioning model: boot profiles and the MAC-to-boot-mode map.

A machine booting over the network is steered by its MAC address: either it
boots its local disk (a plain reboot) or it runs a full installation of the
profile bound to that MAC. Binding a MAC to an install profile is the
mechanism behind the reinstall intervention; the binding is one-shot and
reverts to local boot when the installation completes.
"""

from __future__ import annotations

from dataclasses import dataclass

LOCAL_BOOT = "local"
INSTALL = "install"


@dataclass(frozen=True)
class BootProfile:
    """Nominal durations (seconds) of the boot and install segments.

    A local boot is pxe_setup_s + boot_s. An installation is pxe_setup_s +
    install_s followed by a full local boot cycle, so its nominal total is
    pxe_setup_s + install_s + (pxe_setup_s + boot_s).
    """

    name: str
    pxe_setup_s: int = 10
    boot_s: int = 70
    install_s: int = 352

    def local_boot_plan(self) -> list[int]:
        return [self.pxe_setup_s, self.boot_s]

    def install_plan(self) -> list[int]:
        # Trailing segment is a full boot cycle: the freshly installed
        # machine bootstraps through the network path again.
        return [self.pxe_setup_s, self.install_s, self.pxe_setup_s + self.boot_s]


DEFAULT_PROFILE = BootProfile(name="default")


class UnknownProfileError(KeyError):
    pass


@dataclass(frozen=True)
class BootPlan:
    mode: str  # LOCAL_BOOT or INSTALL
    profile: str
    segments: list[int]

    @property
    def total_s(self) -> int:
        return sum(self.segments)


class Provisioner:
    """Boot-mode bookkeeping for all MACs in the cluster.

    `assignments` gives each MAC its default profile (used for local boots
    and as the fallback for unknown MACs via DEFAULT_PROFILE).
    """

    def __init__(self, profiles: dict[str, BootProfile] | None = None,
                 assignments: dict[str, str] | None = None):
        self.profiles = dict(profiles or {})
        self.assignments = dict(assignments or {})
        self.bindings: dict[str, str] = {}  # mac -> profile name, present iff install-bound

    def bind_install(self, mac: str, profile_name: str) -> None:
        """Point the MAC at an installation; overwrites any prior mode."""
        if profile_name not in self.profiles:
            raise UnknownProfileError(f"unknown profile '{profile_name}'")
        self.bindings[mac] = profile_name

    def boot_outcome(self, mac: str) -> BootPlan:
        """Mode and duration plan for the next boot of this MAC."""
        bound = self.bindings.get(mac)
        if bound is not None:
            profile = self.profiles[bound]
            return BootPlan(INSTALL, bound, profile.install_plan())
        name = self.assignments.get(mac)
        profile = DEFAULT_PROFILE if name is None else self.profiles[name]
        return BootPlan(LOCAL_BOOT, profile.name, profile.local_boot_plan())

    def complete_install(self, mac: str) -> None:
        """One-shot revert: a finished installation clears the binding."""
        self.bindings.pop(mac, None)
