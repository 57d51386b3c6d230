"""Network-boot provisioning model: boot profiles and the MAC-to-boot-mode map.

A machine booting over the network is steered by its MAC address: either it
boots its local disk (a plain reboot) or it runs a full installation of its
boot profile. Binding a MAC to an installation is the mechanism behind the
reinstall intervention; the binding is one-shot and reverts to local boot
when the installation completes.
"""

from __future__ import annotations

from dataclasses import dataclass

LOCAL_BOOT = "local"
INSTALL = "install"


@dataclass(frozen=True)
class BootProfile:
    """Nominal durations (seconds) of the boot and install segments; a
    profile is named by its key in the cluster's `profiles`."""

    pxe_setup_s: int = 10
    boot_s: int = 70
    install_s: int = 352

    @property
    def boot_total_s(self) -> int:
        return self.pxe_setup_s + self.boot_s

    @property
    def install_total_s(self) -> int:
        # Setup and installation, then a full boot cycle: the freshly
        # installed machine bootstraps through the network path again.
        return self.pxe_setup_s + self.install_s + self.boot_total_s


DEFAULT_PROFILE = BootProfile()


class Provisioner:
    """Boot-mode bookkeeping: the set of MACs bound to an installation."""

    def __init__(self, profiles: dict[str, BootProfile]):
        self.profiles = profiles
        self.bindings: set[str] = set()

    def bind_install(self, mac: str) -> None:
        """Point the MAC at an installation of its profile."""
        self.bindings.add(mac)

    def boot_outcome(self, mac: str, profile: str) -> tuple[str, int]:
        """Mode and nominal duration of this MAC's next boot under `profile`."""
        if mac in self.bindings:
            return INSTALL, self.profiles[profile].install_total_s
        return LOCAL_BOOT, self.profiles[profile].boot_total_s

    def complete_install(self, mac: str) -> None:
        """One-shot revert: a finished installation clears the binding."""
        self.bindings.discard(mac)
