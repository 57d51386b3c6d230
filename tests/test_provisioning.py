"""Boot profile totals and MAC binding semantics."""

import pytest

from hasim.config import ConfigError, parse_cluster_config
from hasim.provisioning import INSTALL, LOCAL_BOOT, BootProfile, Provisioner

MAC = "52:54:00:00:00:01"


@pytest.fixture
def prov():
    return Provisioner({"compute": BootProfile()})


def test_local_boot_nominal_total_is_80(prov):
    assert prov.boot_outcome(MAC, "compute") == (LOCAL_BOOT, 80)


def test_install_nominal_total_is_442(prov):
    prov.bind_install(MAC)
    # Setup, installation, then a full boot cycle.
    assert prov.boot_outcome(MAC, "compute") == (INSTALL, 10 + 352 + 80)


def test_bind_is_idempotent(prov):
    prov.bind_install(MAC)
    before = set(prov.bindings)
    prov.bind_install(MAC)
    assert prov.bindings == before


def test_one_shot_install_reverts_to_local(prov):
    prov.bind_install(MAC)
    modes = []
    for _ in range(2):
        mode, _ = prov.boot_outcome(MAC, "compute")
        modes.append(mode)
        if mode == INSTALL:
            prov.complete_install(MAC)
    assert modes == [INSTALL, LOCAL_BOOT]


def test_plans_strictly_positive_and_sum():
    for profile in (BootProfile(), BootProfile(5, 40, 100)):
        assert profile.boot_total_s == profile.pxe_setup_s + profile.boot_s > 0
        assert profile.install_total_s == (
            2 * profile.pxe_setup_s + profile.install_s + profile.boot_s)


def test_profile_validation():
    # Profile durations are range-checked where profiles are read.
    with pytest.raises(ConfigError) as exc:
        parse_cluster_config({"profiles": {"bad": {"pxe_setup_s": 0}, "good": {}}})
    assert exc.value.problems == ["profiles['bad'].pxe_setup_s: must be >= 1"]
    config = parse_cluster_config({"profiles": {"good": {}}})
    assert config.profiles == {"good": BootProfile()}
