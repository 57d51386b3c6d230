"""Boot profile plans and MAC binding semantics."""

import pytest

from hasim.config import ConfigError, parse_cluster_config
from hasim.provisioning import (
    INSTALL,
    LOCAL_BOOT,
    BootProfile,
    Provisioner,
    UnknownProfileError,
)


@pytest.fixture
def prov():
    return Provisioner(
        profiles={"compute": BootProfile("compute")},
        assignments={"52:54:00:00:00:01": "compute"},
    )


def test_local_boot_nominal_total_is_80(prov):
    plan = prov.boot_outcome("52:54:00:00:00:01")
    assert plan.mode == LOCAL_BOOT
    assert plan.segments == [10, 70]
    assert plan.total_s == 80


def test_install_nominal_total_is_442(prov):
    prov.bind_install("52:54:00:00:00:01", "compute")
    plan = prov.boot_outcome("52:54:00:00:00:01")
    assert plan.mode == INSTALL
    # Setup, installation, then a full boot cycle.
    assert plan.segments == [10, 352, 80]
    assert plan.total_s == 442


def test_unknown_mac_defaults_to_local_boot(prov):
    plan = prov.boot_outcome("aa:bb:cc:dd:ee:ff")
    assert plan.mode == LOCAL_BOOT
    assert plan.total_s == 80


def test_bind_is_idempotent(prov):
    prov.bind_install("52:54:00:00:00:01", "compute")
    before = dict(prov.bindings)
    prov.bind_install("52:54:00:00:00:01", "compute")
    assert prov.bindings == before


def test_bind_unknown_profile_names_offender(prov):
    with pytest.raises(UnknownProfileError) as exc:
        prov.bind_install("52:54:00:00:00:01", "nope")
    assert "nope" in str(exc.value)


def test_one_shot_install_reverts_to_local(prov):
    mac = "52:54:00:00:00:01"
    prov.bind_install(mac, "compute")
    modes = []
    for _ in range(2):
        plan = prov.boot_outcome(mac)
        modes.append(plan.mode)
        if plan.mode == INSTALL:
            prov.complete_install(mac)
    assert modes == [INSTALL, LOCAL_BOOT]


def test_plans_strictly_positive_and_sum():
    for profile in (BootProfile("a"), BootProfile("b", 5, 40, 100)):
        for plan in (profile.local_boot_plan(), profile.install_plan()):
            assert all(seg > 0 for seg in plan)
        assert sum(profile.local_boot_plan()) == profile.pxe_setup_s + profile.boot_s
        assert sum(profile.install_plan()) == (
            2 * profile.pxe_setup_s + profile.install_s + profile.boot_s)


def test_profile_validation():
    # Profile durations are range-checked where profiles are read.
    with pytest.raises(ConfigError) as exc:
        parse_cluster_config({"profiles": {"bad": {"pxe_setup_s": 0}, "good": {}}})
    assert exc.value.problems == ["profiles['bad'].pxe_setup_s: must be >= 1"]
    config = parse_cluster_config({"profiles": {"good": {}}})
    assert config.profiles == {"good": BootProfile("good")}
