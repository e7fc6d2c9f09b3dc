"""Tests for the software prefetch scheme definitions."""

import pytest

from repro.trace.swp import (
    IP_SWP,
    MT_SWP,
    NO_SWP,
    REGISTER_SWP,
    SCHEMES,
    STRIDE_SWP,
    SoftwarePrefetchConfig,
)


def test_named_schemes_flags():
    assert not NO_SWP.any_enabled
    assert REGISTER_SWP.register and not REGISTER_SWP.stride
    assert STRIDE_SWP.stride and not STRIDE_SWP.ip
    assert IP_SWP.ip and not IP_SWP.stride
    assert MT_SWP.stride and MT_SWP.ip and not MT_SWP.register


def test_scheme_registry_complete():
    assert set(SCHEMES) == {"none", "register", "stride", "ip", "mt-swp"}
    assert SCHEMES["mt-swp"] is MT_SWP


def test_describe():
    assert NO_SWP.describe() == "none"
    assert MT_SWP.describe() == "stride+ip"
    assert SoftwarePrefetchConfig(register=True, ip=True).describe() == "register+ip"


def test_configs_are_hashable_and_frozen():
    {MT_SWP: 1}
    with pytest.raises(Exception):
        MT_SWP.stride = False


def test_default_ip_warp_distance_matches_paper():
    """Fig. 4's tid + 32 idiom: one warp ahead."""
    assert MT_SWP.ip_warp_distance == 1
