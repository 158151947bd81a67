"""Tests for machine configuration."""

import pytest

from repro.config import MachineConfig, TABLE1, scaled_config, water_config


def test_table1_defaults():
    config = TABLE1
    assert config.bus_time == 30
    assert config.pi_local_dc_time == 60
    assert config.pi_remote_dc_time == 10
    assert config.ni_remote_dc_time == 10
    assert config.ni_local_dc_time == 60
    assert config.net_time == 50
    assert config.mem_time == 50
    assert config.l1_size == 32 * 1024
    assert config.l2_size == 1024 * 1024


def test_paper_minimum_latencies():
    assert TABLE1.local_miss_cycles == 170
    assert TABLE1.remote_miss_cycles == 290


def test_water_config_uses_small_l2():
    config = water_config(n_cmps=8)
    assert config.l2_size == 128 * 1024
    assert config.n_cmps == 8


def test_scaled_config_shrinks_caches_only():
    config = scaled_config(4)
    assert config.l1_size == 4 * 1024
    assert config.l2_size == 64 * 1024
    assert config.local_miss_cycles == 170
    assert config.remote_miss_cycles == 290


def test_scaled_config_accepts_overrides():
    config = scaled_config(4, mem_time=99)
    assert config.mem_time == 99


def test_with_overrides_is_nondestructive():
    base = MachineConfig(n_cmps=4)
    derived = base.with_overrides(n_cmps=8, net_time=10)
    assert base.n_cmps == 4
    assert derived.n_cmps == 8
    assert derived.net_time == 10


def test_validation_rules():
    with pytest.raises(ValueError):
        MachineConfig(n_cmps=0)
    with pytest.raises(ValueError):
        MachineConfig(procs_per_cmp=4)
    with pytest.raises(ValueError):
        MachineConfig(line_size=48)
    with pytest.raises(ValueError):
        MachineConfig(page_size=3000)


#: out-of-range values a served spec could ask for
BAD_VALUES = [
    {"line_size": 0}, {"line_size": -64}, {"page_size": 0},
    {"l1_size": 0}, {"l2_size": -1024}, {"l1_size": 32},
    {"l1_assoc": 0}, {"l2_assoc": 0}, {"l2_assoc": -4}, {"l2_assoc": 3},
    {"l1_assoc": 1024},
    {"bus_time": -30}, {"mem_time": -1}, {"net_time": -1},
    {"pi_local_dc_time": -1}, {"ni_remote_dc_time": -1},
    {"port_data_occupancy": -1}, {"port_ctrl_occupancy": -8},
    {"lock_local_cycles": -1}, {"barrier_release_cycles": -100},
    {"l2_hit_cycles": -10}, {"si_drain_interval": -4},
    {"recovery_fork_cycles": -1}, {"input_forward_cycles": -20},
    {"deviation_lag_sessions": -1},
]


@pytest.mark.parametrize("bad", BAD_VALUES,
                         ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
def test_out_of_range_values_are_rejected(bad):
    with pytest.raises(ValueError):
        MachineConfig(**bad)


def test_boundary_values_are_accepted():
    config = MachineConfig(bus_time=0, deviation_lag_sessions=0,
                           l1_assoc=1, l2_assoc=16384, si_drain_interval=0)
    assert config.local_miss_cycles == 110
