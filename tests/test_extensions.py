"""Tests for the extensions beyond the paper's evaluated design:
event tracing, adaptive A-R policy, migratory-sharing optimization, and
replacement policies."""

import json

import pytest

from repro.config import MachineConfig, scaled_config
from repro.experiments.driver import run_mode
from repro.machine.system import System
from repro.memory.cache import Cache, SHARED
from repro.sim import Process
from repro.slipstream.adaptive import LADDER, AdaptiveController
from repro.slipstream.arsync import G0, G1, L0, L1, POLICIES
from repro.workloads import make
from repro.workloads.sor import SOR
from tests.conftest import tiny_config


def small_cfg(**kw):
    params = dict(n_cmps=2, l1_size=2048, l2_size=16384)
    params.update(kw)
    return MachineConfig(**params)


# ----------------------------------------------------------------------
# Event tracing
# ----------------------------------------------------------------------
def test_traced_run_captures_protocol_events(tmp_path):
    trace_path = tmp_path / "sor.json"
    run_mode(SOR(rows=32, cols=32, iterations=1), small_cfg(),
             "slipstream", si=True, trace_out=str(trace_path))
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert sum(1 for e in events if e.get("cat") == "txn") > 0


# ----------------------------------------------------------------------
# Adaptive A-R policy
# ----------------------------------------------------------------------
class _FakePair:
    def __init__(self, policy):
        self.policy = policy
        self.r_session = 0
        self.task_id = 0
        self.obs = None
        from repro.sim import Engine, SimSemaphore
        self.tokens = SimSemaphore(Engine(), initial=policy.initial_tokens)


class _FakeCtrl:
    def __init__(self):
        self.a_outcomes = {"timely": 0, "late": 0, "only": 0}


def make_controller(policy=G1, **kw):
    pair = _FakePair(policy)
    ctrl = _FakeCtrl()
    controller = AdaptiveController(pair, ctrl, interval=1, min_samples=10,
                                    **kw)
    return pair, ctrl, controller


def test_ladder_order_is_loosest_to_tightest():
    assert LADDER == (L1, G1, L0, G0)


def test_high_only_rate_tightens():
    pair, ctrl, controller = make_controller(policy=G1)
    ctrl.a_outcomes.update(timely=2, late=2, only=6)
    controller.on_session_end()
    assert pair.policy is L0
    assert controller.switches == 1
    assert controller.history[0].from_policy == "G1"


def test_high_late_rate_loosens():
    pair, ctrl, controller = make_controller(policy=L0)
    ctrl.a_outcomes.update(timely=2, late=8, only=0)
    controller.on_session_end()
    assert pair.policy is G1


def test_balanced_outcomes_hold_policy():
    pair, ctrl, controller = make_controller(policy=G1)
    ctrl.a_outcomes.update(timely=8, late=1, only=1)
    controller.on_session_end()
    assert pair.policy is G1
    assert controller.switches == 0


def test_insufficient_samples_hold_policy():
    pair, ctrl, controller = make_controller(policy=G1)
    ctrl.a_outcomes.update(only=5)  # below min_samples
    controller.on_session_end()
    assert pair.policy is G1


def test_ladder_saturates_at_both_ends():
    pair, ctrl, controller = make_controller(policy=G0)
    ctrl.a_outcomes.update(only=20)
    controller.on_session_end()
    assert pair.policy is G0  # already tightest

    pair, ctrl, controller = make_controller(policy=L1)
    ctrl.a_outcomes.update(late=20)
    controller.on_session_end()
    assert pair.policy is L1  # already loosest


def test_token_depth_adjusts_on_switch():
    pair, ctrl, controller = make_controller(policy=G1)  # 1 token banked
    ctrl.a_outcomes.update(only=20)
    controller.on_session_end()        # G1 -> L0: depth 1 -> 0
    assert pair.policy is L0
    assert pair.tokens.count == 0


def test_adaptive_run_end_to_end():
    result = run_mode(make("ocean"), scaled_config(4), "slipstream",
                      policy=L1, adaptive=True)
    assert result.final_policies is not None
    assert result.policy_switches >= 0
    assert result.exec_cycles > 0


def test_adaptive_policy_competes_with_static_policies():
    """Chosen online with no oracle, the adaptive policy stays within 15%
    of the best static policy and never falls 2% below the worst one
    (ocean@8; see the known limitation in repro.slipstream.adaptive)."""
    def cycles(**kwargs):
        return run_mode(make("ocean"), scaled_config(8), "slipstream",
                        **kwargs).exec_cycles

    static = [cycles(policy=policy) for policy in POLICIES]
    adaptive = cycles(policy=L1, adaptive=True)
    # speedup over single mode is single / cycles, so "speedup above 85%
    # of the best" is "cycles below the best's cycles / 0.85"
    assert adaptive < min(static) / 0.85
    assert adaptive <= max(static) / 0.98


# ----------------------------------------------------------------------
# Migratory-sharing optimization
# ----------------------------------------------------------------------
def test_migratory_grant_after_threshold():
    system = System(tiny_config(n_cmps=2))
    system.fabric.migratory_enabled = True
    line = next(l for l in range(0, 4096 * 8, 64)
                if system.space.home_of_line(l) == 0)

    def migrate():
        # writer ping-pong establishes the migratory history (2 transfers)
        yield from system.fabric.fetch(0, line, "excl", "R")
        system.nodes[0].ctrl.l2.insert(line, "M")
        yield from system.fabric.fetch(1, line, "excl", "R")
        system.nodes[1].ctrl.l2.insert(line, "M")
        yield from system.fabric.fetch(0, line, "excl", "R")
        system.nodes[0].ctrl.l2.insert(line, "M")
        # the next *read* now gets exclusive ownership directly
        result = yield from system.fabric.fetch(1, line, "read", "R")
        return result

    process = Process(system.engine, migrate())
    system.engine.run()
    assert process.result.state == "M"
    assert system.fabric.migratory_grants == 1


def test_no_migratory_grant_when_disabled():
    result = run_mode(make("water-ns"), scaled_config(2), "single")
    assert result.fabric_stats["migratory_grants"] == 0


def test_migratory_speeds_up_lock_kernel():
    cfg = scaled_config(8)
    base = run_mode(make("water-ns"), cfg, "single").exec_cycles
    opt = run_mode(make("water-ns"), cfg, "single",
                   migratory=True)
    assert opt.fabric_stats["migratory_grants"] > 0
    assert opt.exec_cycles < base


# ----------------------------------------------------------------------
# Replacement policies
# ----------------------------------------------------------------------
def test_fifo_replacement_ignores_recency():
    cache = Cache(2 * 64, 2, 64, policy="fifo")  # 1 set, 2 ways
    cache.insert(0, SHARED)
    cache.insert(1, SHARED)
    cache.lookup(0)          # touch 0 (would save it under LRU)
    cache.insert(2, SHARED)
    assert cache.probe(0) is None       # FIFO evicted the oldest insert
    assert cache.probe(1) is not None


def test_random_replacement_is_deterministic_per_seed():
    def evict_sequence(seed):
        cache = Cache(2 * 64, 2, 64, policy="random", seed=seed)
        victims = []
        cache.on_evict = lambda line: victims.append(line.line_addr)
        for addr in range(10):
            cache.insert(addr, SHARED)
        return victims

    assert evict_sequence(1) == evict_sequence(1)
    assert evict_sequence(1) != evict_sequence(2) or True  # may collide


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        Cache(128, 2, 64, policy="plru")
    # config-level validation happens at cache construction time
    config = MachineConfig(n_cmps=1, replacement_policy="bogus")
    with pytest.raises(ValueError):
        System(config)


def test_replacement_policy_plumbs_through_config():
    system = System(tiny_config(replacement_policy="fifo"))
    assert system.nodes[0].ctrl.l2.policy == "fifo"
    assert system.nodes[0].ctrl.l1s[0].policy == "fifo"
