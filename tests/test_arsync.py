"""Tests for the A-R synchronization policies and the token protocol."""

import pytest

from repro.config import MachineConfig
from repro.slipstream.arsync import (G0, G1, L0, L1, POLICIES, ARSyncPolicy,
                                     policy_by_name)
from repro.slipstream.pair import SlipstreamPair
from repro.sim import Engine, Process, Timeout


def make_pair(engine, policy, **kw):
    return SlipstreamPair(engine, MachineConfig(n_cmps=2), 0, policy, **kw)


# ----------------------------------------------------------------------
# Policy definitions
# ----------------------------------------------------------------------
def test_the_four_paper_policies():
    assert L1.scope == "local" and L1.initial_tokens == 1
    assert L0.scope == "local" and L0.initial_tokens == 0
    assert G1.scope == "global" and G1.initial_tokens == 1
    assert G0.scope == "global" and G0.initial_tokens == 0
    assert len(POLICIES) == 4


def test_local_policies_insert_on_entry():
    assert L0.inserts_on_entry and L1.inserts_on_entry
    assert not G0.inserts_on_entry and not G1.inserts_on_entry


def test_policy_by_name_roundtrip():
    for policy in POLICIES:
        assert policy_by_name(policy.name) is policy
        assert policy_by_name(policy.name.lower()) is policy
    with pytest.raises(KeyError):
        policy_by_name("Z9")


def test_policy_validation():
    with pytest.raises(ValueError):
        ARSyncPolicy("bad", "sideways", 1)
    with pytest.raises(ValueError):
        ARSyncPolicy("bad", "local", -1)


# ----------------------------------------------------------------------
# Token protocol semantics (Figure 3)
# ----------------------------------------------------------------------
def consume(pair, log, tag):
    start = pair.engine.now
    yield from pair.a_consume_token()
    log.append((tag, pair.engine.now, pair.engine.now - start))


def test_initial_token_lets_a_skip_one_sync(engine):
    pair = make_pair(engine, L1)
    log = []
    Process(engine, consume(pair, log, "first"))
    engine.run()
    assert log == [("first", 0, 0)]
    assert pair.a_session == 1


def test_zero_token_blocks_until_r_enters(engine):
    pair = make_pair(engine, L0)
    log = []
    Process(engine, consume(pair, log, "first"))
    engine.schedule(500, pair.on_r_sync_enter)
    engine.run()
    assert log[0][1] == 500  # released exactly when R entered
    assert pair.a_token_waits == 1


def test_global_zero_token_waits_for_r_exit(engine):
    pair = make_pair(engine, G0)
    log = []
    Process(engine, consume(pair, log, "first"))

    def r_side():
        yield Timeout(100)
        pair.on_r_sync_enter()   # entry inserts nothing under G0
        yield Timeout(300)
        pair.on_r_sync_exit()    # exit inserts the token

    Process(engine, r_side())
    engine.run()
    assert log[0][1] == 400
    assert pair.r_session == 1


def test_one_token_global_allows_one_session_lead(engine):
    pair = make_pair(engine, G1)
    log = []

    def astream():
        yield from consume(pair, log, "s1")   # initial token
        yield from consume(pair, log, "s2")   # waits for R's first exit

    Process(engine, astream())
    engine.schedule(250, pair.on_r_sync_exit)
    engine.run()
    assert log[0][1] == 0
    assert log[1][1] == 250


def test_sessions_ahead_accounting(engine):
    pair = make_pair(engine, L1)
    Process(engine, consume(pair, [], "x"))
    engine.run()
    assert pair.a_sessions_ahead == 1
    pair.on_r_sync_exit()
    assert pair.a_sessions_ahead == 0


def test_token_insertion_counted(engine):
    pair = make_pair(engine, L0)
    pair.on_r_sync_enter()
    pair.on_r_sync_enter()
    assert pair.tokens_inserted == 2
    pair_g = make_pair(engine, G0)
    pair_g.on_r_sync_enter()
    assert pair_g.tokens_inserted == 0
    pair_g.on_r_sync_exit()
    assert pair_g.tokens_inserted == 1


# ----------------------------------------------------------------------
# Deviation predicate
# ----------------------------------------------------------------------
def test_deviation_requires_configured_lag(engine):
    pair = make_pair(engine, G0)
    assert pair.config.deviation_lag_sessions == 1
    # lockstep tie (A reached as many syncs as R completed): not deviated
    pair.r_session = 3
    pair.a_reached = 3
    assert not pair.deviated()
    # one full session behind: deviated
    pair.a_reached = 2
    assert pair.deviated()


def test_deviation_lag_configurable(engine):
    config = MachineConfig(n_cmps=2, deviation_lag_sessions=2)
    pair = SlipstreamPair(engine, config, 0, G0)
    pair.r_session = 3
    pair.a_reached = 2
    assert not pair.deviated()
    pair.a_reached = 1
    assert pair.deviated()


# ----------------------------------------------------------------------
# Input forwarding
# ----------------------------------------------------------------------
def test_input_forwarding_in_order(engine):
    pair = make_pair(engine, G1)
    pair.r_complete_input()
    assert pair.input_event(0).triggered
    assert not pair.input_event(1).triggered
    pair.r_complete_input()
    assert pair.input_event(1).triggered
    assert not pair.input_event(2).triggered
