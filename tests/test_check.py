"""Negative tests for the invariant sanitizer: seeded corruption must
be *detected*, not tolerated.

The fuzz/figure runs prove the checkers stay silent on a healthy
simulator; these prove they would actually fire on a broken one, by
corrupting directory entries, cache contents, and token bookkeeping by
hand and asserting :class:`InvariantViolation` is raised.
"""

import pytest

from repro.check import (CheckerSuite, InvariantViolation,
                         directory_entry_errors, token_accounting_errors,
                         token_lead_bound, token_lead_errors)
from repro.check.suite import CONTEXT_EVENTS
from repro.config import scaled_config
from repro.machine.system import System
from repro.memory.cache import CacheLine, MODIFIED, SHARED as L2_SHARED
from repro.memory.directory import DirectoryEntry, EXCLUSIVE, SHARED
from repro.sim import Engine
from repro.slipstream.arsync import G0, G1, L0, L1
from repro.slipstream.pair import SlipstreamPair


def checked_system(n_cmps: int = 2) -> System:
    return System(scaled_config(n_cmps), check=True)


# ----------------------------------------------------------------------
# Pure predicates
# ----------------------------------------------------------------------
def test_fresh_entry_is_clean():
    assert directory_entry_errors(DirectoryEntry()) == []


def test_exclusive_without_owner_detected():
    entry = DirectoryEntry()
    entry.state = EXCLUSIVE
    entry.owner = None
    assert directory_entry_errors(entry)


def test_shared_with_owner_detected():
    entry = DirectoryEntry()
    entry.add_sharer(1)
    entry.owner = 0
    assert directory_entry_errors(entry)


def test_uncached_with_sharers_detected():
    entry = DirectoryEntry()
    entry.add_sharer(2)
    entry.state = "U"
    assert directory_entry_errors(entry)


def test_out_of_range_sharer_detected():
    entry = DirectoryEntry()
    entry.add_sharer(7)
    assert directory_entry_errors(entry, n_nodes=4)
    assert directory_entry_errors(entry, n_nodes=8) == []


def test_token_lead_bounds_by_policy():
    assert token_lead_bound(L1) == 2   # one token + the entry insertion
    assert token_lead_bound(L0) == 1
    assert token_lead_bound(G1) == 1
    assert token_lead_bound(G0) == 0


def test_token_accounting_detects_leak():
    # consistent: count == initial + inserted - consumed
    assert token_accounting_errors(G1, 3, 2, 2) == []
    assert token_accounting_errors(G1, 3, 2, 3)      # conjured token
    assert token_accounting_errors(G1, 0, 2, 0)      # consumed > supply
    assert token_accounting_errors(G1, 0, 0, -1)     # negative count


def test_token_lead_errors_detect_runaway_astream():
    assert token_lead_errors(G0, a_session=0, r_session=0) == []
    assert token_lead_errors(G0, a_session=1, r_session=0)
    assert token_lead_errors(L1, a_session=5, r_session=2)


# ----------------------------------------------------------------------
# Directory corruption caught by the final audit
# ----------------------------------------------------------------------
def test_drain_audit_detects_corrupt_entry():
    system = checked_system()
    entry = system.fabric.directory.entry(0x123)
    entry.state = EXCLUSIVE     # exclusive with no owner
    entry.owner = None
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_drain(system.engine.now)
    assert excinfo.value.check == "directory"


def test_drain_audit_detects_phantom_sharer():
    system = checked_system()
    entry = system.fabric.directory.entry(0x200)
    entry.add_sharer(1)         # node 1 never cached the line
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_drain(system.engine.now)
    assert excinfo.value.check == "agreement"


def test_drain_audit_detects_untracked_modified_copy():
    system = checked_system()
    system.nodes[0].ctrl.l2.insert(0x300, MODIFIED)
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_drain(system.engine.now)
    assert excinfo.value.check == "agreement"


def test_drain_audit_detects_inclusion_violation():
    system = checked_system()
    system.nodes[0].ctrl.l1s[0].insert(0x400, L2_SHARED)  # L1 only, no L2
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_drain(system.engine.now)
    assert excinfo.value.check == "inclusion"


def test_clean_system_drains_quietly():
    system = checked_system()
    system.checker.on_drain(system.engine.now)  # must not raise


# ----------------------------------------------------------------------
# Slipstream-semantics hooks
# ----------------------------------------------------------------------
def test_astream_store_commit_detected():
    system = checked_system()
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_store(0, "A")
    assert excinfo.value.check == "slipstream"
    system.checker.on_store(0, "R")  # R-stream stores are fine


def test_violation_carries_recent_context_events():
    system = checked_system()
    system.obs.publish("txn", "node0", "read line=0x40")
    system.obs.publish("cpu.wait", "cpu[0.0]", bucket="stall", cycles=5)
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_store(0, "A")
    assert excinfo.value.events == ((0, "txn", "node0", "read line=0x40"),)
    assert "txn          node0 read line=0x40" in str(excinfo.value)


def test_violation_context_keeps_the_last_events():
    system = checked_system()
    engine = system.engine
    for cycle in range(1, CONTEXT_EVENTS + 4):
        engine.schedule(cycle, lambda: system.obs.publish("recovery",
                                                          "pair0"))
    engine.run()
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_store(0, "A")
    times = [event[0] for event in excinfo.value.events]
    assert times == list(range(4, CONTEXT_EVENTS + 4))


def test_transparent_modified_fill_detected():
    system = checked_system()
    cacheline = CacheLine(0x500, MODIFIED)
    cacheline.transparent = True
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.on_fill(0, 0x500, cacheline)
    assert excinfo.value.check == "fill"


def test_transparent_issue_without_support_detected():
    engine = Engine()
    checker = CheckerSuite(engine)
    engine.install_checker(checker)
    pair = SlipstreamPair(engine, scaled_config(2), 0, G1, tl_enabled=False)
    with pytest.raises(InvariantViolation) as excinfo:
        checker.on_transparent_issue(pair, cs_depth=0)
    assert excinfo.value.check == "transparent"


def test_in_session_transparent_load_detected():
    engine = Engine()
    checker = CheckerSuite(engine)
    engine.install_checker(checker)
    pair = SlipstreamPair(engine, scaled_config(2), 0, G1, tl_enabled=True)
    # same session, not in a critical section: must not be transparent
    with pytest.raises(InvariantViolation):
        checker.on_transparent_issue(pair, cs_depth=0)
    checker.on_transparent_issue(pair, cs_depth=1)  # in-CS is legal


# ----------------------------------------------------------------------
# Token bookkeeping hooks
# ----------------------------------------------------------------------
def drive(generator):
    """Exhaust a (possibly empty) sim generator synchronously."""
    for _ in generator:
        pass


def test_conjured_token_detected():
    engine = Engine()
    checker = CheckerSuite(engine)
    engine.install_checker(checker)
    pair = SlipstreamPair(engine, scaled_config(2), 0, L1)
    pair.tokens.release(3)      # corrupt: tokens nobody inserted
    with pytest.raises(InvariantViolation) as excinfo:
        pair.insert_token()
    assert excinfo.value.check == "tokens"


def test_over_consumption_detected():
    engine = Engine()
    checker = CheckerSuite(engine)
    engine.install_checker(checker)
    pair = SlipstreamPair(engine, scaled_config(2), 0, L1)
    pair.tokens.release(3)      # let the A-stream run away
    with pytest.raises(InvariantViolation) as excinfo:
        for _ in range(3):
            drive(pair.a_consume_token())
    assert excinfo.value.check == "tokens"


def test_legal_token_protocol_stays_quiet():
    engine = Engine()
    checker = CheckerSuite(engine)
    engine.install_checker(checker)
    pair = SlipstreamPair(engine, scaled_config(2), 0, G1)
    for _ in range(5):          # steady-state: R inserts, A consumes
        drive(pair.a_consume_token())
        pair.on_r_sync_exit()
    assert checker.checks["tokens"] == 10
