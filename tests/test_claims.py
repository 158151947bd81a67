"""Tests for the paper-claims checker (synthetic data; no simulation)."""

import json

import pytest

from repro.experiments.claims import CLAIMS, check_all, check_file
from repro.experiments.figures import SECTION4_WORKLOADS
from repro.stats.classify import CATEGORIES as REQUEST_CLASSES


def healthy_raw():
    """A minimal raw-results dict that satisfies every claim."""
    names = ("cg", "fft", "lu", "mg", "ocean", "sor", "sp", "water-ns",
             "water-sp")
    fig1 = {n: {2: 1.8, 16: 1.0} for n in names}
    fig4 = {n: {2: 2.0, 4: 3.0, 8: 3.9, 16: 6.0} for n in names}
    fig4["fft"] = {4: 1.6, 8: 2.0, 16: 2.5}

    def cell(best_policy_value, double, rest=1.0):
        return {"single": 1.0, "double": double, "L1": best_policy_value,
                "L0": rest, "G1": rest, "G0": rest + 0.01}

    fig5 = {}
    for name in names:
        if name in ("lu", "water-sp"):
            fig5[name] = {16: cell(1.1, 1.5, rest=0.9)}
        elif name == "fft":
            fig5[name] = {4: cell(1.2, 1.3)}
        else:
            fig5[name] = {16: cell(1.25, 0.9)}
    # give one benchmark a different winner so "no consistent winner" holds
    fig5["ocean"][16]["G0"] = 1.4

    bars = {"S": dict(busy=30, stall=40, barrier=20, lock=10, arsync=0),
            "D": dict(busy=15, stall=55, barrier=25, lock=5, arsync=0),
            "R": dict(busy=30, stall=30, barrier=18, lock=8, arsync=0),
            "A": dict(busy=30, stall=28, barrier=0, lock=0, arsync=12)}
    fig6 = {n: {k: dict(v) for k, v in bars.items()} for n in names}

    read = dict(a_timely=0.3, a_late=0.4, a_only=0.1, r_timely=0.2,
                r_late=0.0, r_only=0.0)
    fig7 = {n: {p: {"read": dict(read), "excl": dict(read)}
                for p in ("L1", "L0", "G1", "G0")} for n in names}

    # the mean issue rate sits just inside fig9's band, so one kernel's
    # rate can push it out
    fig9 = {n: {"issued_pct": 5.5, "transparent_pct": 3.5,
                "upgraded_pct": 2.0, "transparent_share": 0.64}
            for n in SECTION4_WORKLOADS}
    fig10 = {n: {"prefetch": 1.1, "prefetch+tl": 1.05,
                 "prefetch+tl+si": 1.12, "best_mode": "single"}
             for n in SECTION4_WORKLOADS}
    fig10["mg"]["prefetch+tl"] = 1.0  # TL hurts a prefetch kernel

    return {"fig1": fig1, "fig4": fig4, "fig5": fig5, "fig6": fig6,
            "fig7": fig7, "fig9": fig9, "fig10": fig10}


def _partition(**shares):
    """A six-class request breakdown: ``shares``, zero elsewhere."""
    return {c: shares.get(c, 0.0) for c in REQUEST_CLASSES}


#: (claim key, path into healthy_raw(), new value): each one-value
#: mutation must fail exactly that claim
MUTATIONS = [
    ("fig1.double-erodes", ("fig1", "sor", 16), 1.9),
    ("fig1.double-below-ideal", ("fig1", "lu", 16), 2.0),
    ("fig4.scaling-group", ("fig4", "lu", 2), 5.0),
    ("fig4.scaling-group", ("fig4", "lu", 16), 4.0),
    ("fig4.diminishing-group", ("fig4", "ocean", 16), 7.0),
    ("fig4.fft-limited", ("fig4", "fft", 16), 3.0),
    ("fig5.double-kernels", ("fig5", "lu", 16, "L1"), 0.95),
    ("fig5.fft-beats-single", ("fig5", "fft", 4, "L1"), 1.05),
    ("fig6.low-stall-kernels", ("fig6", "lu", "S", "stall"), 70),
    ("fig6.locks-on-r-only", ("fig6", "cg", "A", "lock"), 1),
    ("fig6.double-halves-busy", ("fig6", "sor", "D", "busy"), 20),
    ("fig7.partition", ("fig7", "mg", "G1", "excl", "a_only"), 0.5),
    ("fig7.tight-sync-exclusive", ("fig7", "sor", "G0", "excl"),
     _partition(a_only=1.0)),
    ("fig7.r-only-small", ("fig7", "sor", "L1", "read"),
     _partition(a_timely=0.8, r_only=0.2)),
    ("fig9.issue-band", ("fig9", "sor", "issued_pct"), 0.5),
]


def test_all_claims_pass_on_healthy_data():
    results = check_all(healthy_raw())
    assert all(r.passed for r in results), [str(r) for r in results]
    assert len(results) == len(CLAIMS)


def test_slipstream_win_claim_fails_when_double_wins():
    raw = healthy_raw()
    raw["fig5"]["sor"][16]["double"] = 2.0
    failures = {r.claim.key for r in check_all(raw) if not r.passed}
    assert "fig5.slipstream-wins" in failures


def test_arsync_claim_fails_on_polluted_bars():
    raw = healthy_raw()
    raw["fig6"]["sor"]["S"]["arsync"] = 5
    failures = {r.claim.key for r in check_all(raw) if not r.passed}
    assert "fig6.arsync-on-astream" in failures


def test_partition_claim_fails_on_bad_fractions():
    raw = healthy_raw()
    raw["fig7"]["sor"]["L1"]["read"]["a_timely"] = 0.9  # sums to 1.6
    failures = {r.claim.key for r in check_all(raw) if not r.passed}
    assert "fig7.partition" in failures


@pytest.mark.parametrize("key,path,value", MUTATIONS,
                         ids=[f"{key}:{'/'.join(map(str, path))}"
                              for key, path, _ in MUTATIONS])
def test_one_value_mutation_fails_exactly_its_claim(key, path, value):
    raw = healthy_raw()
    *parents, leaf = path
    target = raw
    for step in parents:
        target = target[step]
    target[leaf] = value
    failures = {r.claim.key for r in check_all(raw) if not r.passed}
    assert failures == {key}


def test_missing_data_is_a_failure_not_a_crash():
    results = check_all({"fig1": {}})
    assert any(not r.passed and "missing data" in r.detail for r in results)
    raw = healthy_raw()
    raw["fig9"] = {}  # an empty series has no mean issue rate
    failed = {r.claim.key: r.detail for r in check_all(raw) if not r.passed}
    assert list(failed) == ["fig9.issue-band"]
    assert "missing data" in failed["fig9.issue-band"]


def test_string_keys_accepted_like_json_roundtrip():
    raw = json.loads(json.dumps(healthy_raw()))  # int keys -> strings
    results = check_all(raw)
    assert all(r.passed for r in results), [str(r) for r in results]


def test_check_file_roundtrip(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(healthy_raw()))
    results = check_file(str(path))
    assert all(r.passed for r in results)


def test_result_string_format():
    results = check_all(healthy_raw())
    assert str(results[0]).startswith("[PASS]")


def test_real_sweep_results_satisfy_all_claims():
    """The repository ships with a generated results_raw.json; the claims
    must hold against it (this is the reproduction's acceptance test)."""
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "results_raw.json"
    if not path.exists():
        pytest.skip("results_raw.json not generated")
    results = check_file(str(path))
    assert all(r.passed for r in results), [str(r) for r in results
                                            if not r.passed]
