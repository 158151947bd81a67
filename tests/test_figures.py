"""Tests for the figure/table regeneration functions (tiny configurations:
these verify structure and sanity, not paper-scale numbers)."""

import pytest

from repro.experiments import figures
from repro.stats.timebreakdown import CATEGORIES as TIME_CATEGORIES
from repro.workloads import PAPER_ORDER

SMALL = ("sor",)
SMALL_CMPS = (2, 4)


def test_table1_reports_paper_values():
    table = figures.table1()
    assert table["BusTime"] == 30
    assert table["min local miss"] == 170
    assert table["min remote miss"] == 290


def test_table2_lists_all_nine_benchmarks():
    rows = figures.table2()
    assert [row["benchmark"] for row in rows] == list(PAPER_ORDER)
    assert all(row["paper size"] for row in rows)


def test_figure1_structure():
    data = figures.figure1(SMALL, SMALL_CMPS)
    assert set(data) == set(SMALL)
    assert set(data["sor"]) == set(SMALL_CMPS)
    assert all(v > 0 for v in data["sor"].values())


def test_figure4_speedups_positive_and_ordered():
    data = figures.figure4(SMALL, SMALL_CMPS)
    speedups = data["sor"]
    assert all(v > 0 for v in speedups.values())
    # more CMPs must help SOR at these small counts
    assert speedups[4] > speedups[2] * 0.8


def test_figure5_contains_all_series():
    data = figures.figure5(SMALL, (2,))
    row = data["sor"][2]
    assert set(row) == {"single", "double", "L1", "L0", "G1", "G0"}
    assert row["single"] == 1.0
    assert figures.best_policy(row) in ("L1", "L0", "G1", "G0")


def test_figure6_breakdowns_normalized_to_single():
    data = figures.figure6(SMALL, policies={"sor": "G1"})
    entry = data["sor"]
    assert entry["policy"] == "G1"
    for mode in ("S", "D", "R", "A"):
        assert set(entry[mode]) == set(TIME_CATEGORIES)
    assert sum(entry["S"].values()) == pytest.approx(100.0, abs=1.0)


def test_figure7_breakdowns_sum_to_one():
    data = figures.figure7(SMALL)
    for policy, kinds in data["sor"].items():
        for kind in ("read", "excl"):
            total = sum(kinds[kind].values())
            assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0


def test_figure9_percentages_bounded():
    data = figures.figure9(("sor",))
    row = data["sor"]
    assert 0 <= row["transparent_pct"] <= 100
    assert 0 <= row["upgraded_pct"] <= 100
    assert row["issued_pct"] == pytest.approx(
        row["transparent_pct"] + row["upgraded_pct"], abs=1e-6)


def test_figure10_has_three_configs():
    data = figures.figure10(("sor",))
    row = data["sor"]
    assert set(row) == {"prefetch", "prefetch+tl", "prefetch+tl+si",
                        "best_mode"}
    assert row["best_mode"] in ("single", "double")
    assert all(v > 0 for k, v in row.items() if k != "best_mode")


def test_render_two_level_table():
    text = figures.render({"a": {"x": 1.234, "y": 2}}, title="T")
    assert "T" in text and "1.23" in text and "x" in text


def test_render_flat_table():
    text = figures.render({"k": 3.14159})
    assert "3.14" in text


def test_render_empty():
    assert "(empty)" in figures.render({})


def test_cli_table_commands(capsys):
    from repro.experiments.__main__ import main
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "170" in out and "290" in out
    assert main(["table2"]) == 0


def test_cli_json_output(capsys):
    import json
    from repro.experiments.__main__ import main
    assert main(["table1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["MemTime"] == 50


def test_figure6_default_policy_sweep(monkeypatch):
    """Without an explicit policy map, figure6 finds the best policy by a
    mini Figure 5 sweep (run at a tiny CMP count here)."""
    monkeypatch.setitem(figures.COMPARISON_CMPS, "sor", 2)
    data = figures.figure6(("sor",))
    assert data["sor"]["policy"] in ("L1", "L0", "G1", "G0")


def test_figure9_and_10_respect_comparison_cmps(monkeypatch):
    monkeypatch.setitem(figures.COMPARISON_CMPS, "sor", 2)
    fig9 = figures.figure9(("sor",))
    assert "sor" in fig9
    fig10 = figures.figure10(("sor",))
    assert fig10["sor"]["best_mode"] in ("single", "double")


def test_cli_fig9_and_fig10_honour_workloads(monkeypatch):
    """``--workloads`` narrows Figures 9 and 10; without it they cover the
    Section 4 kernels."""
    from repro.experiments.__main__ import main
    seen = []

    def recorder(workloads=figures.SECTION4_WORKLOADS):
        seen.append(tuple(workloads))
        return {}

    monkeypatch.setattr(figures, "figure9", recorder)
    monkeypatch.setattr(figures, "figure10", recorder)
    for experiment in ("fig9", "fig10"):
        assert main([experiment, "--workloads", "sor", "--no-cache",
                     "--json"]) == 0
        assert main([experiment, "--no-cache", "--json"]) == 0
    assert seen == [("sor",), figures.SECTION4_WORKLOADS] * 2
