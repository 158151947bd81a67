"""Self-tests of the benchmark: ``pytest benchmarks/slipbench``.

The smoke fixture runs every workload at tiny sizes, untraced and
traced, exactly as the command line does (about a minute on 2 CPUs).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from . import HERE, ROOT, inputs, layers, stats
from .gate import Gate, load_expected, spec_key
from .harness import child_env
from .workloads import FigBatch

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "-m", "benchmarks.slipbench",
                           *args], cwd=cwd, env=child_env(), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``run --smoke`` untraced and traced: {"untraced"|"traced": report}."""
    reports = {}
    for kind, extra in (("untraced", ()), ("traced", ("--traced",))):
        path = tmp_path_factory.mktemp(kind) / "report.json"
        out = path.parent / "out"
        proc = run_cli("run", "--smoke", "--seconds", "1", "--json",
                       str(path), "--out", str(out), *extra)
        assert proc.returncode == 0, proc.stderr[-3000:]
        reports[kind] = json.loads(path.read_text())
        reports[kind]["out"] = out
    return reports


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_other_inputs():
    def draw(seed):
        return (inputs.panel_specs(inputs.fig_panel(seed)),
                *inputs.serve_load(seed, 20))

    assert draw(2003) == draw(2003)
    for a, b in zip(draw(2003), draw(7)):
        assert a != b

    from repro.workloads import Fuzz
    fingerprint = lambda seed: Fuzz(**inputs.fuzz_params(seed)).fingerprint()  # noqa: E731
    assert fingerprint(2003) == fingerprint(2003)
    assert fingerprint(2003) != fingerprint(7)


def test_expected_digests_cover_every_drawable_input():
    expected = load_expected()
    for seed in range(50):
        ui, sweeps = inputs.serve_load(seed, 20)
        drawn = (inputs.panel_specs(inputs.fig_panel(seed))
                 + inputs.panel_specs(inputs.fig_panel(seed, smoke=True))
                 + ui + [spec for batch in sweeps for spec in batch])
        assert all(spec_key(spec) in expected for spec in drawn)
    assert spec_key(inputs.MICRO_SPEC) in expected
    for seed in inputs.RECORDED_FUZZ_SEEDS:
        for protocol, si in inputs.FUZZ_PAIR:
            assert inputs.fuzz_key(inputs.fuzz_params(seed), protocol,
                                   si) in expected


# ----------------------------------------------------------------------
# Names and units
# ----------------------------------------------------------------------
def test_benchmark_json_declares_every_layer_metric_once():
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "micro-ocean", "fuzz-share", "fig-batch", "serve-mix"]


def test_emitted_names_are_declared_with_units(smoke):
    for kind, declared_kind in (("untraced", "end_to_end"),
                                ("traced", "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[declared_kind]}
        workloads = smoke[kind]["workloads"]
        assert set(workloads) == {w["name"] for w in BENCHMARK["workloads"]}
        for result in workloads.values():
            emitted = result["metrics"]
            assert set(emitted) == set(declared)
            for name, metric in emitted.items():
                assert NAME.match(name)
                assert metric["unit"] == declared[name]
                assert isinstance(metric["value"], (int, float))


def test_smoke_run_fails_no_operation(smoke):
    for report in (smoke["untraced"], smoke["traced"]):
        for result in report["workloads"].values():
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1


def test_traced_run_writes_layers_and_one_merged_trace(smoke):
    from repro.obs.export import validate_perfetto

    out = smoke["traced"]["out"]
    assert set(json.loads((out / "layers.json").read_text())) == set(
        smoke["traced"]["workloads"])
    trace = json.loads((out / "trace.json").read_text())
    validate_perfetto(trace)
    tracks = {e["args"]["name"] for e in trace["traceEvents"]
              if e["name"] == "process_name"}
    assert any(t.startswith("serve-mix/service/worker-") for t in tracks)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_refuses_p95_below_200_samples():
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [60.0, 140, 70, 130, 100, 100, 65, 135, 100, 100]
    assert stats.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert stats.verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    assert stats.verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    assert stats.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert stats.verdict(parent, faster, "higher", 0.1)["verdict"] == "worse"


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def test_corrupted_expected_digest_counts_failures(tmp_path):
    expected = load_expected()
    workload = FigBatch(2003, True, Gate(expected), tmp_path)
    corrupted = dict(expected)
    victim = spec_key(workload.specs[0])
    corrupted[victim] = "0" * 64

    honest = FigBatch(2003, True, Gate(expected), tmp_path / "honest")
    honest.check(honest.batch())
    assert honest.gate.failed == 0

    broken = FigBatch(2003, True, Gate(corrupted), tmp_path / "broken")
    broken.check(broken.batch())
    copies = sum(1 for spec in broken.specs if spec_key(spec) == victim)
    # every copy the figures received, on the cold cache and on replay
    assert copies > 1
    assert broken.gate.failed == 2 * copies
    assert not broken.gate.correct


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "slipbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "micro-ocean", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
