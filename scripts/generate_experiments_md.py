#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs the full evaluation (several hundred simulations; expect tens of
minutes on one core — use ``--jobs N`` to fan the independent runs out
over N worker processes) and writes the results next to the paper's
reported numbers, with the deviations called out.  Results are cached
on disk (``--cache-dir``, default ``.repro-cache``), so a rerun — or a
``python -m repro.experiments`` invocation sharing the same cache —
skips every simulation it has already seen; ``--no-cache`` disables
this.

Run:  python scripts/generate_experiments_md.py [-o EXPERIMENTS.md] [--jobs N]
"""

import argparse
import json
import time
from pathlib import Path

from repro.experiments import figures
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.runner import Runner
from repro.workloads import PAPER_ORDER

#: paper-reported anchors used in the comparison tables
PAPER = {
    "fig5_gain_band": "12-19% over the next best mode at 16 CMPs",
    "fig5_winners": {  # benchmark -> paper's best A-R policy
        "fft": "L1", "water-ns": "L1", "mg": "L1", "sor": "L1",
        "ocean": "G0", "sp": "G0", "cg": "L0",
    },
    "fig9_band": "19-45% of A-stream reads issued transparently (avg 27%)",
    "fig9_split": "59% transparent replies / 41% upgraded",
    "fig10_si_gains": {"ocean": 1.06, "sor": 1.08, "fft": 1.09,
                       "water-ns": 1.12, "cg": 1.14, "sp": 1.15,
                       "mg": 0.96},
}


def fmt_row(cells, widths):
    return "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"


def md_table(headers, rows):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)] if rows else [len(h) for h in headers]
    out = [fmt_row(headers, widths),
           "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out += [fmt_row(row, widths) for row in rows]
    return "\n".join(out)


def slipstream_gain(cells) -> float:
    """Best slipstream policy over the next best conventional mode, as a
    percentage (one Figure 5 cell)."""
    best = cells[figures.best_policy(cells)]
    return 100 * (best / max(1.0, cells["double"]) - 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="EXPERIMENTS.md")
    parser.add_argument("--json-dump", default=None,
                        help="also dump raw results as JSON")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent simulations")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"result-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    args = parser.parse_args()

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = Runner(jobs=args.jobs, cache=cache)
    figures.set_runner(runner)

    started = time.time()
    raw = {}

    def note(msg):
        print(f"[{time.time() - started:7.0f}s] {msg}", flush=True)

    note("table 1 / table 2 ...")
    raw["table1"] = figures.table1()
    raw["table2"] = figures.table2()
    note("figure 1 (double vs single) ...")
    raw["fig1"] = figures.figure1()
    note("figure 4 (single-mode scalability) ...")
    raw["fig4"] = figures.figure4()
    note("figure 5 (slipstream policies sweep) ...")
    raw["fig5"] = figures.figure5()
    note("figure 6 (time breakdowns) ...")
    best = {name: figures.best_policy(
        raw["fig5"][name][figures.COMPARISON_CMPS[name]])
        for name in PAPER_ORDER}
    raw["fig6"] = figures.figure6(policies=best)
    note("figure 7 (request classification) ...")
    raw["fig7"] = figures.figure7()
    note("figure 9 (transparent loads) ...")
    raw["fig9"] = figures.figure9()
    note("figure 10 (transparent loads + SI) ...")
    raw["fig10"] = figures.figure10()
    note("writing " + args.output)

    lines = []
    w = lines.append
    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Generated by `scripts/generate_experiments_md.py` "
      f"({time.strftime('%Y-%m-%d')}); all simulations use the Table 1 "
      "latencies with caches scaled to the scaled inputs "
      "(`repro.config.scaled_config`, see DESIGN.md). Slipstream "
      "comparisons run at 16 CMPs (FFT: 4, as in the paper).")
    w("")
    w("## Summary of deviations")
    w("")
    w("1. **Absolute cycle counts do not transfer** (scaled inputs, "
      "coarse processor model); all comparisons below are shapes and "
      "ratios, which is also how the paper reports them.")
    fft = raw["fig5"]["fft"][figures.COMPARISON_CMPS["fft"]]
    fft_slip = [fft[p] for p in ("L1", "L0", "G1", "G0")]
    w("2. **FFT**: the paper reports slipstream beating both conventional "
      "modes at 4 CMPs; in our model double mode retains more headroom "
      "for FFT at 4 CMPs, so slipstream clearly beats *single* mode "
      f"({min(fft_slip):.2f}-{max(fft_slip):.2f}x across policies) but "
      f"not double ({fft['double']:.2f}x). Our FFT's single-mode speedup "
      f"keeps rising slowly (to {raw['fig4']['fft'][16]:.2f}x at 16 "
      "CMPs) rather than degrading beyond 4 CMPs.")
    gain = {name: slipstream_gain(
        raw["fig5"][name][figures.COMPARISON_CMPS[name]])
        for name in ("sor", "ocean", "mg", "sp", "cg", "water-ns")}
    w("3. **Gain magnitudes** (best policy over the next best mode at 16 "
      "CMPs): SOR, Ocean, MG and SP land at or above the paper's 12-19% "
      f"band ({gain['sor']:.0f}%, {gain['ocean']:.0f}%, "
      f"{gain['mg']:.0f}%, {gain['sp']:.0f}%); CG and Water-NS stay "
      f"below it ({gain['cg']:.0f}%, {gain['water-ns']:.0f}%): their "
      "gather phases are hot-line broadcasts whose serialization at the "
      "directory cannot be hidden by prefetching, a regime the scaled "
      "inputs exaggerate.")
    w("4. **Best A-R policy per benchmark** differs from the paper for "
      "several kernels (expected: it is timing-sensitive), but the "
      "paper's structural claim — no consistent winner across benchmarks "
      "— reproduces.")
    w("5. **Recovery**: like the paper, no benchmark triggers A-stream "
      "recovery (the synthetic `dynsched` kernel exercises it).")
    w("6. **Transparent-load issue rates and SI gains are smaller** than "
      "the paper's (Figures 9-10): our A-streams spend more time in the "
      "same session as their R-streams (short scaled sessions), so fewer "
      "loads qualify for transparency, and plain prefetching is often "
      "already the best Section 4 configuration. The qualitative claims "
      "hold: transparent loads alone hurt prefetch-friendly kernels, and "
      "SI recovers or extends the gain on the lock/producer-consumer "
      "kernels (CG, SP, Water-NS). The `forwarding=True` extension "
      "(Section 6's explicit pattern forwarding) recovers the "
      "transparent-copy loss where it is largest (MG).")
    w("")

    # Table 1
    w("## Table 1 — machine parameters")
    w("")
    rows = [(k, v, v) for k, v in raw["table1"].items()]
    w(md_table(("parameter", "paper", "measured/configured"), rows))
    w("")
    w("The 170-cycle local and 290-cycle remote minimum miss latencies "
      "are asserted against the protocol in `tests/test_protocol.py` and "
      "`tests/test_proto.py`.")
    w("")

    # Table 2
    w("## Table 2 — benchmarks and data sizes")
    w("")
    rows = [(r["benchmark"], r["paper size"], r["scaled instance"])
            for r in raw["table2"]]
    w(md_table(("benchmark", "paper size", "this reproduction"), rows))
    w("")

    # Figure 1
    w("## Figure 1 — double-mode speedup relative to single mode")
    w("")
    w("Paper: gains shrink with CMP count; at 16 CMPs the plotted kernels "
      "fall roughly between 0.8x (Ocean, Water-NS) and ~1.35x "
      "(Water-SP).")
    w("")
    cmps = sorted(next(iter(raw["fig1"].values())))
    rows = [(name, *(f"{raw['fig1'][name][n]:.2f}" for n in cmps))
            for name in PAPER_ORDER]
    w(md_table(("benchmark", *(f"{n} CMPs" for n in cmps)), rows))
    w("")

    # Figure 4
    w("## Figure 4 — single-mode speedup over sequential")
    w("")
    w("Paper groups: {Water-SP, LU, SOR} keep scaling; {Water-NS, Ocean, "
      "MG, CG, SP} show diminishing returns; FFT degrades beyond 4 CMPs.")
    w("")
    rows = [(name, *(f"{raw['fig4'][name][n]:.2f}" for n in cmps))
            for name in PAPER_ORDER]
    w(md_table(("benchmark", *(f"{n} CMPs" for n in cmps)), rows))
    w("")

    # Figure 5
    w("## Figure 5 — slipstream and double vs single")
    w("")
    w(f"Paper: slipstream beats the best conventional mode for 7 of 9 "
      f"benchmarks ({PAPER['fig5_gain_band']}); LU and Water-SP still "
      "favor double mode. Values below are speedups relative to single "
      "mode at each benchmark's comparison CMP count.")
    w("")
    rows = []
    for name in PAPER_ORDER:
        n = figures.COMPARISON_CMPS[name]
        cells = raw["fig5"][name][n]
        winner = figures.best_policy(cells)
        best_conv = max(1.0, cells["double"])
        verdict = "slipstream" if cells[winner] > best_conv else (
            "double" if cells["double"] > 1.0 else "single")
        paper_winner = PAPER["fig5_winners"].get(name, "-")
        rows.append((f"{name}@{n}",
                     f"{cells['double']:.2f}",
                     *(f"{cells[p]:.2f}" for p in ("L1", "L0", "G1", "G0")),
                     winner, paper_winner, verdict))
    w(md_table(("benchmark", "double", "L1", "L0", "G1", "G0",
                "best policy", "paper's best", "best mode"), rows))
    w("")

    # Figure 6
    w("## Figure 6 — execution-time breakdown (% of single-mode total)")
    w("")
    w("Paper: stall-time reduction provides most of slipstream's gain; "
      "A-R sync time appears only on A-stream bars; LU and Water-SP show "
      "<8% stall in single mode.")
    w("")
    rows = []
    for name in PAPER_ORDER:
        entry = raw["fig6"][name]
        for mode in ("S", "D", "R", "A"):
            b = entry[mode]
            rows.append((name if mode == "S" else "", mode,
                         *(f"{b[c]:.0f}" for c in
                           ("busy", "stall", "barrier", "lock", "arsync")),
                         f"{sum(b.values()):.0f}"))
    w(md_table(("benchmark", "bar", "busy", "stall", "barrier", "lock",
                "A-R", "total"), rows))
    w("")

    # Figure 7
    w("## Figure 7 — shared-data request classification (reads)")
    w("")
    w("Paper: G0 (tightest) has the lowest A-Timely read share (~22%) and "
      "highest A-Late; L1 (loosest) the highest A-Timely (~54%) and most "
      "A-Only. Scaled inputs shift our splits toward A-Late (sessions "
      "are shorter, so the A-stream's time lead per line is smaller), "
      "but the tight-vs-loose ordering reproduces.")
    w("")
    rows = []
    for name in PAPER_ORDER:
        for policy in ("L1", "L0", "G1", "G0"):
            b = raw["fig7"][name][policy]["read"]
            rows.append((name if policy == "L1" else "", policy,
                         *(f"{b[c]:.2f}" for c in
                           ("a_timely", "a_late", "a_only",
                            "r_timely", "r_late", "r_only"))))
    w(md_table(("benchmark", "policy", "A-Timely", "A-Late", "A-Only",
                "R-Timely", "R-Late", "R-Only"), rows))
    w("")

    # Figure 9
    w("## Figure 9 — transparent-load breakdown")
    w("")
    w(f"Paper: {PAPER['fig9_band']}; of those, {PAPER['fig9_split']}.")
    w("")
    rows = []
    for name, row in raw["fig9"].items():
        rows.append((name, f"{row['issued_pct']:.0f}%",
                     f"{row['transparent_pct']:.0f}%",
                     f"{row['upgraded_pct']:.0f}%",
                     f"{100 * row['transparent_share']:.0f}%"))
    w(md_table(("benchmark", "issued (% of A reads)", "transparent",
                "upgraded", "transparent share"), rows))
    w("")

    # Figure 10
    w("## Figure 10 — prefetch / +transparent loads / +self-invalidation")
    w("")
    w("Speedup over best(single, double), one-token global (G1), as in "
      "the paper. Paper: transparent loads alone can hurt FFT/MG/SOR; "
      "adding SI yields up to +15% (SP) and a net 4% loss for MG.")
    w("")
    rows = []
    for name, row in raw["fig10"].items():
        paper_si = PAPER["fig10_si_gains"].get(name)
        rows.append((name, row["best_mode"],
                     f"{row['prefetch']:.2f}",
                     f"{row['prefetch+tl']:.2f}",
                     f"{row['prefetch+tl+si']:.2f}",
                     f"{paper_si:.2f}" if paper_si else "-"))
    w(md_table(("benchmark", "conv. best", "prefetch", "+TL", "+TL+SI",
                "paper +TL+SI vs +TL (approx)"), rows))
    w("")
    w("All of the paper's qualitative claims encoded in "
      "`repro.experiments.claims` are checkable against this data: "
      "`python -m repro.experiments claims` (expects the accompanying "
      "`results_raw.json`).")
    w("")

    Path(args.output).write_text("\n".join(lines))
    if args.json_dump:
        Path(args.json_dump).write_text(json.dumps(raw, indent=1,
                                                   default=str))
    note(f"runner: {runner.total_stats.summary()}")
    note("done")


if __name__ == "__main__":
    main()
