"""Compare two benchmark results files workload by workload.

For each end-to-end metric: both sides' medians and quartiles, the pairs
won, and the verdict of the measurement rule the benchmark follows:

* ``win``: the new side wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the base side's
  quartile spread;
* ``regression``: the new median is worse than the base median by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the base side's own spread is wider than the bound and not
  every new run is better than every base run;
* ``no regression`` otherwise.

For the per-layer metrics of the traced runs it prints both values and the
exact difference of every count, and flags a count that did not repeat.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    return json.loads(Path(path).read_text())["records"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    """Runs paired by seed where both sides have it, else by order."""
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    if len(matched) == min(len(base), len(new)):
        return matched
    return list(zip(base, new))


def verdict(base_vals, new_vals, paired, better, bound):
    """Verdict of one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = quartiles(base_vals)
    _, med_b, _ = quartiles(new_vals)
    wins = sum(1 for a, b in paired if sign * (a - b) > 0)
    if paired and wins >= 0.9 * len(paired) and sign * (med_a - med_b) > (q3 - q1):
        return "win"
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "regression"
    all_better = max(sign * v for v in new_vals) < min(sign * v for v in base_vals)
    if med_a and (q3 - q1) / abs(med_a) > bound and not all_better:
        return "unresolved"
    return "no regression"


def _fmt(v):
    return "missing" if v is None else f"{v:.6g}"


def compare(base, new, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m for m in spec["per_layer"]}
    lines = []
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for wl in workloads:
        lines.append(f"== {wl}")
        a_runs = [r for r in base if r["workload"] == wl and not r["trace"]]
        b_runs = [r for r in new if r["workload"] == wl and not r["trace"]]
        for side, runs in (("base", a_runs), ("new", b_runs)):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            lines.append(f"  {side}: {len(runs)} runs, error_rate "
                         f"{(fail / att) if att else float('nan'):.6g} ({fail}/{att})")
        if a_runs and b_runs:
            paired_runs = pairs(a_runs, b_runs)
            for name, m in bounds.items():
                av = [r["end_to_end"][name] for r in a_runs]
                bv = [r["end_to_end"][name] for r in b_runs]
                paired = [(a["end_to_end"][name], b["end_to_end"][name])
                          for a, b in paired_runs]
                qa, qb = quartiles(av), quartiles(bv)
                v = verdict(av, bv, paired, m["better"], m["bound"])
                lines.append(
                    f"  {name} [{m['unit']}]: base {qa[1]:.6g} ({qa[0]:.6g}..{qa[2]:.6g}, "
                    f"n={len(av)})  new {qb[1]:.6g} ({qb[0]:.6g}..{qb[2]:.6g}, n={len(bv)})"
                    f"  ratio {qb[1] / qa[1]:.4f}  bound {m['bound']}  -> {v}"
                )
        a_tr = [r for r in base if r["workload"] == wl and r["trace"]]
        b_tr = [r for r in new if r["workload"] == wl and r["trace"]]
        if not (a_tr and b_tr):
            continue
        lines.append("  per-layer (traced runs; counts must repeat exactly):")
        for name, m in units.items():
            av = [r["per_layer"].get(name) for r in a_tr]
            bv = [r["per_layer"].get(name) for r in b_tr]
            if m["unit"] in ("count", "bytes"):
                note = ""
                if len(set(av)) > 1 or len(set(bv)) > 1:
                    note = "  (did not repeat)"
                a0, b0 = av[0], bv[0]
                diff = "n/a" if a0 is None or b0 is None else f"{b0 - a0:+g}"
                lines.append(f"    {name}: {_fmt(a0)} -> {_fmt(b0)}  diff {diff}{note}")
            else:
                ak = [v for v in av if v is not None]
                bk = [v for v in bv if v is not None]
                am = statistics.median(ak) if ak else None
                bm = statistics.median(bk) if bk else None
                lines.append(f"    {name} [{m['unit']}]: {_fmt(am)} -> {_fmt(bm)}")
    return lines


def main(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(load(base_path), load(new_path), spec)))
