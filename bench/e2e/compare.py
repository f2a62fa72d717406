#!/usr/bin/env python3
"""Compares two sets of bench/e2e result documents (run.py --out).

    python3 bench/e2e/compare.py --base A.json [A2.json ...] --head B.json [B2.json ...]

Each argument is a result document or a directory of them; a set is several
runs of one commit, listed in the order they ran (a directory's documents in
name order). For every (workload, metric) it prints each side's median
and quartiles, the change of the medians, the bound and a verdict:

  exact metrics (bound 0: counts, ratios, digests) — `same` when every run of
      both sides reads the same value, `better`/`worse` when each side repeats
      but the sides differ, `unresolved` when a side does not repeat;
  timed metrics — `better` only with ten or more runs on each side, as many
      on both, paired in the order they ran, when the head wins at least
      nine tenths of the pairs (ties count for neither) and its median is
      better by more than the base's own interquartile range. Otherwise,
      when either side's spread (interquartile range over median) exceeds
      the bound: `same` if every head run reads better than every base run,
      else `unresolved`; `worse` when the head median is worse by more than
      the bound; else `same`.

Per-layer counts of traced documents (units count and bytes) are compared
exactly as well. Exits 1 when any verdict is `worse` or `unresolved`.
Standard library only.
"""

import argparse
import itertools
import json
import pathlib
import statistics
import sys

EXACT_LAYER_UNITS = {"count", "bytes"}
MIN_PAIRS_FOR_GAIN = 10


def load(paths):
    docs = []
    for p in map(pathlib.Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            doc = json.loads(f.read_text())
            if "workloads" in doc:
                docs.append(doc)
    if not docs:
        sys.exit(f"no result documents in {' '.join(paths)}")
    return docs


def collect(docs):
    """(workload, metric) -> {values, unit, better, bound}."""
    out = {}
    for doc in docs:
        for wl, entry in doc["workloads"].items():
            for name, m in entry["metrics"].items():
                slot = out.setdefault((wl, name), {"values": [], "unit": m["unit"],
                                                   "better": m["better"], "bound": m["bound"]})
                slot["values"].append(m["value"])
            slot = out.setdefault((wl, "digest"), {"values": [], "unit": "hex",
                                                   "better": None, "bound": 0.0})
            slot["values"].append(entry["digest"])
            for name, m in entry.get("per_layer", {}).items():
                if m["unit"] in EXACT_LAYER_UNITS:
                    slot = out.setdefault((wl, name), {"values": [], "unit": m["unit"],
                                                       "better": None, "bound": 0.0})
                    slot["values"].append(m["value"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def rel_spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, head, better, bound):
    if bound == 0:
        if len(set(base)) > 1 or len(set(head)) > 1:
            return "unresolved"
        if base[0] == head[0]:
            return "same"
        if better is None:
            return "worse"  # a digest or unranked count changed
        return "better" if is_better(head[0], base[0], better) else "worse"
    bm, hm = statistics.median(base), statistics.median(head)
    worse_by = (hm - bm) / bm if better == "lower" else (bm - hm) / bm
    q1, _, q3 = quartiles(base)
    gain = len(base) == len(head) >= MIN_PAIRS_FOR_GAIN and worse_by < 0 and \
        abs(hm - bm) > q3 - q1 and \
        sum(is_better(h, b, better) for b, h in zip(base, head)) >= 0.9 * len(base)
    if max(rel_spread(base), rel_spread(head)) > bound:
        if gain:
            return "better"
        all_better = all(is_better(h, b, better) for h, b in itertools.product(head, base))
        return "same" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if gain else "same"


def fmt(v):
    return v if isinstance(v, str) else f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="result documents of the base")
    ap.add_argument("--head", nargs="+", required=True, help="result documents of the head")
    args = ap.parse_args()

    base, head = collect(load(args.base)), collect(load(args.head))
    rows = []
    for key in sorted(base.keys() & head.keys()):
        b, h = base[key], head[key]
        bv, hv = b["values"], h["values"]
        row = {"workload": key[0], "metric": key[1], "unit": h["unit"],
               "bound": h["bound"], "verdict": verdict(bv, hv, h["better"], h["bound"]),
               "base_n": len(bv), "head_n": len(hv)}
        if isinstance(bv[0], str):
            row.update(base_median=bv[0], head_median=hv[0], change=None)
        else:
            (bq1, bm, bq3), (hq1, hm, hq3) = quartiles(bv), quartiles(hv)
            row.update(base_median=bm, base_q1=bq1, base_q3=bq3, head_median=hm, head_q1=hq1,
                       head_q3=hq3, change=(hm - bm) / bm if bm else None)
        rows.append(row)

    print(f"{'workload':12s} {'metric':38s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    for r in rows:
        def side(prefix):
            if isinstance(r[f"{prefix}_median"], str):
                return r[f"{prefix}_median"]
            return (f"{fmt(r[prefix + '_median'])} [{fmt(r[prefix + '_q1'])}, "
                    f"{fmt(r[prefix + '_q3'])}]")
        change = "" if r["change"] is None else f"{100 * r['change']:+.1f}%"
        bound = "exact" if r["bound"] == 0 else f"{100 * r['bound']:.0f}%"
        print(f"{r['workload']:12s} {r['metric']:38s} {side('base'):>34s} "
              f"{side('head'):>34s} {change:>8s} {bound:>6s}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} worse or unresolved", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
