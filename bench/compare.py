"""``python -m bench.compare A.json B.json`` — did B get worse than A?

Both files are results written by ``python -m bench.perf`` (each may
hold several runs: ``--repeats``).  One row per workload x end-to-end
metric: both medians, the ratio B/A (A is the base), the bound from
``bench/spec.py``, the run-to-run spread, and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  the spread of either side is wider than the bound, so
                the comparison cannot tell — unless every run of B reads
                better than every run of A, which is ``ok``.

Spread is the interquartile range over the median with four or more
runs a side, the full range over the median with two or three, and
unknown (never ``unresolved``) with one.  ``error_rate`` has no bound: it
may not rise at all.  An open-loop phase whose generator ran late makes
``open_p50_ms`` unresolved.  The exit code is non-zero when any row
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench import spec

__all__ = ["compare", "main"]


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def _collect(document: dict) -> dict:
    """workload -> metric -> list of values, one per run."""
    out: dict = {}
    for run in document["runs"]:
        for name, workload in run["workloads"].items():
            slot = out.setdefault(name, {"_valid": True})
            for metric, cell in workload["end_to_end"].items():
                slot.setdefault(metric, []).append(cell["value"])
            slot.setdefault("error_rate", []).append(workload["details"]["error_rate"])
            slot["_valid"] = slot["_valid"] and workload["details"]["open_phase_valid"]
    return out


def compare(a: dict, b: dict) -> list[dict]:
    side_a, side_b = _collect(a), _collect(b)
    rows = []
    for workload in spec.WORKLOADS:
        if workload not in side_a or workload not in side_b:
            continue
        for metric in spec.END_TO_END:
            va, vb = side_a[workload][metric.name], side_b[workload][metric.name]
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = metric.better == "lower"
            worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
            spreads = [s for s in (_spread(va), _spread(vb)) if s is not None]
            spread = max(spreads) if spreads else None
            all_better = max(vb) < min(va) if lower else min(vb) > max(va)
            late = metric.name == "open_p50_ms" and not (
                side_a[workload]["_valid"] and side_b[workload]["_valid"]
            )
            if late or (spread is not None and spread > metric.bound):
                verdict = "ok" if all_better and not late else "unresolved"
            else:
                verdict = "regressed" if worse_by > metric.bound else "ok"
            rows.append(
                {
                    "workload": workload, "metric": metric.name, "unit": metric.unit,
                    "a": ma, "b": mb, "ratio_b_over_a": mb / ma, "bound": metric.bound,
                    "spread": spread, "runs": (len(va), len(vb)), "verdict": verdict,
                }
            )
        ea = statistics.median(side_a[workload]["error_rate"])
        eb = statistics.median(side_b[workload]["error_rate"])
        rows.append(
            {
                "workload": workload, "metric": "error_rate", "unit": "ratio", "a": ea, "b": eb,
                "ratio_b_over_a": None, "bound": 0.0, "spread": None,
                "runs": (len(side_a[workload]["error_rate"]), len(side_b[workload]["error_rate"])),
                "verdict": "regressed" if eb > ea else "ok",
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m bench.compare A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(f"A = {argv[0]} (base)   B = {argv[1]}")
    print(f"{'workload':18s} {'metric':22s} {'A':>12s} {'B':>12s} {'unit':5s} {'B/A':>7s} "
          f"{'bound':>6s} {'spread':>7s} {'runs':>5s}  verdict")
    for row in rows:
        ratio = "-" if row["ratio_b_over_a"] is None else f"{row['ratio_b_over_a']:.3f}"
        spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
        print(
            f"{row['workload']:18s} {row['metric']:22s} {row['a']:12.4f} {row['b']:12.4f} "
            f"{row['unit']:5s} {ratio:>7s} {row['bound']:6.2f} {spread:>7s} "
            f"{row['runs'][0]}/{row['runs'][1]:<3d}  {row['verdict']}"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("ok", "regressed", "unresolved")}
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, {counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
