#!/usr/bin/env python3
"""Summarize a vdg Chrome trace-event file on the command line.

Reads the trace JSON written by the src/obs layer (VDG_TRACE=out.json, or
DistributedSimulation::writeTrace) and prints, without leaving the
terminal for a trace viewer:

  * the top-N zones by total duration (count, total ms, share of the
    summed per-rank span: zone totals sum over every rank, so they are
    divided by the sum of each rank's own max(ts+dur) - min(ts)),
  * the halo fraction: time in halo:* zones over time in step zones,
    per rank and overall — the same split bench_fig3 calibrates from,
  * per-rank imbalance: each rank's step time against the mean, and the
    max/mean ratio (1.00 = perfectly balanced).

Stdlib only (json + argparse): runs anywhere the repo's Python tests run.

Usage: tools/trace_summary.py TRACE.json [--top 10]

Exit codes: 0 ok, 2 missing/unreadable/invalid-JSON input,
3 parseable JSON that is not a Chrome trace-event document.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict


def load_events(path: pathlib.Path) -> list:
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        print(
            f"trace_summary: cannot read '{path}': {e.strerror or e} "
            f"(did the traced run complete?)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    except json.JSONDecodeError as e:
        print(f"trace_summary: '{path}' is not valid JSON: {e}", file=sys.stderr)
        raise SystemExit(2)

    # Chrome accepts both the object form {"traceEvents": [...]} and a bare
    # array; the obs exporter writes the object form.
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
    elif isinstance(doc, list):
        events = doc
    else:
        events = None
    if not isinstance(events, list):
        print(
            f"trace_summary: '{path}' has no traceEvents array — "
            f"not a Chrome trace-event document",
            file=sys.stderr,
        )
        raise SystemExit(3)
    return events


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", type=pathlib.Path, help="Chrome trace-event JSON")
    ap.add_argument("--top", type=int, default=10, help="zones to list (by total time)")
    args = ap.parse_args()

    events = load_events(args.trace)

    names = {}  # (pid, tid) -> thread label, pid -> process label
    zone_total = defaultdict(float)  # name -> total us
    zone_count = defaultdict(int)
    rank_step = defaultdict(float)  # pid -> us inside "step" zones
    rank_halo = defaultdict(float)  # pid -> us inside halo:* zones
    rank_start = {}  # pid -> min(ts)
    rank_end = defaultdict(float)  # pid -> max(ts + dur)
    complete = 0

    for ev in events:
        if not isinstance(ev, dict):
            continue
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                names[ev.get("pid", 0)] = ev.get("args", {}).get("name", "")
            continue
        if ph != "X":
            continue
        try:
            name = ev["name"]
            dur = float(ev["dur"])
            ts = float(ev["ts"])
        except (KeyError, TypeError, ValueError):
            print(
                f"trace_summary: '{args.trace}' has a malformed complete "
                f"event (needs name/ts/dur): {ev!r}",
                file=sys.stderr,
            )
            raise SystemExit(3)
        complete += 1
        pid = ev.get("pid", 0)
        zone_total[name] += dur
        zone_count[name] += 1
        rank_start[pid] = min(rank_start.get(pid, ts), ts)
        rank_end[pid] = max(rank_end[pid], ts + dur)
        if name == "step":
            rank_step[pid] += dur
        if name.startswith("halo:"):
            rank_halo[pid] += dur

    if complete == 0:
        print(
            f"trace_summary: '{args.trace}' contains no complete ('X') events "
            f"— was tracing enabled (VDG_TRACE / ProfilingSpec::trace)?",
            file=sys.stderr,
        )
        raise SystemExit(3)

    rank_span = {pid: rank_end[pid] - rank_start[pid] for pid in rank_end}
    span = max(rank_span.values())
    summed_span = sum(rank_span.values()) or 1.0  # zero-duration traces
    print(f"{args.trace}: {complete} events, {len(rank_span)} rank track(s), "
          f"span {span / 1e3:.3f} ms")

    print(f"\ntop {min(args.top, len(zone_total))} zones by total time:")
    print(f"  {'zone':<32} {'count':>8} {'total ms':>12} {'% of span':>10}")
    for name in sorted(zone_total, key=zone_total.get, reverse=True)[: args.top]:
        print(f"  {name:<32} {zone_count[name]:>8} {zone_total[name] / 1e3:>12.3f} "
              f"{100.0 * zone_total[name] / summed_span:>9.1f}%")

    halo_all = sum(rank_halo.values())
    step_all = sum(rank_step.values())
    print("\nhalo fraction (halo:* time / step time):")
    if step_all > 0.0:
        for pid in sorted(rank_span):
            label = names.get(pid, f"pid {pid}")
            if rank_step[pid] > 0.0:
                print(f"  {label:<12} {rank_halo[pid] / rank_step[pid]:>8.3f}")
        print(f"  {'overall':<12} {halo_all / step_all:>8.3f}")
    else:
        print("  no step zones in this trace (not a stepper run)")

    if step_all > 0.0 and len(rank_step) > 1:
        steps = [rank_step[pid] for pid in sorted(rank_step)]
        mean = sum(steps) / len(steps)
        print("\nper-rank step time [ms] (imbalance = max/mean):")
        for pid in sorted(rank_step):
            label = names.get(pid, f"pid {pid}")
            print(f"  {label:<12} {rank_step[pid] / 1e3:>12.3f}")
        print(f"  min/mean/max {min(steps) / 1e3:.3f}/{mean / 1e3:.3f}/"
              f"{max(steps) / 1e3:.3f}  imbalance {max(steps) / mean:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
