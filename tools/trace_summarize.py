#!/usr/bin/env python3
"""Validate and summarize a Chrome trace-event JSON file.

Reads a trace produced by `I2MR_TRACE_JSON=... <binary>` (or any
{"traceEvents": [...]} file), checks that it is structurally sound, and
prints a per-span-name duration summary. Intended both as a CI gate on
traced benches and as a quick terminal alternative to loading Perfetto.

Checks (any failure exits non-zero):
  - the file parses as JSON and has a traceEvents list;
  - every event has a name and phase; "X" events have ts and dur >= 0;
  - complete events on each track (tid) are well-nested: sorting by
    start time, a span's interval never PARTIALLY overlaps a previously
    opened span on the same track (RAII scopes can only nest);
  - --require-span NAME: at least one "X" event with that name exists;
  - --require-within INNER:OUTER: at least one INNER span lies fully
    inside an OUTER span on the same track (parent/child sanity, e.g.
    `engine.refresh:epoch.round`);
  - --forbid-within INNER:OUTER: no INNER span lies inside an OUTER span
    on the same track (the inverse, e.g. `engine.persist:epoch.round`:
    exchange rounds write no working files).

Usage:
  python3 tools/trace_summarize.py build/trace.json \
      --require-span serving.coordinated_epoch \
      --require-within barrier.flip:serving.coordinated_epoch \
      --forbid-within engine.persist:epoch.round
"""

import argparse
import collections
import json
import sys

# Slop for interval comparisons: export timestamps are microseconds with
# 3 decimals, so two adjacent spans can collide at exactly 1ns.
EPSILON_US = 0.002


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
    elif isinstance(doc, list):  # the bare-array flavor is also legal
        events = doc
    else:
        raise ValueError("top level is neither an object nor an array")
    if not isinstance(events, list):
        raise ValueError("no traceEvents list")
    return events


def validate_events(events):
    """Structural checks; returns (complete_events, errors)."""
    errors = []
    complete = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event #{i} is not an object")
            continue
        name = ev.get("name")
        ph = ev.get("ph")
        if not name or not ph:
            errors.append(f"event #{i} lacks name/ph: {ev!r}")
            continue
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or not isinstance(
                dur, (int, float)
            ):
                errors.append(f"X event {name!r} #{i} lacks numeric ts/dur")
                continue
            if dur < 0:
                errors.append(f"X event {name!r} #{i} has negative dur {dur}")
                continue
            complete.append(ev)
        elif ph == "i":
            if not isinstance(ev.get("ts"), (int, float)):
                errors.append(f"instant {name!r} #{i} lacks numeric ts")
        elif ph != "M":
            errors.append(f"event {name!r} #{i} has unexpected phase {ph!r}")
    return complete, errors


def check_nesting(complete):
    """RAII spans on one thread can nest but never partially overlap."""
    errors = []
    by_tid = collections.defaultdict(list)
    for ev in complete:
        by_tid[ev.get("tid", 0)].append(ev)
    for tid, spans in sorted(by_tid.items()):
        # Sort by start; ties open the LONGER span first (it is the parent).
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans, innermost last
        for ev in spans:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and start >= stack[-1][1] - EPSILON_US:
                stack.pop()
            if stack and end > stack[-1][1] + EPSILON_US:
                outer = stack[-1]
                errors.append(
                    f"tid {tid}: span {ev['name']!r} "
                    f"[{start:.3f}, {end:.3f}] overlaps but is not "
                    f"contained in {outer[2]!r} "
                    f"[{outer[0]:.3f}, {outer[1]:.3f}]"
                )
                continue
            stack.append((start, end, ev["name"]))
    return errors


def contains(inner, outer):
    return (
        inner.get("tid", 0) == outer.get("tid", 0)
        and inner["ts"] >= outer["ts"] - EPSILON_US
        and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + EPSILON_US
    )


def check_within(complete, inner_name, outer_name):
    inners = [e for e in complete if e["name"] == inner_name]
    outers = [e for e in complete if e["name"] == outer_name]
    if not inners:
        return f"--require-within: no {inner_name!r} spans in trace"
    if not outers:
        return f"--require-within: no {outer_name!r} spans in trace"
    for i in inners:
        if any(contains(i, o) for o in outers):
            return None
    return (
        f"--require-within: no {inner_name!r} span is contained in any "
        f"{outer_name!r} span on the same tid"
    )


def check_not_within(complete, inner_name, outer_name):
    outers = [e for e in complete if e["name"] == outer_name]
    nested = [
        i
        for i in complete
        if i["name"] == inner_name and any(contains(i, o) for o in outers)
    ]
    if not nested:
        return None
    return (
        f"--forbid-within: {len(nested)} {inner_name!r} span(s) contained "
        f"in an {outer_name!r} span on the same tid"
    )


def summarize(complete, events):
    per_name = collections.defaultdict(list)
    for ev in complete:
        per_name[ev["name"]].append(ev["dur"])
    tracks = len({ev.get("tid", 0) for ev in complete})
    instants = sum(1 for e in events if isinstance(e, dict) and e.get("ph") == "i")
    print(
        f"{len(complete)} spans, {instants} instants, "
        f"{len(per_name)} span names, {tracks} tracks"
    )
    print(f"{'span':<32}{'count':>7}{'total_ms':>12}{'mean_us':>10}{'max_us':>10}")
    for name in sorted(per_name, key=lambda n: -sum(per_name[n])):
        durs = per_name[name]
        print(
            f"{name:<32}{len(durs):>7}"
            f"{sum(durs) / 1e3:>12.3f}"
            f"{sum(durs) / len(durs):>10.1f}"
            f"{max(durs):>10.1f}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--require-span",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless at least one complete span with NAME exists",
    )
    parser.add_argument(
        "--require-within",
        action="append",
        default=[],
        metavar="INNER:OUTER",
        help="fail unless some INNER span nests inside an OUTER span",
    )
    parser.add_argument(
        "--forbid-within",
        action="append",
        default=[],
        metavar="INNER:OUTER",
        help="fail if any INNER span nests inside an OUTER span",
    )
    args = parser.parse_args()

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"FAIL: {args.trace}: {e}", file=sys.stderr)
        return 1

    complete, errors = validate_events(events)
    errors += check_nesting(complete)

    names = {e["name"] for e in complete}
    for required in args.require_span:
        if required not in names:
            errors.append(f"--require-span: no {required!r} span in trace")
    for flag, pairs, check in (
        ("--require-within", args.require_within, check_within),
        ("--forbid-within", args.forbid_within, check_not_within),
    ):
        for pair in pairs:
            inner, sep, outer = pair.partition(":")
            if not sep:
                errors.append(f"{flag} needs INNER:OUTER, got {pair!r}")
                continue
            err = check(complete, inner, outer)
            if err:
                errors.append(err)

    summarize(complete, events)
    if errors:
        print(f"\nFAIL: {len(errors)} error(s):", file=sys.stderr)
        for e in errors[:20]:
            print(f"  {e}", file=sys.stderr)
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
