#!/usr/bin/env python3
"""Validate observability exports from the simulator.

Chrome-trace mode (default) checks a Tracer::ToChromeJson file:
  * well-formed JSON in the Chrome trace-event "array" format, every event
    carrying the required fields;
  * per-(pid, tid) timestamps monotonically non-decreasing — the Tracer
    emits instants in ring order, so any backwards step means the export (or
    the ring rotation) is broken;
  * span balance: every async "b" has a matching "e" per (cat, id). The
    exporter only emits a span when both ends survived ring eviction, so an
    unmatched "b" is an exporter bug. When the trace_meta metadata event
    reports dropped == 0 the check is fully strict (an "e" without a "b"
    also fails); with evictions the dangling-"e" case stays tolerated.
  * flow sanity: retransmit-lineage flow steps ("t") and finishes ("f") must
    be preceded by a flow start ("s") with the same id;
  * causal nesting: for any id with both a client-side and a server-side
    span, the client's "b" (first transmission) must not come after the
    server's "b" (first receive) — a request cannot be received before it
    was ever sent.

Timeline mode (--timeline) checks a FlightRecorder::ToJsonl file: one JSON
object per line with numeric at_ms/window_ms and a counters object, frame
timestamps strictly increasing. A counters value >= 2^63 is rejected: it is
an unsigned delta that wrapped, i.e. a level (gauge) registered as a counter.
An optional gauges object must hold non-negative numeric levels.

Usage: validate_trace.py <trace.json>
       validate_trace.py --timeline <timeline.jsonl>
"""
import json
import sys


# Counter deltas are unsigned 64-bit; anything this large is k below 2^64.
WRAPPED_DELTA = 2**63


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_timeline(path):
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"{path}: not readable: {e}")
    if not lines:
        fail(f"{path}: empty timeline")
    last_at = None
    counter_names = set()
    for n, line in enumerate(lines):
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{n + 1}: not valid JSON: {e}")
        if not isinstance(frame, dict):
            fail(f"{path}:{n + 1}: frame is not an object")
        for field in ("at_ms", "window_ms", "counters"):
            if field not in frame:
                fail(f"{path}:{n + 1}: missing {field!r}")
        at = frame["at_ms"]
        if not isinstance(at, (int, float)):
            fail(f"{path}:{n + 1}: non-numeric at_ms {at!r}")
        if not isinstance(frame["window_ms"], (int, float)) or frame["window_ms"] < 0:
            fail(f"{path}:{n + 1}: bad window_ms {frame['window_ms']!r}")
        if last_at is not None and at <= last_at:
            fail(f"{path}:{n + 1}: at_ms {at} does not advance past {last_at}")
        last_at = at
        counters = frame["counters"]
        if not isinstance(counters, dict):
            fail(f"{path}:{n + 1}: counters is not an object")
        for name, value in counters.items():
            if not isinstance(value, (int, float)):
                fail(f"{path}:{n + 1}: counter {name!r} has non-numeric value")
            if value >= WRAPPED_DELTA:
                fail(f"{path}:{n + 1}: counter {name!r} = {value} is a wrapped unsigned "
                     "delta (a falling level registered as a counter, not a gauge)")
            counter_names.add(name)
        gauges = frame.get("gauges", {})
        if not isinstance(gauges, dict):
            fail(f"{path}:{n + 1}: gauges is not an object")
        for name, value in gauges.items():
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"{path}:{n + 1}: gauge {name!r} has bad level {value!r}")
    print(
        f"validate_trace: OK: {len(lines)} timeline frames, "
        f"{len(counter_names)} distinct counters, timestamps strictly increasing"
    )


def main():
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--timeline":
        validate_timeline(args[1])
        return
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = args[0]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list) or not events:
        fail(f"{path}: no trace events")

    dropped = None  # from the trace_meta metadata event, when present
    last_ts = {}  # (pid, tid) -> ts of the last non-metadata event
    counts = {"M": 0, "i": 0, "b": 0, "e": 0, "s": 0, "t": 0, "f": 0}
    open_spans = {}  # (cat, id) -> count of unmatched "b" events
    span_begin_ts = {}  # (cat, id) -> ts of the first "b"
    flow_started = set()  # ids with an emitted flow start
    for n, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event #{n} is not an object")
        ph = ev.get("ph")
        if ph not in ("M", "i", "b", "e", "X", "s", "t", "f"):
            fail(f"event #{n}: unexpected phase {ph!r}")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            if ev.get("name") == "trace_meta":
                dropped = ev.get("args", {}).get("dropped")
            continue
        for field in ("ts", "pid", "tid", "name"):
            if field not in ev:
                fail(f"event #{n}: missing {field!r}")
        track = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        if not isinstance(ts, (int, float)):
            fail(f"event #{n}: non-numeric ts {ts!r}")
        if track in last_ts and ts < last_ts[track]:
            fail(
                f"event #{n} ({ev['name']}): ts {ts} goes backwards on "
                f"track pid={track[0]} tid={track[1]} (previous {last_ts[track]})"
            )
        last_ts[track] = ts
        if ph in ("b", "e"):
            key = (ev.get("cat"), ev.get("id"))
            if ph == "b":
                open_spans[key] = open_spans.get(key, 0) + 1
                span_begin_ts.setdefault(key, ts)
            elif open_spans.get(key, 0) > 0:
                open_spans[key] -= 1
            elif dropped == 0:
                fail(
                    f"event #{n}: span end with no begin for cat={key[0]!r} "
                    f"id={key[1]} in a trace with zero evictions"
                )
            # With evictions, an "e" whose "b" rotated out stays tolerated.
        if ph in ("s", "t", "f"):
            fid = ev.get("id")
            if fid is None:
                fail(f"event #{n}: flow event without an id")
            if ph == "s":
                flow_started.add(fid)
            elif fid not in flow_started:
                fail(
                    f"event #{n}: flow {ph!r} for id {fid} before its start — "
                    f"a retransmit step must tie back to a first transmission"
                )

    unbalanced = {k: v for k, v in open_spans.items() if v != 0}
    if unbalanced:
        sample = next(iter(unbalanced))
        fail(
            f"{len(unbalanced)} unbalanced span(s): cat={sample[0]!r} "
            f"id={sample[1]} has {unbalanced[sample]} unmatched begin(s) — "
            f"the exporter promises begin/end pairs"
        )

    # Causal nesting: client span opens at the first transmission, server
    # span at the first receive of the same xid. Receive-before-send is
    # impossible, so a violation means the pairing logic mislabeled events.
    client_begin = {}  # id -> earliest client-side "b" ts
    server_begin = {}  # id -> earliest server-side "b" ts
    for (cat, sid), ts in span_begin_ts.items():
        if cat is None or sid is None:
            continue
        if "client" in cat:
            client_begin[sid] = min(client_begin.get(sid, ts), ts)
        elif "server" in cat:
            server_begin[sid] = min(server_begin.get(sid, ts), ts)
    nested = 0
    for sid, sts in server_begin.items():
        if sid in client_begin:
            nested += 1
            if client_begin[sid] > sts:
                fail(
                    f"span nesting violated for id {sid}: server begin at {sts} "
                    f"precedes client begin at {client_begin[sid]}"
                )

    tracks = len(last_ts)
    strictness = "strict" if dropped == 0 else f"eviction-tolerant (dropped={dropped})"
    print(
        f"validate_trace: OK: {len(events)} events "
        f"({counts['i']} instants, {counts['b']}/{counts['e']} span begin/end, "
        f"{counts['s']}+{counts['t']}+{counts['f']} flow s/t/f) "
        f"across {tracks} tracks; balance {strictness}, "
        f"{nested} client/server pair(s) nested correctly"
    )


if __name__ == "__main__":
    main()
