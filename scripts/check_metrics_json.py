#!/usr/bin/env python3
"""Validates a HEXA_METRICS_JSON dump against the version-2 schema.

Usage: check_metrics_json.py <dump.json> [--require-wal] [--require-queries]
                             [--require-server]

Checks (see docs/observability.md "Export formats"):
  * top-level shape: version 2, counters/gauges/histograms objects, a
    trace object (or null) and a slow_queries object (or null);
  * every histogram carries count/sum_ns/max_ns/sample_shift, ordered
    percentiles and well-formed buckets;
  * every slow-query entry carries the full phase/row/q-error breakdown,
    phases that sum to at most total_ns, and a q-error >= 1;
  * the dump is not hollow: the delta and epoch counter families have
    nonzero entries, the trace retained events — and with --require-wal
    (the CI metrics-smoke job, which churns a durable store) the WAL
    family too;
  * with --require-queries (the metrics-smoke query step, which runs a
    query under HEXA_SLOW_QUERY_US=0) a hexa_query_* class histogram
    recorded at least one query and the slow-query ring retained at
    least one entry;
  * with --require-server (the CI server-smoke job, whose dump comes
    from hexastore_server's /metrics.json after the abl_server driver
    ran mixed read/write traffic against it) the hexa_server_* family
    served requests without shedding everything, the request-latency
    histogram is live, and the plan cache both hit above 0.9 on the
    driver's repeated templates and invalidated at least once under
    the driver's write churn.

Exits 0 on a valid dump, 1 with one line per violation otherwise.
Stdlib only.
"""

import json
import sys


def fail(errors):
    for e in errors:
        print(f"check_metrics_json: {e}", file=sys.stderr)
    return 1


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]
    require_wal = "--require-wal" in argv[2:]
    require_queries = "--require-queries" in argv[2:]
    require_server = "--require-server" in argv[2:]

    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            dump = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return fail([f"{path}: cannot parse: {exc}"])

    if dump.get("version") != 2:
        errors.append(f"version is {dump.get('version')!r}, expected 2")

    for section in ("counters", "gauges", "histograms"):
        if not isinstance(dump.get(section), dict):
            errors.append(f"missing or non-object section {section!r}")
            dump[section] = {}

    for name, value in dump["counters"].items():
        if not isinstance(value, int) or value < 0:
            errors.append(f"counter {name} is not a non-negative integer")
    for name, value in dump["gauges"].items():
        if not isinstance(value, int):
            errors.append(f"gauge {name} is not an integer")

    required_hist_keys = {
        "count", "sum_ns", "max_ns", "sample_shift",
        "p50_ns", "p90_ns", "p99_ns", "p999_ns", "buckets",
    }
    for name, hist in dump["histograms"].items():
        if not isinstance(hist, dict):
            errors.append(f"histogram {name} is not an object")
            continue
        missing = required_hist_keys - hist.keys()
        if missing:
            errors.append(f"histogram {name} missing keys {sorted(missing)}")
            continue
        p50, p90 = hist["p50_ns"], hist["p90_ns"]
        p99, p999 = hist["p99_ns"], hist["p999_ns"]
        if not p50 <= p90 <= p99 <= p999:
            errors.append(f"histogram {name} percentiles not ordered: "
                          f"{p50} {p90} {p99} {p999}")
        if p999 > hist["max_ns"]:
            errors.append(f"histogram {name} p999 {p999} exceeds max "
                          f"{hist['max_ns']}")
        bucket_total = 0
        for bucket in hist["buckets"]:
            if set(bucket.keys()) != {"le_ns", "count"}:
                errors.append(f"histogram {name} malformed bucket {bucket}")
                break
            bucket_total += bucket["count"]
        else:
            if bucket_total != hist["count"]:
                errors.append(f"histogram {name} bucket counts sum to "
                              f"{bucket_total}, count is {hist['count']}")

    trace = dump.get("trace")
    if trace is None:
        errors.append("trace is null — dump did not come from a delta store")
    elif not isinstance(trace, dict):
        errors.append("trace is not an object")
    else:
        for key in ("capacity", "recorded", "retained", "events"):
            if key not in trace:
                errors.append(f"trace missing key {key!r}")
        events = trace.get("events", [])
        if trace.get("recorded", 0) <= 0 or not events:
            errors.append("trace recorded no events")
        for event in events:
            missing = ({"ticket", "ts_ns", "event", "reason",
                        "duration_ns", "value"} - event.keys())
            if missing:
                errors.append(f"trace event missing keys {sorted(missing)}")
                break

    slow = dump.get("slow_queries")
    if slow is not None and not isinstance(slow, dict):
        errors.append("slow_queries is neither null nor an object")
        slow = None
    if isinstance(slow, dict):
        for key in ("capacity", "recorded", "retained", "entries"):
            if key not in slow:
                errors.append(f"slow_queries missing key {key!r}")
        for entry in slow.get("entries", []):
            missing = ({"ticket", "ts_ns", "kind", "total_ns", "parse_ns",
                        "plan_ns", "eval_ns", "pin_ns", "rows_out",
                        "rows_scanned", "estimate_probes", "patterns",
                        "max_q_error", "text"} - entry.keys())
            if missing:
                errors.append(
                    f"slow query entry missing keys {sorted(missing)}")
                break
            # The four phases are disjoint slices of the query (pin_ns
            # is the read-handle acquisition alone), and total_ns is
            # the wall time of the whole call, so they sum to at most
            # total_ns.
            phases = (entry["parse_ns"] + entry["pin_ns"] +
                      entry["plan_ns"] + entry["eval_ns"])
            if phases > entry["total_ns"]:
                errors.append(f"slow query entry phases sum to {phases}, "
                              f"above total_ns {entry['total_ns']}")
            if entry["max_q_error"] < 1.0:
                errors.append(f"slow query entry max_q_error "
                              f"{entry['max_q_error']} below 1")

    if require_queries:
        live_query_hists = [
            n for n, h in dump["histograms"].items()
            if n.startswith("hexa_query_") and isinstance(h, dict)
            and h.get("count", 0) > 0]
        if not live_query_hists:
            errors.append("no hexa_query_* histogram recorded a query")
        if not isinstance(slow, dict) or not slow.get("entries"):
            errors.append("slow_queries retained no entries "
                          "(run under HEXA_SLOW_QUERY_US=0)")

    if require_server:
        counters = dump["counters"]
        served = counters.get("hexa_server_requests", 0)
        if served <= 0:
            errors.append("hexa_server_requests is zero — the server "
                          "answered no queries")
        latency = dump["histograms"].get("hexa_server_request_latency_ns")
        if not isinstance(latency, dict) or latency.get("count", 0) <= 0:
            errors.append("hexa_server_request_latency_ns recorded "
                          "no requests")
        hits = counters.get("hexa_plan_cache_hits", 0)
        misses = counters.get("hexa_plan_cache_misses", 0)
        invalidations = counters.get("hexa_plan_cache_invalidations", 0)
        looked_up = hits + misses + invalidations
        if looked_up == 0:
            errors.append("plan cache saw no lookups — queries bypassed "
                          "the cache")
        elif hits / looked_up <= 0.9:
            errors.append(f"plan cache hit rate {hits}/{looked_up} "
                          f"is not above 0.9 on repeated templates")
        if invalidations <= 0:
            errors.append("hexa_plan_cache_invalidations is zero — "
                          "write churn never invalidated a plan")

    families = [("hexa_delta_", True), ("hexa_epoch_", True),
                ("hexa_wal_", require_wal)]
    for prefix, required in families:
        if not required:
            continue
        live = [n for n, v in dump["counters"].items()
                if n.startswith(prefix) and v > 0]
        if not live:
            errors.append(f"no nonzero {prefix}* counters — hollow dump")

    if errors:
        return fail(errors)
    n_hist = len(dump["histograms"])
    retained = trace.get("retained", 0) if isinstance(trace, dict) else 0
    n_slow = slow.get("retained", 0) if isinstance(slow, dict) else 0
    print(f"check_metrics_json: OK ({len(dump['counters'])} counters, "
          f"{len(dump['gauges'])} gauges, {n_hist} histograms, "
          f"{retained} trace events, {n_slow} slow queries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
