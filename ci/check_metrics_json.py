#!/usr/bin/env python3
"""Schema-check the live stats reporter's output.

Usage: check_metrics_json.py [--require-rebalance] [--require-inline]
                             <logfile> [logfile...]

Scans each log for "DORADB_STATS {json}" lines (the StatsReporter's
format, normally on stderr) and fails if:
  * no stats line is found at all;
  * any stats payload is not valid JSON;
  * a payload is missing "ts_ms" (int) or "metrics" (non-empty object);
  * a payload carries a "reason" that is not "interval" or "final";
  * a metric entry has an unknown "type", or lacks the fields its type
    requires ("value" for counter/gauge; count/sum/min/max/p50/p95/p99/
    p999 for histogram). Percentile fields may be null, but only on a
    zero-sample window (count == 0) — a populated histogram must report
    integer percentiles, and an empty one must not fake a 0;
  * across all lines, no metric was seen from one of the engine's core
    namespaces (dora., log., txn., ckpt.) — the smoke runs a started
    engine, so its executors, WAL, transaction layer and checkpointer
    must all have checked in;
  * the durability health metrics are missing: every snapshot must carry
    the "engine.health_state" gauge (0 ok, 1 degraded) and the
    "log.io_retries" / "log.io_errors" counters, so a degraded engine
    (poisoned WAL/page medium) is visible in /metrics and the stats
    stream, not only via /healthz;
  * the "txn.read_only_commits" counter is missing: every Database
    registers it, since read-only commits append no log record and
    would otherwise be invisible in the log counters;
  * the buffer-pool counters "pool.hits", "pool.misses",
    "pool.evictions" and "pool.read_waits" are missing: every Database
    registers them.

Also validates:
  * "DORADB_HEATMAP {json}" lines (the reporter's per-executor load
    windows): seq/ts_ms/span_ms plus an "executors" array whose rows
    carry exec/depth/drained_per_s/qwait_p99_ns/busy_frac;
  * "BENCH_JSON {json}" lines (bench result lines, normally on stdout)
    as well-formed JSON with a "bench" name and a "rows" array,
so redirected smoke logs get every machine format checked.

With --require-rebalance (for smokes run under DORADB_REBALANCE=1 on a
skewed workload), the live-repartitioning path must have left evidence:
  * "dora.rebalance.splits" or "dora.rebalance.moved_ranges" counter > 0
    (the controller performed at least one migration);
  * "dora.rebalance.fence_wait_ns" histogram with count > 0 (the
    migration went through the ticket-fenced drain, not a fast path);
  * at least one well-formed "DORADB_REBALANCE {json}" line (the
    controller's per-migration report: ts_ms/table/kind/hot/cold/
    version/fence_wait_ns/busy_hot/busy_cold).

With --require-inline (for DORA smokes), guest execution must have
fired: the "dora.txns.inline" counter > 0 (some single-executor
transaction ran on its client's thread).
"""

import json
import sys

STATS_PREFIX = "DORADB_STATS "
HEATMAP_PREFIX = "DORADB_HEATMAP "
REBALANCE_PREFIX = "DORADB_REBALANCE "
BENCH_PREFIX = "BENCH_JSON "
VALID_TYPES = {"counter", "gauge", "histogram"}
HISTOGRAM_COUNT_FIELDS = ("count", "sum")
HISTOGRAM_VALUE_FIELDS = ("min", "max", "p50", "p95", "p99", "p999")
HEATMAP_ROW_FIELDS = ("exec", "depth", "drained_per_s", "qwait_p99_ns",
                      "busy_frac")
VALID_REASONS = {"interval", "final"}
REQUIRED_NAMESPACES = ("dora.", "log.", "txn.", "ckpt.")
# Fault-injection / degradation visibility: registered unconditionally by
# every Database, so their absence means the health plumbing regressed.
REQUIRED_HEALTH_METRICS = ("engine.health_state", "log.io_retries",
                           "log.io_errors")
# Registered unconditionally by every Database as well.
REQUIRED_TXN_METRICS = ("txn.read_only_commits",)
REQUIRED_POOL_METRICS = ("pool.hits", "pool.misses", "pool.evictions",
                         "pool.read_waits")


def check_histogram(where, name, m, errors):
    for field in HISTOGRAM_COUNT_FIELDS:
        if not isinstance(m.get(field), int):
            errors.append(f"{where}: histogram {name!r} lacks integer {field!r}")
            return
    empty = m["count"] == 0
    for field in HISTOGRAM_VALUE_FIELDS:
        v = m.get(field, "missing")
        if v is None:
            # null percentiles are the zero-sample-window contract: an
            # empty delta window has no percentiles, and must say so
            # rather than report a misleading 0.
            if not empty:
                errors.append(f"{where}: histogram {name!r} has null {field!r} "
                              f"despite count={m['count']}")
        elif not isinstance(v, int):
            errors.append(f"{where}: histogram {name!r} lacks integer {field!r}")
            return


def check_stats_payload(where, payload, errors, seen_names, seen_values):
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as e:
        errors.append(f"{where}: invalid JSON: {e}")
        return None
    if not isinstance(obj.get("ts_ms"), int):
        errors.append(f"{where}: missing/non-integer ts_ms")
    reason = obj.get("reason")
    if reason is not None and reason not in VALID_REASONS:
        errors.append(f"{where}: bad reason {reason!r}")
    metrics = obj.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errors.append(f"{where}: missing/empty metrics object")
        return reason
    for name, m in metrics.items():
        if not isinstance(m, dict):
            errors.append(f"{where}: metric {name!r} is not an object")
            continue
        mtype = m.get("type")
        if mtype not in VALID_TYPES:
            errors.append(f"{where}: metric {name!r} has bad type {mtype!r}")
            continue
        if mtype in ("counter", "gauge"):
            if not isinstance(m.get("value"), int):
                errors.append(f"{where}: {mtype} {name!r} lacks integer value")
        else:
            check_histogram(where, name, m, errors)
        seen_names.add(name)
        # High-water mark per metric: counters/gauges by value, histograms
        # by sample count (what the --require-rebalance evidence checks use).
        peak = m.get("value") if mtype in ("counter", "gauge") \
            else m.get("count")
        if isinstance(peak, int):
            seen_values[name] = max(seen_values.get(name, 0), peak)
    return reason


def check_heatmap_payload(where, payload, errors):
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as e:
        errors.append(f"{where}: invalid DORADB_HEATMAP JSON: {e}")
        return
    if not isinstance(obj.get("seq"), int) or obj["seq"] < 1:
        errors.append(f"{where}: heatmap window lacks positive integer seq")
    if not isinstance(obj.get("ts_ms"), int):
        errors.append(f"{where}: heatmap window lacks integer ts_ms")
    if not isinstance(obj.get("span_ms"), (int, float)):
        errors.append(f"{where}: heatmap window lacks numeric span_ms")
    rows = obj.get("executors")
    if not isinstance(rows, list):
        errors.append(f"{where}: heatmap window lacks executors array")
        return
    for row in rows:
        if not isinstance(row, dict):
            errors.append(f"{where}: heatmap executor row is not an object")
            continue
        for field in HEATMAP_ROW_FIELDS:
            if not isinstance(row.get(field), (int, float)):
                errors.append(
                    f"{where}: heatmap row lacks numeric {field!r}")
                break
        else:
            if not 0.0 <= row["busy_frac"] <= 1.0:
                errors.append(f"{where}: busy_frac {row['busy_frac']} "
                              f"outside [0,1]")


REBALANCE_INT_FIELDS = ("ts_ms", "table", "hot", "cold", "version",
                        "fence_wait_ns")
REBALANCE_KINDS = {"split", "move"}


def check_rebalance_payload(where, payload, errors):
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as e:
        errors.append(f"{where}: invalid DORADB_REBALANCE JSON: {e}")
        return
    for field in REBALANCE_INT_FIELDS:
        if not isinstance(obj.get(field), int):
            errors.append(f"{where}: rebalance line lacks integer {field!r}")
    if obj.get("kind") not in REBALANCE_KINDS:
        errors.append(f"{where}: rebalance kind {obj.get('kind')!r} not in "
                      f"{sorted(REBALANCE_KINDS)}")
    for field in ("busy_hot", "busy_cold"):
        v = obj.get(field)
        if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            errors.append(f"{where}: rebalance {field!r} missing or "
                          f"outside [0,1]")


def check_bench_payload(where, payload, errors):
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as e:
        errors.append(f"{where}: invalid BENCH_JSON: {e}")
        return
    if not isinstance(obj.get("bench"), str):
        errors.append(f"{where}: BENCH_JSON lacks string 'bench'")
    if not isinstance(obj.get("rows"), list):
        errors.append(f"{where}: BENCH_JSON lacks 'rows' array")


def main(argv):
    args = argv[1:]
    require_rebalance = "--require-rebalance" in args
    require_inline = "--require-inline" in args
    args = [a for a in args
            if a not in ("--require-rebalance", "--require-inline")]
    if not args:
        print(__doc__)
        return 2
    errors = []
    seen_names = set()
    seen_values = {}
    seen_reasons = set()
    stats_lines = 0
    heatmap_lines = 0
    rebalance_lines = 0
    bench_lines = 0
    for path in args:
        with open(path, "r", errors="replace") as f:
            for i, line in enumerate(f, 1):
                line = line.strip()
                where = f"{path}:{i}"
                if line.startswith(STATS_PREFIX):
                    stats_lines += 1
                    reason = check_stats_payload(
                        where, line[len(STATS_PREFIX):], errors, seen_names,
                        seen_values)
                    if reason is not None:
                        seen_reasons.add(reason)
                elif line.startswith(HEATMAP_PREFIX):
                    heatmap_lines += 1
                    check_heatmap_payload(where, line[len(HEATMAP_PREFIX):],
                                          errors)
                elif line.startswith(REBALANCE_PREFIX):
                    rebalance_lines += 1
                    check_rebalance_payload(
                        where, line[len(REBALANCE_PREFIX):], errors)
                elif line.startswith(BENCH_PREFIX):
                    bench_lines += 1
                    check_bench_payload(where, line[len(BENCH_PREFIX):],
                                        errors)
    if stats_lines == 0:
        errors.append("no DORADB_STATS lines found (reporter never fired?)")
    else:
        for ns in REQUIRED_NAMESPACES:
            if not any(n.startswith(ns) for n in seen_names):
                errors.append(f"no metric from namespace {ns!r} ever reported")
        for name in REQUIRED_HEALTH_METRICS:
            if name not in seen_names:
                errors.append(f"health metric {name!r} never reported "
                              f"(degradation latch not wired into metrics?)")
        for name in REQUIRED_TXN_METRICS:
            if name not in seen_names:
                errors.append(f"transaction metric {name!r} never reported")
        for name in REQUIRED_POOL_METRICS:
            if name not in seen_names:
                errors.append(f"buffer-pool metric {name!r} never reported")
        # A reporter that tagged any line must have closed with a final
        # flush; endpoint-only captures (no reason field at all) are fine.
        if seen_reasons and "final" not in seen_reasons:
            errors.append("reporter lines carry reasons but no 'final' line "
                          "(Stop() flush missing?)")
    if require_rebalance:
        migrated = (seen_values.get("dora.rebalance.splits", 0) > 0 or
                    seen_values.get("dora.rebalance.moved_ranges", 0) > 0)
        if not migrated:
            errors.append("--require-rebalance: neither dora.rebalance."
                          "splits nor dora.rebalance.moved_ranges went "
                          "positive (controller never migrated?)")
        if seen_values.get("dora.rebalance.fence_wait_ns", 0) <= 0:
            errors.append("--require-rebalance: dora.rebalance.fence_wait_ns "
                          "histogram never reported samples (migration "
                          "skipped the ticket fence?)")
        if rebalance_lines == 0:
            errors.append("--require-rebalance: no DORADB_REBALANCE lines "
                          "found (controller report missing)")
    if require_inline and seen_values.get("dora.txns.inline", 0) <= 0:
        errors.append("--require-inline: dora.txns.inline never went "
                      "positive (no transaction ran as a guest)")
    for e in errors:
        print(f"check_metrics_json: {e}", file=sys.stderr)
    print(f"check_metrics_json: {stats_lines} stats line(s), "
          f"{heatmap_lines} heatmap line(s), {rebalance_lines} rebalance "
          f"line(s), {bench_lines} bench line(s), "
          f"{len(seen_names)} distinct metrics, {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
