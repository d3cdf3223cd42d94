#!/usr/bin/env python3
"""Schema + invariant validator for `jarvis_cli metrics` output.

Reads the JSON document from stdin (or a file argument) and checks:

  1. Top-level shape: `fleet` and `tenants` are metric snapshots.
  2. Snapshot shape: `counters` / `gauges` / `histograms` arrays whose
     entries carry the expected typed fields; counter values are
     non-negative integers; `deterministic` flags are booleans; names are
     non-empty, dot-separated, and unique per kind.
  3. Histogram integrity: `bucket_counts` has exactly
     len(upper_bounds) + 1 entries (the +inf overflow bucket is implicit),
     upper bounds strictly increase, and the bucket counts sum to `count`.
  4. Fleet phase timers: runtime.fleet.{workload,learn,optimize}_us are
     present in `fleet`, each observed at most once per tenant run
     (count <= runtime.fleet.tenants_run).
  5. Pipeline invariants mirrored from the obs counter contracts:
     events_seen == events_accepted + events_dropped and
     monitor decisions == allowed + denied + benign_anomalies, whenever
     those counters are present in the tenant aggregate.

Exit status 0 when the document is well-formed; 1 with a readable report
otherwise. Registered as the `metrics_schema` ctest (label `obs`) and run
in CI right after the `jarvis_cli metrics` smoke run.
"""

import json
import sys

REQUIRED_TOP_LEVEL = ("fleet", "tenants")

COUNTER_FIELDS = {"name": str, "value": int, "deterministic": bool}
GAUGE_FIELDS = {"name": str, "value": (int, float), "deterministic": bool}
HISTOGRAM_FIELDS = {
    "name": str,
    "upper_bounds": list,
    "bucket_counts": list,
    "count": int,
    "sum": (int, float),
    "nan_ignored": int,
    "deterministic": bool,
}
# One observation per tenant that entered the phase (Fleet::RunTenant).
FLEET_PHASE_TIMERS = ("runtime.fleet.workload_us", "runtime.fleet.learn_us",
                      "runtime.fleet.optimize_us")

# (total, [parts]) counter identities the instrumented pipeline guarantees;
# checked only when every involved counter is present in the snapshot.
COUNTER_IDENTITIES = (
    ("events.parser.events_seen",
     ("events.parser.events_accepted", "events.parser.events_dropped")),
    ("core.monitor.decisions",
     ("core.monitor.allowed", "core.monitor.denied",
      "core.monitor.benign_anomalies")),
    ("spl.learner.episodes_offered",
     ("spl.learner.episodes_used", "spl.learner.episodes_skipped")),
)


def check_fields(entry, fields, where, errors):
    if not isinstance(entry, dict):
        errors.append(f"{where}: expected an object, got {type(entry).__name__}")
        return False
    ok = True
    for key, expected in fields.items():
        if key not in entry:
            errors.append(f"{where}: missing field '{key}'")
            ok = False
        elif not isinstance(entry[key], expected) or isinstance(
                entry[key], bool) != (expected is bool):
            # bool is a subclass of int; keep value/bool fields distinct.
            errors.append(
                f"{where}: field '{key}' has type "
                f"{type(entry[key]).__name__}")
            ok = False
    return ok


def check_name(name, where, errors):
    if not name or name != name.strip("."):
        errors.append(f"{where}: malformed metric name '{name}'")


def check_snapshot(snapshot, where, errors):
    """Validates one MetricsSnapshot JSON object; returns its counter and
    histogram-count maps."""
    counters = {}
    histogram_counts = {}
    if not isinstance(snapshot, dict):
        errors.append(f"{where}: expected an object")
        return counters, histogram_counts
    for kind in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(kind), list):
            errors.append(f"{where}.{kind}: missing or not a list")
            return counters, histogram_counts

    seen = set()
    for i, entry in enumerate(snapshot["counters"]):
        tag = f"{where}.counters[{i}]"
        if not check_fields(entry, COUNTER_FIELDS, tag, errors):
            continue
        check_name(entry["name"], tag, errors)
        if entry["value"] < 0:
            errors.append(f"{tag}: negative counter value {entry['value']}")
        if entry["name"] in seen:
            errors.append(f"{tag}: duplicate counter '{entry['name']}'")
        seen.add(entry["name"])
        counters[entry["name"]] = entry["value"]

    for i, entry in enumerate(snapshot["gauges"]):
        tag = f"{where}.gauges[{i}]"
        if check_fields(entry, GAUGE_FIELDS, tag, errors):
            check_name(entry["name"], tag, errors)

    for i, entry in enumerate(snapshot["histograms"]):
        tag = f"{where}.histograms[{i}]"
        if not check_fields(entry, HISTOGRAM_FIELDS, tag, errors):
            continue
        check_name(entry["name"], tag, errors)
        bounds = entry["upper_bounds"]
        buckets = entry["bucket_counts"]
        if len(buckets) != len(bounds) + 1:
            errors.append(
                f"{tag}: bucket_counts has {len(buckets)} entries, expected "
                f"len(upper_bounds) + 1 = {len(bounds) + 1} (+inf bucket)")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            errors.append(f"{tag}: upper_bounds not strictly increasing")
        if any(not isinstance(c, int) or c < 0 for c in buckets):
            errors.append(f"{tag}: bucket_counts must be non-negative ints")
        elif sum(buckets) != entry["count"]:
            errors.append(
                f"{tag}: bucket_counts sum to {sum(buckets)} but count is "
                f"{entry['count']}")
        if entry["count"] < 0 or entry["nan_ignored"] < 0:
            errors.append(f"{tag}: negative count/nan_ignored")
        histogram_counts[entry["name"]] = entry["count"]
    return counters, histogram_counts


def check_phase_timers(counters, histogram_counts, errors):
    runs = counters.get("runtime.fleet.tenants_run")
    if runs is None:
        errors.append("fleet: missing counter 'runtime.fleet.tenants_run'")
    for name in FLEET_PHASE_TIMERS:
        if name not in histogram_counts:
            errors.append(f"fleet: missing phase timer '{name}'")
        elif runs is not None and histogram_counts[name] > runs:
            errors.append(
                f"fleet: {name} count {histogram_counts[name]} exceeds "
                f"runtime.fleet.tenants_run={runs}")


def check_identities(counters, where, errors):
    for total, parts in COUNTER_IDENTITIES:
        if total not in counters or any(p not in counters for p in parts):
            continue
        part_sum = sum(counters[p] for p in parts)
        if counters[total] != part_sum:
            breakdown = " + ".join(f"{p}={counters[p]}" for p in parts)
            errors.append(
                f"{where}: invariant broken: {total}={counters[total]} but "
                f"{breakdown} (= {part_sum})")


def main():
    if len(sys.argv) > 2 or (len(sys.argv) == 2 and sys.argv[1] in
                             ("-h", "--help")):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        if len(sys.argv) == 2:
            with open(sys.argv[1], encoding="utf-8") as f:
                document = json.load(f)
        else:
            document = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_metrics.py: cannot parse input: {err}", file=sys.stderr)
        return 1

    errors = []
    if not isinstance(document, dict):
        errors.append("top level: expected a JSON object")
    else:
        for key in REQUIRED_TOP_LEVEL:
            if key not in document:
                errors.append(f"top level: missing '{key}'")
        fleet_counters, fleet_histograms = check_snapshot(
            document.get("fleet", {}), "fleet", errors)
        check_phase_timers(fleet_counters, fleet_histograms, errors)
        tenant_counters, _ = check_snapshot(
            document.get("tenants", {}), "tenants", errors)
        check_identities(tenant_counters, "tenants", errors)

    if errors:
        print(f"check_metrics.py: {len(errors)} finding(s):", file=sys.stderr)
        for err in errors:
            print("  " + err, file=sys.stderr)
        return 1
    print("check_metrics.py: metrics document is well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
