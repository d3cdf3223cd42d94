#!/usr/bin/env python3
"""Regression gate for the machine-readable bench JSONs.

Reads a freshly produced bench JSON (file argument or stdin), dispatches
on its `bench` field, and compares it against the committed baseline in
bench/baselines/ (overridable with --baseline).

Both kinds — `bench` == "serve" (bench/bench_serve) and "fleet"
(bench/bench_fleet — the per-tenant suggest sweep and the trained-fleet
e2e case: query/answer conservation and exact-parity verdicts) — share
one deterministic shape:
  1. Schema: every case carries name plus a `deterministic` object (int
     outcomes — serve: requests sent and answered ok; fleet: queries,
     answers, parity verdicts) and an `advisory`
     object (wall-clock milliseconds, latency percentiles, throughput).
  2. Gate (FAILS the build): each baseline case must be present and its
     `deterministic` object must match the baseline EXACTLY, key for key.
     These outcomes are a pure function of the seed and the
     configuration; any drift means semantics changed, not that the
     runner is slow.
  3. Advisory (warns only): any `advisory` value more than double its
     baseline. Latency never fails the gate.

Exit status 0 when the gate passes; 1 with a readable report otherwise.
Wired into CI right after the `bench_serve --smoke` and
`bench_fleet --smoke` runs.
"""

import json
import sys

ADVISORY_WARN_FACTOR = 2.0

DEFAULT_BASELINES = {
    "serve": "bench/baselines/BENCH_serve.json",
    "fleet": "bench/baselines/BENCH_fleet.json",
}

# Cases that must exist in BOTH the fresh results and the baseline. The
# exact-match gate only covers cases the baseline already names, so a
# case silently dropped from both files would pass unnoticed; pinning the
# load-bearing ones here makes that a hard failure.
REQUIRED_CASES = {
    "fleet": frozenset({"sweep_t1", "sweep_t4", "sweep_t16", "sweep_t64",
                        "fleet_suggest_e2e"}),
    "serve": frozenset({"latency_ping", "latency_suggest_action",
                        "latency_suggest_minutes", "latency_ingest"}),
}


def fail(errors):
    for error in errors:
        print(f"check_bench: FAIL: {error}", file=sys.stderr)
    return 1


def load(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as handle:
        return json.load(handle)


def validate_schema(doc, label, errors, kind):
    if doc.get("bench") != kind:
        errors.append(f"{label}: bench != {kind!r}")
        return {}
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        errors.append(f"{label}: missing or empty 'cases'")
        return {}
    by_name = {}
    for case in cases:
        name = case.get("name")
        if not isinstance(name, str):
            errors.append(f"{label}: case without a string name: {case!r}")
            continue
        if name in by_name:
            errors.append(f"{label}: duplicate case {name!r}")
            continue
        deterministic = case.get("deterministic")
        advisory = case.get("advisory")
        if not isinstance(deterministic, dict) or not deterministic:
            errors.append(f"{label}: case {name!r}: missing 'deterministic'")
            continue
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in deterministic.values()):
            errors.append(f"{label}: case {name!r}: non-integer "
                          "deterministic value")
            continue
        if not isinstance(advisory, dict):
            errors.append(f"{label}: case {name!r}: missing 'advisory'")
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in advisory.values()):
            errors.append(f"{label}: case {name!r}: non-numeric advisory "
                          "value")
            continue
        by_name[name] = case
    return by_name


def gate_deterministic(fresh, baseline, errors):
    for name, base_case in sorted(baseline.items()):
        fresh_case = fresh.get(name)
        if fresh_case is None:
            errors.append(f"case {name!r} present in baseline but missing "
                          "from fresh results")
            continue
        base_det = base_case["deterministic"]
        fresh_det = fresh_case["deterministic"]
        drift = sorted(set(base_det) | set(fresh_det))
        clean = True
        for key in drift:
            if base_det.get(key) != fresh_det.get(key):
                clean = False
                errors.append(
                    f"case {name!r}: deterministic field {key!r} drifted: "
                    f"baseline {base_det.get(key)!r} != fresh "
                    f"{fresh_det.get(key)!r} (these outcomes are a pure "
                    "function of the seed — this is a behavior change)")
        print(f"check_bench: {name}: {len(base_det)} deterministic fields "
              f"{'match baseline exactly' if clean else 'DRIFTED'}")
        for key, base_value in sorted(base_case["advisory"].items()):
            fresh_value = fresh_case["advisory"].get(key)
            if (isinstance(fresh_value, (int, float)) and base_value > 0
                    and fresh_value > ADVISORY_WARN_FACTOR * base_value):
                print(f"check_bench: WARN: {name}: advisory {key} = "
                      f"{fresh_value:.1f} is more than "
                      f"{ADVISORY_WARN_FACTOR:.0f}x the baseline "
                      f"{base_value:.1f} (advisory only: runners differ)",
                      file=sys.stderr)


def main(argv):
    fresh_path = "-"
    baseline_path = None
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--baseline":
            if not args:
                return fail(["--baseline needs a path"])
            baseline_path = args.pop(0)
        else:
            fresh_path = arg

    errors = []
    try:
        fresh_doc = load(fresh_path)
    except (OSError, json.JSONDecodeError) as err:
        return fail([f"cannot read fresh results {fresh_path!r}: {err}"])
    kind = fresh_doc.get("bench")
    if kind not in DEFAULT_BASELINES:
        return fail([f"fresh: unknown bench kind {kind!r} (expected one of "
                     f"{sorted(DEFAULT_BASELINES)})"])
    if baseline_path is None:
        baseline_path = DEFAULT_BASELINES[kind]
    try:
        baseline_doc = load(baseline_path)
    except (OSError, json.JSONDecodeError) as err:
        return fail([f"cannot read baseline {baseline_path!r}: {err}"])

    fresh = validate_schema(fresh_doc, "fresh", errors, kind)
    baseline = validate_schema(baseline_doc, "baseline", errors, kind)
    for required in sorted(REQUIRED_CASES.get(kind, ())):
        for label, cases in (("fresh", fresh), ("baseline", baseline)):
            if required not in cases:
                errors.append(f"{label}: required {kind} case {required!r} "
                              "is missing")
    if errors:
        return fail(errors)

    gate_deterministic(fresh, baseline, errors)

    if errors:
        return fail(errors)
    print(f"check_bench: OK ({len(baseline)} {kind} cases gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
