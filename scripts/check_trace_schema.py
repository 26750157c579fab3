#!/usr/bin/env python3
"""Validate `reproduce` JSON output against the checked-in schemas.

Usage:
    scripts/check_trace_schema.py --profile profile.json [--trace trace.json]
    scripts/check_trace_schema.py --bench bench.json
    scripts/check_trace_schema.py --hostprof hostprof.json
    scripts/check_trace_schema.py --service service.json
    scripts/check_trace_schema.py --servicetrace journal.json

Checks, for the peakperf-profile-v1 document:
  * required keys and their types (scripts/trace_schema.json);
  * the document's stall_kinds list matches the schema's, in order —
    adding a StallKind in the simulator without updating the schema (or
    reordering the serialization) fails CI;
  * per-profile invariant: the per-kind stall totals sum to
    stalled_cycles (the acceptance criterion of the observability layer).

For the Chrome trace: required top-level keys, event shape on a sample of
events, and that every stall event names a known stall kind.

For the peakperf-bench-v1 document (scripts/bench_schema.json):
  * required keys and their types, on the envelope and on every row;
  * per-row stall_cycles / stall_share keys match the schema's stall
    kinds;
  * full-suite coverage — every Table-2 row and all eight SGEMM
    GPU x variant rows must be present (the telemetry acceptance
    criterion), with unique row ids;
  * per-row invariant: pct_error is consistent with simulated vs paper.

For the peakperf-hostprof-v1 document (scripts/hostprof_schema.json):
  * required keys and their types, on the envelope and on every target;
  * the document's (and every target's) phase list matches the schema's,
    in order — adding a perfmon Phase without updating the schema fails
    CI, like a StallKind drift would;
  * per-target invariants: the per-phase wall shares sum to ~1.0, the
    idle-run histograms cover every stall kind plus `unattributed` and
    their run counts sum to idle_runs, skippable_cycles <= idle_cycles <=
    cycles, and every projection field is a speedup (>= 1.0).

For the peakperf-service-v1 document (scripts/service_schema.json):
  * required keys and their types, on the envelope, the health object,
    and every result;
  * every result carries a known job kind and a *terminal* status — a
    hung or lost job cannot produce a valid document;
  * the accounting identity: completed + failed + cancelled + deadline +
    rejected == submitted, and results agree with the health counters
    status by status;
  * liveness at shutdown: queue_depth and in_flight are 0, and the queue
    high-water mark never exceeded queue_capacity (bounded backpressure);
  * attempts >= 1 for every executed job and == 0 for shed/queue-cancelled
    ones, with unique result ids.

For the peakperf-servicetrace-v1 document (scripts/servicetrace_schema.json),
the flight-recorder journal:
  * required keys and their types, on the envelope, the health and derived
    objects, and every event (per-type payload shapes);
  * enum fields carry known values only (terminal statuses, error classes,
    cancel sources, reject reasons);
  * `seq` is strictly increasing across the journal and `ts_us` is
    monotone per job;
  * when the journal is complete (dropped == 0): every job's span chain is
    gap-free — opens with `submitted`, closes with exactly one `terminal` —
    and the accounting identity re-derived from the event stream alone
    (completed + failed + cancelled + deadline + rejected == submitted)
    matches both the document's `derived` object and the live health
    counters, status by status.

Exit code 0 on success, 1 on any violation (all violations are listed).
"""

import argparse
import json
import os
import sys

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "trace_schema.json")
BENCH_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "bench_schema.json")
HOSTPROF_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "hostprof_schema.json")
SERVICE_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "service_schema.json")
SERVICETRACE_SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "servicetrace_schema.json"
)

TYPES = {
    "str": str,
    "int": int,
    "number": (int, float),
    "list": list,
    "dict": dict,
}


def check_required(obj, spec, where, errors):
    for key, type_name in spec.items():
        if key not in obj:
            errors.append(f"{where}: missing required key `{key}`")
            continue
        expected = TYPES[type_name]
        if isinstance(obj[key], bool) or not isinstance(obj[key], expected):
            errors.append(
                f"{where}: key `{key}` should be {type_name}, "
                f"got {type(obj[key]).__name__}"
            )


def check_profile_document(doc, schema, errors):
    check_required(doc, schema["profile_document"]["required"], "profile document", errors)
    if doc.get("schema") != schema["profile_schema"]:
        errors.append(
            f"profile document: schema is {doc.get('schema')!r}, "
            f"expected {schema['profile_schema']!r}"
        )
    kinds = schema["stall_kinds"]
    if doc.get("stall_kinds") != kinds:
        errors.append(
            "profile document: stall_kinds drifted from scripts/trace_schema.json\n"
            f"  document: {doc.get('stall_kinds')}\n"
            f"  schema:   {kinds}\n"
            "  (update the schema if StallKind changed on purpose)"
        )
    for i, entry in enumerate(doc.get("profiles", [])):
        where = f"profiles[{i}]"
        check_required(entry, schema["profile_entry"]["required"], where, errors)
        body = entry.get("profile")
        if not isinstance(body, dict):
            continue
        check_required(body, schema["profile_body"]["required"], f"{where}.profile", errors)
        totals = body.get("stall_totals", {})
        if isinstance(totals, dict):
            if sorted(totals.keys()) != sorted(kinds):
                errors.append(
                    f"{where}.profile.stall_totals keys {sorted(totals.keys())} "
                    f"!= schema stall kinds {sorted(kinds)}"
                )
            total = sum(v for v in totals.values() if isinstance(v, int))
            if total != body.get("stalled_cycles"):
                errors.append(
                    f"{where}.profile: stall_totals sum {total} != "
                    f"stalled_cycles {body.get('stalled_cycles')}"
                )
        for key in ("gap_attribution",):
            attribution = entry.get(key, {})
            for label in attribution:
                if label not in kinds and label != "loop_control":
                    errors.append(f"{where}.{key}: unknown gap source {label!r}")


def check_bench_document(doc, schema, errors):
    check_required(doc, schema["bench_document"]["required"], "bench document", errors)
    if doc.get("schema") != schema["bench_schema"]:
        errors.append(
            f"bench document: schema is {doc.get('schema')!r}, "
            f"expected {schema['bench_schema']!r}"
        )
    kinds = schema["stall_kinds"]
    accuracy = doc.get("accuracy")
    if isinstance(accuracy, dict):
        check_required(
            accuracy, schema["bench_accuracy"]["required"], "bench accuracy", errors
        )
    if isinstance(doc.get("totals"), dict):
        check_required(
            doc["totals"], schema["bench_counters"]["required"], "bench totals", errors
        )

    rows = doc.get("rows", [])
    seen_ids = []
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        check_required(row, schema["bench_row"]["required"], where, errors)
        row_id = row.get("id")
        if isinstance(row_id, str):
            seen_ids.append(row_id)
            where = f"rows[{i}] ({row_id})"
        counters = row.get("counters")
        if isinstance(counters, dict):
            check_required(
                counters, schema["bench_counters"]["required"], f"{where}.counters", errors
            )
            stalls = counters.get("stall_cycles")
            if isinstance(stalls, dict) and list(stalls.keys()) != kinds:
                errors.append(
                    f"{where}.counters.stall_cycles keys drifted from the schema's "
                    f"stall kinds: {list(stalls.keys())}"
                )
        share = row.get("stall_share")
        if isinstance(share, dict) and list(share.keys()) != kinds:
            errors.append(
                f"{where}.stall_share keys drifted from the schema's "
                f"stall kinds: {list(share.keys())}"
            )
        simulated, paper, pct = row.get("simulated"), row.get("paper"), row.get("pct_error")
        if all(isinstance(v, (int, float)) for v in (simulated, paper, pct)) and paper:
            want = 100.0 * (simulated - paper) / paper
            if abs(want - pct) > 0.01:
                errors.append(
                    f"{where}: pct_error {pct} inconsistent with "
                    f"simulated {simulated} vs paper {paper} (want {want:.3f})"
                )

    if len(seen_ids) != len(set(seen_ids)):
        dupes = sorted({i for i in seen_ids if seen_ids.count(i) > 1})
        errors.append(f"bench document: duplicate row ids {dupes}")
    table2 = [i for i in seen_ids if i.startswith("table2/")]
    if len(table2) != schema["expected_table2_rows"]:
        errors.append(
            f"bench document: {len(table2)} table2 rows, "
            f"expected {schema['expected_table2_rows']} (full Table-2 coverage)"
        )
    missing = [i for i in schema["expected_sgemm_ids"] if i not in seen_ids]
    if missing:
        errors.append(f"bench document: missing SGEMM rows {missing}")


def check_hostprof_document(doc, schema, errors):
    check_required(doc, schema["hostprof_document"]["required"], "hostprof document", errors)
    if doc.get("schema") != schema["hostprof_schema"]:
        errors.append(
            f"hostprof document: schema is {doc.get('schema')!r}, "
            f"expected {schema['hostprof_schema']!r}"
        )
    phases = schema["phases"]
    if doc.get("phases") != phases:
        errors.append(
            "hostprof document: phases drifted from scripts/hostprof_schema.json\n"
            f"  document: {doc.get('phases')}\n"
            f"  schema:   {phases}\n"
            "  (update the schema if perfmon::Phase changed on purpose)"
        )
    hist_keys = schema["stall_kinds"] + ["unattributed"]

    targets = doc.get("targets", [])
    if not targets:
        errors.append("hostprof document: targets is empty")
    for i, target in enumerate(targets):
        where = f"targets[{i}]"
        check_required(target, schema["hostprof_target"]["required"], where, errors)
        name = target.get("target")
        if isinstance(name, str):
            where = f"targets[{i}] ({name})"

        entries = target.get("phases", [])
        if isinstance(entries, list):
            names = []
            share_sum = 0.0
            for j, entry in enumerate(entries):
                check_required(
                    entry, schema["hostprof_phase"]["required"], f"{where}.phases[{j}]", errors
                )
                names.append(entry.get("phase"))
                share = entry.get("share")
                if isinstance(share, (int, float)):
                    share_sum += share
            if names != phases:
                errors.append(
                    f"{where}.phases names drifted from the schema's phase list: {names}"
                )
            if abs(share_sum - 1.0) > 0.01:
                errors.append(
                    f"{where}: phase shares sum to {share_sum:.4f}, "
                    "expected ~1.0 (shares must partition the wall time)"
                )

        cycles = target.get("cycles")
        idle = target.get("idle")
        if isinstance(idle, dict):
            check_required(idle, schema["hostprof_idle"]["required"], f"{where}.idle", errors)
            idle_cycles = idle.get("idle_cycles")
            skippable = idle.get("skippable_cycles")
            if isinstance(cycles, int) and isinstance(idle_cycles, int):
                if idle_cycles > cycles:
                    errors.append(f"{where}: idle_cycles {idle_cycles} > cycles {cycles}")
                if isinstance(skippable, int) and skippable > idle_cycles:
                    errors.append(
                        f"{where}: skippable_cycles {skippable} > idle_cycles {idle_cycles}"
                    )
            hists = idle.get("run_length_histograms")
            if isinstance(hists, dict):
                if sorted(hists.keys()) != sorted(hist_keys):
                    errors.append(
                        f"{where}.idle.run_length_histograms keys {sorted(hists.keys())} "
                        f"!= schema stall kinds + unattributed {sorted(hist_keys)}"
                    )
                runs = 0
                for kind, buckets in hists.items():
                    if not isinstance(buckets, list):
                        errors.append(f"{where}: histogram {kind!r} is not a list")
                        continue
                    for bucket in buckets:
                        if not isinstance(bucket, dict):
                            errors.append(
                                f"{where}: histogram {kind!r} has a non-object bucket"
                            )
                            continue
                        lo, hi, count = (
                            bucket.get("lo"),
                            bucket.get("hi"),
                            bucket.get("count"),
                        )
                        if not all(isinstance(v, int) for v in (lo, hi, count)) or lo > hi:
                            errors.append(
                                f"{where}: histogram {kind!r} has a malformed bucket {bucket}"
                            )
                            continue
                        runs += count
                if isinstance(idle.get("idle_runs"), int) and runs != idle["idle_runs"]:
                    errors.append(
                        f"{where}: histogram run counts sum to {runs} != "
                        f"idle_runs {idle['idle_runs']}"
                    )

        projection = target.get("projection")
        if isinstance(projection, dict):
            check_required(
                projection,
                schema["hostprof_projection"]["required"],
                f"{where}.projection",
                errors,
            )
            for key, value in projection.items():
                if isinstance(value, (int, float)) and value < 1.0:
                    errors.append(
                        f"{where}.projection: {key} = {value} is not a speedup (>= 1.0)"
                    )


def check_service_document(doc, schema, errors):
    check_required(doc, schema["service_document"]["required"], "service document", errors)
    if doc.get("schema") != schema["service_schema"]:
        errors.append(
            f"service document: schema is {doc.get('schema')!r}, "
            f"expected {schema['service_schema']!r}"
        )
    statuses = schema["terminal_statuses"]
    kinds = set(schema["job_kinds"])

    health = doc.get("health")
    if not isinstance(health, dict):
        return
    check_required(health, schema["service_health"]["required"], "service health", errors)

    results = doc.get("results", [])
    seen_ids = []
    result_tally = dict.fromkeys(statuses, 0)
    for i, result in enumerate(results):
        where = f"results[{i}]"
        check_required(result, schema["service_result"]["required"], where, errors)
        if result.get("schema") != schema["result_schema"]:
            errors.append(
                f"{where}: schema is {result.get('schema')!r}, "
                f"expected {schema['result_schema']!r}"
            )
        rid = result.get("id")
        if isinstance(rid, str):
            seen_ids.append(rid)
            where = f"results[{i}] ({rid})"
        if result.get("kind") not in kinds:
            errors.append(f"{where}: unknown job kind {result.get('kind')!r}")
        status = result.get("status")
        if status not in statuses:
            # The load-bearing check: every job must reach a *terminal*
            # state; anything else means a job hung or was lost.
            errors.append(f"{where}: status {status!r} is not terminal {statuses}")
            continue
        result_tally[status] += 1
        attempts = result.get("attempts")
        if isinstance(attempts, int):
            if status == "rejected" and attempts != 0:
                errors.append(f"{where}: rejected job reports {attempts} attempt(s)")
            if status in ("completed", "failed", "deadline") and attempts < 1:
                errors.append(f"{where}: {status} job reports {attempts} attempt(s)")

    if len(seen_ids) != len(set(seen_ids)):
        dupes = sorted({i for i in seen_ids if seen_ids.count(i) > 1})
        errors.append(f"service document: duplicate result ids {dupes}")

    counts = {k: health.get(k) for k in schema["service_health"]["required"]}
    if not all(isinstance(v, int) for v in counts.values()):
        return
    terminal = sum(counts[s] for s in statuses)
    if terminal != counts["submitted"]:
        # The accounting identity of the resilient core.
        errors.append(
            "service document: accounting identity violated: "
            + " + ".join(f"{s} {counts[s]}" for s in statuses)
            + f" = {terminal} != submitted {counts['submitted']}"
        )
    for status in statuses:
        if result_tally[status] != counts[status]:
            errors.append(
                f"service document: {result_tally[status]} {status} result(s) "
                f"but health counts {counts[status]}"
            )
    if counts["queue_depth"] != 0 or counts["in_flight"] != 0:
        errors.append(
            f"service document: shutdown left queue_depth {counts['queue_depth']}, "
            f"in_flight {counts['in_flight']} (expected 0/0)"
        )
    cap = doc.get("queue_capacity")
    if isinstance(cap, int) and counts["queue_depth_max"] > cap:
        errors.append(
            f"service document: queue_depth_max {counts['queue_depth_max']} "
            f"exceeds queue_capacity {cap} (backpressure bound violated)"
        )


def check_servicetrace_document(doc, schema, errors):
    check_required(
        doc, schema["servicetrace_document"]["required"], "servicetrace document", errors
    )
    if doc.get("schema") != schema["servicetrace_schema"]:
        errors.append(
            f"servicetrace document: schema is {doc.get('schema')!r}, "
            f"expected {schema['servicetrace_schema']!r}"
        )
    health = doc.get("health")
    if isinstance(health, dict):
        check_required(
            health, schema["servicetrace_health"]["required"], "servicetrace health", errors
        )
    derived = doc.get("derived")
    if isinstance(derived, dict):
        check_required(
            derived,
            schema["servicetrace_derived"]["required"],
            "servicetrace derived",
            errors,
        )

    statuses = schema["terminal_statuses"]
    payloads = schema["event_payloads"]
    enums = {
        "status": set(statuses),
        "error_class": set(schema["error_classes"]),
        "source": set(schema["cancel_sources"]),
        "reason": set(schema["reject_reasons"]),
    }

    events = doc.get("events", [])
    last_seq = None
    last_ts_per_job = {}
    chains = {}
    recomputed = dict.fromkeys(statuses, 0)
    recomputed["submitted"] = 0
    recomputed["retried"] = 0
    for i, event in enumerate(events):
        where = f"events[{i}]"
        check_required(event, schema["event_common"]["required"], where, errors)
        etype = event.get("type")
        if etype not in payloads:
            errors.append(f"{where}: unknown event type {etype!r}")
            continue
        check_required(event, payloads[etype], f"{where} ({etype})", errors)
        for field, allowed in enums.items():
            if field in payloads[etype] and event.get(field) not in allowed:
                errors.append(
                    f"{where} ({etype}): {field} {event.get(field)!r} "
                    f"not in {sorted(allowed)}"
                )
        seq, ts = event.get("seq"), event.get("ts_us")
        if isinstance(seq, int):
            if last_seq is not None and seq <= last_seq:
                errors.append(f"{where}: seq {seq} not strictly after {last_seq}")
            last_seq = seq
        job = event.get("job")
        if isinstance(job, str) and isinstance(ts, int):
            if ts < last_ts_per_job.get(job, 0):
                errors.append(
                    f"{where}: ts_us {ts} goes backwards for job {job!r} "
                    f"(was {last_ts_per_job[job]})"
                )
            last_ts_per_job[job] = ts
            chains.setdefault(job, []).append(etype)
        if etype == "submitted":
            recomputed["submitted"] += 1
        elif etype == "attempt_failed":
            recomputed["retried"] += 1
        elif etype == "terminal" and event.get("status") in recomputed:
            recomputed[event.get("status")] += 1
        if len(errors) > 20:
            errors.append("... (stopping after 20 violations)")
            return

    if doc.get("dropped") != 0:
        # A truncated ring dump: span chains and the identity are only
        # checkable on a complete journal.
        return
    for job, chain in chains.items():
        if chain[0] != "submitted":
            errors.append(
                f"servicetrace document: job {job!r} chain opens with "
                f"{chain[0]!r}, not 'submitted' (gap at the front)"
            )
        if chain[-1] != "terminal":
            errors.append(
                f"servicetrace document: job {job!r} chain ends with "
                f"{chain[-1]!r}, not 'terminal' (job lost mid-flight)"
            )
        if chain.count("terminal") != 1:
            errors.append(
                f"servicetrace document: job {job!r} has "
                f"{chain.count('terminal')} terminal events, expected exactly 1"
            )
    identity = sum(recomputed[s] for s in statuses)
    if identity != recomputed["submitted"]:
        errors.append(
            "servicetrace document: identity re-derived from events violated: "
            + " + ".join(f"{s} {recomputed[s]}" for s in statuses)
            + f" = {identity} != submitted {recomputed['submitted']}"
        )
    for obj_name in ("derived", "health"):
        obj = doc.get(obj_name)
        if not isinstance(obj, dict):
            continue
        for key, want in recomputed.items():
            if isinstance(obj.get(key), int) and obj[key] != want:
                errors.append(
                    f"servicetrace document: events re-derive {key} = {want} "
                    f"but {obj_name} says {obj[key]}"
                )
    cap = doc.get("queue_capacity")
    peak = doc.get("snapshot_queue_depth_max")
    if isinstance(cap, int) and isinstance(peak, int) and peak > cap:
        errors.append(
            f"servicetrace document: snapshot_queue_depth_max {peak} "
            f"exceeds queue_capacity {cap} (backpressure bound violated)"
        )


def check_chrome_trace(doc, schema, errors):
    spec = schema["chrome_trace"]
    check_required(doc, spec["required"], "chrome trace", errors)
    kinds = set(schema["stall_kinds"])
    events = doc.get("traceEvents", [])
    if not events:
        errors.append("chrome trace: traceEvents is empty")
    for i, event in enumerate(events):
        required = dict(spec["event_required"])
        if event.get("ph") == "M":
            # Metadata records (thread names) carry no timestamp.
            required.pop("ts", None)
        check_required(event, required, f"traceEvents[{i}]", errors)
        if event.get("cat") == "stall":
            name = event.get("name", "")
            kind = name.removeprefix("stall:")
            if kind not in kinds:
                errors.append(f"traceEvents[{i}]: unknown stall kind in {name!r}")
        if len(errors) > 20:
            errors.append("... (stopping after 20 violations)")
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", help="peakperf-profile-v1 document to validate")
    parser.add_argument("--trace", help="Chrome trace-event JSON to validate")
    parser.add_argument("--bench", help="peakperf-bench-v1 document to validate")
    parser.add_argument("--hostprof", help="peakperf-hostprof-v1 document to validate")
    parser.add_argument("--service", help="peakperf-service-v1 document to validate")
    parser.add_argument(
        "--servicetrace", help="peakperf-servicetrace-v1 journal document to validate"
    )
    args = parser.parse_args()
    if not any(
        (args.profile, args.trace, args.bench, args.hostprof, args.service, args.servicetrace)
    ):
        parser.error(
            "nothing to validate: pass --profile, --trace, --bench, --hostprof, "
            "--service, and/or --servicetrace"
        )

    with open(SCHEMA_PATH, encoding="utf-8") as f:
        schema = json.load(f)

    errors = []
    if args.profile:
        with open(args.profile, encoding="utf-8") as f:
            check_profile_document(json.load(f), schema, errors)
    if args.trace:
        with open(args.trace, encoding="utf-8") as f:
            check_chrome_trace(json.load(f), schema, errors)
    if args.bench:
        with open(BENCH_SCHEMA_PATH, encoding="utf-8") as f:
            bench_schema = json.load(f)
        with open(args.bench, encoding="utf-8") as f:
            check_bench_document(json.load(f), bench_schema, errors)
    if args.hostprof:
        with open(HOSTPROF_SCHEMA_PATH, encoding="utf-8") as f:
            hostprof_schema = json.load(f)
        with open(args.hostprof, encoding="utf-8") as f:
            check_hostprof_document(json.load(f), hostprof_schema, errors)
    if args.service:
        with open(SERVICE_SCHEMA_PATH, encoding="utf-8") as f:
            service_schema = json.load(f)
        with open(args.service, encoding="utf-8") as f:
            check_service_document(json.load(f), service_schema, errors)
    if args.servicetrace:
        with open(SERVICETRACE_SCHEMA_PATH, encoding="utf-8") as f:
            servicetrace_schema = json.load(f)
        with open(args.servicetrace, encoding="utf-8") as f:
            check_servicetrace_document(json.load(f), servicetrace_schema, errors)

    if errors:
        print(f"schema check FAILED ({len(errors)} violation(s)):", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    checked = " and ".join(
        p
        for p in (
            args.profile,
            args.trace,
            args.bench,
            args.hostprof,
            args.service,
            args.servicetrace,
        )
        if p
    )
    print(f"schema check OK: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
