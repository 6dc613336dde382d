#!/usr/bin/env python3
"""Compare a bench_perf_trajectory JSON against a checked-in baseline.

Usage: bench_check.py NEW_JSON BASELINE_JSON [--threshold FRAC]

Sections are matched by name; for each match the optimized (or
durable) throughput must not regress by more than --threshold (default
0.25, i.e. 25%) relative to the baseline — but only when the two runs
did the same amount of work (matching "operations"): a smoke run
compared against a full-workload baseline has systematically different
per-op rates (amortization scales with workload size), so there the
throughput diff is reported without being enforced and the
self-relative floors below carry the gate. Sections present on only one
side are reported but do not fail the check, so the harness can grow new
sections without breaking older baselines. A section in the new run with
counters_identical == false always fails: that means the optimization
changed the paper's algebra, not just its speed.

A server_read_scaling section additionally gates the 1->4-client read
scaling factor: it must reach --scaling-floor (default 2.0), but only
when the run's host_cores is at least 4 — a 1-core runner physically
cannot scale concurrent reads, so there the factor is reported without
being enforced.

A pipelining section gates the protocol-v1 batch speedup: one kBatch
frame of N statements must beat N individual kQuery round-trips by at
least --pipelining-floor (default 2.0). Unlike read scaling this does
not depend on core count — batching removes frame turnarounds and gate
acquisitions on a single connection — so it is always enforced. The
statement-cache hit rate embedded in the section is reported alongside.

An indexed_selection section gates the planner's index-backed access
path: point selection through the inverted index must beat
scan-and-filter by at least --indexed-floor (default 2.0), always
enforced (the advantage is algorithmic, not a concurrency effect).

A sharded_scatter_gather section gates the shard subsystem: 4
concurrent writers' point-routed inserts over 4 shards must beat the
same workload over 1 shard by at least --shard-floor (default 2.0).
Like read scaling this is a concurrency effect, so it is enforced only
when the run's host_cores is at least 4; the auto-skip names the
actual core count and the bench JSON records the same skip
(shard_floor_enforced / shard_floor_skip_reason). The section's
counters_identical covers the correctness half (scattered COUNT(*)
must be exact), so a merge bug fails the check even when the floor is
relaxed.

A replica_catchup section gates WAL shipping: a cold follower must
replay the primary's log at no less than --replica-lag-floor (default
0.5) times the primary's ingest rate, always enforced (both rates are
measured on the same host back-to-back, so the ratio is self-relative
like the checkpoint gate). Its counters_identical covers the
correctness half: the follower's canonical form must render
bit-identical to the primary's at the caught-up position.

A factorized_aggregation section must show strictly growing per-depth
speedups (depth_speedups): the expansion the baseline scans is
exponential in nesting depth while the factorized cost is linear, so a
non-growing profile means the factorized path is secretly expanding.

A checkpoint_latency section is gated by --checkpoint-flat: the
incremental checkpoint latency at the large database size must stay
within --checkpoint-flat-ratio (default: half the run's size_ratio) of
the latency at the small size, and the incremental checkpoints must
have skipped more pages than they wrote. Both checks are self-relative
(within one run on one host), so they hold on any runner; the section
is therefore excluded from the cross-run throughput comparison, whose
millisecond-scale absolute latencies are not comparable across hosts.

Exit code 0 = OK, 1 = regression (or broken counters), 2 = usage error.
"""

import argparse
import json
import sys


def load_sections(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, {s["name"]: s for s in doc.get("sections", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new_json")
    parser.add_argument("baseline_json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated fractional regression (default 0.25)",
    )
    parser.add_argument(
        "--scaling-floor",
        type=float,
        default=2.0,
        help="minimum 1->4-client read scaling, enforced only when the "
        "run reports host_cores >= 4 (default 2.0)",
    )
    parser.add_argument(
        "--pipelining-floor",
        type=float,
        default=2.0,
        help="minimum kBatch-over-kQuery speedup for the pipelining "
        "section, always enforced (default 2.0)",
    )
    parser.add_argument(
        "--indexed-floor",
        type=float,
        default=2.0,
        help="minimum index-over-scan speedup for the indexed_selection "
        "section, always enforced (default 2.0)",
    )
    parser.add_argument(
        "--shard-floor",
        type=float,
        default=2.0,
        help="minimum 4-shard-over-1-shard point-write speedup for the "
        "sharded_scatter_gather section, enforced only when the run "
        "reports host_cores >= 4 (default 2.0)",
    )
    parser.add_argument(
        "--replica-lag-floor",
        type=float,
        default=0.5,
        help="minimum follower apply-over-primary-ingest rate ratio for "
        "the replica_catchup section, always enforced (default 0.5; "
        "below 1.0 a replica falls behind under sustained full-rate "
        "load, the slack below 1.0 covers decode+ack overhead on "
        "constrained runners)",
    )
    parser.add_argument(
        "--checkpoint-flat",
        action="store_true",
        help="enforce the checkpoint_latency flatness gate (without it "
        "the section is only reported)",
    )
    parser.add_argument(
        "--checkpoint-flat-ratio",
        type=float,
        default=None,
        help="maximum large/small incremental checkpoint latency ratio "
        "(default: half the run's size_ratio)",
    )
    args = parser.parse_args()

    try:
        new_doc, new_sections = load_sections(args.new_json)
        base_doc, base_sections = load_sections(args.baseline_json)
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"bench_check: cannot load inputs: {err}", file=sys.stderr)
        return 2

    print(
        f"bench_check: PR{new_doc.get('pr', '?')} "
        f"({args.new_json}) vs PR{base_doc.get('pr', '?')} "
        f"({args.baseline_json}), threshold {args.threshold:.0%}"
    )

    failed = False
    host_cores = int(new_doc.get("host_cores", 0))
    for name, new in sorted(new_sections.items()):
        if not new.get("counters_identical", True):
            print(f"  FAIL {name}: counters_identical is false")
            failed = True
            continue
        if name == "server_read_scaling":
            scaling = float(new.get("read_scaling_1_to_4", 0.0))
            if host_cores >= 4:
                if scaling < args.scaling_floor:
                    print(
                        f"  FAIL {name}: 1->4 scaling x{scaling:.2f} below "
                        f"floor x{args.scaling_floor:.2f} "
                        f"({host_cores} cores)"
                    )
                    failed = True
                else:
                    print(
                        f"  ok   {name}: 1->4 scaling x{scaling:.2f} "
                        f"(floor x{args.scaling_floor:.2f}, "
                        f"{host_cores} cores)"
                    )
            else:
                reason = new.get(
                    "scaling_floor_skip_reason",
                    f"host has {host_cores} core(s); the floor requires"
                    " >= 4",
                )
                print(
                    f"  info {name}: 1->4 scaling x{scaling:.2f} — "
                    f"floor auto-skipped: {reason}"
                )
        if name == "sharded_scatter_gather":
            speedup = float(new.get("shard_write_speedup_4_vs_1", 0.0))
            if host_cores >= 4:
                if speedup < args.shard_floor:
                    print(
                        f"  FAIL {name}: 4-vs-1-shard write speedup "
                        f"x{speedup:.2f} below floor "
                        f"x{args.shard_floor:.2f} ({host_cores} cores)"
                    )
                    failed = True
                else:
                    print(
                        f"  ok   {name}: 4-vs-1-shard write speedup "
                        f"x{speedup:.2f} (floor x{args.shard_floor:.2f}, "
                        f"{host_cores} cores), scattered COUNT(*) exact"
                    )
            else:
                reason = new.get(
                    "shard_floor_skip_reason",
                    f"host has {host_cores} core(s); the floor requires"
                    " >= 4",
                )
                print(
                    f"  info {name}: 4-vs-1-shard write speedup "
                    f"x{speedup:.2f} — floor auto-skipped: {reason}; "
                    f"scattered COUNT(*) exact"
                )
        if name == "pipelining":
            speedup = float(new.get("batch_speedup", 0.0))
            hit_rate = float(new.get("stmtcache_hit_rate", 0.0))
            if speedup < args.pipelining_floor:
                print(
                    f"  FAIL {name}: batch speedup x{speedup:.2f} below "
                    f"floor x{args.pipelining_floor:.2f}"
                )
                failed = True
            else:
                print(
                    f"  ok   {name}: batch speedup x{speedup:.2f} "
                    f"(floor x{args.pipelining_floor:.2f}), statement "
                    f"cache hit rate {hit_rate:.1%}"
                )
        if name == "indexed_selection":
            speedup = float(new.get("indexed_selection_speedup", 0.0))
            if speedup < args.indexed_floor:
                print(
                    f"  FAIL {name}: index speedup x{speedup:.2f} below "
                    f"floor x{args.indexed_floor:.2f}"
                )
                failed = True
            else:
                print(
                    f"  ok   {name}: index beat full scan x{speedup:.2f} "
                    f"(floor x{args.indexed_floor:.2f})"
                )
        if name == "replica_catchup":
            ratio = float(new.get("catchup_apply_ratio", 0.0))
            if ratio < args.replica_lag_floor:
                print(
                    f"  FAIL {name}: apply/ingest ratio x{ratio:.2f} below "
                    f"floor x{args.replica_lag_floor:.2f} — a replica at "
                    f"this rate falls behind under sustained load"
                )
                failed = True
            else:
                print(
                    f"  ok   {name}: follower applied at x{ratio:.2f} the "
                    f"primary's ingest rate (floor "
                    f"x{args.replica_lag_floor:.2f}), canonical form "
                    f"bit-identical"
                )
        if name == "factorized_aggregation":
            speedups = [float(s) for s in new.get("depth_speedups", [])]
            depths = new.get("depths", [])
            profile = ", ".join(
                f"d{d}=x{s:.1f}" for d, s in zip(depths, speedups)
            )
            grows = len(speedups) >= 2 and all(
                a < b for a, b in zip(speedups, speedups[1:])
            )
            if not grows:
                print(
                    f"  FAIL {name}: per-depth speedups must grow with "
                    f"depth, got [{profile}]"
                )
                failed = True
            else:
                print(f"  ok   {name}: speedup grows with depth [{profile}]")
        if name == "checkpoint_latency":
            size_ratio = float(new.get("size_ratio", 0.0))
            ratio = float(new.get("latency_ratio_large_over_small", 0.0))
            written = int(new.get("incremental_pages_written", 0))
            skipped = int(new.get("incremental_pages_skipped", 0))
            bound = (
                args.checkpoint_flat_ratio
                if args.checkpoint_flat_ratio is not None
                else size_ratio / 2.0
            )
            flat = ratio > 0 and ratio <= bound
            skips = skipped > written
            detail = (
                f"latency ratio x{ratio:.2f} over a x{size_ratio:.1f} size "
                f"spread (bound x{bound:.2f}); {written} pages written, "
                f"{skipped} skipped"
            )
            if args.checkpoint_flat and not (flat and skips):
                why = "latency not flat" if not flat else "nothing skipped"
                print(f"  FAIL {name}: {why} — {detail}")
                failed = True
            elif args.checkpoint_flat:
                print(f"  ok   {name}: {detail}")
            else:
                print(f"  info {name}: {detail} — gate off")
            # Self-relative gates only; absolute ms-scale latencies are
            # not comparable across hosts, so skip the throughput diff.
            continue
        base = base_sections.get(name)
        if base is None:
            print(f"  skip {name}: not in baseline")
            continue
        old_rate = float(base["optimized_ops_per_sec"])
        new_rate = float(new["optimized_ops_per_sec"])
        if old_rate <= 0:
            print(f"  skip {name}: baseline rate is zero")
            continue
        change = new_rate / old_rate - 1.0
        new_ops = int(new.get("operations", 0))
        base_ops = int(base.get("operations", 0))
        if new_ops != base_ops:
            # Different workload sizes: per-op rates are not comparable
            # (amortization scales with size), so report only — the
            # floors above are the gates that hold across sizes.
            print(
                f"  info {name}: {old_rate:,.0f} -> {new_rate:,.0f} ops/s "
                f"({change:+.1%}) on a different workload "
                f"({base_ops} vs {new_ops} ops) — not enforced"
            )
            continue
        verdict = "FAIL" if change < -args.threshold else "ok"
        print(
            f"  {verdict:4s} {name}: {old_rate:,.0f} -> {new_rate:,.0f} "
            f"ops/s ({change:+.1%})"
        )
        if verdict == "FAIL":
            failed = True
    for name in sorted(set(base_sections) - set(new_sections)):
        print(f"  warn {name}: in baseline but missing from new run")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
