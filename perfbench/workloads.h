#pragma once

/**
 * @file
 * The three workloads and the metric tables they report against.
 *
 * Every workload runs a closed loop: each caller waits for its answer
 * before it asks again. With --trace 0 a workload measures its
 * end-to-end metrics for --seconds with the benchmark's tracing off.
 * With --trace 1 it runs the same loop untraced for half the time and
 * traced for the other half, reports the per-layer metrics from the
 * traced half plus probes that time single layers from outside, and
 * reports the tracing overhead as the difference between the halves.
 */

#include <map>
#include <string>

#include "harness.h"
#include "server/client.h"

namespace perfbench {

/** One metric of a table: name, unit, and what it stands for. */
struct MetricDef {
    const char *name;
    const char *unit;
    const char *meaning;
};

/**
 * End-to-end metrics. Every workload reports every one of them; the
 * meaning of the generic names per workload is in README.md.
 */
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "median set-up before the first timed operation"},
    {"peak_rss_mb", "MB", "peak RSS of the process"},
    {"throughput_per_s", "1/s", "headline work completed per second"},
    {"p50_ms", "ms", "main caller's operation, median"},
    {"side_p50_ms", "ms", "second caller's operation, median"},
};

/**
 * Per-layer metrics of the traced run, each with the end-to-end metric
 * (and workload) it should move. A layer a workload never reaches
 * reports 0.
 */
inline constexpr MetricDef kPerLayer[] = {
    {"sim.run_ms", "ms",
     "floor under profile_kernels_per_s = throughput_per_s (profile)"},
    {"profiler.overhead_ms", "ms",
     "profile_kernels_per_s = throughput_per_s (profile)"},
    {"profiler.fig6_overhead_x", "x",
     "fig6_overhead_x (profile), deterministic"},
    {"dlmonitor.callpath_ns", "ns",
     "profile_kernels_per_s = throughput_per_s (profile)"},
    {"dlmonitor.cache_hit_ratio", "ratio",
     "profile_kernels_per_s, fig6_overhead_x (profile)"},
    {"dlmonitor.native_steps_per_path", "count",
     "profile_kernels_per_s, fig6_overhead_x (profile)"},
    {"profiler.cct_insert_ns", "ns",
     "profile_kernels_per_s = throughput_per_s (profile)"},
    {"profiler.paths_per_kernel", "ratio", "fig6_overhead_x (profile)"},
    {"profiler.nodes_created", "count", "fig6_overhead_x (profile)"},
    {"profiler.cct_bytes_per_node", "B",
     "peak_rss_mb (profile, ingest, query)"},
    {"profiler.serialize_ms", "ms",
     "profile_kernels_per_s = throughput_per_s (profile)"},
    {"profiler.parse_ms", "ms",
     "ingest_runs_per_s = throughput_per_s (ingest)"},
    {"profile_store.ingest_ms", "ms", "ingest_ack_p50_ms = p50_ms (ingest)"},
    {"warehouse_log.append_ms", "ms",
     "ingest_ack_p50_ms = p50_ms (ingest)"},
    {"warehouse_log.fsyncs_per_append", "ratio",
     "ingest_runs_per_s = throughput_per_s (ingest)"},
    {"warehouse_log.bytes_per_user_byte", "ratio",
     "ingest_runs_per_s = throughput_per_s (ingest)"},
    {"corpus_view.refresh_ms", "ms", "topk_p50_us = side_p50_ms (ingest)"},
    {"corpus_view.hit_ratio", "ratio",
     "topk_p99_us (ingest); cold_topk_p50_ms, query_ops_per_s (query)"},
    {"corpus_view.evictions", "count",
     "topk_p99_us (ingest); cold_topk_p50_ms, query_ops_per_s (query)"},
    {"corpus_view.rebuild_ms", "ms",
     "cold_topk_p50_ms, inside side_p50_ms (query)"},
    {"cct_merger.merge_ms", "ms",
     "cold_topk_p50_ms, federated_diff_p50_ms (query)"},
    {"query_engine.topk_us", "us", "topk_p50_us = p50_ms (query)"},
    {"gui.flame_html_ms", "ms", "flame_p50_ms, inside side_p50_ms (query)"},
    {"warehouse_manager.federated_diff_ms", "ms",
     "federated_diff_p50_ms, inside side_p50_ms (query)"},
    {"server.wire_encode_us", "us",
     "topk_p50_us = p50_ms, flame_p50_ms (query)"},
    {"server.wire_decode_us", "us",
     "topk_p50_us = p50_ms, flame_p50_ms (query)"},
    {"server.tax_us", "us", "topk_p50_us = p50_ms (query)"},
    {"server.ingest_tax_ms", "ms", "ingest_ack_p50_ms = p50_ms (ingest)"},
    {"server.bytes_out_per_op", "B",
     "query_ops_per_s = throughput_per_s (ingest, query)"},
    {"server.shed", "count", "share of failed operations (ingest, query)"},
    {"server.deadline_exceeded", "count",
     "share of failed operations (ingest, query)"},
    {"executor.stolen_per_op", "ratio",
     "cold_topk_p50_ms, federated_diff_p50_ms (query)"},
    {"executor.inline_per_op", "ratio",
     "cold_topk_p50_ms, federated_diff_p50_ms (query)"},
    {"trace.overhead_p50_pct", "%",
     "traced minus untraced p50_ms, as a share (all)"},
    {"trace.overhead_throughput_pct", "%",
     "untraced over traced throughput_per_s, minus 1 (all)"},
};

/** What a workload hands back to main(). */
struct Outcome {
    Report report; ///< Ops, checks and printed-only lines.
    /// End-to-end values by kEndToEnd name (untraced run), with the
    /// workload's own name for each beside it.
    std::map<std::string, double> e2e;
    std::map<std::string, std::string> e2e_alias;
    /// Per-layer values by kPerLayer name (traced run).
    std::map<std::string, double> layers;
};

Outcome runProfileWorkload(const Args &args);
Outcome runIngestWorkload(const Args &args);
Outcome runQueryWorkload(const Args &args);

/**
 * Classify one wire exchange: false when it succeeded, else true with
 * @p why set (transport error, OVERLOADED, DEADLINE_EXCEEDED, or any
 * other non-OK status).
 */
bool wireFailed(const dc::server::WireClient::Result &result, Failure *why);

/** Tracing overhead of the traced half against the untraced half. */
void addTraceOverhead(Outcome *out, double untraced_p50,
                      double traced_p50, double untraced_throughput,
                      double traced_throughput);

/** Print the layer self-time table and write the Chrome trace. */
void finishTrace(const Tracer &tracer, const Args &args, Outcome *out);

} // namespace perfbench
