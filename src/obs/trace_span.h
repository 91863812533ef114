#pragma once

/**
 * @file
 * RAII trace spans over the warehouse's own stage boundaries — the
 * causal layer on top of metrics_registry.h's aggregates.
 *
 * Each instrumented call site declares one static SpanSite (a name
 * like "query.topk" plus a sampling shift and slow-op threshold); an
 * ObsSpan on the stack then:
 *
 *  - always bumps the site's "<name>.count" counter (a few ns), and
 *  - on sampled spans (1 in 2^sample_shift) takes two monotonic clock
 *    reads, records "<name>.ns" into the site histogram, links itself
 *    to the innermost open sampled span on this thread (parent id),
 *    and appends a SpanRecord to the thread's bounded ring.
 *
 * Sampling is what keeps microsecond-scale query paths inside the ≤3%
 * overhead budget: the counters stay exact while only a fraction of
 * spans pay for timestamps and ring writes. Slow-path sites (ingest,
 * WAL, rebuild) use shift 0 and record everything.
 *
 * Rings wrap (oldest records are overwritten; the loss is counted in
 * "obs.spans.dropped"), so TraceBuffer::snapshot() is always "the
 * recent past" — enough for the Chrome-trace exporter and the
 * self-profile path (self_profile.h). Sampled spans whose duration
 * crosses the site's threshold (or the DC_OBS_SLOW_NS global default)
 * are additionally emitted to the slow-op log: a rate-limited DC_WARN
 * with structured key=value fields including the span id, so a trace
 * dump can be joined against the log line.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/obs.h"

namespace dc::obs {

/** Records kept per thread before the ring wraps. */
inline constexpr std::size_t kSpanRingCapacity = 2048;

/** One finished (sampled) span. */
struct SpanRecord {
    const char *name = nullptr; ///< Site name (static storage).
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0; ///< 0 when the span is a root.
    std::uint64_t start_ns = 0;  ///< obs::nowNs() timebase.
    std::uint64_t end_ns = 0;
    std::uint64_t arg = 0; ///< Site-specific payload (counts, bytes).
    std::uint32_t tid = 0; ///< Ring index, not the OS thread id.
};

namespace detail {
struct ThreadRing;
} // namespace detail

/**
 * Static per-call-site identity: name, sampling, slow threshold, and
 * the lazily registered counter/histogram handles. Declare one at
 * namespace/function-static scope and pass it to every ObsSpan from
 * that site:
 *
 *   static obs::SpanSite site{"query.topk", 4};
 *   obs::ObsSpan span(site, run_count);
 */
struct SpanSite {
    constexpr explicit SpanSite(const char *site_name,
                                std::uint32_t shift = 0,
                                std::uint64_t slow = 0)
        : name(site_name), sample_shift(shift), slow_ns(slow)
    {
    }

    const char *name;
    /** Time 1 in 2^sample_shift spans (0 = every span). */
    std::uint32_t sample_shift;
    /** Slow-op log threshold; 0 defers to DC_OBS_SLOW_NS. */
    std::uint64_t slow_ns;

    std::atomic<int> inited{0};
    Counter count;     ///< "<name>.count"
    Histogram latency; ///< "<name>.ns"

    /** Register the handles in the global registry (idempotent). */
    void ensureInit();
};

/** RAII span; see the file comment for cost model and semantics. */
class ObsSpan
{
  public:
    explicit ObsSpan(SpanSite &site, std::uint64_t arg = 0);
    ~ObsSpan();

    ObsSpan(const ObsSpan &) = delete;
    ObsSpan &operator=(const ObsSpan &) = delete;

    /** Whether this span drew a timing sample. */
    bool sampled() const { return site_ != nullptr; }
    /** This span's id (0 when unsampled). */
    std::uint64_t id() const { return span_id_; }

    /** Replace the payload recorded at destruction. */
    void setArg(std::uint64_t arg) { arg_ = arg; }

  private:
    void finish();

    SpanSite *site_ = nullptr; ///< Null when unsampled/disabled.
    detail::ThreadRing *ring_ = nullptr;
    std::uint64_t span_id_ = 0;
    std::uint64_t parent_id_ = 0;
    std::uint64_t start_ns_ = 0;
    std::uint64_t arg_ = 0;
};

/** Process-wide view over every thread's span ring. */
class TraceBuffer
{
  public:
    static TraceBuffer &global();

    /** Copy out every live record, oldest first per thread. */
    std::vector<SpanRecord> snapshot() const;

    /** Records lost to ring wraparound since start/clear. */
    std::uint64_t dropped() const;

    /** Drop all buffered records (tests, bench phase isolation). */
    void clear();

  private:
    TraceBuffer() = default;
    friend struct detail::ThreadRing;
};

/**
 * Render span records as a Chrome trace-event JSON document ("X" phase
 * complete events, microsecond timestamps), loadable in
 * chrome://tracing or Perfetto.
 */
std::string toChromeTrace(const std::vector<SpanRecord> &spans);

/** Process-default slow threshold (DC_OBS_SLOW_NS, default 50ms). */
std::uint64_t defaultSlowNs();
/** Override the global slow threshold at runtime (tests, bench). */
void setDefaultSlowNs(std::uint64_t ns);

} // namespace dc::obs
