/** @file Tests for the warehouse's self-observability layer. */

#include <gtest/gtest.h>

#include <thread>
#include <unistd.h>

#include "common/fs.h"
#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"
#include "obs/self_profile.h"
#include "obs/trace_span.h"
#include "service/profile_store.h"
#include "service/query_engine.h"

namespace dc::obs {
namespace {

/** Fresh empty per-test directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::vector<std::string> entries;
    if (listDir(dir, &entries)) {
        for (const std::string &entry : entries)
            removeFile(dir + "/" + entry);
    }
    EXPECT_TRUE(ensureDir(dir));
    return dir;
}

// ------------------------------------------------------ bucket mapping

TEST(HistBuckets, ExactBelowEightAndBoundedErrorAbove)
{
    // Small values map to their own bucket.
    for (std::uint64_t v = 0; v < 8; ++v) {
        EXPECT_EQ(histBucket(v), v);
        EXPECT_EQ(histBucketLower(v), v);
        EXPECT_EQ(histBucketMid(v), v);
    }
    // Above: the bucket brackets the value and the midpoint is within
    // the documented 12.5% relative error.
    for (std::uint64_t v : {8ull, 13ull, 100ull, 999ull, 4096ull,
                            123456789ull, 1ull << 40, ~0ull}) {
        const std::size_t idx = histBucket(v);
        ASSERT_LT(idx, kHistBuckets);
        EXPECT_LE(histBucketLower(idx), v);
        if (idx + 1 < kHistBuckets && v != ~0ull) {
            EXPECT_GT(histBucketLower(idx + 1), v);
        }
        const double mid = static_cast<double>(histBucketMid(idx));
        EXPECT_LE(std::abs(mid - static_cast<double>(v)),
                  0.125 * static_cast<double>(v));
    }
    // Monotone: growing values never map to a smaller bucket.
    std::size_t prev = 0;
    for (std::uint64_t v = 0; v < 100000; v += 17) {
        const std::size_t idx = histBucket(v);
        EXPECT_GE(idx, prev);
        prev = idx;
    }
}

// ------------------------------------------------- counters/histograms

TEST(MetricsRegistry, CountersExactUnderConcurrentWriters)
{
    MetricsRegistry registry;
    Counter counter = registry.counter("test.concurrent");
    constexpr int kThreads = 4;
    constexpr int kAdds = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kAdds; ++i)
                counter.add();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(registry.snapshot().counter("test.concurrent"),
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(MetricsRegistry, HistogramExactCountSumMaxAndSaneQuantiles)
{
    MetricsRegistry registry;
    Histogram hist = registry.histogram("test.latency");
    constexpr int kThreads = 4;
    constexpr int kRecords = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, t] {
            for (int i = 0; i < kRecords; ++i)
                hist.record(100 + (i % 900) + t);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const MetricsSnapshot snap = registry.snapshot();
    const HistogramSnapshot *h = snap.histogram("test.latency");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kRecords);
    EXPECT_GE(h->max, 999u);
    EXPECT_LE(h->max, 1003u);
    // Values are ~100..1003; quantiles must land inside the range
    // within the bucket error.
    EXPECT_GE(h->p50, 100u * 7 / 8);
    EXPECT_LE(h->p99, 1003u * 9 / 8);
    EXPECT_LE(h->p50, h->p95);
    EXPECT_LE(h->p95, h->p99);
    EXPECT_NEAR(h->mean(), 551.5, 60.0);
}

TEST(MetricsRegistry, SnapshotWhileWritingIsMonotonic)
{
    MetricsRegistry registry;
    Counter counter = registry.counter("test.racing");
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        do {
            counter.add();
        } while (!stop.load(std::memory_order_relaxed));
    });
    std::uint64_t last = 0;
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t now =
            registry.snapshot().counter("test.racing");
        EXPECT_GE(now, last);
        last = now;
    }
    stop.store(true);
    writer.join();
    EXPECT_GT(registry.snapshot().counter("test.racing"), 0u);
}

TEST(MetricsRegistry, SlabSurvivesThreadExitAndJsonRenders)
{
    MetricsRegistry registry;
    Counter counter = registry.counter("test.exit");
    std::thread([&counter] { counter.add(41); }).join();
    counter.add();
    EXPECT_EQ(registry.snapshot().counter("test.exit"), 42u);

    registry.histogram("test.h").record(7);
    const std::string json = registry.toJson();
    EXPECT_NE(json.find("\"test.exit\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"test.h\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);

    registry.reset();
    EXPECT_EQ(registry.snapshot().counter("test.exit"), 0u);
}

TEST(MetricsRegistry, DisabledRecordsNothing)
{
    MetricsRegistry registry;
    Counter counter = registry.counter("test.disabled");
    setEnabled(false);
    counter.add(5);
    setEnabled(true);
    counter.add(2);
    EXPECT_EQ(registry.snapshot().counter("test.disabled"), 2u);
}

// ------------------------------------------------------------- spans

TEST(TraceSpans, RecordsNestingAndRingWraparound)
{
    TraceBuffer::global().clear();
    MetricsRegistry::global().reset();
    static SpanSite outer{"test.span.outer"};
    static SpanSite inner{"test.span.inner"};
    {
        ObsSpan a(outer, 11);
        ObsSpan b(inner, 22);
        EXPECT_TRUE(a.sampled());
        EXPECT_TRUE(b.sampled());
    }
    std::vector<SpanRecord> spans = TraceBuffer::global().snapshot();
    const SpanRecord *out_rec = nullptr;
    const SpanRecord *in_rec = nullptr;
    for (const SpanRecord &span : spans) {
        if (std::string(span.name) == "test.span.outer")
            out_rec = &span;
        if (std::string(span.name) == "test.span.inner")
            in_rec = &span;
    }
    ASSERT_NE(out_rec, nullptr);
    ASSERT_NE(in_rec, nullptr);
    EXPECT_EQ(in_rec->parent_id, out_rec->span_id);
    EXPECT_EQ(out_rec->parent_id, 0u);
    EXPECT_EQ(out_rec->arg, 11u);
    EXPECT_LE(out_rec->start_ns, in_rec->start_ns);
    EXPECT_GE(out_rec->end_ns, in_rec->end_ns);

    // The site registered its exact counter and its histogram.
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counter("test.span.outer.count"), 1u);
    const HistogramSnapshot *h = snap.histogram("test.span.inner.ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);

    // Wraparound: overflow one thread's ring; the buffer keeps the
    // most recent records and counts the overwritten ones as dropped.
    TraceBuffer::global().clear();
    static SpanSite wrap{"test.span.wrap"};
    for (std::size_t i = 0; i < kSpanRingCapacity + 100; ++i)
        ObsSpan span(wrap, i);
    spans = TraceBuffer::global().snapshot();
    std::size_t wrapped = 0;
    std::uint64_t min_arg = ~0ull;
    for (const SpanRecord &span : spans) {
        if (std::string(span.name) == "test.span.wrap") {
            ++wrapped;
            min_arg = std::min(min_arg, span.arg);
        }
    }
    EXPECT_LE(wrapped, kSpanRingCapacity);
    EXPECT_GE(wrapped, kSpanRingCapacity - 2);
    EXPECT_GE(min_arg, 100u); // oldest were overwritten
    EXPECT_GE(TraceBuffer::global().dropped(), 100u);
    EXPECT_EQ(MetricsRegistry::global().snapshot().counter(
                  "test.span.wrap.count"),
              kSpanRingCapacity + 100);
}

TEST(TraceSpans, SamplingKeepsCountersExactButThinsRecords)
{
    TraceBuffer::global().clear();
    MetricsRegistry::global().reset();
    static SpanSite sampled{"test.span.sampled", 4}; // 1 in 16
    constexpr std::size_t kCalls = 1600;
    for (std::size_t i = 0; i < kCalls; ++i)
        ObsSpan span(sampled);
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counter("test.span.sampled.count"), kCalls);
    const HistogramSnapshot *h =
        snap.histogram("test.span.sampled.ns");
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->count, 0u);
    EXPECT_LE(h->count, kCalls / 16 + 2);
}

TEST(TraceSpans, SlowOpLogThresholdAndRateLimit)
{
    MetricsRegistry::global().reset();
    static SpanSite slow{"test.span.slow", 0, 1}; // 1ns: always slow
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    for (int i = 0; i < 40; ++i) {
        ObsSpan span(slow);
        // A real (tiny) duration so duration >= 1ns holds.
        volatile int sink = 0;
        for (int j = 0; j < 100; ++j)
            sink = sink + j;
    }
    const MetricsSnapshot after = MetricsRegistry::global().snapshot();
    const std::uint64_t emitted =
        after.counter("obs.slowlog.emitted") -
        before.counter("obs.slowlog.emitted");
    const std::uint64_t suppressed =
        after.counter("obs.slowlog.suppressed") -
        before.counter("obs.slowlog.suppressed");
    EXPECT_GE(emitted, 1u);
    EXPECT_LE(emitted, 10u); // token bucket: ~10 per second
    EXPECT_GE(emitted + suppressed, 40u);

    // Below threshold nothing is emitted.
    setDefaultSlowNs(~0ull >> 1);
    static SpanSite fast{"test.span.fast"};
    { ObsSpan span(fast); }
    setDefaultSlowNs(0);
    const MetricsSnapshot end = MetricsRegistry::global().snapshot();
    EXPECT_EQ(end.counter("obs.slowlog.emitted"),
              after.counter("obs.slowlog.emitted"));
}

TEST(TraceSpans, ChromeTraceExportContainsCompleteEvents)
{
    TraceBuffer::global().clear();
    static SpanSite site{"test.span.chrome"};
    { ObsSpan span(site, 7); }
    const std::string json =
        toChromeTrace(TraceBuffer::global().snapshot());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("test.span.chrome"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"span_id\""), std::string::npos);
}

// ------------------------------------------------------- self-profile

TEST(SelfProfile, RoundTripsThroughWarehouseQueries)
{
    TraceBuffer::global().clear();
    static SpanSite ingest{"selftest.ingest"};
    static SpanSite parse{"selftest.parse"};
    static SpanSite query{"selftest.query"};
    for (int i = 0; i < 5; ++i) {
        ObsSpan outer(ingest);
        {
            ObsSpan child(parse);
            volatile int sink = 0;
            for (int j = 0; j < 1000; ++j)
                sink = sink + j;
        }
    }
    { ObsSpan span(query); }

    std::vector<SpanRecord> spans;
    for (const SpanRecord &span : TraceBuffer::global().snapshot()) {
        const std::string name = span.name;
        if (name.rfind("selftest.", 0) == 0)
            spans.push_back(span);
    }
    ASSERT_EQ(spans.size(), 11u);

    auto profile = selfProfile(spans, {{"model", "unit"}});
    ASSERT_NE(profile, nullptr);
    std::string error;
    EXPECT_TRUE(profile->validate(&error)) << error;

    // Inclusive root time equals the sum of root-span durations (self
    // times re-accumulate through propagation).
    std::uint64_t root_total = 0;
    for (const SpanRecord &span : spans) {
        if (span.parent_id == 0)
            root_total += span.end_ns - span.start_ns;
    }
    const int rt =
        profile->metrics().find(prof::metric_names::kRealTime);
    ASSERT_GE(rt, 0);
    const RunningStat *root_stat =
        profile->cct().root().findMetric(rt);
    ASSERT_NE(root_stat, nullptr);
    EXPECT_NEAR(root_stat->sum(), static_cast<double>(root_total),
                1.0);

    // Serialize -> parse round trip, then serve it from the warehouse
    // and query it with the warehouse's own machinery.
    const std::string text = profile->serialize();
    auto reparsed = prof::ProfileDb::tryDeserialize(text, &error);
    ASSERT_NE(reparsed, nullptr) << error;

    service::ProfileStore store;
    store.ingestText("self", text);
    store.waitIdle();
    ASSERT_EQ(store.stats().ingested, 1u);
    service::QueryEngine engine(store);
    const auto top = engine.topKernels(
        10, service::QueryFilter{}, prof::metric_names::kRealTime);
    ASSERT_FALSE(top.empty());
    std::vector<std::string> names;
    for (const auto &agg : top)
        names.push_back(agg.name);
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "selftest.ingest"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "selftest.parse"),
              names.end());

    gui::FlameGraphOptions options;
    options.metric = prof::metric_names::kRealTime;
    const auto flame = engine.flameGraph(service::QueryFilter{}, options);
    ASSERT_NE(flame, nullptr);
    ASSERT_FALSE(flame->children.empty());
    bool found_nested = false;
    for (const auto &child : flame->children) {
        if (child.label == "selftest.ingest") {
            for (const auto &grandchild : child.children)
                found_nested |= grandchild.label == "selftest.parse";
        }
    }
    EXPECT_TRUE(found_nested);
}

// ---------------------------------------------------- logging satellite

TEST(Logging, ParseLogLevelAcceptsKnownNamesCaseInsensitively)
{
    LogLevel level = LogLevel::kError;
    EXPECT_TRUE(parseLogLevel("debug", level));
    EXPECT_EQ(level, LogLevel::kDebug);
    EXPECT_TRUE(parseLogLevel("INFO", level));
    EXPECT_EQ(level, LogLevel::kInfo);
    EXPECT_TRUE(parseLogLevel("Warning", level));
    EXPECT_EQ(level, LogLevel::kWarn);
    EXPECT_TRUE(parseLogLevel("error", level));
    EXPECT_EQ(level, LogLevel::kError);
    EXPECT_FALSE(parseLogLevel("verbose", level));
    EXPECT_FALSE(parseLogLevel("", level));
}

TEST(Logging, LogFieldFormatsAndQuotes)
{
    EXPECT_EQ(logField("site", "wal.append"), "site=wal.append");
    EXPECT_EQ(logField("duration_ns", 1234), "duration_ns=1234");
    EXPECT_EQ(logField("msg", "disk is full"),
              "msg=\"disk is full\"");
    EXPECT_EQ(logField("expr", "a=b"), "expr=\"a=b\"");
    EXPECT_EQ(logField("quote", "say \"hi\""),
              "quote=\"say \\\"hi\\\"\"");
    EXPECT_EQ(logField("empty", ""), "empty=\"\"");
    EXPECT_EQ(logField("nl", "a\nb"), "nl=\"a\\nb\"");
}

// --------------------------------------------------- WAL health fields

TEST(StoreWalHealth, FsyncsCountedAndNoErrorAgeWhenHealthy)
{
    const std::string dir = freshDir("obs_wal_health");
    service::ProfileStore::Options options;
    options.data_dir = dir;
    options.workers = 2;
    service::ProfileStore store(options);
    ASSERT_TRUE(store.logHealthy());

    auto profile = selfProfile({});
    store.ingestText("r1", profile->serialize());
    store.ingestText("r2", profile->serialize());
    store.waitIdle();

    const service::StoreStats stats = store.stats();
    EXPECT_EQ(stats.ingested, 2u);
    EXPECT_EQ(stats.log_appends, 2u);
    // Group commit: at least one fsync covered the appends, and never
    // more than one per append.
    EXPECT_GE(stats.log_fsyncs, 1u);
    EXPECT_LE(stats.log_fsyncs, 2u);
    EXPECT_EQ(stats.log_append_failures, 0u);
    EXPECT_EQ(stats.log_last_error_age_ns, 0u);
}

TEST(StoreWalHealth, AppendFailureRecordsErrorAge)
{
    const std::string dir = freshDir("obs_wal_fail");
    service::ProfileStore::Options options;
    options.data_dir = dir;
    options.workers = 1;
    options.log_segment_bytes = 1; // roll over on every append
    service::ProfileStore store(options);
    ASSERT_TRUE(store.logHealthy());

    auto profile = selfProfile({});
    const std::string text = profile->serialize();
    store.ingestText("r1", text);
    store.waitIdle();
    ASSERT_EQ(store.stats().log_appends, 1u);

    // Pull the directory out from under the log: the next append must
    // roll to a new segment, whose creation now fails.
    std::vector<std::string> entries;
    ASSERT_TRUE(listDir(dir, &entries));
    for (const std::string &entry : entries)
        removeFile(dir + "/" + entry);
    ASSERT_EQ(::rmdir(dir.c_str()), 0);

    store.ingestText("r2", text);
    store.waitIdle();

    const service::StoreStats stats = store.stats();
    EXPECT_EQ(stats.ingested, 2u); // kept in memory
    EXPECT_GE(stats.log_append_failures, 1u);
    EXPECT_GT(stats.log_last_error_age_ns, 0u);
    EXPECT_FALSE(store.logHealthy());
    EXPECT_TRUE(ensureDir(dir)); // leave a dir for the temp cleaner
}

} // namespace
} // namespace dc::obs
