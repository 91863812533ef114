#include "obs/metrics_registry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/obs.h"

namespace dc::obs {

// ------------------------------------------------------------- obs.h runtime

namespace detail {

std::atomic<int> g_enabled_state{0};

bool
enabledSlow()
{
    // Latch from the environment exactly once; later setEnabled()
    // calls overwrite the latched state.
    const char *env = std::getenv("DC_OBS");
    int state = 1;
    if (env != nullptr &&
        (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "false") == 0)) {
        state = 2;
    }
    int expected = 0;
    g_enabled_state.compare_exchange_strong(expected, state,
                                            std::memory_order_relaxed);
    return g_enabled_state.load(std::memory_order_relaxed) == 1;
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled_state.store(on ? 1 : 2,
                                  std::memory_order_relaxed);
}

std::uint64_t
nowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

// ------------------------------------------------------------ bucket mapping

std::size_t
histBucket(std::uint64_t value)
{
    // Values below 2^(kHistSubBits+1) map exactly; above, the octave
    // (MSB position) picks a group of 2^kHistSubBits sub-buckets and
    // the bits just under the MSB pick the sub-bucket.
    constexpr std::uint64_t kExact = 1ull << (kHistSubBits + 1);
    if (value < kExact)
        return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const std::uint64_t sub = (value >> (msb - kHistSubBits)) &
                              ((1ull << kHistSubBits) - 1);
    return (static_cast<std::size_t>(msb - kHistSubBits)
            << kHistSubBits) +
           static_cast<std::size_t>(sub) + (1u << kHistSubBits);
}

std::uint64_t
histBucketLower(std::size_t index)
{
    constexpr std::size_t kExact = 1u << (kHistSubBits + 1);
    if (index < kExact)
        return index;
    const std::size_t msb =
        ((index - (1u << kHistSubBits)) >> kHistSubBits) + kHistSubBits;
    const std::uint64_t sub =
        (index - (1u << kHistSubBits)) & ((1u << kHistSubBits) - 1);
    return (1ull << msb) + (sub << (msb - kHistSubBits));
}

std::uint64_t
histBucketMid(std::size_t index)
{
    constexpr std::size_t kExact = 1u << (kHistSubBits + 1);
    if (index < kExact)
        return index;
    const std::size_t msb =
        ((index - (1u << kHistSubBits)) >> kHistSubBits) + kHistSubBits;
    return histBucketLower(index) +
           (1ull << (msb - kHistSubBits)) / 2;
}

// ------------------------------------------------------------ registry state

namespace detail {

/** One thread's private block of relaxed atomics. */
struct ThreadSlab {
    std::atomic<std::uint64_t> counters[kMaxCounters] = {};
    struct Hist {
        std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> count{0};
        /// Written only by the owning thread (monotonic max), read
        /// relaxed by snapshots.
        std::atomic<std::uint64_t> max{0};
    };
    Hist hists[kMaxHistograms];
};

struct RegistryState {
    std::mutex mutex; ///< Registration, slab list, snapshot iteration.
    std::map<std::string, std::uint32_t> counter_ids;
    std::vector<std::string> counter_names;
    std::map<std::string, std::uint32_t> histogram_ids;
    std::vector<std::string> histogram_names;
    std::vector<std::unique_ptr<ThreadSlab>> slabs;
    std::vector<ThreadSlab *> free_slabs;
};

namespace {

/**
 * Thread-local (registry -> slab) cache. The destructor returns every
 * slab to its registry's free list, so worker-pool churn (each
 * ProfileStore spawns threads) reuses a bounded slab set; the
 * shared_ptr keeps a test registry's state alive until its last writer
 * thread has exited.
 */
struct TlsSlabCache {
    RegistryState *last_state = nullptr;
    ThreadSlab *last_slab = nullptr;
    std::vector<std::pair<std::shared_ptr<RegistryState>, ThreadSlab *>>
        slabs;

    ~TlsSlabCache()
    {
        for (auto &[state, slab] : slabs) {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->free_slabs.push_back(slab);
        }
    }
};

thread_local TlsSlabCache t_slab_cache;

ThreadSlab *
slabFor(const std::shared_ptr<RegistryState> &state)
{
    TlsSlabCache &cache = t_slab_cache;
    if (cache.last_state == state.get())
        return cache.last_slab;
    for (const auto &[known, slab] : cache.slabs) {
        if (known.get() == state.get()) {
            cache.last_state = state.get();
            cache.last_slab = slab;
            return slab;
        }
    }
    ThreadSlab *slab = nullptr;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->free_slabs.empty()) {
            slab = state->free_slabs.back();
            state->free_slabs.pop_back();
        } else {
            state->slabs.push_back(std::make_unique<ThreadSlab>());
            slab = state->slabs.back().get();
        }
    }
    cache.slabs.emplace_back(state, slab);
    cache.last_state = state.get();
    cache.last_slab = slab;
    return slab;
}

} // namespace
} // namespace detail

// ----------------------------------------------------------------- handles

void
Counter::add(std::uint64_t n) const
{
    if (state_ == nullptr || !enabled())
        return;
    detail::slabFor(state_)->counters[id_].fetch_add(
        n, std::memory_order_relaxed);
}

void
Histogram::record(std::uint64_t value) const
{
    if (state_ == nullptr || !enabled())
        return;
    detail::ThreadSlab::Hist &hist =
        detail::slabFor(state_)->hists[id_];
    hist.buckets[histBucket(value)].fetch_add(
        1, std::memory_order_relaxed);
    hist.sum.fetch_add(value, std::memory_order_relaxed);
    hist.count.fetch_add(1, std::memory_order_relaxed);
    // Owner-only monotonic max: no CAS needed, snapshots read relaxed.
    if (value > hist.max.load(std::memory_order_relaxed))
        hist.max.store(value, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- snapshot

std::uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    for (const auto &[key, value] : counters) {
        if (key == name)
            return value;
    }
    return 0;
}

const HistogramSnapshot *
MetricsSnapshot::histogram(const std::string &name) const
{
    for (const HistogramSnapshot &hist : histograms) {
        if (hist.name == name)
            return &hist;
    }
    return nullptr;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        out += "\"" + jsonEscape(counters[i].first) +
               "\": " + std::to_string(counters[i].second);
    }
    out += counters.empty() ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const HistogramSnapshot &hist = histograms[i];
        out += i ? ",\n    " : "\n    ";
        out += "\"" + jsonEscape(hist.name) + "\": {";
        out += strformat("\"count\": %llu, \"sum\": %llu, "
                         "\"max\": %llu, \"mean\": %.1f, "
                         "\"p50\": %llu, \"p95\": %llu, \"p99\": %llu}",
                         static_cast<unsigned long long>(hist.count),
                         static_cast<unsigned long long>(hist.sum),
                         static_cast<unsigned long long>(hist.max),
                         hist.mean(),
                         static_cast<unsigned long long>(hist.p50),
                         static_cast<unsigned long long>(hist.p95),
                         static_cast<unsigned long long>(hist.p99));
    }
    out += histograms.empty() ? "}\n}\n" : "\n  }\n}\n";
    return out;
}

// ---------------------------------------------------------------- registry

MetricsRegistry::MetricsRegistry()
    : state_(std::make_shared<detail::RegistryState>())
{
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->counter_ids.find(name);
    if (it == state_->counter_ids.end()) {
        DC_CHECK(state_->counter_names.size() < kMaxCounters,
                 "metric counter limit reached registering '", name,
                 "'");
        const std::uint32_t id =
            static_cast<std::uint32_t>(state_->counter_names.size());
        state_->counter_names.push_back(name);
        it = state_->counter_ids.emplace(name, id).first;
    }
    return Counter(state_, it->second);
}

Histogram
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->histogram_ids.find(name);
    if (it == state_->histogram_ids.end()) {
        DC_CHECK(state_->histogram_names.size() < kMaxHistograms,
                 "metric histogram limit reached registering '", name,
                 "'");
        const std::uint32_t id = static_cast<std::uint32_t>(
            state_->histogram_names.size());
        state_->histogram_names.push_back(name);
        it = state_->histogram_ids.emplace(name, id).first;
    }
    return Histogram(state_, it->second);
}

namespace {

std::uint64_t
quantileFromBuckets(const std::uint64_t (&buckets)[kHistBuckets],
                    std::uint64_t count, double q)
{
    if (count == 0)
        return 0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * static_cast<double>(count) +
                                      0.5));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
        cumulative += buckets[i];
        if (cumulative >= rank)
            return histBucketMid(i);
    }
    return histBucketMid(kHistBuckets - 1);
}

} // namespace

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(state_->mutex);
    snap.counters.reserve(state_->counter_names.size());
    for (std::size_t id = 0; id < state_->counter_names.size(); ++id) {
        std::uint64_t total = 0;
        for (const auto &slab : state_->slabs) {
            total +=
                slab->counters[id].load(std::memory_order_relaxed);
        }
        snap.counters.emplace_back(state_->counter_names[id], total);
    }
    snap.histograms.reserve(state_->histogram_names.size());
    for (std::size_t id = 0; id < state_->histogram_names.size();
         ++id) {
        HistogramSnapshot hist;
        hist.name = state_->histogram_names[id];
        std::uint64_t buckets[kHistBuckets] = {};
        for (const auto &slab : state_->slabs) {
            const detail::ThreadSlab::Hist &src = slab->hists[id];
            for (std::size_t b = 0; b < kHistBuckets; ++b) {
                buckets[b] +=
                    src.buckets[b].load(std::memory_order_relaxed);
            }
            hist.sum += src.sum.load(std::memory_order_relaxed);
            hist.count += src.count.load(std::memory_order_relaxed);
            hist.max = std::max(
                hist.max, src.max.load(std::memory_order_relaxed));
        }
        hist.p50 = quantileFromBuckets(buckets, hist.count, 0.50);
        hist.p95 = quantileFromBuckets(buckets, hist.count, 0.95);
        hist.p99 = quantileFromBuckets(buckets, hist.count, 0.99);
        snap.histograms.push_back(std::move(hist));
    }
    return snap;
}

std::string
MetricsRegistry::toJson() const
{
    return snapshot().toJson();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    for (const auto &slab : state_->slabs) {
        for (auto &counter : slab->counters)
            counter.store(0, std::memory_order_relaxed);
        for (auto &hist : slab->hists) {
            for (auto &bucket : hist.buckets)
                bucket.store(0, std::memory_order_relaxed);
            hist.sum.store(0, std::memory_order_relaxed);
            hist.count.store(0, std::memory_order_relaxed);
            hist.max.store(0, std::memory_order_relaxed);
        }
    }
}

} // namespace dc::obs
