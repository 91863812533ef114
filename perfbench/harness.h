#pragma once

/**
 * @file
 * The benchmark's own machinery, kept apart from the program under
 * test: the seeded input generator, latency samples with the
 * percentile / sample-count rule, operation and failure accounting,
 * the span recorder of the traced run, and the result report.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p start. */
double msSince(Clock::time_point start);

/**
 * Seeded input generator (SplitMix64). The seed alone decides every
 * input the benchmark draws; the program under test only ever sees
 * the generated values.
 */
class Gen
{
  public:
    explicit Gen(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform in [0, n); n must be > 0. */
    std::size_t below(std::size_t n);
    /** An independent generator for sub-stream @p stream. */
    Gen fork(std::uint64_t stream) const;
    /** 16 lowercase hex digits (run ids). */
    std::string token();

    /** Fisher-Yates shuffle: a seed changes the order, never the set. */
    template <typename T>
    void shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/**
 * Latency samples of one operation class, in milliseconds. A failed or
 * refused operation is recorded as +infinity, so it misses every
 * latency limit.
 */
class Latency
{
  public:
    /// A percentile is reported only with this many samples beyond it.
    static constexpr std::size_t kTail = 10;

    void add(double ms) { samples_.push_back(ms); }
    void addFailed();
    void merge(const Latency &other);
    std::size_t count() const { return samples_.size(); }

    /** Whether @p n samples leave kTail samples beyond quantile @p p. */
    static bool supports(std::size_t n, double p);
    /**
     * Nearest-rank quantile @p p in (0, 1); NaN when supports() fails
     * or the quantile itself is a failed operation.
     */
    double percentile(double p) const;

  private:
    std::vector<double> samples_;
};

/** Why an operation counted as failed. */
enum class Failure {
    kOverloaded,
    kDeadlineExceeded,
    kOtherStatus,
    kTransport,
    kMismatch,
};
const char *failureName(Failure failure);
constexpr int kFailureKinds = 5;

/** Attempted / failed operation counts (thread-safe). */
class OpCount
{
  public:
    void attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
    void fail(Failure failure);

    std::uint64_t attempted() const { return attempted_.load(); }
    std::uint64_t failed() const;
    std::uint64_t failed(Failure failure) const;
    /** Check mismatches: these fail the run's correctness verdict. */
    std::uint64_t mismatches() const { return failed(Failure::kMismatch); }

  private:
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_[kFailureKinds] = {};
};

/**
 * In-memory span recorder for the traced run. Spans come only from the
 * benchmark's own code, around each call it makes into a layer; a span
 * name is "<layer>.<what>". Spans nest per thread.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        std::uint64_t op = 0;      ///< Operation the span belongs to.
        std::int64_t parent = -1;  ///< Index of the enclosing span.
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::uint32_t thread = 0;
    };

    /** RAII span; a null tracer makes it a no-op. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::string name, std::uint64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::int64_t index_ = -1;
    };

    /** A fresh operation id (spans of one operation share it). */
    std::uint64_t newOp() { return next_op_.fetch_add(1) + 1; }

    struct LayerTime {
        double self_ms = 0.0;
        std::uint64_t spans = 0;
    };
    /** Self time (duration minus child spans) summed per layer. */
    std::map<std::string, LayerTime> selfTimeByLayer() const;
    /** Span durations in ms, grouped by span name. */
    std::map<std::string, std::vector<double>> durationsByName() const;
    std::size_t spanCount() const;
    /** Write every span as a Chrome trace (catapult JSON). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t begin(std::string name, std::uint64_t op);
    void end(std::int64_t index);

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> next_op_{0};
};

/** Median of @p values (NaN when empty). */
double median(std::vector<double> values);

/**
 * The value the best quarter of a run's units (sweeps, rounds, time
 * windows) reach: the 75th percentile of @p values when higher is
 * better, the 25th when lower is. Interference from other tenants of a
 * shared host only ever slows a unit down, so this follows the program
 * rather than its neighbours, while a slower program slows every unit.
 * Non-finite values are skipped; NaN when none is left.
 */
double bestQuarter(std::vector<double> values, bool higher_is_better);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Command line of the benchmark binary. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_build/work";
    std::string trace_dir = ".bench_build/traces";
};

/** Parse argv; false (with @p error set) on a malformed command line. */
bool parseArgs(int argc, char **argv, Args *args, std::string *error);

/**
 * One workload's result: end-to-end metrics (untraced run) or
 * per-layer metrics (traced run), the operation counts, and the
 * check verdict.
 */
struct Report {
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::string note; ///< Printed beside the value.
    };

    std::vector<Metric> metrics; ///< Emitted in the result line.
    std::vector<Metric> extra;   ///< Printed only.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checks_passed = true;
    std::vector<std::string> check_errors;

    void add(std::string name, double value, std::string unit,
             std::string note = {});
    void addExtra(std::string name, double value, std::string unit,
                  std::string note = {});
    void checkFailed(std::string what);
    void count(const OpCount &ops);

    /** Human-readable lines followed by the one-line JSON result. */
    void print() const;
    /** The JSON result line: correct, attempted, failed, metrics. */
    std::string json() const;
};

} // namespace perfbench
