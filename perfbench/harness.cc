#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include <sys/resource.h>

namespace perfbench {

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = next.fetch_add(1) + 1;
    return mine;
}

/// Open spans of the calling thread (indices into the tracer's list).
thread_local std::vector<std::int64_t> t_open_spans;

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

// ------------------------------------------------------------------ Gen

std::uint64_t
Gen::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::size_t
Gen::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

Gen
Gen::fork(std::uint64_t stream) const
{
    Gen child(state_ ^ (0xd1b54a32d192ed03ull * (stream + 1)));
    child.next();
    return child;
}

std::string
Gen::token()
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(next()));
    return buf;
}

// -------------------------------------------------------------- Latency

void
Latency::addFailed()
{
    samples_.push_back(std::numeric_limits<double>::infinity());
}

void
Latency::merge(const Latency &other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
}

bool
Latency::supports(std::size_t n, double p)
{
    if (n == 0 || p <= 0.0 || p >= 1.0)
        return false;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    return n - std::max<std::size_t>(rank, 1) >= kTail;
}

double
Latency::percentile(double p) const
{
    const std::size_t n = samples_.size();
    if (!supports(n, p))
        return std::numeric_limits<double>::quiet_NaN();
    const auto rank = std::max<std::size_t>(
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))),
        1);
    std::vector<double> sorted = samples_;
    std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                     sorted.end());
    const double value = sorted[rank - 1];
    return std::isinf(value) ? std::numeric_limits<double>::quiet_NaN()
                             : value;
}

// --------------------------------------------------------------- OpCount

const char *
failureName(Failure failure)
{
    switch (failure) {
    case Failure::kOverloaded: return "overloaded";
    case Failure::kDeadlineExceeded: return "deadline_exceeded";
    case Failure::kOtherStatus: return "other_status";
    case Failure::kTransport: return "transport";
    case Failure::kMismatch: return "check_mismatch";
    }
    return "?";
}

void
OpCount::fail(Failure failure)
{
    failed_[static_cast<int>(failure)].fetch_add(1,
                                                 std::memory_order_relaxed);
}

std::uint64_t
OpCount::failed(Failure failure) const
{
    return failed_[static_cast<int>(failure)].load();
}

std::uint64_t
OpCount::failed() const
{
    std::uint64_t total = 0;
    for (const auto &cell : failed_)
        total += cell.load();
    return total;
}

// ---------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer *tracer, std::string name, std::uint64_t op)
    : tracer_(tracer)
{
    if (tracer_ != nullptr)
        index_ = tracer_->begin(std::move(name), op);
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->end(index_);
}

std::int64_t
Tracer::begin(std::string name, std::uint64_t op)
{
    Span span;
    span.name = std::move(name);
    span.op = op;
    span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
    span.thread = threadNumber();
    std::int64_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(std::move(span));
        spans_.back().start_ns = nowNs();
    }
    t_open_spans.push_back(index);
    return index;
}

void
Tracer::end(std::int64_t index)
{
    const std::uint64_t now = nowNs();
    t_open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::map<std::string, Tracer::LayerTime>
Tracer::selfTimeByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span &span : spans_) {
        if (span.parent >= 0) {
            child_ms[static_cast<std::size_t>(span.parent)] +=
                static_cast<double>(span.end_ns - span.start_ns) / 1e6;
        }
    }
    std::map<std::string, LayerTime> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const std::string layer = span.name.substr(0, span.name.find('.'));
        LayerTime &cell = layers[layer];
        cell.self_ms +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e6 -
            child_ms[i];
        ++cell.spans;
    }
    return layers;
}

std::map<std::string, std::vector<double>>
Tracer::durationsByName() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::vector<double>> out;
    for (const Span &span : spans_) {
        out[span.name].push_back(
            static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
    return out;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\":\""
            << jsonEscape(span.name) << "\",\"cat\":\""
            << jsonEscape(span.name.substr(0, span.name.find('.')))
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
            << ",\"ts\":"
            << number(static_cast<double>(span.start_ns - base) / 1e3)
            << ",\"dur\":"
            << number(static_cast<double>(span.end_ns - span.start_ns) /
                      1e3)
            << ",\"args\":{\"op\":" << span.op << ",\"span\":" << i
            << ",\"parent\":" << span.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------- misc

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1)
        return values[mid];
    const double upper = values[mid];
    return (upper + *std::max_element(values.begin(),
                                      values.begin() + mid)) /
           2.0;
}

double
bestQuarter(std::vector<double> values, bool higher_is_better)
{
    values.erase(std::remove_if(values.begin(), values.end(),
                                [](double v) { return !std::isfinite(v); }),
                 values.end());
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double p = higher_is_better ? 0.75 : 0.25;
    const auto rank = std::max<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(p * static_cast<double>(values.size()))),
        1);
    return values[rank - 1];
}

double
peakRssMb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
parseArgs(int argc, char **argv, Args *args, std::string *error)
{
    for (int i = 1; i < argc; i += 2) {
        const char *flag = argv[i];
        const auto is = [&](const char *name) {
            return std::strcmp(flag, name) == 0;
        };
        if (i + 1 >= argc) {
            *error = std::string("missing value for ") + flag;
            return false;
        }
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (is("--workload")) {
            args->workload = value;
        } else if (is("--seed")) {
            args->seed = std::strtoull(value, &end, 10);
        } else if (is("--seconds")) {
            args->seconds = std::strtod(value, &end);
        } else if (is("--trace")) {
            args->trace = std::strcmp(value, "1") == 0;
            if (!args->trace && std::strcmp(value, "0") != 0) {
                *error = "--trace takes 0 or 1";
                return false;
            }
        } else if (is("--work-dir")) {
            args->work_dir = value;
        } else if (is("--trace-dir")) {
            args->trace_dir = value;
        } else {
            *error = std::string("unknown argument ") + flag;
            return false;
        }
        if (end != nullptr && *end != '\0') {
            *error = std::string("bad number: ") + value;
            return false;
        }
    }
    if (args->workload.empty()) {
        *error = "--workload is required";
        return false;
    }
    if (!(args->seconds > 0.0)) {
        *error = "--seconds must be positive";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- Report

void
Report::add(std::string name, double value, std::string unit,
            std::string note)
{
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
}

void
Report::addExtra(std::string name, double value, std::string unit,
                 std::string note)
{
    extra.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
}

void
Report::checkFailed(std::string what)
{
    checks_passed = false;
    check_errors.push_back(std::move(what));
}

void
Report::count(const OpCount &ops)
{
    attempted += ops.attempted();
    failed += ops.failed();
    for (int kind = 0; kind < kFailureKinds; ++kind) {
        const auto failure = static_cast<Failure>(kind);
        if (ops.failed(failure) > 0) {
            std::printf("  failed (%s): %llu\n", failureName(failure),
                        static_cast<unsigned long long>(
                            ops.failed(failure)));
        }
    }
    if (ops.mismatches() > 0)
        checkFailed("operations whose output did not match the reference");
}

void
Report::print() const
{
    const auto line = [](const Metric &metric) {
        std::printf("  %-36s %16.6g %-6s %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str(), metric.note.c_str());
    };
    std::printf("metrics:\n");
    for (const Metric &metric : metrics)
        line(metric);
    if (!extra.empty()) {
        std::printf("also measured:\n");
        for (const Metric &metric : extra)
            line(metric);
    }
    std::printf("operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (const std::string &error : check_errors)
        std::printf("CHECK FAILED: %s\n", error.c_str());
    std::printf("checks: %s\n", checks_passed ? "passed" : "FAILED");
    std::printf("%s\n", json().c_str());
    std::fflush(stdout);
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += checks_passed ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &metric = metrics[i];
        // JSON has no NaN/inf: an unmeasurable value is reported as
        // null and fails the run's checks (see checkFinite callers).
        const std::string value = std::isfinite(metric.value)
                                      ? number(metric.value)
                                      : std::string("null");
        out += (i == 0 ? "\"" : ", \"") + jsonEscape(metric.name) +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               jsonEscape(metric.unit) + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
