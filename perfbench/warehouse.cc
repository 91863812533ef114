#include "warehouse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <unistd.h>

#include "server/wire.h"

namespace perfbench {

bool
wireFailed(const dc::server::WireClient::Result &result, Failure *why)
{
    using dc::server::Status;
    if (!result.ok) {
        *why = Failure::kTransport;
        return true;
    }
    switch (result.status) {
    case Status::kOk: return false;
    case Status::kOverloaded: *why = Failure::kOverloaded; return true;
    case Status::kDeadlineExceeded:
        *why = Failure::kDeadlineExceeded;
        return true;
    default: *why = Failure::kOtherStatus; return true;
    }
}

namespace wire {

Pool
makePool(Gen gen)
{
    Pool pool;
    for (std::size_t c = 0; c < kCorpusCount; ++c) {
        for (int m = 0; m < workloads::kNumWorkloads; ++m) {
            for (const int iterations : kPoolIterations) {
                workloads::RunConfig config;
                config.workload = static_cast<workloads::WorkloadId>(m);
                config.framework = kCorpora[c].framework;
                config.platform = kCorpora[c].platform;
                config.profiler =
                    workloads::ProfilerMode::kDeepContextNative;
                config.iterations = iterations;
                config.keep_profile = true;
                config.seed = gen.next();
                pool[c].push_back(
                    workloads::runWorkload(config).profile->serialize());
            }
        }
    }
    return pool;
}

std::vector<KernelRow>
toRows(const std::vector<KernelAggregate> &top)
{
    std::vector<KernelRow> rows;
    for (const KernelAggregate &agg : top) {
        rows.push_back({agg.name, agg.total, agg.samples,
                        static_cast<std::uint32_t>(agg.runs)});
    }
    return rows;
}

bool
near(double x, double y)
{
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

bool
sameRows(std::vector<KernelRow> a, std::vector<KernelRow> b)
{
    if (a.size() != b.size())
        return false;
    const auto byName = [](const KernelRow &x, const KernelRow &y) {
        return x.name < y.name;
    };
    std::sort(a.begin(), a.end(), byName);
    std::sort(b.begin(), b.end(), byName);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].samples != b[i].samples ||
            a[i].runs != b[i].runs || !near(a[i].total, b[i].total)) {
            return false;
        }
    }
    return true;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

CorpusView::Stats &
operator+=(CorpusView::Stats &sum, const CorpusView::Stats &add)
{
    sum.hits += add.hits;
    sum.incremental += add.incremental;
    sum.rebuilds += add.rebuilds;
    sum.evictions += add.evictions;
    return sum;
}

Warehouse::Warehouse(std::string root) : root_(std::move(root))
{    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_, ec);
    WarehouseManager::Options options;
    options.root_dir = root_;
    options.max_open = 8;
    options.store.workers = 2;
    manager_ = std::make_unique<WarehouseManager>(options);
    server_ = std::make_unique<server::WireServer>(*manager_);
}

Warehouse::~Warehouse()
{    server_.reset(); // drain + stop
    manager_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
}

Counters
Counters::now(Warehouse &warehouse)
{    return {warehouse.server().stats(),
            common::Executor::global().stats()};
}

void
addCounterLayers(const Counters &before, const Counters &after,
                 std::uint64_t ops, Outcome *out)
{
    const double per_op = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    const std::uint64_t requests =
        std::max<std::uint64_t>(after.server.requests - before.server.requests,
                                1);
    out->layers["server.bytes_out_per_op"] =
        static_cast<double>(after.server.bytes_out -
                            before.server.bytes_out) /
        static_cast<double>(requests);
    out->layers["executor.stolen_per_op"] =
        static_cast<double>(after.executor.stolen - before.executor.stolen) /
        per_op;
    out->layers["executor.inline_per_op"] =
        static_cast<double>(after.executor.inline_run -
                            before.executor.inline_run) /
        per_op;
}

Cycle::Cycle(std::size_t n) : order_(n)
{    std::iota(order_.begin(), order_.end(), std::size_t{0});
    pos_ = n;
}

std::size_t
Cycle::next(Gen &gen)
{    if (pos_ == order_.size()) {
        const std::size_t last = order_.back();
        gen.shuffle(order_);
        if (order_.size() > 1 && order_.front() == last)
            std::swap(order_.front(),
                      order_[1 + gen.below(order_.size() - 1)]);
        pos_ = 0;
    }
    return order_[pos_++];
}

double
layerMedian(const std::map<std::string, std::vector<double>> &durations,
            const char *name, double scale)
{
    const auto it = durations.find(name);
    return it == durations.end() ? 0.0 : median(it->second) * scale;
}

double
layerMean(const std::map<std::string, std::vector<double>> &durations,
          const char *name, double scale)
{
    const auto it = durations.find(name);
    if (it == durations.end() || it->second.empty())
        return 0.0;
    double sum = 0.0;
    for (const double ms : it->second)
        sum += ms;
    return sum / static_cast<double>(it->second.size()) * scale;
}

void
replayCodec(std::uint64_t op, const std::string &payload, Tracer *tracer)
{
    std::string frame;
    {
        Tracer::Scope span(tracer, "server.encode", op);
        frame = server::encodeFrame(
            static_cast<std::uint8_t>(server::Status::kOk), 0, op, 0,
            payload);
    }
    Tracer::Scope span(tracer, "server.decode", op);
    server::Frame decoded;
    std::size_t used = 0;
    server::decodeFrame(frame, server::kDefaultMaxPayload, &decoded, &used);
}

bool
settle(const WireClient::Result &result, bool matches, OpCount *ops)
{
    Failure why{};
    if (wireFailed(result, &why)) {
        ops->fail(why);
        return false;
    }
    if (!matches) {
        ops->fail(Failure::kMismatch);
        return false;
    }
    return true;
}

void
record(Latency *latency, bool ok, double ms)
{
    if (ok)
        latency->add(ms);
    else
        latency->addFailed();
}

CorpusView::Stats
viewStats(WarehouseManager &manager, const std::vector<std::string> &ids)
{
    CorpusView::Stats sum;
    for (const std::string &id : ids) {
        const CorpusHandle handle = manager.open(id);
        if (handle != nullptr)
            sum += handle->engine.corpusView().stats();
    }
    return sum;
}

void
addViewLayers(const CorpusView::Stats &before, const CorpusView::Stats &after,
              Outcome *out)
{
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.incremental - before.incremental) +
        static_cast<double>(after.rebuilds - before.rebuilds);
    out->layers["corpus_view.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    out->layers["corpus_view.evictions"] =
        static_cast<double>(after.evictions - before.evictions);
}

std::string
workRoot(const Args &args)
{
    return args.work_dir + "/" + args.workload + "-" +
           std::to_string(::getpid());
}

void
finishRun(const Args &args, const server::ServerStats &start,
          std::unique_ptr<Warehouse> warehouse, const OpCount &ops,
          Outcome *out)
{
    const server::ServerStats end = warehouse->server().stats();
    out->layers["server.shed"] = static_cast<double>(end.shed - start.shed);
    out->layers["server.deadline_exceeded"] =
        static_cast<double>(end.deadline_exceeded - start.deadline_exceeded);
    warehouse.reset();
    std::error_code ec;
    fs::remove_all(workRoot(args), ec);
    out->e2e["peak_rss_mb"] = peakRssMb();
    out->report.count(ops);
}

} // namespace wire

} // namespace perfbench
