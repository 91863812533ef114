#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/executor.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "obs/trace_span.h"
#include "profiler/metrics.h"

namespace dc::server {

namespace {

// Socket fault edges: one site per syscall family, so the PR 7
// machinery can inject accept failures, read/write errors, EAGAIN
// storms (srv.write=torn(N):every=K), and framing poison
// deterministically.
failpoint::Site s_fp_accept{"srv.accept"};
failpoint::Site s_fp_read{"srv.read"};
failpoint::Site s_fp_write{"srv.write"};
failpoint::Site s_fp_decode{"srv.frame.decode"};
/// Pool-side site: a delay() here stalls request execution on its pool
/// thread, which is how the overload and deadline tests make "slow
/// request" deterministic instead of racing a real cold rebuild.
failpoint::Site s_fp_exec{"srv.exec"};

obs::SpanSite s_request_span{"server.request", 4};

obs::Counter &
shedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("server.shed");
    return counter;
}

obs::Counter &
deadlineCounter()
{
    static obs::Counter counter = obs::MetricsRegistry::global().counter(
        "server.deadline_exceeded");
    return counter;
}

obs::Counter &
connOpenedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("server.conn.opened");
    return counter;
}

obs::Counter &
connClosedCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("server.conn.closed");
    return counter;
}

obs::Counter &
badFrameCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("server.bad_frame");
    return counter;
}

/// Distribution of concurrently-active connections, recorded at every
/// open/close transition (counters are monotonic; the level lives
/// here and in ServerStats::active_connections).
obs::Histogram &
connActiveHistogram()
{
    static obs::Histogram histogram =
        obs::MetricsRegistry::global().histogram("server.conn.active");
    return histogram;
}

bool
validOpcode(std::uint8_t kind)
{
    return kind >= static_cast<std::uint8_t>(Opcode::kPing) &&
           kind <= static_cast<std::uint8_t>(Opcode::kFederatedFlame);
}

void
clampOptions(ServerOptions &options)
{
    options.max_conn_pending =
        std::max<std::size_t>(options.max_conn_pending, 1);
    options.max_pending = std::max<std::size_t>(options.max_pending, 1);
}

} // namespace

WireServer::WireServer(service::WarehouseManager &manager,
                       ServerOptions options)
    : manager_(manager), options_(std::move(options))
{
    clampOptions(options_);
}

WireServer::~WireServer()
{
    drain();
    stop();
}

bool
WireServer::start(std::string *error)
{
    const auto fail = [&](const char *what) {
        if (error != nullptr)
            *error = std::string(what) + ": " + std::strerror(errno);
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
        if (epoll_fd_ >= 0)
            ::close(epoll_fd_);
        if (wake_fd_ >= 0)
            ::close(wake_fd_);
        listen_fd_ = epoll_fd_ = wake_fd_ = -1;
        return false;
    };
    if (running_.load()) {
        if (error != nullptr)
            *error = "server already running";
        return false;
    }

    listen_fd_ = ::socket(AF_INET,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        return fail("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    struct ::sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
        1) {
        errno = EINVAL;
        return fail("bad host address");
    }
    if (::bind(listen_fd_, reinterpret_cast<struct ::sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        return fail("bind");
    }
    if (::listen(listen_fd_, 128) != 0)
        return fail("listen");
    struct ::sockaddr_in bound {};
    ::socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<struct ::sockaddr *>(&bound),
                      &bound_len) != 0) {
        return fail("getsockname");
    }
    port_ = ntohs(bound.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0)
        return fail("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0)
        return fail("eventfd");

    struct ::epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
        return fail("epoll_ctl(listen)");
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0)
        return fail("epoll_ctl(wake)");

    stopping_.store(false);
    draining_.store(false);
    running_.store(true);
    io_thread_ = std::thread([this] { ioLoop(); });
    DC_INFORM("wire server listening on ", options_.host, ":", port_);
    return true;
}

void
WireServer::drain()
{
    if (!running_.load() || stopping_.load())
        return;
    draining_.store(true);
    // Wake the I/O thread so it deregisters the listener promptly.
    std::uint64_t tick = 1;
    (void)!::write(wake_fd_, &tick, sizeof(tick));

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_timeout_ms);
    {
        // Let in-flight (admitted) requests finish, bounded; durable
        // ingests count until their completion answers them.
        std::unique_lock<std::mutex> lock(pending_mutex_);
        drain_cv_.wait_until(lock, deadline, [this] {
            return pending_.load() == 0;
        });
    }
    // Every acked ingest is already on its store's queue (or done);
    // drain so the WALs hold them all before the process exits.
    manager_.waitIdle();
    // Give unflushed outboxes a chance to reach their peers.
    while (std::chrono::steady_clock::now() < deadline) {
        if (flushed_all_.load())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

void
WireServer::stop()
{
    if (!running_.load())
        return;
    // Never on a pool thread: it waits for pool tasks below.
    stopping_.store(true);
    std::uint64_t tick = 1;
    (void)!::write(wake_fd_, &tick, sizeof(tick));
    if (io_thread_.joinable())
        io_thread_.join();
    {
        // Posted requests and pending ingest acks still point at this
        // server (and may write wake_fd_). With every connection
        // closed they only release their slots; wait out the last.
        std::unique_lock<std::mutex> lock(pending_mutex_);
        drain_cv_.wait(lock, [this] { return pending_.load() == 0; });
    }
    if (epoll_fd_ >= 0)
        ::close(epoll_fd_);
    if (wake_fd_ >= 0)
        ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    running_.store(false);
}

ServerStats
WireServer::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

void
WireServer::ioLoop()
{
    bool listener_armed = true;
    std::vector<struct ::epoll_event> events(64);
    while (!stopping_.load()) {
        if (draining_.load() && listener_armed) {
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
            listener_armed = false;
        }
        const int n = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), 50);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            DC_WARN("epoll_wait failed: ", std::strerror(errno));
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == listen_fd_) {
                doAccept();
                continue;
            }
            if (fd == wake_fd_) {
                std::uint64_t drainv;
                while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
                }
                std::vector<std::shared_ptr<Conn>> dirty;
                {
                    std::lock_guard<std::mutex> lock(flush_mutex_);
                    dirty.swap(flush_queue_);
                }
                for (const std::shared_ptr<Conn> &conn : dirty) {
                    if (conn->closed.load())
                        continue;
                    if (!flushConn(conn))
                        closeConn(conn->fd);
                    else
                        updateEpoll(conn);
                }
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            const std::shared_ptr<Conn> conn = it->second;
            bool alive = true;
            if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0)
                alive = false;
            if (alive && (events[i].events & EPOLLIN) != 0)
                alive = readConn(conn);
            if (alive && (events[i].events & EPOLLOUT) != 0) {
                alive = flushConn(conn);
                if (alive)
                    updateEpoll(conn);
            }
            if (!alive)
                closeConn(fd);
        }
        sweepTimeouts();
        // Publish "every outbox flushed" for drain()'s final wait.
        bool flushed = true;
        for (const auto &[fd, conn] : conns_) {
            std::lock_guard<std::mutex> lock(conn->out_mutex);
            if (conn->out_off < conn->outbuf.size()) {
                flushed = false;
                break;
            }
        }
        flushed_all_.store(flushed);
    }
    // Teardown on the owning thread: close every connection socket.
    for (const auto &[fd, conn] : conns_) {
        conn->closed.store(true);
        ::close(fd);
    }
    conns_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void
WireServer::doAccept()
{
    for (;;) {
        const failpoint::Eval fp = s_fp_accept.eval();
        if (fp.action == failpoint::Action::kError) {
            // Injected accept failure: drop this readiness round; the
            // pending connection stays in the backlog.
            return;
        }
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or transient accept error: next round.
        }
        if (draining_.load() ||
            conns_.size() >= options_.max_connections) {
            // Beyond capacity there is no protocol-level way to say
            // so before a frame arrives; a prompt close is the shed.
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->last_active_ns = obs::nowNs();
        struct ::epoll_event ev {};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        conns_.emplace(fd, std::move(conn));
        connOpenedCounter().add();
        connActiveHistogram().record(conns_.size());
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.accepted;
        stats_.active_connections = conns_.size();
    }
}

bool
WireServer::readConn(const std::shared_ptr<Conn> &conn)
{
    char chunk[64 * 1024];
    for (;;) {
        const failpoint::Eval fp = s_fp_read.eval();
        if (fp.action == failpoint::Action::kError)
            return false; // injected read error: connection dies
        const ::ssize_t got =
            ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (got == 0)
            return false; // orderly EOF
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        conn->inbuf.append(chunk, static_cast<std::size_t>(got));
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            stats_.bytes_in += static_cast<std::uint64_t>(got);
        }
        if (static_cast<std::size_t>(got) < sizeof(chunk))
            break;
    }

    // Consume every complete frame in the buffer.
    std::size_t offset = 0;
    bool ok = true;
    while (ok) {
        const std::string_view rest =
            std::string_view(conn->inbuf).substr(offset);
        if (rest.empty())
            break;
        const failpoint::Eval fp = s_fp_decode.eval();
        Frame frame;
        std::size_t consumed = 0;
        std::string error;
        DecodeResult result = DecodeResult::kBad;
        if (fp.action == failpoint::Action::kError)
            error = "injected decode failure";
        else
            result = decodeFrame(rest, options_.max_frame_bytes, &frame,
                                 &consumed, &error);
        if (result == DecodeResult::kNeedMore)
            break;
        if (result == DecodeResult::kBad) {
            badFrameCounter().add();
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.bad_frames;
            }
            // Best-effort rejection, then drop the connection — after
            // a framing violation the stream offset is untrusted.
            respond(conn, frame.request_id, Status::kBadRequest, error);
            (void)flushConn(conn);
            ok = false;
            break;
        }
        offset += consumed;
        conn->last_active_ns = obs::nowNs();
        dispatch(conn, std::move(frame));
    }
    if (offset > 0)
        conn->inbuf.erase(0, offset);
    // Defense in depth: decodeFrame bounds payloads, so a buffer past
    // header+max can only mean a decode-state bug. Fail closed.
    if (conn->inbuf.size() >
        kFrameHeaderSize + options_.max_frame_bytes + sizeof(chunk)) {
        return false;
    }
    return ok;
}

void
WireServer::dispatch(const std::shared_ptr<Conn> &conn, Frame frame)
{
    if (!validOpcode(frame.kind)) {
        respond(conn, frame.request_id, Status::kBadRequest,
                "unknown opcode");
        return;
    }
    if (draining_.load()) {
        respond(conn, frame.request_id, Status::kShuttingDown,
                "draining");
        return;
    }
    // Admission control: past the global high watermark or the
    // connection's pipeline cap, shed *now* with an explicit
    // OVERLOADED — the queue must never grow past the watermark.
    if (pending_.load() >=
            static_cast<int>(options_.max_pending) ||
        conn->pending.load() >=
            static_cast<int>(options_.max_conn_pending)) {
        respond(conn, frame.request_id, Status::kOverloaded,
                "overloaded");
        return;
    }
    pending_.fetch_add(1);
    conn->pending.fetch_add(1);
    const std::uint64_t request_id = frame.request_id;
    Work work;
    work.conn = conn;
    if (frame.deadline_ms > 0)
        work.deadline = common::Deadline::afterMs(frame.deadline_ms);
    work.frame = std::move(frame);
    // Never run here: the I/O thread must keep serving sockets.
    if (!common::Executor::global().trySubmit(
            [this, work = std::move(work)] { run(work); })) {
        conn->pending.fetch_sub(1);
        pending_.fetch_sub(1);
        respond(conn, request_id, Status::kOverloaded, "overloaded");
        return;
    }
    // Counted before this thread can flush the reply.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
}

void
WireServer::run(const Work &work)
{
    obs::ObsSpan span(s_request_span, work.frame.kind);
    Status status = Status::kShuttingDown;
    std::string payload;
    // A closed peer, a stopping server or an expired deadline: skip
    // execution, just answer (if anyone listens) and release the slots.
    if (!stopping_.load() && !work.conn->closed.load() &&
        !work.deadline.expired()) {
        common::ScopedDeadline scope(work.deadline);
        const std::optional<Status> result = execute(work, &payload);
        if (!result.has_value())
            return; // a durable ingest: its completion answers
        status = *result;
    }
    finish(work.conn, work.frame.request_id, work.deadline, status,
           payload);
}

void
WireServer::finish(const std::shared_ptr<Conn> &conn,
                   std::uint64_t request_id,
                   const common::Deadline &deadline, Status status,
                   std::string_view payload)
{
    // A response past its deadline is useless to the caller regardless
    // of content; report the timeout. For mutations this means "too
    // late", not "not applied".
    if (deadline.expired()) {
        status = Status::kDeadlineExceeded;
        payload = {};
    }
    respond(conn, request_id, status, payload);
    conn->pending.fetch_sub(1);
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (pending_.fetch_sub(1) == 1)
        drain_cv_.notify_all();
}

service::CorpusHandle
WireServer::resolveCorpus(const std::string &corpus_id,
                          bool create_default, std::string *payload)
{
    std::string error;
    service::CorpusHandle handle = manager_.open(corpus_id, &error);
    if (handle == nullptr && create_default &&
        corpus_id == kDefaultCorpus) {
        handle = manager_.create(corpus_id, &error);
        if (handle == nullptr) // lost a create race
            handle = manager_.open(corpus_id, &error);
    }
    if (handle == nullptr)
        *payload = error.empty() ? "unknown corpus" : error;
    return handle;
}

std::optional<Status>
WireServer::execute(const Work &work, std::string *payload)
{
    // delay(ms) sleeps inside eval(); other actions are meaningless
    // here and deliberately ignored.
    (void)s_fp_exec.eval();
    const Frame &frame = work.frame;
    if (frame.opcode() == Opcode::kPing) {
        *payload = frame.payload; // raw: ping is never corpus-scoped
        return Status::kOk;
    }
    if (frame.kind >= static_cast<std::uint8_t>(Opcode::kCorpusCreate))
        return executeManager(work, payload);

    // Single-corpus opcodes: strip the corpus prefix and pin the
    // addressed corpus for the request's duration.
    std::string corpus_id;
    std::string_view op_payload;
    if (!splitCorpusScoped(frame.payload, &corpus_id, &op_payload)) {
        *payload = "bad corpus prefix";
        return Status::kBadRequest;
    }
    if (corpus_id.empty())
        corpus_id = kDefaultCorpus;
    // Only a write brings the default corpus into being; a read of a
    // missing one is NOT_FOUND, like any unknown corpus.
    const service::CorpusHandle corpus = resolveCorpus(
        corpus_id, frame.opcode() == Opcode::kIngest, payload);
    if (corpus == nullptr)
        return Status::kNotFound;
    service::ProfileStore &store = corpus->store;
    const service::QueryEngine &engine = corpus->engine;

    switch (frame.opcode()) {
    case Opcode::kIngest:
        return executeIngest(work, store, op_payload, payload);
    case Opcode::kErase: {
        WireReader reader(op_payload);
        const std::string run_id = reader.str();
        if (!reader.done() || run_id.empty()) {
            *payload = "bad erase payload";
            return Status::kBadRequest;
        }
        return store.erase(run_id) ? Status::kOk : Status::kNotFound;
    }
    case Opcode::kTopKernels: {
        std::uint32_t k = 0;
        std::string metric;
        service::QueryFilter filter;
        if (!decodeTopKernelsRequest(op_payload, &k, &metric,
                                     &filter)) {
            *payload = "bad topKernels payload";
            return Status::kBadRequest;
        }
        if (metric.empty())
            metric = prof::metric_names::kGpuTime;
        const std::vector<service::KernelAggregate> top =
            engine.topKernels(k, filter, metric);
        std::vector<KernelRow> rows;
        rows.reserve(top.size());
        for (const service::KernelAggregate &agg : top) {
            rows.push_back(KernelRow{agg.name, agg.total, agg.samples,
                                     static_cast<std::uint32_t>(
                                         agg.runs)});
        }
        *payload = encodeKernelRows(rows);
        return Status::kOk;
    }
    case Opcode::kMerged: {
        WireReader reader(op_payload);
        const service::QueryFilter filter = readFilter(reader);
        if (!reader.done()) {
            *payload = "bad merged payload";
            return Status::kBadRequest;
        }
        const std::shared_ptr<const prof::ProfileDb> merged =
            engine.merged(filter);
        if (merged == nullptr) {
            // The only null path is a deadline-abandoned rebuild; the
            // caller maps it below via the post-execute deadline check.
            *payload = "merge abandoned";
            return Status::kDeadlineExceeded;
        }
        *payload = merged->serialize();
        return Status::kOk;
    }
    case Opcode::kDiff: {
        std::string run_a, run_b;
        service::QueryFilter filter;
        if (!decodeDiffRequest(op_payload, &run_a, &run_b, &filter)) {
            *payload = "bad diff payload";
            return Status::kBadRequest;
        }
        std::optional<analysis::ProfileComparison> diff;
        if (run_b.empty())
            diff = engine.diffAgainstCorpus(run_a, filter);
        else
            diff = engine.diffRuns(run_a, run_b);
        if (!diff.has_value()) {
            if (work.deadline.expired())
                return Status::kDeadlineExceeded;
            *payload = "unknown run id (or empty corpus)";
            return Status::kNotFound;
        }
        *payload =
            diff->toString(run_a, run_b.empty() ? "corpus" : run_b);
        return Status::kOk;
    }
    case Opcode::kFlameGraph: {
        std::string metric;
        service::QueryFilter filter;
        if (!decodeFlameRequest(op_payload, &metric, &filter)) {
            *payload = "bad flame payload";
            return Status::kBadRequest;
        }
        gui::FlameGraphOptions options;
        if (!metric.empty())
            options.metric = metric;
        const std::shared_ptr<const gui::FlameNode> flame =
            engine.flameGraph(filter, options);
        if (flame == nullptr) {
            *payload = "flame rebuild abandoned";
            return Status::kDeadlineExceeded;
        }
        *payload = gui::FlameGraph::toHtml(*flame, "warehouse");
        return Status::kOk;
    }
    case Opcode::kStats:
        *payload = statsPayload(*corpus);
        return Status::kOk;
    default:
        break;
    }
    *payload = "unknown opcode";
    return Status::kBadRequest;
}

Status
WireServer::executeManager(const Work &work, std::string *payload)
{
    const Frame &frame = work.frame;
    std::string error;
    // Map a failed federated query: a deadline expiry is reported as
    // such (the post-execute check would catch it anyway); anything
    // else is an unknown corpus.
    const auto failed = [&]() {
        if (work.deadline.expired())
            return Status::kDeadlineExceeded;
        *payload = error.empty() ? "federated query failed" : error;
        return Status::kNotFound;
    };
    switch (frame.opcode()) {
    case Opcode::kCorpusCreate: {
        std::string id;
        if (!decodeCorpusRequest(frame.payload, &id)) {
            *payload = "bad corpus payload";
            return Status::kBadRequest;
        }
        if (manager_.create(id, &error) == nullptr) {
            *payload = error;
            return Status::kError;
        }
        return Status::kOk;
    }
    case Opcode::kCorpusOpen: {
        std::string id;
        if (!decodeCorpusRequest(frame.payload, &id)) {
            *payload = "bad corpus payload";
            return Status::kBadRequest;
        }
        if (manager_.open(id, &error) == nullptr) {
            *payload = error;
            return Status::kNotFound;
        }
        return Status::kOk;
    }
    case Opcode::kCorpusClose: {
        std::string id;
        if (!decodeCorpusRequest(frame.payload, &id)) {
            *payload = "bad corpus payload";
            return Status::kBadRequest;
        }
        if (!manager_.close(id)) {
            *payload = "corpus '" + id + "' is not open";
            return Status::kNotFound;
        }
        return Status::kOk;
    }
    case Opcode::kCorpusDrop: {
        std::string id;
        if (!decodeCorpusRequest(frame.payload, &id)) {
            *payload = "bad corpus payload";
            return Status::kBadRequest;
        }
        if (!manager_.drop(id, &error)) {
            *payload = error;
            return Status::kNotFound;
        }
        return Status::kOk;
    }
    case Opcode::kCorpusList: {
        std::vector<CorpusInfo> infos;
        for (const std::string &id : manager_.corpusIds()) {
            CorpusInfo info;
            info.id = id;
            info.open = manager_.isOpen(id);
            if (info.open) {
                // Listing must not page in cold corpora; run counts
                // come from the open ones only.
                const service::CorpusHandle handle = manager_.open(id);
                if (handle != nullptr)
                    info.runs = handle->store.size();
            }
            infos.push_back(std::move(info));
        }
        *payload = encodeCorpusList(infos);
        return Status::kOk;
    }
    case Opcode::kFederatedTopKernels: {
        std::vector<std::string> corpora;
        std::uint32_t k = 0;
        std::string metric;
        service::QueryFilter filter;
        if (!decodeFederatedTopKernelsRequest(frame.payload, &corpora,
                                              &k, &metric, &filter)) {
            *payload = "bad federated topKernels payload";
            return Status::kBadRequest;
        }
        if (metric.empty())
            metric = prof::metric_names::kGpuTime;
        const std::optional<std::vector<service::KernelAggregate>> top =
            manager_.federatedTopKernels(corpora, k, filter, metric,
                                         &error);
        if (!top.has_value())
            return failed();
        std::vector<KernelRow> rows;
        rows.reserve(top->size());
        for (const service::KernelAggregate &agg : *top) {
            rows.push_back(KernelRow{agg.name, agg.total, agg.samples,
                                     static_cast<std::uint32_t>(
                                         agg.runs)});
        }
        *payload = encodeKernelRows(rows);
        return Status::kOk;
    }
    case Opcode::kFederatedMerged: {
        std::vector<std::string> corpora;
        service::QueryFilter filter;
        if (!decodeFederatedMergedRequest(frame.payload, &corpora,
                                          &filter)) {
            *payload = "bad federated merged payload";
            return Status::kBadRequest;
        }
        const std::shared_ptr<const prof::ProfileDb> merged =
            manager_.federatedMerged(corpora, filter, &error);
        if (merged == nullptr)
            return failed();
        *payload = merged->serialize();
        return Status::kOk;
    }
    case Opcode::kFederatedDiff: {
        std::vector<std::string> corpora_a, corpora_b;
        service::QueryFilter filter;
        if (!decodeFederatedDiffRequest(frame.payload, &corpora_a,
                                        &corpora_b, &filter)) {
            *payload = "bad federated diff payload";
            return Status::kBadRequest;
        }
        const std::optional<analysis::ProfileComparison> diff =
            manager_.federatedDiff(corpora_a, corpora_b, filter,
                                   &error);
        if (!diff.has_value())
            return failed();
        const auto label = [](const std::vector<std::string> &ids) {
            std::string out;
            for (const std::string &id : ids)
                out += (out.empty() ? "" : "+") + id;
            return out;
        };
        *payload = diff->toString(label(corpora_a), label(corpora_b));
        return Status::kOk;
    }
    case Opcode::kFederatedFlame: {
        std::vector<std::string> corpora;
        std::string metric;
        service::QueryFilter filter;
        if (!decodeFederatedFlameRequest(frame.payload, &corpora,
                                         &metric, &filter)) {
            *payload = "bad federated flame payload";
            return Status::kBadRequest;
        }
        gui::FlameGraphOptions options;
        if (!metric.empty())
            options.metric = metric;
        std::string html = manager_.federatedFlameHtml(
            "federated warehouse", corpora, filter, options, &error);
        if (html.empty())
            return failed();
        *payload = std::move(html);
        return Status::kOk;
    }
    default:
        break;
    }
    *payload = "unknown opcode";
    return Status::kBadRequest;
}

std::optional<Status>
WireServer::executeIngest(const Work &work, service::ProfileStore &store,
                          std::string_view op_payload, std::string *payload)
{
    std::string run_id, text;
    if (!decodeIngestRequest(op_payload, &run_id, &text)) {
        *payload = "bad ingest payload";
        return Status::kBadRequest;
    }
    const bool durable = (work.frame.flags & kFlagDurable) != 0;
    service::IngestDone done;
    if (durable) {
        // The ack is this run's own outcome (OK = stored, visible and,
        // on a durable store, synced): a promise a restart will keep.
        done = [this, conn = work.conn,
                request_id = work.frame.request_id,
                deadline = work.deadline](service::IngestOutcome outcome,
                                          std::string error) {
            using service::IngestOutcome;
            const bool ok = outcome == IngestOutcome::kStored;
            if (!ok) {
                error.insert(0, outcome == IngestOutcome::kRejected
                                    ? "ingest rejected: "
                                    : "stored but not durable: ");
            }
            finish(conn, request_id, deadline,
                   ok ? Status::kOk : Status::kError, error);
        };
    }
    // Never blocks this pool thread on the store's backpressure.
    if (!store.ingestText(std::move(run_id), std::move(text),
                          std::move(done))) {
        *payload = "ingest queue full";
        return Status::kOverloaded;
    }
    if (durable)
        return std::nullopt;
    return Status::kOk; // accepted: queued on the store's drains
}

std::string
WireServer::statsPayload(const service::Corpus &corpus)
{
    const service::StoreStats store = corpus.store.stats();
    const service::CorpusView::Stats view =
        corpus.engine.corpusView().stats();
    ServerStats server = stats();
    std::string out;
    const auto put = [&out](std::string_view key, std::uint64_t value) {
        out += key;
        out += '=';
        out += std::to_string(value);
        out += '\n';
    };
    put("store.runs", corpus.store.size());
    put("store.ingested", store.ingested);
    put("store.failed", store.failed);
    put("store.recovered", store.recovered);
    put("store.interned_bytes", store.interned_bytes);
    put("store.log_healthy", corpus.store.logHealthy() ? 1 : 0);
    put("store.log_appends", store.log_appends);
    put("store.log_append_failures", store.log_append_failures);
    put("store.log_fsyncs", store.log_fsyncs);
    put("store.log_checkpoints", store.log_checkpoints);
    put("store.log_degraded", store.log_degraded);
    put("store.log_reattached", store.log_reattached);
    put("store.log_unlogged_runs", store.log_unlogged_runs);
    put("store.log_last_error_age_ns", store.log_last_error_age_ns);
    // Re-attach supervisor state: a remote operator can tell a
    // healthy store from one mid-backoff without shell access.
    put("store.log_degraded_since_ns", store.log_degraded_since_ns);
    put("store.log_reattach_attempts", store.log_reattach_attempts);
    put("store.log_reattach_backoff_ms", store.log_reattach_backoff_ms);
    put("store.log_reattach_next_retry_ns",
        store.log_reattach_next_retry_ns);
    put("view.hits", view.hits);
    put("view.incremental", view.incremental);
    put("view.rebuilds", view.rebuilds);
    put("view.evictions", view.evictions);
    put("server.accepted", server.accepted);
    put("server.active_connections", server.active_connections);
    put("server.requests", server.requests);
    put("server.responses", server.responses);
    put("server.shed", server.shed);
    put("server.deadline_exceeded", server.deadline_exceeded);
    put("server.bad_frames", server.bad_frames);
    put("server.closed_idle", server.closed_idle);
    put("server.closed_stalled", server.closed_stalled);
    put("server.bytes_in", server.bytes_in);
    put("server.bytes_out", server.bytes_out);
    // Shared-executor health: the pool every parallel site (merges,
    // view rebuilds, ingestion drains, federated legs) runs on. The
    // counters come from the executor's own atomics so they are live
    // even without DC_OBS; the latency quantiles need the obs
    // histograms and appear only when observability is on.
    const common::Executor::Stats exec =
        common::Executor::global().stats();
    put("exec.threads", exec.threads);
    put("exec.submitted", exec.submitted);
    put("exec.executed", exec.executed);
    put("exec.stolen", exec.stolen);
    put("exec.inline_run", exec.inline_run);
    put("exec.queued", exec.queued);
    if (obs::enabled()) {
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        const auto put_hist = [&put, &snap](std::string_view key,
                                            const char *name) {
            const obs::HistogramSnapshot *hist = snap.histogram(name);
            if (hist == nullptr || hist->count == 0)
                return;
            put(std::string(key) + ".p50", hist->p50);
            put(std::string(key) + ".p99", hist->p99);
        };
        put_hist("exec.wait_us", "exec.wait_us");
        put_hist("exec.run_us", "exec.run_us");
        put_hist("exec.queue_depth", "exec.queue_depth");
    }
    // Manager-level counters, then one labeled line set per open
    // corpus — the per-corpus breakdown obs counters cannot carry (the
    // registry's name set is fixed; corpus ids are not).
    const service::ManagerStats mgr = manager_.stats();
    put("manager.open_corpora", mgr.open_corpora);
    put("manager.open_interned_bytes", mgr.open_interned_bytes);
    put("manager.created", mgr.created);
    put("manager.opened", mgr.opened);
    put("manager.closed", mgr.closed);
    put("manager.lru_closed", mgr.lru_closed);
    put("manager.dropped", mgr.dropped);
    put("manager.drain_waits", mgr.drain_waits);
    put("manager.federated", mgr.federated);
    for (const std::string &id : manager_.corpusIds()) {
        const bool open = manager_.isOpen(id);
        put("corpus." + id + ".open", open ? 1 : 0);
        if (!open)
            continue; // don't page in cold corpora for stats
        const service::CorpusHandle handle = manager_.open(id);
        if (handle == nullptr)
            continue;
        put("corpus." + id + ".runs", handle->store.size());
        put("corpus." + id + ".interned_bytes",
            handle->store.stats().interned_bytes);
    }
    return out;
}

void
WireServer::respond(const std::shared_ptr<Conn> &conn,
                    std::uint64_t request_id, Status status,
                    std::string_view payload)
{
    const std::string frame =
        encodeFrame(static_cast<std::uint8_t>(status), 0, request_id,
                    0, payload);
    {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        if (conn->closed.load())
            return;
        conn->outbuf += frame;
    }
    if (status == Status::kOverloaded)
        shedCounter().add();
    else if (status == Status::kDeadlineExceeded)
        deadlineCounter().add();
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.responses;
        stats_.shed += status == Status::kOverloaded ? 1 : 0;
        stats_.deadline_exceeded +=
            status == Status::kDeadlineExceeded ? 1 : 0;
    }
    {
        std::lock_guard<std::mutex> lock(flush_mutex_);
        flush_queue_.push_back(conn);
    }
    flushed_all_.store(false);
    std::uint64_t tick = 1;
    (void)!::write(wake_fd_, &tick, sizeof(tick));
}

bool
WireServer::flushConn(const std::shared_ptr<Conn> &conn)
{
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (conn->out_off < conn->outbuf.size()) {
        std::size_t remaining = conn->outbuf.size() - conn->out_off;
        const failpoint::Eval fp = s_fp_write.eval();
        if (fp.action == failpoint::Action::kError)
            return false; // injected write error: mid-response kill
        bool force_block = false;
        if (fp.action == failpoint::Action::kShortWrite) {
            // Injected EAGAIN storm: let `arg` bytes through, then
            // behave as if the socket buffer filled.
            remaining = std::min<std::size_t>(remaining, fp.arg);
            force_block = true;
        }
        ::ssize_t sent = 0;
        if (remaining > 0) {
            sent = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                          remaining, MSG_NOSIGNAL);
            if (sent < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    if (conn->write_blocked_ns == 0)
                        conn->write_blocked_ns = obs::nowNs();
                    conn->want_write = true;
                    return true;
                }
                return false;
            }
            conn->out_off += static_cast<std::size_t>(sent);
            // Progress resets the stall clock (the timeout measures
            // "no bytes moved", not "response incomplete").
            conn->write_blocked_ns =
                conn->out_off < conn->outbuf.size() ? obs::nowNs() : 0;
            std::lock_guard<std::mutex> slock(stats_mutex_);
            stats_.bytes_out += static_cast<std::uint64_t>(sent);
        }
        if (force_block && conn->out_off < conn->outbuf.size()) {
            if (conn->write_blocked_ns == 0)
                conn->write_blocked_ns = obs::nowNs();
            conn->want_write = true;
            return true;
        }
    }
    conn->outbuf.clear();
    conn->out_off = 0;
    conn->write_blocked_ns = 0;
    conn->want_write = false;
    return true;
}

void
WireServer::updateEpoll(const std::shared_ptr<Conn> &conn)
{
    struct ::epoll_event ev {};
    ev.events =
        EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void
WireServer::closeConn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    it->second->closed.store(true);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
    connClosedCounter().add();
    connActiveHistogram().record(conns_.size());
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.active_connections = conns_.size();
}

void
WireServer::sweepTimeouts()
{
    const std::uint64_t now = obs::nowNs();
    const std::uint64_t idle_ns =
        options_.idle_timeout_ms * 1'000'000ull;
    const std::uint64_t stall_ns =
        options_.write_stall_timeout_ms * 1'000'000ull;
    std::vector<int> doomed;
    std::uint64_t idle_closed = 0, stall_closed = 0;
    for (const auto &[fd, conn] : conns_) {
        std::uint64_t outbuf_bytes, blocked_ns;
        {
            std::lock_guard<std::mutex> lock(conn->out_mutex);
            outbuf_bytes = conn->outbuf.size() - conn->out_off;
            blocked_ns = conn->write_blocked_ns;
        }
        if (outbuf_bytes > options_.max_outbuf_bytes ||
            (blocked_ns != 0 && now - blocked_ns > stall_ns)) {
            // Non-reading peer: its responses would pin memory
            // indefinitely. Cut it loose.
            doomed.push_back(fd);
            ++stall_closed;
            continue;
        }
        if (conn->pending.load() == 0 && outbuf_bytes == 0 &&
            now - conn->last_active_ns > idle_ns) {
            doomed.push_back(fd);
            ++idle_closed;
        }
    }
    for (int fd : doomed)
        closeConn(fd);
    if (idle_closed + stall_closed > 0) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.closed_idle += idle_closed;
        stats_.closed_stalled += stall_closed;
    }
}

} // namespace dc::server
