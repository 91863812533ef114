#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dc::server {

namespace {

/// Extra wait past a request's deadline before the client gives up
/// locally: the server is allowed one work unit of overshoot plus the
/// response's flight time.
constexpr int kDeadlineGraceMs = 2'000;

} // namespace

WireClient::~WireClient()
{
    close();
}

WireClient::WireClient(WireClient &&other) noexcept
    : fd_(other.fd_), next_id_(other.next_id_),
      inbuf_(std::move(other.inbuf_)),
      corpus_(std::move(other.corpus_))
{
    other.fd_ = -1;
}

WireClient &
WireClient::operator=(WireClient &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        next_id_ = other.next_id_;
        inbuf_ = std::move(other.inbuf_);
        corpus_ = std::move(other.corpus_);
        other.fd_ = -1;
    }
    return *this;
}

bool
WireClient::connect(const std::string &host, std::uint16_t port,
                    std::string *error)
{
    const auto fail = [&](const char *what) {
        if (error != nullptr)
            *error = std::string(what) + ": " + std::strerror(errno);
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        return false;
    };
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return fail("socket");
    struct ::sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("bad host address");
    }
    int rc;
    do {
        rc = ::connect(fd_,
                       reinterpret_cast<struct ::sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0)
        return fail("connect");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    inbuf_.clear();
    return true;
}

void
WireClient::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    inbuf_.clear();
}

bool
WireClient::sendRaw(std::string_view bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ::ssize_t sent = ::send(fd_, bytes.data() + off,
                                      bytes.size() - off, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(sent);
    }
    return true;
}

bool
WireClient::send(Opcode opcode, std::uint16_t flags,
                 std::string_view payload, std::uint32_t deadline_ms,
                 std::uint64_t *request_id)
{
    if (fd_ < 0)
        return false;
    const std::uint64_t id = next_id_++;
    if (request_id != nullptr)
        *request_id = id;
    // Single-corpus opcodes are scoped to the client's corpus; ping
    // and the corpus/federated opcodes carry unscoped payloads.
    std::string scoped;
    if (opcode >= Opcode::kIngest && opcode <= Opcode::kStats) {
        scoped = encodeCorpusScoped(corpus_, payload);
        payload = scoped;
    }
    return sendRaw(encodeFrame(static_cast<std::uint8_t>(opcode), flags,
                               id, deadline_ms, payload));
}

bool
WireClient::recv(Frame *out, int timeout_ms, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = what;
        return false;
    };
    if (fd_ < 0)
        return fail("not connected");
    for (;;) {
        // A complete frame may already be buffered from a previous
        // read (pipelined responses arrive back to back).
        std::size_t consumed = 0;
        std::string decode_error;
        const DecodeResult result =
            decodeFrame(inbuf_, kDefaultMaxPayload, out, &consumed,
                        &decode_error);
        if (result == DecodeResult::kFrame) {
            inbuf_.erase(0, consumed);
            return true;
        }
        if (result == DecodeResult::kBad)
            return fail("bad frame from server: " + decode_error);

        struct ::pollfd pfd {};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        int rc;
        do {
            rc = ::poll(&pfd, 1, timeout_ms);
        } while (rc < 0 && errno == EINTR);
        if (rc == 0)
            return fail("timed out waiting for response");
        if (rc < 0)
            return fail(std::string("poll: ") + std::strerror(errno));
        char chunk[64 * 1024];
        const ::ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (got == 0)
            return fail("connection closed by server");
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return fail(std::string("recv: ") + std::strerror(errno));
        }
        inbuf_.append(chunk, static_cast<std::size_t>(got));
    }
}

WireClient::Result
WireClient::call(Opcode opcode, std::uint16_t flags,
                 std::string_view payload, std::uint32_t deadline_ms)
{
    Result result;
    std::uint64_t id = 0;
    if (!send(opcode, flags, payload, deadline_ms, &id)) {
        result.error = "send failed";
        return result;
    }
    const int timeout_ms =
        deadline_ms > 0 ? static_cast<int>(deadline_ms) + kDeadlineGraceMs
                        : -1;
    Frame frame;
    for (;;) {
        if (!recv(&frame, timeout_ms, &result.error))
            return result;
        // A lone call() only ever has one outstanding id, but a caller
        // mixing send() pipelining with call() may see earlier
        // responses first; skip them.
        if (frame.request_id == id)
            break;
    }
    result.ok = true;
    result.status = frame.status();
    result.payload = std::move(frame.payload);
    return result;
}

WireClient::Result
WireClient::ping(std::string_view payload)
{
    return call(Opcode::kPing, 0, payload);
}

WireClient::Result
WireClient::ingest(const std::string &run_id, std::string_view text,
                   bool durable, std::uint32_t deadline_ms)
{
    return call(Opcode::kIngest, durable ? kFlagDurable : 0,
                encodeIngestRequest(run_id, text), deadline_ms);
}

WireClient::Result
WireClient::erase(const std::string &run_id)
{
    WireWriter writer;
    writer.str(run_id);
    return call(Opcode::kErase, 0, writer.buffer());
}

WireClient::Result
WireClient::topKernels(std::uint32_t k, const std::string &metric,
                       const service::QueryFilter &filter,
                       std::vector<KernelRow> *rows,
                       std::uint32_t deadline_ms)
{
    Result result =
        call(Opcode::kTopKernels, 0,
             encodeTopKernelsRequest(k, metric, filter), deadline_ms);
    if (result.ok && result.status == Status::kOk &&
        !decodeKernelRows(result.payload, rows)) {
        result.ok = false;
        result.error = "bad kernel-rows payload";
    }
    return result;
}

WireClient::Result
WireClient::merged(const service::QueryFilter &filter,
                   std::uint32_t deadline_ms)
{
    WireWriter writer;
    writeFilter(writer, filter);
    return call(Opcode::kMerged, 0, writer.buffer(), deadline_ms);
}

WireClient::Result
WireClient::diff(const std::string &run_a, const std::string &run_b,
                 const service::QueryFilter &filter,
                 std::uint32_t deadline_ms)
{
    return call(Opcode::kDiff, 0,
                encodeDiffRequest(run_a, run_b, filter), deadline_ms);
}

WireClient::Result
WireClient::flameGraph(const std::string &metric,
                       const service::QueryFilter &filter,
                       std::uint32_t deadline_ms)
{
    return call(Opcode::kFlameGraph, 0,
                encodeFlameRequest(metric, filter), deadline_ms);
}

WireClient::Result
WireClient::stats()
{
    return call(Opcode::kStats, 0, "");
}

WireClient::Result
WireClient::corpusCreate(const std::string &corpus_id)
{
    return call(Opcode::kCorpusCreate, 0,
                encodeCorpusRequest(corpus_id));
}

WireClient::Result
WireClient::corpusOpen(const std::string &corpus_id)
{
    return call(Opcode::kCorpusOpen, 0, encodeCorpusRequest(corpus_id));
}

WireClient::Result
WireClient::corpusClose(const std::string &corpus_id)
{
    return call(Opcode::kCorpusClose, 0,
                encodeCorpusRequest(corpus_id));
}

WireClient::Result
WireClient::corpusDrop(const std::string &corpus_id)
{
    return call(Opcode::kCorpusDrop, 0, encodeCorpusRequest(corpus_id));
}

WireClient::Result
WireClient::corpusList(std::vector<CorpusInfo> *corpora)
{
    Result result = call(Opcode::kCorpusList, 0, "");
    if (result.ok && result.status == Status::kOk &&
        !decodeCorpusList(result.payload, corpora)) {
        result.ok = false;
        result.error = "bad corpus-list payload";
    }
    return result;
}

WireClient::Result
WireClient::federatedTopKernels(const std::vector<std::string> &corpora,
                                std::uint32_t k,
                                const std::string &metric,
                                const service::QueryFilter &filter,
                                std::vector<KernelRow> *rows,
                                std::uint32_t deadline_ms)
{
    Result result = call(
        Opcode::kFederatedTopKernels, 0,
        encodeFederatedTopKernelsRequest(corpora, k, metric, filter),
        deadline_ms);
    if (result.ok && result.status == Status::kOk &&
        !decodeKernelRows(result.payload, rows)) {
        result.ok = false;
        result.error = "bad kernel-rows payload";
    }
    return result;
}

WireClient::Result
WireClient::federatedMerged(const std::vector<std::string> &corpora,
                            const service::QueryFilter &filter,
                            std::uint32_t deadline_ms)
{
    return call(Opcode::kFederatedMerged, 0,
                encodeFederatedMergedRequest(corpora, filter),
                deadline_ms);
}

WireClient::Result
WireClient::federatedDiff(const std::vector<std::string> &corpora_a,
                          const std::vector<std::string> &corpora_b,
                          const service::QueryFilter &filter,
                          std::uint32_t deadline_ms)
{
    return call(
        Opcode::kFederatedDiff, 0,
        encodeFederatedDiffRequest(corpora_a, corpora_b, filter),
        deadline_ms);
}

WireClient::Result
WireClient::federatedFlame(const std::vector<std::string> &corpora,
                           const std::string &metric,
                           const service::QueryFilter &filter,
                           std::uint32_t deadline_ms)
{
    return call(Opcode::kFederatedFlame, 0,
                encodeFederatedFlameRequest(corpora, metric, filter),
                deadline_ms);
}

} // namespace dc::server
