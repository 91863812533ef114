#pragma once

/**
 * @file
 * Blocking client for the warehouse wire protocol — the library the
 * tests, the bench, and the crash-torture harness drive the server
 * with (and the reference implementation of the client side of
 * wire.h's framing).
 *
 * Two layers:
 *
 *  - call(): one request, wait for its response. The deadline_ms
 *    argument is carried in the frame header and doubles as the
 *    client-side receive timeout (plus a grace period), so a dead
 *    server cannot hang the caller any more than a slow query can.
 *
 *  - send()/recv(): raw pipelining. send() queues a frame without
 *    waiting; recv() returns the next response in arrival order. The
 *    overload tests use this to stack requests past the server's
 *    admission watermark and count the OVERLOADED sheds.
 *
 * **Corpus addressing.** Every single-corpus request (ingest..stats)
 * is scoped to the corpus set with setCorpus() — the default empty id
 * addresses the server's default corpus, so callers that never mention
 * corpora need no setup. Corpus lifecycle and federated queries get
 * their own conveniences below. send() applies the scoping too (the
 * payload argument is the *opcode* payload; the corpus prefix is added
 * internally), so pipelined callers inherit it for free.
 *
 * Not thread-safe; one WireClient per thread (connections are cheap).
 */

#include <cstdint>
#include <string>
#include <string_view>

#include "server/wire.h"

namespace dc::server {

/** Blocking wire-protocol client over one TCP connection. */
class WireClient
{
  public:
    /** One completed exchange. */
    struct Result {
        bool ok = false; ///< Transport-level success (frame received).
        Status status = Status::kError;
        std::string payload;
        std::string error; ///< Transport error when !ok.
    };

    WireClient() = default;
    ~WireClient();

    WireClient(const WireClient &) = delete;
    WireClient &operator=(const WireClient &) = delete;
    /// Movable: a connection is a handle (the source is left
    /// disconnected).
    WireClient(WireClient &&other) noexcept;
    WireClient &operator=(WireClient &&other) noexcept;

    /** Connect to @p host:@p port. */
    bool connect(const std::string &host, std::uint16_t port,
                 std::string *error = nullptr);
    void close();
    bool connected() const { return fd_ >= 0; }

    /**
     * Scope subsequent single-corpus requests to @p corpus_id
     * ("" = the server's default corpus). Takes effect on the next
     * request; in-flight pipelined frames keep their original scope.
     */
    void setCorpus(std::string corpus_id) {
        corpus_ = std::move(corpus_id);
    }
    const std::string &corpus() const { return corpus_; }

    /**
     * One request/response exchange. With @p deadline_ms > 0 the
     * deadline rides the frame header (the server's cancellation
     * token) and bounds the local wait at deadline_ms + grace.
     */
    Result call(Opcode opcode, std::uint16_t flags,
                std::string_view payload, std::uint32_t deadline_ms = 0);

    // ------------------------------------------------ conveniences
    Result ping(std::string_view payload);
    /** @p durable: ack only after the run is stored and log-durable. */
    Result ingest(const std::string &run_id, std::string_view text,
                  bool durable = false, std::uint32_t deadline_ms = 0);
    Result erase(const std::string &run_id);
    Result topKernels(std::uint32_t k, const std::string &metric,
                      const service::QueryFilter &filter,
                      std::vector<KernelRow> *rows,
                      std::uint32_t deadline_ms = 0);
    /** Result payload: the merged profile, serialized. */
    Result merged(const service::QueryFilter &filter,
                  std::uint32_t deadline_ms = 0);
    Result diff(const std::string &run_a, const std::string &run_b,
                const service::QueryFilter &filter = {},
                std::uint32_t deadline_ms = 0);
    Result flameGraph(const std::string &metric = "",
                      const service::QueryFilter &filter = {},
                      std::uint32_t deadline_ms = 0);
    /** Result payload: key=value lines. */
    Result stats();

    // -------------------------------------------- corpus lifecycle
    Result corpusCreate(const std::string &corpus_id);
    Result corpusOpen(const std::string &corpus_id);
    Result corpusClose(const std::string &corpus_id);
    Result corpusDrop(const std::string &corpus_id);
    Result corpusList(std::vector<CorpusInfo> *corpora);

    // ------------------------------------------- federated queries
    Result federatedTopKernels(const std::vector<std::string> &corpora,
                               std::uint32_t k,
                               const std::string &metric,
                               const service::QueryFilter &filter,
                               std::vector<KernelRow> *rows,
                               std::uint32_t deadline_ms = 0);
    /** Result payload: the federated merged profile, serialized. */
    Result federatedMerged(const std::vector<std::string> &corpora,
                           const service::QueryFilter &filter = {},
                           std::uint32_t deadline_ms = 0);
    Result federatedDiff(const std::vector<std::string> &corpora_a,
                         const std::vector<std::string> &corpora_b,
                         const service::QueryFilter &filter = {},
                         std::uint32_t deadline_ms = 0);
    Result federatedFlame(const std::vector<std::string> &corpora,
                          const std::string &metric = "",
                          const service::QueryFilter &filter = {},
                          std::uint32_t deadline_ms = 0);

    // ------------------------------------------------ raw pipelining
    /**
     * Queue one request frame without waiting for its response.
     * @p request_id (optional out) receives the id to match replies.
     * @p payload is the opcode payload; single-corpus opcodes get the
     * corpus prefix (setCorpus) added here.
     */
    bool send(Opcode opcode, std::uint16_t flags,
              std::string_view payload, std::uint32_t deadline_ms = 0,
              std::uint64_t *request_id = nullptr);

    /**
     * Receive the next response frame (arrival order, which under
     * pipelining may differ from send order — match request_id).
     * @p timeout_ms < 0 waits forever; 0 polls. Returns false on
     * timeout, EOF, or a framing violation.
     */
    bool recv(Frame *out, int timeout_ms = -1,
              std::string *error = nullptr);

    /** Write raw bytes on the socket (fuzz/hostile-input tests). */
    bool sendRaw(std::string_view bytes);

  private:
    int fd_ = -1;
    std::uint64_t next_id_ = 1;
    std::string inbuf_;
    std::string corpus_; ///< "" = the server's default corpus.
};

} // namespace dc::server
