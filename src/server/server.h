#pragma once

/**
 * @file
 * The warehouse's wire front end: a POSIX socket listener serving the
 * framed protocol (wire.h) over a WarehouseManager's corpora.
 *
 * Threading model — one epoll I/O thread; requests run on the shared
 * executor (common/executor.h):
 *
 *  - The I/O thread owns every socket. It accepts connections,
 *    reads/decodes frames, writes queued responses, and enforces the
 *    connection-level robustness rules: bounded per-connection read
 *    and write buffers, idle read timeouts, and write-stall timeouts,
 *    so one slow-loris or non-reading peer can neither pin memory nor
 *    hold a file descriptor forever.
 *
 *  - Decoded requests pass admission control *on the I/O thread*: past
 *    the global pending-request high watermark (admitted, not yet
 *    answered) or the per-connection pipeline cap, the request is
 *    immediately answered OVERLOADED — an explicit shed the client can
 *    back off on, never a silently growing queue. Admitted requests go
 *    to the pool through Executor::trySubmit(), which never runs them
 *    here; a full pool is answered OVERLOADED too.
 *
 *  - A pool task executes the request against the addressed corpus. A
 *    request whose frame carried deadline_ms gets a
 *    common::ScopedDeadline for its execution: the query path's cold
 *    rebuilds poll the token and abandon work past the deadline, and
 *    any reply leaving past its deadline is DEADLINE_EXCEEDED (note:
 *    for mutations this means "answer too late", not "not applied" —
 *    an ingest may have committed before the deadline passed).
 *    Responses are queued on the connection's bounded outbox and
 *    flushed by the I/O thread.
 *
 *  - Ingest is asynchronous by default (accepted = queued on the
 *    store's drains; a full store queue is OVERLOADED). With
 *    kFlagDurable the reply leaves from the run's own IngestDone
 *    completion, with that run's outcome: OK only once it is stored,
 *    visible to queries and, on a durable store, synced — the ack
 *    protocol the server crash-torture mode replays against. No pool
 *    thread waits on the store meanwhile.
 *
 * Graceful drain (drain(), or SIGTERM in tool_warehouse_server): stop
 * accepting, answer new frames SHUTTING_DOWN, let in-flight requests
 * finish (bounded by drain_timeout_ms), drain every open corpus's
 * ingestion queue so every acked run reaches the WAL, flush outboxes,
 * then shut down. Failpoint sites srv.accept / srv.read / srv.write /
 * srv.frame.decode cover every socket edge so the fault-injection
 * machinery can torture connections deterministically.
 *
 * **Corpus routing.** Every single-corpus request is routed by its
 * corpus prefix (wire.h); an empty corpus id addresses kDefaultCorpus,
 * which the first ingest creates so a client that never names a
 * corpus needs no setup (reads of a missing default corpus answer
 * NOT_FOUND, like any unknown corpus). Corpus-lifecycle and federated
 * opcodes go to the manager.
 * A request holds its corpus's refcounted handle for the duration of
 * execution, so a concurrent close/LRU-evict/drop drains behind
 * in-flight queries instead of racing them.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "server/wire.h"
#include "service/profile_store.h"
#include "service/warehouse_manager.h"

namespace dc::server {

/** Corpus an unscoped request (empty corpus id) addresses. */
inline constexpr char kDefaultCorpus[] = "default";

/** Tuning and robustness bounds for a WireServer. */
struct ServerOptions {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral (see WireServer::port()).
    /// Connections beyond this are accepted and immediately closed.
    std::size_t max_connections = 256;
    /// Global admission high watermark: admitted requests not yet
    /// answered beyond this are shed with OVERLOADED.
    std::size_t max_pending = 128;
    /// Per-connection pipeline cap, same shed behavior.
    std::size_t max_conn_pending = 32;
    /// Largest accepted frame payload (decode rejects beyond this
    /// before allocating).
    std::uint64_t max_frame_bytes = kDefaultMaxPayload;
    /// Per-connection outbox bound; a peer that stops reading past
    /// this many unsent bytes is disconnected.
    std::uint64_t max_outbuf_bytes = 2 * kDefaultMaxPayload;
    /// Close a connection with no complete frame activity for this
    /// long (slow-loris defense; also reaps dead peers).
    std::uint64_t idle_timeout_ms = 30'000;
    /// Close a connection whose outbox has made no progress for this
    /// long (non-reading peer).
    std::uint64_t write_stall_timeout_ms = 10'000;
    /// drain(): how long to wait for in-flight requests and unflushed
    /// outboxes before giving up and shedding them.
    std::uint64_t drain_timeout_ms = 5'000;
};

/** Monotonic server counters (see also the server.* obs metrics). */
struct ServerStats {
    std::uint64_t accepted = 0; ///< Connections accepted.
    std::uint64_t active_connections = 0;
    std::uint64_t requests = 0;  ///< Admitted to the pool.
    std::uint64_t responses = 0; ///< Frames queued for send (all
                                 ///< statuses, shed included).
    std::uint64_t shed = 0;      ///< OVERLOADED responses.
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t bad_frames = 0;   ///< Framing violations (conn dropped).
    std::uint64_t closed_idle = 0;  ///< Idle-timeout disconnects.
    std::uint64_t closed_stalled = 0; ///< Write-stall/outbox-bound
                                      ///< disconnects.
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
};

/** Framed-protocol server over one warehouse. */
class WireServer
{
  public:
    /**
     * Server over @p manager (must outlive the server): requests route
     * by their corpus prefix, and the first ingest creates
     * kDefaultCorpus.
     */
    explicit WireServer(service::WarehouseManager &manager,
                        ServerOptions options = {});
    ~WireServer(); ///< drain() + stop().

    WireServer(const WireServer &) = delete;
    WireServer &operator=(const WireServer &) = delete;

    /** Bind, listen, and start the I/O thread. */
    bool start(std::string *error = nullptr);

    /** The bound port (after start(); resolves port 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Graceful drain: stop accepting, shed new frames with
     * SHUTTING_DOWN, wait (bounded) for in-flight requests, drain the
     * corpora's ingestion queues so acked runs are WAL-durable, and
     * flush outboxes. Idempotent.
     */
    void drain();

    /** Hard stop: close all, join the I/O thread, await queued work. */
    void stop();

    bool running() const { return running_.load(); }
    bool draining() const { return draining_.load(); }

    ServerStats stats() const;

  private:
    struct Conn {
        int fd = -1;
        std::string inbuf;
        std::uint64_t last_active_ns = 0;
        /// obs::nowNs() when the outbox last failed to fully flush;
        /// 0 = not write-blocked.
        std::uint64_t write_blocked_ns = 0;
        bool want_write = false; ///< EPOLLOUT currently armed.
        std::atomic<int> pending{0};
        std::atomic<bool> closed{false};

        std::mutex out_mutex;
        std::string outbuf; ///< Unsent response bytes (offset below).
        std::size_t out_off = 0;
    };

    struct Work {
        std::shared_ptr<Conn> conn;
        Frame frame;
        common::Deadline deadline;
    };

    void ioLoop();
    void doAccept();
    /// Read available bytes and dispatch complete frames. Returns
    /// false when the connection must close.
    bool readConn(const std::shared_ptr<Conn> &conn);
    /// Admission control + pool hand-off (or immediate shed response).
    void dispatch(const std::shared_ptr<Conn> &conn, Frame frame);
    /// One admitted request, on a pool thread.
    void run(const Work &work);
    /// Answer an admitted request (a reply past @p deadline becomes
    /// DEADLINE_EXCEEDED) and release its admission slots.
    void finish(const std::shared_ptr<Conn> &conn,
                std::uint64_t request_id, const common::Deadline &deadline,
                Status status, std::string_view payload);
    /// Queue a response frame on @p conn (any thread; no-op if closed).
    void respond(const std::shared_ptr<Conn> &conn,
                 std::uint64_t request_id, Status status,
                 std::string_view payload);
    /// Flush @p conn's outbox (I/O thread only). Returns false when
    /// the connection must close.
    bool flushConn(const std::shared_ptr<Conn> &conn);
    void closeConn(int fd);
    /// Idle/write-stall sweep (I/O thread).
    void sweepTimeouts();
    /// Arm/disarm EPOLLOUT for @p conn (I/O thread).
    void updateEpoll(const std::shared_ptr<Conn> &conn);

    /// Open the corpus @p corpus_id names; with @p create_default, a
    /// missing kDefaultCorpus is created. The handle pins the corpus
    /// for the request's duration: a concurrent close/evict/drop waits
    /// for it to drop (warehouse_manager.h). Null = unknown corpus
    /// (@p payload says why).
    service::CorpusHandle resolveCorpus(const std::string &corpus_id,
                                        bool create_default,
                                        std::string *payload);

    /// Execute one admitted request; fills status + response payload.
    /// No status = a durable ingest whose completion answers it.
    std::optional<Status> execute(const Work &work, std::string *payload);
    std::optional<Status> executeIngest(const Work &work,
                                        service::ProfileStore &store,
                                        std::string_view op_payload,
                                        std::string *payload);
    /// Corpus-lifecycle and federated opcodes.
    Status executeManager(const Work &work, std::string *payload);
    std::string statsPayload(const service::Corpus &corpus);

    service::WarehouseManager &manager_;
    ServerOptions options_;

    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int wake_fd_ = -1; ///< eventfd: replies wake the I/O thread.
    std::uint16_t port_ = 0;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};
    /// "Every outbox fully flushed" — published by the I/O thread each
    /// loop iteration, polled by drain()'s final wait.
    std::atomic<bool> flushed_all_{true};

    /// I/O-thread-owned connection table.
    std::map<int, std::shared_ptr<Conn>> conns_;

    /// Admitted requests not yet answered (admission watermark).
    std::atomic<int> pending_{0};
    /// pending_ hits 0 under this, after finish()'s last server touch.
    std::mutex pending_mutex_;
    std::condition_variable drain_cv_; ///< pending_ hit 0.

    /// Connections with fresh outbox bytes, queued by replies for the
    /// I/O thread to flush.
    std::mutex flush_mutex_;
    std::vector<std::shared_ptr<Conn>> flush_queue_;

    mutable std::mutex stats_mutex_;
    ServerStats stats_;

    std::thread io_thread_;
};

} // namespace dc::server
