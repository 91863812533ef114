/**
 * @file
 * Wire front-end tests: the frame codec under hostile input (fuzz
 * bytes, forged lengths, bad checksums, slow-loris), a live
 * WireServer + WireClient round-trip of every opcode, the robustness
 * behaviors the protocol promises (overload shedding, request
 * deadlines, idle/write-stall disconnects, graceful drain, srv.*
 * failpoint torture), and the server crash-torture mode: SIGKILL a
 * serving process mid-ingest-stream, restart on the same directory,
 * and assert every durably-acked run survived with exact query
 * equivalence.
 *
 * The crash-torture child is this binary re-executed with
 * --gtest_filter=ServerCrashTortureChild.Serve (exec, not plain fork:
 * the parent has live threads). Unlike the store-level torture
 * (test_crash_torture.cc) the ack ledger here is the *wire protocol
 * itself*: the parent is the client, and an acked durable ingest is
 * exactly a kOk response to a kFlagDurable request.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/executor.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "profiler/profile_db.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "service/profile_store.h"
#include "service/query_engine.h"
#include "service/warehouse_manager.h"

namespace dc {
namespace {

using prof::Cct;
using prof::CctNode;
using prof::MetricRegistry;
using prof::ProfileDb;
using server::DecodeResult;
using server::Frame;
using server::Opcode;
using server::ServerOptions;
using server::Status;
using server::WireClient;
using server::WireServer;
using service::CorpusHandle;
using service::ProfileStore;
using service::QueryEngine;
using service::WarehouseManager;

/** Deterministic profile: same salt always yields equal bytes. */
std::unique_ptr<ProfileDb>
makeProfile(int salt)
{
    auto cct = std::make_unique<Cct>();
    MetricRegistry metrics;
    const int gpu = metrics.intern(prof::metric_names::kGpuTime);
    const int count = metrics.intern(prof::metric_names::kKernelCount);
    Rng rng(9000 + static_cast<std::uint64_t>(salt));
    for (int i = 0; i < 3 + salt % 3; ++i) {
        CctNode *leaf = cct->insert(
            {dlmon::Frame::python("serve.py", "step", 7),
             dlmon::Frame::op("aten::mm"),
             dlmon::Frame::kernel("kernel_" +
                                  std::to_string((salt + i) % 5))});
        cct->addMetric(leaf, gpu, rng.uniform(10.0, 1000.0));
        cct->addMetric(leaf, count, 1.0);
    }
    return std::make_unique<ProfileDb>(std::move(cct),
                                       std::move(metrics),
                                       std::map<std::string, std::string>{});
}

std::string
profileText(int salt)
{
    return makeProfile(salt)->serialize();
}

// ================================================================
// Frame codec: round trips and hostile input (the fuzz surface an
// untrusted peer controls byte-for-byte).
// ================================================================

TEST(WireFrame, RoundTrip)
{
    const std::string bytes = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kPing), 0x0203, 42, 1500,
        "payload bytes");
    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(server::decodeFrame(bytes, server::kDefaultMaxPayload,
                                  &frame, &consumed),
              DecodeResult::kFrame);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame.opcode(), Opcode::kPing);
    EXPECT_EQ(frame.flags, 0x0203);
    EXPECT_EQ(frame.request_id, 42u);
    EXPECT_EQ(frame.deadline_ms, 1500u);
    EXPECT_EQ(frame.payload, "payload bytes");
}

TEST(WireFrame, EmptyPayloadIsValid)
{
    const std::string bytes = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kStats), 0, 1, 0, "");
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(server::decodeFrame(bytes, server::kDefaultMaxPayload,
                                  &frame, &consumed),
              DecodeResult::kFrame);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(WireFrame, EveryTruncatedPrefixNeedsMore)
{
    const std::string bytes = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kPing), 0, 9, 0, "abc");
    // Any strict prefix of a valid frame is "keep reading", never a
    // violation and never a spurious frame.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        Frame frame;
        std::size_t consumed = 0;
        EXPECT_EQ(server::decodeFrame(
                      std::string_view(bytes).substr(0, len),
                      server::kDefaultMaxPayload, &frame, &consumed),
                  DecodeResult::kNeedMore)
            << "prefix length " << len;
    }
}

TEST(WireFrame, BadMagicFailsAtFourBytes)
{
    std::string bytes = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kPing), 0, 9, 0, "abc");
    bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    // Garbage is rejected as soon as the magic is readable — a peer
    // cannot make the server buffer a full "header" of junk first.
    EXPECT_EQ(server::decodeFrame(std::string_view(bytes).substr(0, 4),
                                  server::kDefaultMaxPayload, &frame,
                                  &consumed, &error),
              DecodeResult::kBad);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(WireFrame, BadVersionFailsAtFiveBytes)
{
    // Only kWireVersion decodes: older, zero and future versions all
    // fail as soon as the version byte is readable.
    for (const int version : {0, 1, 9}) {
        std::string bytes = server::encodeFrame(
            static_cast<std::uint8_t>(Opcode::kPing), 0, 9, 0, "abc");
        bytes[4] = static_cast<char>(version);
        Frame frame;
        std::size_t consumed = 0;
        EXPECT_EQ(server::decodeFrame(std::string_view(bytes).substr(0, 5),
                                      server::kDefaultMaxPayload, &frame,
                                      &consumed),
                  DecodeResult::kBad)
            << "version " << version;
    }
}

/** Patch the payload_len field (offset 20) of an encoded frame. */
std::string
withLength(std::string bytes, std::uint32_t len)
{
    for (int i = 0; i < 4; ++i)
        bytes[20 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    return bytes;
}

TEST(WireFrame, HostileLengthsRejectedBeforeAllocation)
{
    const std::string valid = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kPing), 0, 9, 0, "abc");
    // A forged length is rejected from the 32 header bytes alone —
    // decode never sizes a buffer by it (ASan would catch the
    // alternative as an allocation of the forged size).
    for (const std::uint32_t evil :
         {0x80000000u, 0xffffffffu,
          static_cast<std::uint32_t>(server::kDefaultMaxPayload) + 1}) {
        Frame frame;
        std::size_t consumed = 0;
        std::string error;
        EXPECT_EQ(server::decodeFrame(
                      std::string_view(withLength(valid, evil))
                          .substr(0, server::kFrameHeaderSize),
                      server::kDefaultMaxPayload, &frame, &consumed,
                      &error),
                  DecodeResult::kBad)
            << "length " << evil;
        EXPECT_NE(error.find("payload"), std::string::npos) << error;
    }
    // Off-by-one around a small receiver bound: len == max decodes
    // (with the right checksum), len == max + 1 is a violation.
    const std::string at_bound = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kPing), 0, 9, 0, "abcd");
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(server::decodeFrame(at_bound, 4, &frame, &consumed),
              DecodeResult::kFrame);
    EXPECT_EQ(server::decodeFrame(at_bound, 3, &frame, &consumed),
              DecodeResult::kBad);
}

TEST(WireFrame, ChecksumCoversHeaderAndPayload)
{
    const std::string valid = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kPing), 0, 9, 0, "abcdef");
    // Flip one bit anywhere (header field or payload byte): the frame
    // must fail closed. Skip the length field — covered above — and
    // the checksum's own bytes only when the flip would still verify
    // (it cannot: the checksum is over everything else).
    for (std::size_t i = 0; i < valid.size(); ++i) {
        std::string bytes = valid;
        bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
        Frame frame;
        std::size_t consumed = 0;
        EXPECT_NE(server::decodeFrame(bytes, server::kDefaultMaxPayload,
                                      &frame, &consumed),
                  DecodeResult::kFrame)
            << "flipped byte " << i << " still decoded";
    }
}

TEST(WireFrame, FuzzRandomBuffersNeverCrash)
{
    Rng rng(1234);
    // Pure garbage of every small size, plus valid frames with a
    // burst of random mutations: decode must always return one of the
    // three results — never crash, hang, or allocate by a forged
    // length (the harness runs this under ASan in CI).
    for (int round = 0; round < 2000; ++round) {
        std::string bytes;
        if (round % 2 == 0) {
            const std::size_t len =
                static_cast<std::size_t>(rng.uniform(0.0, 96.0));
            for (std::size_t i = 0; i < len; ++i)
                bytes.push_back(static_cast<char>(
                    static_cast<int>(rng.uniform(0.0, 256.0))));
        } else {
            bytes = server::encodeFrame(
                static_cast<std::uint8_t>(Opcode::kPing), 0,
                static_cast<std::uint64_t>(round), 0, "fuzz payload");
            const int flips = 1 + round % 4;
            for (int f = 0; f < flips; ++f) {
                const std::size_t at = static_cast<std::size_t>(
                    rng.uniform(0.0, static_cast<double>(bytes.size())));
                bytes[at] = static_cast<char>(
                    bytes[at] ^
                    (1 << (static_cast<int>(rng.uniform(0.0, 8.0)))));
            }
        }
        Frame frame;
        std::size_t consumed = 0;
        const DecodeResult result = server::decodeFrame(
            bytes, 1 << 16, &frame, &consumed);
        if (result == DecodeResult::kFrame) {
            EXPECT_LE(consumed, bytes.size());
            EXPECT_GE(consumed, server::kFrameHeaderSize);
        }
    }
}

TEST(WireCodec, ReaderOverrunLatches)
{
    server::WireWriter writer;
    writer.str("hello");
    writer.u32(7);
    std::string payload = writer.take();
    // Truncate mid-integer: every read degrades to a default and
    // ok() latches false; no read reaches past the buffer.
    server::WireReader reader(
        std::string_view(payload).substr(0, payload.size() - 2));
    EXPECT_EQ(reader.str(), "hello");
    (void)reader.u32();
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.u64(), 0u); // reads after the latch are inert
    EXPECT_FALSE(reader.done());
}

TEST(WireCodec, RequestRoundTrips)
{
    service::QueryFilter filter;
    filter.framework = "pytorch";
    filter.metadata["host"] = "node-3";

    std::uint32_t k = 0;
    std::string metric;
    service::QueryFilter out;
    ASSERT_TRUE(server::decodeTopKernelsRequest(
        server::encodeTopKernelsRequest(12, "gpu_time_us", filter), &k,
        &metric, &out));
    EXPECT_EQ(k, 12u);
    EXPECT_EQ(metric, "gpu_time_us");
    EXPECT_EQ(out.framework, "pytorch");
    EXPECT_EQ(out.metadata.at("host"), "node-3");

    std::string run_id, text;
    ASSERT_TRUE(server::decodeIngestRequest(
        server::encodeIngestRequest("run-1", "profile text"), &run_id,
        &text));
    EXPECT_EQ(run_id, "run-1");
    EXPECT_EQ(text, "profile text");
    // Empty run ids are rejected at the codec, not deep in the store.
    EXPECT_FALSE(server::decodeIngestRequest(
        server::encodeIngestRequest("", "x"), &run_id, &text));

    std::vector<server::KernelRow> rows{{"k0", 1.5, 3, 2},
                                        {"k1", 2.5, 4, 1}};
    std::vector<server::KernelRow> back;
    ASSERT_TRUE(server::decodeKernelRows(server::encodeKernelRows(rows),
                                         &back));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, "k0");
    EXPECT_DOUBLE_EQ(back[1].total, 2.5);
    EXPECT_EQ(back[1].runs, 1u);
}

// ================================================================
// Live server: a WireServer over an in-memory warehouse, driven by the
// client library.
// ================================================================

/**
 * Volatile manager + server with test-friendly bounds. `corpus` is the
 * default corpus every unscoped request below addresses.
 */
struct Harness {
    WarehouseManager manager;
    CorpusHandle corpus;
    WireServer server;

    explicit Harness(ServerOptions options = {})
        : manager(managerOptions()),
          corpus(manager.create(server::kDefaultCorpus)),
          server(manager, options)
    {
    }

    static WarehouseManager::Options
    managerOptions()
    {
        WarehouseManager::Options options;
        options.store = memOptions();
        return options;
    }

    static ProfileStore::Options
    memOptions()
    {
        ProfileStore::Options options;
        options.workers = 1;
        return options;
    }

    bool
    start()
    {
        std::string error;
        const bool ok = server.start(&error);
        EXPECT_TRUE(ok) << error;
        return ok;
    }

    WireClient
    client()
    {
        WireClient c;
        std::string error;
        EXPECT_TRUE(c.connect("127.0.0.1", server.port(), &error))
            << error;
        return c;
    }
};

/** Poll @p predicate against the server stats until true or timeout. */
template <typename Predicate>
bool
waitForStats(const WireServer &server, Predicate predicate,
             int timeout_ms = 5000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate(server.stats()))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return predicate(server.stats());
}

TEST(WireServer, PingRoundTrip)
{
    Harness h;
    ASSERT_TRUE(h.start());
    EXPECT_NE(h.server.port(), 0) << "ephemeral port resolved";
    WireClient client = h.client();
    const WireClient::Result result = client.ping("hello warehouse");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.status, Status::kOk);
    EXPECT_EQ(result.payload, "hello warehouse");
    const server::ServerStats stats = h.server.stats();
    EXPECT_GE(stats.accepted, 1u);
    EXPECT_GE(stats.requests, 1u);
    EXPECT_GE(stats.responses, 1u);
}

TEST(WireServer, IngestQueryRoundTrip)
{
    Harness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();

    for (int salt = 0; salt < 3; ++salt) {
        const WireClient::Result ack = client.ingest(
            "run-" + std::to_string(salt), profileText(salt),
            /*durable=*/true);
        ASSERT_TRUE(ack.ok) << ack.error;
        EXPECT_EQ(ack.status, Status::kOk) << ack.payload;
    }

    // Durable acks mean the runs are queryable *now*, no waitIdle.
    std::vector<server::KernelRow> rows;
    const WireClient::Result top = client.topKernels(
        8, prof::metric_names::kGpuTime, {}, &rows);
    ASSERT_TRUE(top.ok) << top.error;
    ASSERT_EQ(top.status, Status::kOk);
    const auto direct = h.corpus->engine.topKernels(8);
    ASSERT_EQ(rows.size(), direct.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, direct[i].name);
        EXPECT_DOUBLE_EQ(rows[i].total, direct[i].total);
        EXPECT_EQ(rows[i].runs, direct[i].runs);
    }

    // The merged payload is a real serialized profile.
    const WireClient::Result merged = client.merged({});
    ASSERT_TRUE(merged.ok) << merged.error;
    ASSERT_EQ(merged.status, Status::kOk);
    std::string parse_error;
    const auto db =
        ProfileDb::tryDeserialize(merged.payload, &parse_error);
    ASSERT_NE(db, nullptr) << parse_error;
    EXPECT_EQ(db->cct().nodeCount(),
              h.corpus->engine.merged()->cct().nodeCount());

    const WireClient::Result diff = client.diff("run-0", "run-1");
    ASSERT_TRUE(diff.ok) << diff.error;
    EXPECT_EQ(diff.status, Status::kOk);
    EXPECT_FALSE(diff.payload.empty());
    const WireClient::Result corpus_diff = client.diff("run-0", "");
    ASSERT_TRUE(corpus_diff.ok) << corpus_diff.error;
    EXPECT_EQ(corpus_diff.status, Status::kOk);

    const WireClient::Result flame = client.flameGraph();
    ASSERT_TRUE(flame.ok) << flame.error;
    EXPECT_EQ(flame.status, Status::kOk);
    EXPECT_NE(flame.payload.find("<html"), std::string::npos);

    const WireClient::Result stats = client.stats();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.status, Status::kOk);
    EXPECT_NE(stats.payload.find("store.runs="), std::string::npos)
        << stats.payload;
    EXPECT_NE(stats.payload.find("server.requests="), std::string::npos);
    // The re-attach supervisor state rides the stats endpoint too.
    EXPECT_NE(stats.payload.find("store.log_reattach_attempts="),
              std::string::npos);
    EXPECT_NE(stats.payload.find("store.log_degraded_since_ns="),
              std::string::npos);
    // Shared-executor pool health is always exported (the counters
    // are the executor's own atomics, not DC_OBS metrics).
    EXPECT_NE(stats.payload.find("exec.threads="), std::string::npos);
    EXPECT_NE(stats.payload.find("exec.submitted="), std::string::npos);
    EXPECT_NE(stats.payload.find("exec.executed="), std::string::npos);
    EXPECT_NE(stats.payload.find("exec.stolen="), std::string::npos);
    EXPECT_NE(stats.payload.find("exec.inline_run="), std::string::npos);
    EXPECT_NE(stats.payload.find("exec.queued="), std::string::npos);

    EXPECT_EQ(client.erase("run-0").status, Status::kOk);
    EXPECT_EQ(client.erase("run-0").status, Status::kNotFound);
    EXPECT_EQ(client.diff("run-0", "run-1").status, Status::kNotFound);
}

TEST(WireServer, BadPayloadIsBadRequestNotDisconnect)
{
    Harness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();
    // A well-framed request with a garbage payload is the peer's bug,
    // not a protocol violation: answer it, keep the connection.
    const WireClient::Result bad =
        client.call(Opcode::kIngest, 0, "\x01garbage");
    ASSERT_TRUE(bad.ok) << bad.error;
    EXPECT_EQ(bad.status, Status::kBadRequest);
    EXPECT_EQ(client.ping("still here").status, Status::kOk);

    // Same for an unknown opcode.
    const WireClient::Result unknown =
        client.call(static_cast<Opcode>(99), 0, "");
    ASSERT_TRUE(unknown.ok) << unknown.error;
    EXPECT_EQ(unknown.status, Status::kBadRequest);
    EXPECT_EQ(client.ping("again").status, Status::kOk);
}

TEST(WireServer, GarbageStreamDropsConnection)
{
    Harness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();
    ASSERT_TRUE(client.sendRaw("this is not a frame at all........"));
    Frame frame;
    std::string error;
    // The server answers BAD_REQUEST at best and closes; from the
    // client's side the stream ends. It must not hang.
    while (client.recv(&frame, 5000, &error)) {
    }
    EXPECT_TRUE(waitForStats(h.server, [](const server::ServerStats &s) {
        return s.bad_frames >= 1;
    }));
    // The listener is unaffected.
    WireClient fresh = h.client();
    EXPECT_EQ(fresh.ping("ok").status, Status::kOk);
}

TEST(WireServer, ForgedLengthHeaderIsRejected)
{
    Harness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();
    // A full header claiming a 2 GiB payload: the server must reject
    // from the header alone (never allocating the claimed size — ASan
    // in CI backs this up) and drop the connection.
    const std::string header = withLength(
        server::encodeFrame(static_cast<std::uint8_t>(Opcode::kPing), 0,
                            1, 0, ""),
        0x7fffffffu);
    ASSERT_TRUE(client.sendRaw(
        std::string_view(header).substr(0, server::kFrameHeaderSize)));
    Frame frame;
    while (client.recv(&frame, 5000, nullptr)) {
    }
    EXPECT_TRUE(waitForStats(h.server, [](const server::ServerStats &s) {
        return s.bad_frames >= 1;
    }));
}

TEST(WireServer, SlowLorisHitsIdleTimeout)
{
    ServerOptions options;
    options.idle_timeout_ms = 150;
    Harness h(options);
    ASSERT_TRUE(h.start());
    WireClient client = h.client();
    // Half a header, then silence: the sweep must reap the connection
    // on the idle clock — a peer trickling bytes cannot hold an fd
    // (and its buffer) forever.
    const std::string valid = server::encodeFrame(
        static_cast<std::uint8_t>(Opcode::kPing), 0, 1, 0, "x");
    ASSERT_TRUE(client.sendRaw(std::string_view(valid).substr(0, 12)));
    const auto start = std::chrono::steady_clock::now();
    Frame frame;
    std::string error;
    EXPECT_FALSE(client.recv(&frame, 10'000, &error));
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 10'000) << "closed by timeout, not recv";
    EXPECT_TRUE(waitForStats(h.server, [](const server::ServerStats &s) {
        return s.closed_idle >= 1;
    }));
}

TEST(WireServer, NonReadingPeerIsDisconnected)
{
    ServerOptions options;
    options.write_stall_timeout_ms = 150;
    Harness h(options);
    ASSERT_TRUE(h.start());
    // torn(0): every flush attempt sends zero bytes and blocks — the
    // deterministic stand-in for a peer whose window never opens.
    ASSERT_TRUE(failpoint::set("srv.write", "torn(0)"));
    WireClient client = h.client();
    ASSERT_TRUE(client.send(Opcode::kPing, 0, "stall"));
    EXPECT_TRUE(waitForStats(h.server, [](const server::ServerStats &s) {
        return s.closed_stalled >= 1;
    }));
    failpoint::clearAll();
    WireClient fresh = h.client();
    EXPECT_EQ(fresh.ping("recovered").status, Status::kOk);
}

TEST(WireServer, OverloadShedsWithExplicitStatus)
{
    ServerOptions options;
    options.max_pending = 3;
    Harness h(options);
    ASSERT_TRUE(h.start());
    // Stall every admitted request so the pipelined burst below arrives
    // while the pending watermark is held down.
    ASSERT_TRUE(failpoint::set("srv.exec", "delay(150)"));
    WireClient client = h.client();
    constexpr int kBurst = 12;
    std::set<std::uint64_t> ids;
    for (int i = 0; i < kBurst; ++i) {
        std::uint64_t id = 0;
        ASSERT_TRUE(client.send(Opcode::kPing, 0, "burst", 0, &id));
        ids.insert(id);
    }
    int ok = 0, shed = 0;
    for (int i = 0; i < kBurst; ++i) {
        Frame frame;
        std::string error;
        ASSERT_TRUE(client.recv(&frame, 30'000, &error)) << error;
        ASSERT_EQ(ids.erase(frame.request_id), 1u)
            << "response to unknown request " << frame.request_id;
        if (frame.status() == Status::kOk)
            ++ok;
        else if (frame.status() == Status::kOverloaded)
            ++shed;
        else
            ADD_FAILURE() << "unexpected status "
                          << server::statusName(frame.status());
    }
    failpoint::clearAll();
    // Every request got exactly one answer: some served, the rest an
    // explicit OVERLOADED — no silent queue growth, no drops.
    EXPECT_EQ(ok + shed, kBurst);
    EXPECT_GE(ok, 1);
    EXPECT_GE(shed, 1);
    const server::ServerStats stats = h.server.stats();
    EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
    // The shed path answers without admitting.
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(ok));
}

TEST(WireServer, PerConnectionPipelineCap)
{
    ServerOptions options;
    options.max_pending = 1024;
    options.max_conn_pending = 2;
    Harness h(options);
    ASSERT_TRUE(h.start());
    ASSERT_TRUE(failpoint::set("srv.exec", "delay(150)"));
    WireClient client = h.client();
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(client.send(Opcode::kPing, 0, "pipelined"));
    int shed = 0;
    for (int i = 0; i < 8; ++i) {
        Frame frame;
        ASSERT_TRUE(client.recv(&frame, 30'000, nullptr));
        if (frame.status() == Status::kOverloaded)
            ++shed;
    }
    failpoint::clearAll();
    // One greedy connection is capped long before the global
    // watermark: the burst of 8 with a cap of 2 must shed.
    EXPECT_GE(shed, 1);
}

TEST(WireServer, DeadlineExceededWithinBoundedGrace)
{
    Harness h;
    ASSERT_TRUE(h.start());
    // The worker stalls 300 ms; the request allows 20. The server
    // must answer DEADLINE_EXCEEDED promptly after the stall — it
    // never silently absorbs the deadline.
    ASSERT_TRUE(failpoint::set("srv.exec", "delay(300)"));
    WireClient client = h.client();
    const auto start = std::chrono::steady_clock::now();
    const WireClient::Result late = client.ping("too slow");
    // call() without an explicit deadline has none; send one with.
    ASSERT_TRUE(late.ok) << late.error;
    const WireClient::Result result =
        client.call(Opcode::kPing, 0, "deadline", /*deadline_ms=*/20);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.status, Status::kDeadlineExceeded);
    EXPECT_LT(elapsed.count(), 5000) << "bounded grace, not a stall";
    failpoint::clearAll();
    EXPECT_EQ(client.call(Opcode::kPing, 0, "fine", 5000).status,
              Status::kOk);
    EXPECT_GE(h.server.stats().deadline_exceeded, 1u);
}

TEST(DeadlineQuery, ExpiredDeadlineAbandonsColdRebuildUncached)
{
    ProfileStore store(Harness::memOptions());
    for (int salt = 0; salt < 20; ++salt)
        store.ingestText("run-" + std::to_string(salt),
                         profileText(salt));
    store.waitIdle();
    QueryEngine engine(store);
    {
        // Already-expired token: the cold rebuild must abandon and
        // report it — and must NOT poison the view cache.
        common::ScopedDeadline scope(common::Deadline::afterMs(0));
        EXPECT_EQ(engine.merged(), nullptr);
        EXPECT_TRUE(engine.topKernels(8).empty());
        EXPECT_EQ(engine.flameGraph(), nullptr);
    }
    // Token gone: the same queries rebuild and serve.
    const auto merged = engine.merged();
    ASSERT_NE(merged, nullptr);
    EXPECT_GT(merged->cct().nodeCount(), 1u);
    EXPECT_FALSE(engine.topKernels(8).empty());
    ASSERT_NE(engine.flameGraph(), nullptr);
}

TEST(WireServer, DrainAnswersShuttingDownAndStops)
{
    Harness h;
    ASSERT_TRUE(h.start());
    WireClient client = h.client();
    ASSERT_EQ(client
                  .ingest("run-drain", profileText(1), /*durable=*/true)
                  .status,
              Status::kOk);
    h.server.drain();
    EXPECT_TRUE(h.server.draining());
    // The I/O thread still answers — with an explicit refusal, so a
    // client can fail over instead of timing out.
    const WireClient::Result refused = client.ping("late");
    ASSERT_TRUE(refused.ok) << refused.error;
    EXPECT_EQ(refused.status, Status::kShuttingDown);
    h.server.stop();
    EXPECT_FALSE(h.server.running());
    // Drain waited for the store: the acked run is present.
    EXPECT_NE(h.corpus->store.get("run-drain"), nullptr);
}

TEST(WireServer, ConnectionFailpointTorture)
{
    Harness h;
    ASSERT_TRUE(h.start());
    // Arm every socket edge at staggered periods so the faults land
    // on different requests each round. The contract under fire:
    // requests either complete correctly or the connection drops —
    // never a wrong answer, never a crash, never a wedged server.
    ASSERT_TRUE(failpoint::set("srv.accept", "error:every=5"));
    ASSERT_TRUE(failpoint::set("srv.read", "error:every=7"));
    ASSERT_TRUE(failpoint::set("srv.write", "error:every=11"));
    ASSERT_TRUE(failpoint::set("srv.frame.decode", "error:every=13"));
    std::vector<std::string> acked;
    for (int round = 0; round < 40; ++round) {
        WireClient client;
        if (!client.connect("127.0.0.1", h.server.port()))
            continue; // accept fault; the listener recovers
        const std::string id = "torture-" + std::to_string(round);
        const WireClient::Result ack =
            client.ingest(id, profileText(round % 7), /*durable=*/true);
        if (ack.ok && ack.status == Status::kOk)
            acked.push_back(id);
        std::vector<server::KernelRow> rows;
        (void)client.topKernels(4, prof::metric_names::kGpuTime, {},
                                &rows);
    }
    failpoint::clearAll();
    // Every acked ingest is really in the store, faults or not.
    EXPECT_GE(acked.size(), 1u) << "torture never succeeded at all";
    for (const std::string &id : acked)
        EXPECT_NE(h.corpus->store.get(id), nullptr) << id;
    WireClient fresh = h.client();
    EXPECT_EQ(fresh.ping("alive").status, Status::kOk);
}

/**
 * The CI soak: N concurrent clients hammering one server with mixed
 * ops while every srv.* socket failpoint fires on a stagger. Gated on
 * DC_SERVER_SOAK so a plain ctest run stays fast; the ASan CI job
 * runs it with the environment set. The invariants are the same as
 * the small torture above, at a scale where races would actually
 * show: every durable ack is honored, the server never wedges, and a
 * clean client works once the faults clear.
 */
TEST(ServerSoak, ConcurrentMixedOpsUnderFaults)
{
    if (std::getenv("DC_SERVER_SOAK") == nullptr)
        GTEST_SKIP() << "set DC_SERVER_SOAK=1 to run the soak";
    Harness h;
    ASSERT_TRUE(h.start());
    ASSERT_TRUE(failpoint::set("srv.accept", "error:every=17"));
    ASSERT_TRUE(failpoint::set("srv.read", "error:every=23"));
    ASSERT_TRUE(failpoint::set("srv.write", "error:every=29"));
    ASSERT_TRUE(failpoint::set("srv.frame.decode", "error:every=31"));

    constexpr int kClients = 8;
    constexpr int kRounds = 60;
    std::mutex acked_mutex;
    std::vector<std::string> acked;
    std::atomic<int> completed{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int round = 0; round < kRounds; ++round) {
                WireClient client;
                if (!client.connect("127.0.0.1", h.server.port()))
                    continue; // accept fault; move on
                const std::string id = "soak-" + std::to_string(c) +
                                       "-" + std::to_string(round);
                switch (round % 5) {
                case 0:
                case 1: {
                    const WireClient::Result ack = client.ingest(
                        id, profileText((c * 31 + round) % 11),
                        /*durable=*/true);
                    if (ack.ok && ack.status == Status::kOk) {
                        std::lock_guard<std::mutex> lock(acked_mutex);
                        acked.push_back(id);
                    }
                    break;
                }
                case 2: {
                    std::vector<server::KernelRow> rows;
                    (void)client.topKernels(
                        8, prof::metric_names::kGpuTime, {}, &rows);
                    break;
                }
                case 3:
                    (void)client.call(Opcode::kPing, 0, "soak", 2000);
                    break;
                case 4:
                    (void)client.stats();
                    break;
                }
                completed.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    failpoint::clearAll();

    EXPECT_GT(completed.load(), 0);
    EXPECT_GE(acked.size(), 1u) << "soak never landed a durable ack";
    for (const std::string &id : acked)
        EXPECT_NE(h.corpus->store.get(id), nullptr) << id;
    WireClient fresh = h.client();
    EXPECT_EQ(fresh.ping("post-soak").status, Status::kOk);
    const server::ServerStats stats = h.server.stats();
    EXPECT_GT(stats.requests, 0u);
    EXPECT_EQ(stats.responses >= stats.requests, true)
        << "every admitted request answered";
}

// ================================================================
// S2: the re-attach supervisor's state is observable.
// ================================================================

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec); // corpus subdirs included
    EXPECT_TRUE(ensureDir(dir));
    return dir;
}

TEST(StoreStats, ReattachSupervisorStateIsObservable)
{
    ProfileStore::Options options;
    options.workers = 1;
    options.data_dir = freshDir("reattach_stats");
    // Park the supervisor far away so the test, not a lucky retry,
    // drives recovery — and so the published schedule is predictable.
    options.log_reattach_min_backoff_ms = 60'000;
    options.log_reattach_max_backoff_ms = 60'000;
    ProfileStore store(options);

    store.ingestText("healthy-run", profileText(1));
    store.waitIdle();
    ASSERT_TRUE(store.logHealthy()) << store.logError();
    service::StoreStats healthy = store.stats();
    EXPECT_EQ(healthy.log_degraded_since_ns, 0u);
    EXPECT_EQ(healthy.log_reattach_backoff_ms, 0u);
    EXPECT_EQ(healthy.log_reattach_next_retry_ns, 0u);

    ASSERT_TRUE(failpoint::set("wal.append.write", "error"));
    store.ingestText("degraded-run", profileText(2));
    store.waitIdle();
    EXPECT_FALSE(store.logHealthy());
    EXPECT_NE(store.get("degraded-run"), nullptr)
        << "degraded, not lost: the run is served from memory";

    // The supervisor wakes on degradation, fails its attempt (the
    // fault is still armed), and publishes its backoff schedule.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    service::StoreStats degraded = store.stats();
    while (std::chrono::steady_clock::now() < deadline &&
           degraded.log_reattach_backoff_ms == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        degraded = store.stats();
    }
    EXPECT_GE(degraded.log_degraded_since_ns, 1u);
    EXPECT_GE(degraded.log_unlogged_runs, 1u);
    EXPECT_EQ(degraded.log_reattach_backoff_ms, 60'000u);
    EXPECT_GE(degraded.log_reattach_next_retry_ns, 1u);
    EXPECT_LE(degraded.log_reattach_next_retry_ns,
              60'000ull * 1'000'000ull);

    failpoint::clearAll();
    ASSERT_TRUE(store.tryReattachNow()) << store.logError();
    service::StoreStats recovered = store.stats();
    EXPECT_EQ(recovered.log_degraded_since_ns, 0u)
        << "recovery ends the degraded episode";
    EXPECT_EQ(recovered.log_reattach_backoff_ms, 0u)
        << "schedule is episode-scoped, not sticky";
    EXPECT_EQ(recovered.log_reattach_next_retry_ns, 0u);
    EXPECT_GE(recovered.log_reattach_attempts, 1u);
    EXPECT_TRUE(store.logHealthy()) << store.logError();
}

// ================================================================
// Durable acks report the run's own outcome, from its own completion.
// ================================================================

/** Durable manager (log_sync on) + server; unscoped = default corpus. */
struct DurableHarness {
    WarehouseManager manager;
    WireServer server;

    explicit DurableHarness(const std::string &name)
        : manager(managerOptions(name)), server(manager)
    {
    }

    static WarehouseManager::Options
    managerOptions(const std::string &name)
    {
        WarehouseManager::Options options;
        options.root_dir = freshDir(name);
        options.store = Harness::memOptions();
        return options;
    }

    WireClient
    client()
    {
        WireClient c;
        std::string error;
        EXPECT_TRUE(c.connect("127.0.0.1", server.port(), &error))
            << error;
        return c;
    }
};

TEST(WireServer, DurableAckIsTheRunsOwnOutcome)
{
    DurableHarness h("ack_outcomes");
    ASSERT_TRUE(h.server.start());
    WireClient client = h.client();
    std::string parse_error;
    ASSERT_EQ(ProfileDb::tryDeserialize("not a profile", &parse_error),
              nullptr);
    ASSERT_FALSE(parse_error.empty());

    struct Case {
        const char *name;
        std::string run_id;
        std::string text;
        const char *failpoint; ///< Armed "error" for this ingest only.
        Status status;
        std::string reply; ///< Substring of the reply payload.
    };
    const Case cases[] = {
        {"healthy", "run-a", profileText(1), nullptr, Status::kOk, ""},
        {"duplicate id", "run-a", profileText(2), nullptr, Status::kError,
         "duplicate run id"},
        {"parse error", "run-b", "not a profile", nullptr, Status::kError,
         parse_error},
        {"append fails", "run-c", profileText(3), "wal.append.write",
         Status::kError, "stored but not durable"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        if (c.failpoint != nullptr) {
            ASSERT_TRUE(failpoint::set(c.failpoint, "error"));
        }
        const WireClient::Result ack =
            client.ingest(c.run_id, c.text, /*durable=*/true);
        failpoint::clearAll();
        ASSERT_TRUE(ack.ok) << ack.error;
        EXPECT_EQ(ack.status, c.status) << ack.payload;
        EXPECT_NE(ack.payload.find(c.reply), std::string::npos)
            << ack.payload;
    }
    const CorpusHandle corpus = h.manager.open(server::kDefaultCorpus);
    ASSERT_NE(corpus, nullptr);
    EXPECT_EQ(corpus->store.get("run-b"), nullptr);
    EXPECT_NE(corpus->store.get("run-c"), nullptr)
        << "not durable, but served from memory";
}

TEST(WireServer, NoRequestWaitsBehindAStoredIngest)
{
    if (common::Executor::global().threads() < 3)
        GTEST_SKIP() << "needs a pool thread beside two stalled drains";
    DurableHarness h("stalled_ingests");
    ASSERT_NE(h.manager.create("a"), nullptr);
    ASSERT_NE(h.manager.create("b"), nullptr);
    ASSERT_TRUE(h.server.start());
    // Both durable ingests stall inside their stores, between publish
    // and log append; neither may hold a thread a ping needs.
    ASSERT_TRUE(failpoint::set("store.ingest.published", "delay(300)"));
    std::vector<std::thread> writers;
    std::atomic<int> acked{0};
    for (const char *corpus : {"a", "b"}) {
        writers.emplace_back([&h, &acked, corpus] {
            WireClient writer = h.client();
            writer.setCorpus(corpus);
            if (writer.ingest(std::string("run-") + corpus, profileText(4),
                              /*durable=*/true)
                    .status == Status::kOk) {
                acked.fetch_add(1);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    WireClient pinger = h.client();
    const auto start = std::chrono::steady_clock::now();
    const WireClient::Result pong = pinger.ping("not stuck");
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    for (std::thread &writer : writers)
        writer.join();
    failpoint::clearAll();
    ASSERT_TRUE(pong.ok) << pong.error;
    EXPECT_EQ(pong.status, Status::kOk);
    EXPECT_LT(elapsed.count(), 150) << "ping queued behind stored ingests";
    EXPECT_EQ(acked.load(), 2);
}

// ================================================================
// S6: server crash torture — SIGKILL the serving process mid-stream,
// restart, and hold it to the durable-ack contract over the wire.
// ================================================================

ProfileStore::Options
serverTortureOptions()
{
    ProfileStore::Options options;
    options.workers = 1;
    options.log_segment_bytes = 4000; // rollovers mid-stream
    options.log_compact_min_dead_bytes = 1ull << 40;
    options.log_checkpoint_bytes = 0;
    options.log_reattach_min_backoff_ms = 60'000;
    options.log_reattach_max_backoff_ms = 60'000;
    return options;
}

/**
 * The child body: a warehouse server on an ephemeral port, announced
 * through a port file, serving until the parent SIGKILLs it. Skips
 * outside the harness so a plain ctest run ignores it.
 */
TEST(ServerCrashTortureChild, Serve)
{
    const char *dir = std::getenv("DC_SERVER_TORTURE_DIR");
    const char *port_file = std::getenv("DC_SERVER_TORTURE_PORT_FILE");
    if (dir == nullptr || port_file == nullptr)
        GTEST_SKIP() << "server torture child only runs under the harness";

    WarehouseManager::Options options;
    options.root_dir = dir;
    options.store = serverTortureOptions();
    WarehouseManager manager(options);
    WireServer server(manager);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_TRUE(atomicWriteFile(
        port_file, std::to_string(server.port()) + "\n", &error))
        << error;
    // Serve until killed. The parent owns this process's lifetime;
    // SIGKILL mid-request is the entire point.
    for (;;)
        ::usleep(20'000);
}

struct ServerChild {
    pid_t pid = -1;
    std::uint16_t port = 0;
};

ServerChild
spawnServerChild(const std::string &dir, const std::string &port_file,
                 const std::string &self_exe)
{
    ServerChild child;
    removeFile(port_file);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("DC_SERVER_TORTURE_DIR", dir.c_str(), 1);
        ::setenv("DC_SERVER_TORTURE_PORT_FILE", port_file.c_str(), 1);
        const char *argv[] = {
            self_exe.c_str(),
            "--gtest_filter=ServerCrashTortureChild.Serve",
            "--gtest_brief=1", nullptr};
        ::execv(self_exe.c_str(), const_cast<char **>(argv));
        ::_exit(127);
    }
    child.pid = pid;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::string contents;
    while (std::chrono::steady_clock::now() < deadline) {
        if (readFile(port_file, &contents) && !contents.empty() &&
            contents.back() == '\n') {
            child.port = static_cast<std::uint16_t>(
                std::atoi(contents.c_str()));
            break;
        }
        // A child that died before announcing (exec failure) would
        // otherwise hang this loop to the deadline.
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            child.pid = -1;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return child;
}

void
killAndReap(pid_t pid)
{
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

/**
 * One torture round: durably ingest over the wire, SIGKILL the server
 * after @p kill_after acks with one more request in flight, restart on
 * the same directory, and require (a) every acked run recovered, (b)
 * nothing recovered beyond acked + the single in-flight run, and (c)
 * exact query equivalence against a reference rebuilt from the
 * recovered id set.
 */
void
serverTortureRound(int kill_after, const std::string &self_exe)
{
    SCOPED_TRACE("kill after " + std::to_string(kill_after) + " acks");
    const std::string dir = freshDir("server_crash_torture");
    const std::string port_file =
        ::testing::TempDir() + "/server_crash_torture.port";
    const ServerChild child =
        spawnServerChild(dir, port_file, self_exe);
    ASSERT_GT(child.pid, 0) << "child died before announcing its port";
    ASSERT_NE(child.port, 0);

    WireClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", child.port, &error))
        << error;
    std::map<std::string, int> acked; // id -> salt
    for (int salt = 0; salt < kill_after; ++salt) {
        const std::string id = "srv-run-" + std::to_string(salt);
        const WireClient::Result ack = client.ingest(
            id, profileText(salt), /*durable=*/true, /*deadline_ms=*/0);
        ASSERT_TRUE(ack.ok) << ack.error;
        ASSERT_EQ(ack.status, Status::kOk) << ack.payload;
        acked[id] = salt;
    }
    // One more durable ingest *in flight* — pipelined, never awaited —
    // then the kill. This is the frame the crash tears.
    const std::string inflight_id =
        "srv-run-" + std::to_string(kill_after);
    ASSERT_TRUE(client.send(
        Opcode::kIngest, server::kFlagDurable,
        server::encodeIngestRequest(inflight_id,
                                    profileText(kill_after))));
    killAndReap(child.pid);
    client.close();

    // Recover the default corpus the unscoped client wrote to: the
    // acked set is the floor, the in-flight run the only permitted
    // extra. With no ack yet the server may have died before creating
    // the corpus; the store then opens its directory empty.
    ProfileStore::Options options = serverTortureOptions();
    options.data_dir = dir + "/" + server::kDefaultCorpus;
    ProfileStore recovered(options);
    ASSERT_TRUE(recovered.logHealthy()) << recovered.logError();
    std::set<std::string> got;
    for (const std::string &id : recovered.runIds())
        got.insert(id);
    for (const auto &[id, salt] : acked)
        EXPECT_EQ(got.count(id), 1u)
            << "acked durable ingest " << id << " lost by the crash";
    for (const std::string &id : got) {
        EXPECT_TRUE(acked.count(id) == 1 || id == inflight_id)
            << "recovered unexpected run " << id;
    }

    // Exact query equivalence against a reference rebuilt from what
    // recovery reports (the in-flight run included iff it landed).
    std::map<std::string, int> model = acked;
    if (got.count(inflight_id) == 1)
        model[inflight_id] = kill_after;
    ProfileStore reference(Harness::memOptions());
    for (const auto &[id, salt] : model)
        reference.ingest(id, makeProfile(salt));
    reference.waitIdle();
    QueryEngine rq(recovered);
    QueryEngine mq(reference);
    const auto rtop = rq.topKernels(32);
    const auto mtop = mq.topKernels(32);
    ASSERT_EQ(rtop.size(), mtop.size());
    for (std::size_t i = 0; i < rtop.size(); ++i) {
        EXPECT_EQ(rtop[i].name, mtop[i].name);
        EXPECT_DOUBLE_EQ(rtop[i].total, mtop[i].total);
    }
    if (!model.empty()) {
        const auto rmerged = rq.merged();
        const auto mmerged = mq.merged();
        ASSERT_NE(rmerged, nullptr);
        ASSERT_NE(mmerged, nullptr);
        EXPECT_EQ(rmerged->cct().nodeCount(),
                  mmerged->cct().nodeCount());
    }
    // Recovery leaves the store writable and durable.
    recovered.ingestText("post-crash", profileText(77));
    recovered.waitIdle();
    EXPECT_NE(recovered.get("post-crash"), nullptr);
    EXPECT_TRUE(recovered.logHealthy()) << recovered.logError();
}

TEST(ServerCrashTorture, KillMidIngestStream)
{
    char self[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    ASSERT_GT(n, 0);
    self[n] = '\0';
    const std::string self_exe(self);
    for (const int kill_after : {0, 2, 5}) {
        serverTortureRound(kill_after, self_exe);
        if (::testing::Test::HasFatalFailure())
            break;
    }
}

} // namespace
} // namespace dc
