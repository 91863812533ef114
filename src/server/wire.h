#pragma once

/**
 * @file
 * The warehouse wire protocol: length-prefixed, checksummed frames.
 *
 * Every message — request or response — is one frame:
 *
 *     offset  size  field
 *     0       4     magic        0xDC50F11E, little-endian
 *     4       1     version      kWireVersion (2)
 *     5       1     kind         request Opcode or response Status
 *     6       2     flags        Opcode-specific bits (kFlagDurable)
 *     8       8     request_id   caller-chosen, echoed in the response
 *     16      4     deadline_ms  request: relative deadline budget
 *                                (0 = none); 0 in responses
 *     20      4     payload_len  bytes following the header
 *     24      8     checksum     FNV-1a 64 over the header (with this
 *                                field zeroed) plus the payload
 *     32      ...   payload
 *
 * All integers are little-endian. The checksum covers the header too,
 * so a flipped opcode or a forged length fails closed, not just a
 * damaged payload. Frame payloads are bounded by the receiver
 * (decodeFrame's max_payload): a hostile length field is rejected
 * before any allocation sized by it.
 *
 * Payload contents are encoded with WireWriter/WireReader —
 * length-prefixed strings and fixed-width integers, no text parsing on
 * the hot path. Opcode-specific codecs (top-kernels rows, filters)
 * live here so the server and the client library cannot drift.
 *
 * Error handling is fail-closed: a frame that does not parse exactly
 * (bad magic, unknown version, oversized length, checksum mismatch,
 * truncated payload reader) is rejected and the connection is expected
 * to be dropped — after a framing error the stream offset can no
 * longer be trusted.
 *
 * One version decodes: kWireVersion. The server and the client library
 * ship together, so there is no older peer to keep serving; any other
 * version byte fails the frame at byte 5.
 *
 * **Corpus addressing.** The warehouse serves many corpora
 * (service/warehouse_manager.h), so the protocol carries a corpus id:
 *
 *  - A frame carrying a single-corpus opcode (kIngest..kStats)
 *    prefixes its payload with one length-prefixed corpus-id string
 *    (encodeCorpusScoped / splitCorpusScoped); an empty id means the
 *    server's default corpus. kPing payloads stay raw.
 *  - Corpus lifecycle (kCorpusCreate..kCorpusList) and federated
 *    queries (kFederatedTopKernels..kFederatedFlame) carry the payloads
 *    encoded by the codecs below.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/query_filter.h"

namespace dc::server {

inline constexpr std::uint32_t kWireMagic = 0xDC50F11Eu;
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 32;
/// Default receiver-side payload bound (see decodeFrame).
inline constexpr std::uint64_t kDefaultMaxPayload = 64ull << 20;

/** Request kinds. */
enum class Opcode : std::uint8_t {
    kPing = 1,       ///< Echo the payload.
    kIngest = 2,     ///< run_id, profile text.
    kErase = 3,      ///< run_id.
    kTopKernels = 4, ///< k, metric, filter -> rows.
    kMerged = 5,     ///< filter -> serialized merged profile.
    kDiff = 6,       ///< run_a, run_b ("" = vs corpus), filter -> text.
    kFlameGraph = 7, ///< filter, metric -> self-contained HTML.
    kStats = 8,      ///< "" -> key=value lines.
    // Corpus lifecycle (payload: one corpus-id string).
    kCorpusCreate = 9,  ///< Create + open a corpus.
    kCorpusOpen = 10,   ///< Open (replay) an existing corpus.
    kCorpusClose = 11,  ///< Remove from the open set (data survives).
    kCorpusDrop = 12,   ///< Delete the corpus and its data.
    kCorpusList = 13,   ///< "" -> CorpusInfo rows.
    // Federated queries spanning a set of corpora.
    kFederatedTopKernels = 14, ///< ids, k, metric, filter -> rows.
    kFederatedMerged = 15,     ///< ids, filter -> serialized profile.
    kFederatedDiff = 16,       ///< ids_a, ids_b, filter -> text.
    kFederatedFlame = 17,      ///< ids, metric, filter -> HTML.
};

/** Response kinds. Values disjoint from Opcode so a reflected or
 *  corrupted frame can never be mistaken for the other direction. */
enum class Status : std::uint8_t {
    kOk = 128,
    kBadRequest = 129, ///< Unparseable payload or unknown opcode.
    kNotFound = 130,   ///< Unknown run id.
    kOverloaded = 131, ///< Shed by admission control; retry later.
    kDeadlineExceeded = 132, ///< Deadline passed before completion.
    kError = 133,            ///< Execution failed; payload = message.
    kShuttingDown = 134,     ///< Server draining; not accepting work.
};

/** Ingest flag: ack only after the run is stored and log-durable. */
inline constexpr std::uint16_t kFlagDurable = 1u << 0;

/** Human-readable status name (diagnostics, tests). */
const char *statusName(Status status);

/** FNV-1a 64 (the WAL's checksum, reused for frames). */
std::uint64_t wireChecksum(std::string_view header_no_sum,
                           std::string_view payload);

/** One decoded frame. */
struct Frame {
    std::uint8_t kind = 0;
    std::uint16_t flags = 0;
    std::uint64_t request_id = 0;
    std::uint32_t deadline_ms = 0;
    std::string payload;

    Opcode opcode() const { return static_cast<Opcode>(kind); }
    Status status() const { return static_cast<Status>(kind); }
};

/** Serialize a frame (header + checksum + payload). */
std::string encodeFrame(std::uint8_t kind, std::uint16_t flags,
                        std::uint64_t request_id,
                        std::uint32_t deadline_ms,
                        std::string_view payload);

/** decodeFrame outcome. */
enum class DecodeResult {
    kNeedMore, ///< Buffer holds a valid prefix; read more bytes.
    kFrame,    ///< One frame decoded; *consumed bytes were used.
    kBad,      ///< Framing violation; the stream is unrecoverable.
};

/**
 * Try to decode one frame from the front of @p buf. Validates magic
 * and version as soon as enough bytes exist (garbage fails fast, not
 * after a full "header" of it), bounds payload_len by @p max_payload
 * *before* sizing any buffer by it, and verifies the checksum over
 * header+payload. On kBad, @p error names the violation.
 */
DecodeResult decodeFrame(std::string_view buf, std::uint64_t max_payload,
                         Frame *out, std::size_t *consumed,
                         std::string *error = nullptr);

/** Append-only payload encoder (little-endian, length-prefixed). */
class WireWriter
{
  public:
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v); ///< IEEE-754 bit pattern as u64.
    void str(std::string_view s);

    std::string take() { return std::move(buf_); }
    const std::string &buffer() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Matching decoder. Any overrun (a length-prefixed string running past
 * the payload) latches ok() false and every later read returns a
 * default — callers check ok() once at the end instead of after every
 * field. A trailing-garbage check is available via done().
 */
class WireReader
{
  public:
    explicit WireReader(std::string_view buf) : buf_(buf) {}

    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();

    bool ok() const { return ok_; }
    bool done() const { return ok_ && off_ == buf_.size(); }

  private:
    bool take(void *out, std::size_t n);

    std::string_view buf_;
    std::size_t off_ = 0;
    bool ok_ = true;
};

// -------------------------------------------------- opcode codecs

/** Append @p filter fields (named + metadata pairs) to @p writer. */
void writeFilter(WireWriter &writer, const service::QueryFilter &filter);
/** Read a filter written by writeFilter. */
service::QueryFilter readFilter(WireReader &reader);

/** One top-kernels result row as it crosses the wire. */
struct KernelRow {
    std::string name;
    double total = 0.0;
    std::uint64_t samples = 0;
    std::uint32_t runs = 0;
};

std::string encodeTopKernelsRequest(std::uint32_t k,
                                    const std::string &metric,
                                    const service::QueryFilter &filter);
bool decodeTopKernelsRequest(std::string_view payload, std::uint32_t *k,
                             std::string *metric,
                             service::QueryFilter *filter);

std::string encodeKernelRows(const std::vector<KernelRow> &rows);
bool decodeKernelRows(std::string_view payload,
                      std::vector<KernelRow> *rows);

std::string encodeIngestRequest(const std::string &run_id,
                                std::string_view profile_text);
bool decodeIngestRequest(std::string_view payload, std::string *run_id,
                         std::string *profile_text);

std::string encodeDiffRequest(const std::string &run_a,
                              const std::string &run_b,
                              const service::QueryFilter &filter);
bool decodeDiffRequest(std::string_view payload, std::string *run_a,
                       std::string *run_b,
                       service::QueryFilter *filter);

std::string encodeFlameRequest(const std::string &metric,
                               const service::QueryFilter &filter);
bool decodeFlameRequest(std::string_view payload, std::string *metric,
                        service::QueryFilter *filter);

// ---------------------------------------------- corpus addressing

/**
 * Prefix @p op_payload with the corpus id a single-corpus frame
 * (kIngest..kStats) addresses ("" = the server's default corpus).
 */
std::string encodeCorpusScoped(const std::string &corpus_id,
                               std::string_view op_payload);

/**
 * Split a single-corpus frame's @p payload (encodeCorpusScoped) into
 * the addressed corpus and the opcode payload, which views into
 * @p payload. False = malformed prefix (treat as a bad request).
 */
bool splitCorpusScoped(std::string_view payload, std::string *corpus_id,
                       std::string_view *op_payload);

/** Corpus lifecycle request (create/open/close/drop): one id. */
std::string encodeCorpusRequest(const std::string &corpus_id);
bool decodeCorpusRequest(std::string_view payload,
                         std::string *corpus_id);

/** One corpus as listed by kCorpusList. */
struct CorpusInfo {
    std::string id;
    bool open = false;        ///< Currently open in the manager.
    std::uint64_t runs = 0;   ///< Stored runs (0 when cold/unknown).
};

std::string encodeCorpusList(const std::vector<CorpusInfo> &corpora);
bool decodeCorpusList(std::string_view payload,
                      std::vector<CorpusInfo> *corpora);

std::string
encodeFederatedTopKernelsRequest(const std::vector<std::string> &corpora,
                                 std::uint32_t k,
                                 const std::string &metric,
                                 const service::QueryFilter &filter);
bool decodeFederatedTopKernelsRequest(std::string_view payload,
                                      std::vector<std::string> *corpora,
                                      std::uint32_t *k,
                                      std::string *metric,
                                      service::QueryFilter *filter);

std::string
encodeFederatedMergedRequest(const std::vector<std::string> &corpora,
                             const service::QueryFilter &filter);
bool decodeFederatedMergedRequest(std::string_view payload,
                                  std::vector<std::string> *corpora,
                                  service::QueryFilter *filter);

std::string
encodeFederatedDiffRequest(const std::vector<std::string> &corpora_a,
                           const std::vector<std::string> &corpora_b,
                           const service::QueryFilter &filter);
bool decodeFederatedDiffRequest(std::string_view payload,
                                std::vector<std::string> *corpora_a,
                                std::vector<std::string> *corpora_b,
                                service::QueryFilter *filter);

std::string
encodeFederatedFlameRequest(const std::vector<std::string> &corpora,
                            const std::string &metric,
                            const service::QueryFilter &filter);
bool decodeFederatedFlameRequest(std::string_view payload,
                                 std::vector<std::string> *corpora,
                                 std::string *metric,
                                 service::QueryFilter *filter);

} // namespace dc::server
