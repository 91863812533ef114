#include "server/wire.h"

#include <cstring>

namespace dc::server {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(std::uint64_t hash, std::string_view bytes)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= kFnvPrime;
    }
    return hash;
}

void
putU16(std::string &buf, std::uint16_t v)
{
    buf.push_back(static_cast<char>(v & 0xff));
    buf.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint16_t
getU16(const char *p)
{
    const unsigned char *u = reinterpret_cast<const unsigned char *>(p);
    return static_cast<std::uint16_t>(u[0] |
                                      (static_cast<unsigned>(u[1]) << 8));
}

std::uint32_t
getU32(const char *p)
{
    const unsigned char *u = reinterpret_cast<const unsigned char *>(p);
    return static_cast<std::uint32_t>(u[0]) |
           (static_cast<std::uint32_t>(u[1]) << 8) |
           (static_cast<std::uint32_t>(u[2]) << 16) |
           (static_cast<std::uint32_t>(u[3]) << 24);
}

std::uint64_t
getU64(const char *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

} // namespace

const char *
statusName(Status status)
{
    switch (status) {
    case Status::kOk:
        return "OK";
    case Status::kBadRequest:
        return "BAD_REQUEST";
    case Status::kNotFound:
        return "NOT_FOUND";
    case Status::kOverloaded:
        return "OVERLOADED";
    case Status::kDeadlineExceeded:
        return "DEADLINE_EXCEEDED";
    case Status::kError:
        return "ERROR";
    case Status::kShuttingDown:
        return "SHUTTING_DOWN";
    }
    return "UNKNOWN";
}

std::uint64_t
wireChecksum(std::string_view header_no_sum, std::string_view payload)
{
    return fnv1a(fnv1a(kFnvOffset, header_no_sum), payload);
}

std::string
encodeFrame(std::uint8_t kind, std::uint16_t flags,
            std::uint64_t request_id, std::uint32_t deadline_ms,
            std::string_view payload)
{
    std::string frame;
    frame.reserve(kFrameHeaderSize + payload.size());
    putU32(frame, kWireMagic);
    frame.push_back(static_cast<char>(kWireVersion));
    frame.push_back(static_cast<char>(kind));
    putU16(frame, flags);
    putU64(frame, request_id);
    putU32(frame, deadline_ms);
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    // Checksum over the header-so-far (checksum field logically zero —
    // it is simply not yet appended) plus the payload.
    const std::uint64_t sum = wireChecksum(frame, payload);
    putU64(frame, sum);
    frame.append(payload.data(), payload.size());
    return frame;
}

DecodeResult
decodeFrame(std::string_view buf, std::uint64_t max_payload, Frame *out,
            std::size_t *consumed, std::string *error)
{
    const auto bad = [&](const char *what) {
        if (error != nullptr)
            *error = what;
        return DecodeResult::kBad;
    };
    // Reject garbage as soon as it is identifiable: a client that
    // connects and speaks HTTP (or noise) fails on its first 4 bytes,
    // not after feeding us a header's worth.
    if (buf.size() >= 4 && getU32(buf.data()) != kWireMagic)
        return bad("bad magic");
    if (buf.size() >= 5 && static_cast<std::uint8_t>(buf[4]) != kWireVersion)
        return bad("unsupported version");
    if (buf.size() < kFrameHeaderSize)
        return DecodeResult::kNeedMore;

    const std::uint32_t payload_len = getU32(buf.data() + 20);
    // Bound before any buffer is sized by the untrusted length — a
    // 2^31 length must not trigger a 2 GiB reserve.
    if (payload_len > max_payload)
        return bad("payload length exceeds limit");
    if (buf.size() < kFrameHeaderSize + payload_len)
        return DecodeResult::kNeedMore;

    const std::string_view header_no_sum = buf.substr(0, 24);
    const std::string_view payload =
        buf.substr(kFrameHeaderSize, payload_len);
    const std::uint64_t want_sum = getU64(buf.data() + 24);
    if (wireChecksum(header_no_sum, payload) != want_sum)
        return bad("checksum mismatch");

    out->kind = static_cast<std::uint8_t>(buf[5]);
    out->flags = getU16(buf.data() + 6);
    out->request_id = getU64(buf.data() + 8);
    out->deadline_ms = getU32(buf.data() + 16);
    out->payload.assign(payload.data(), payload.size());
    *consumed = kFrameHeaderSize + payload_len;
    return DecodeResult::kFrame;
}

void
WireWriter::u32(std::uint32_t v)
{
    putU32(buf_, v);
}

void
WireWriter::u64(std::uint64_t v)
{
    putU64(buf_, v);
}

void
WireWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(buf_, bits);
}

void
WireWriter::str(std::string_view s)
{
    putU32(buf_, static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
}

bool
WireReader::take(void *out, std::size_t n)
{
    if (!ok_ || buf_.size() - off_ < n) {
        ok_ = false;
        return false;
    }
    std::memcpy(out, buf_.data() + off_, n);
    off_ += n;
    return true;
}

std::uint32_t
WireReader::u32()
{
    char raw[4];
    if (!take(raw, sizeof(raw)))
        return 0;
    return getU32(raw);
}

std::uint64_t
WireReader::u64()
{
    char raw[8];
    if (!take(raw, sizeof(raw)))
        return 0;
    return getU64(raw);
}

double
WireReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
WireReader::str()
{
    const std::uint32_t len = u32();
    // The reader operates on an already-bounded frame payload, so the
    // only hostile case left is a length past the payload end.
    if (!ok_ || buf_.size() - off_ < len) {
        ok_ = false;
        return {};
    }
    std::string out(buf_.data() + off_, len);
    off_ += len;
    return out;
}

void
writeFilter(WireWriter &writer, const service::QueryFilter &filter)
{
    writer.str(filter.framework);
    writer.str(filter.platform);
    writer.str(filter.model);
    writer.u32(static_cast<std::uint32_t>(filter.metadata.size()));
    for (const auto &[key, value] : filter.metadata) {
        writer.str(key);
        writer.str(value);
    }
}

service::QueryFilter
readFilter(WireReader &reader)
{
    service::QueryFilter filter;
    filter.framework = reader.str();
    filter.platform = reader.str();
    filter.model = reader.str();
    const std::uint32_t pairs = reader.u32();
    for (std::uint32_t i = 0; i < pairs && reader.ok(); ++i) {
        std::string key = reader.str();
        filter.metadata[std::move(key)] = reader.str();
    }
    return filter;
}

std::string
encodeTopKernelsRequest(std::uint32_t k, const std::string &metric,
                        const service::QueryFilter &filter)
{
    WireWriter writer;
    writer.u32(k);
    writer.str(metric);
    writeFilter(writer, filter);
    return writer.take();
}

bool
decodeTopKernelsRequest(std::string_view payload, std::uint32_t *k,
                        std::string *metric,
                        service::QueryFilter *filter)
{
    WireReader reader(payload);
    *k = reader.u32();
    *metric = reader.str();
    *filter = readFilter(reader);
    return reader.done();
}

std::string
encodeKernelRows(const std::vector<KernelRow> &rows)
{
    WireWriter writer;
    writer.u32(static_cast<std::uint32_t>(rows.size()));
    for (const KernelRow &row : rows) {
        writer.str(row.name);
        writer.f64(row.total);
        writer.u64(row.samples);
        writer.u32(row.runs);
    }
    return writer.take();
}

bool
decodeKernelRows(std::string_view payload, std::vector<KernelRow> *rows)
{
    WireReader reader(payload);
    const std::uint32_t count = reader.u32();
    rows->clear();
    for (std::uint32_t i = 0; i < count && reader.ok(); ++i) {
        KernelRow row;
        row.name = reader.str();
        row.total = reader.f64();
        row.samples = reader.u64();
        row.runs = reader.u32();
        rows->push_back(std::move(row));
    }
    return reader.done();
}

std::string
encodeIngestRequest(const std::string &run_id,
                    std::string_view profile_text)
{
    WireWriter writer;
    writer.str(run_id);
    writer.str(profile_text);
    return writer.take();
}

bool
decodeIngestRequest(std::string_view payload, std::string *run_id,
                    std::string *profile_text)
{
    WireReader reader(payload);
    *run_id = reader.str();
    *profile_text = reader.str();
    return reader.done() && !run_id->empty();
}

std::string
encodeDiffRequest(const std::string &run_a, const std::string &run_b,
                  const service::QueryFilter &filter)
{
    WireWriter writer;
    writer.str(run_a);
    writer.str(run_b);
    writeFilter(writer, filter);
    return writer.take();
}

bool
decodeDiffRequest(std::string_view payload, std::string *run_a,
                  std::string *run_b, service::QueryFilter *filter)
{
    WireReader reader(payload);
    *run_a = reader.str();
    *run_b = reader.str();
    *filter = readFilter(reader);
    return reader.done() && !run_a->empty();
}

std::string
encodeFlameRequest(const std::string &metric,
                   const service::QueryFilter &filter)
{
    WireWriter writer;
    writer.str(metric);
    writeFilter(writer, filter);
    return writer.take();
}

bool
decodeFlameRequest(std::string_view payload, std::string *metric,
                   service::QueryFilter *filter)
{
    WireReader reader(payload);
    *metric = reader.str();
    *filter = readFilter(reader);
    return reader.done();
}

namespace {

void
writeCorpusIds(WireWriter &writer, const std::vector<std::string> &ids)
{
    writer.u32(static_cast<std::uint32_t>(ids.size()));
    for (const std::string &id : ids)
        writer.str(id);
}

std::vector<std::string>
readCorpusIds(WireReader &reader)
{
    std::vector<std::string> ids;
    const std::uint32_t count = reader.u32();
    for (std::uint32_t i = 0; i < count && reader.ok(); ++i)
        ids.push_back(reader.str());
    return ids;
}

} // namespace

std::string
encodeCorpusScoped(const std::string &corpus_id,
                   std::string_view op_payload)
{
    WireWriter writer;
    writer.str(corpus_id);
    std::string out = writer.take();
    out.append(op_payload.data(), op_payload.size());
    return out;
}

bool
splitCorpusScoped(std::string_view payload, std::string *corpus_id,
                  std::string_view *op_payload)
{
    if (payload.size() < 4)
        return false;
    const std::uint32_t len = getU32(payload.data());
    if (len > payload.size() - 4)
        return false;
    corpus_id->assign(payload.data() + 4, len);
    *op_payload = payload.substr(4 + len);
    return true;
}

std::string
encodeCorpusRequest(const std::string &corpus_id)
{
    WireWriter writer;
    writer.str(corpus_id);
    return writer.take();
}

bool
decodeCorpusRequest(std::string_view payload, std::string *corpus_id)
{
    WireReader reader(payload);
    *corpus_id = reader.str();
    return reader.done() && !corpus_id->empty();
}

std::string
encodeCorpusList(const std::vector<CorpusInfo> &corpora)
{
    WireWriter writer;
    writer.u32(static_cast<std::uint32_t>(corpora.size()));
    for (const CorpusInfo &info : corpora) {
        writer.str(info.id);
        writer.u32(info.open ? 1 : 0);
        writer.u64(info.runs);
    }
    return writer.take();
}

bool
decodeCorpusList(std::string_view payload,
                 std::vector<CorpusInfo> *corpora)
{
    WireReader reader(payload);
    const std::uint32_t count = reader.u32();
    corpora->clear();
    for (std::uint32_t i = 0; i < count && reader.ok(); ++i) {
        CorpusInfo info;
        info.id = reader.str();
        info.open = reader.u32() != 0;
        info.runs = reader.u64();
        corpora->push_back(std::move(info));
    }
    return reader.done();
}

std::string
encodeFederatedTopKernelsRequest(const std::vector<std::string> &corpora,
                                 std::uint32_t k,
                                 const std::string &metric,
                                 const service::QueryFilter &filter)
{
    WireWriter writer;
    writeCorpusIds(writer, corpora);
    writer.u32(k);
    writer.str(metric);
    writeFilter(writer, filter);
    return writer.take();
}

bool
decodeFederatedTopKernelsRequest(std::string_view payload,
                                 std::vector<std::string> *corpora,
                                 std::uint32_t *k, std::string *metric,
                                 service::QueryFilter *filter)
{
    WireReader reader(payload);
    *corpora = readCorpusIds(reader);
    *k = reader.u32();
    *metric = reader.str();
    *filter = readFilter(reader);
    return reader.done() && !corpora->empty();
}

std::string
encodeFederatedMergedRequest(const std::vector<std::string> &corpora,
                             const service::QueryFilter &filter)
{
    WireWriter writer;
    writeCorpusIds(writer, corpora);
    writeFilter(writer, filter);
    return writer.take();
}

bool
decodeFederatedMergedRequest(std::string_view payload,
                             std::vector<std::string> *corpora,
                             service::QueryFilter *filter)
{
    WireReader reader(payload);
    *corpora = readCorpusIds(reader);
    *filter = readFilter(reader);
    return reader.done() && !corpora->empty();
}

std::string
encodeFederatedDiffRequest(const std::vector<std::string> &corpora_a,
                           const std::vector<std::string> &corpora_b,
                           const service::QueryFilter &filter)
{
    WireWriter writer;
    writeCorpusIds(writer, corpora_a);
    writeCorpusIds(writer, corpora_b);
    writeFilter(writer, filter);
    return writer.take();
}

bool
decodeFederatedDiffRequest(std::string_view payload,
                           std::vector<std::string> *corpora_a,
                           std::vector<std::string> *corpora_b,
                           service::QueryFilter *filter)
{
    WireReader reader(payload);
    *corpora_a = readCorpusIds(reader);
    *corpora_b = readCorpusIds(reader);
    *filter = readFilter(reader);
    return reader.done() && !corpora_a->empty() && !corpora_b->empty();
}

std::string
encodeFederatedFlameRequest(const std::vector<std::string> &corpora,
                            const std::string &metric,
                            const service::QueryFilter &filter)
{
    WireWriter writer;
    writeCorpusIds(writer, corpora);
    writer.str(metric);
    writeFilter(writer, filter);
    return writer.take();
}

bool
decodeFederatedFlameRequest(std::string_view payload,
                            std::vector<std::string> *corpora,
                            std::string *metric,
                            service::QueryFilter *filter)
{
    WireReader reader(payload);
    *corpora = readCorpusIds(reader);
    *metric = reader.str();
    *filter = readFilter(reader);
    return reader.done() && !corpora->empty();
}

} // namespace dc::server
