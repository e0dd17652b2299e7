#include "trace/branch_trace.hh"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>

namespace whisper
{

namespace
{

// Encoders zero the tail padding after instGap.
constexpr size_t kPadAt = offsetof(BranchRecord, instGap) + 2;
static_assert(sizeof(BranchRecord) == 24 && kPadAt == 20);

/** Why load() rejects a frame, by FrameStatus. */
const char *const kFrameErrors[] = {
    "", "truncated frame", "bad frame header",
    "frame record count out of bounds", "frame CRC mismatch"};

} // namespace

void
TraceHeader::put(ByteWriter &w) const
{
    w.u32(BranchTrace::kFileMagic);
    w.u32(version);
    w.str(app);
    w.u32(inputId);
    w.u64(records);
}

const char *
TraceHeader::get(ByteReader &r)
{
    uint32_t magic = r.u32();
    version = r.u32();
    if (!r.ok() || magic != BranchTrace::kFileMagic)
        return "bad magic (not a .whrt trace)";
    if (version != 1 && version != BranchTrace::kFileVersion)
        return "unsupported format version";
    app = r.str();
    inputId = r.u32();
    records = r.u64();
    return r.ok() ? nullptr : "truncated header or oversized app name";
}

bool
validRecords(const BranchRecord *records, size_t n)
{
    const auto *p = reinterpret_cast<const unsigned char *>(records);
    for (size_t i = 0; i < n; ++i, p += sizeof(BranchRecord)) {
        if (p[offsetof(BranchRecord, kind)] >
                static_cast<uint8_t>(BranchKind::Indirect) ||
            p[offsetof(BranchRecord, taken)] > 1) {
            return false;
        }
    }
    return true;
}

void
zeroRecordPadding(unsigned char *bytes, size_t n)
{
    for (size_t i = 0; i < n; ++i, bytes += sizeof(BranchRecord))
        std::memset(bytes + kPadAt, 0, sizeof(BranchRecord) - kPadAt);
}

void
BranchTrace::fill(BranchSource &source, uint64_t maxRecords)
{
    BranchRecord rec;
    for (uint64_t i = 0; i < maxRecords && source.next(rec); ++i)
        append(rec);
}

bool
BranchTrace::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;

    // Written a frame at a time, so saving never doubles the trace's
    // memory. Each frame checks independently: a reader can skip one
    // damaged frame instead of losing the file.
    ByteWriter w;
    TraceHeader{kFileVersion, app_, inputId_, records_.size()}.put(w);
    bool ok = true;
    for (size_t at = 0; at < records_.size() || w.size() > 0;) {
        size_t count =
            std::min<size_t>(kDefaultFrameRecords, records_.size() - at);
        if (count > 0) {
            size_t mark = w.beginFrame(kFrame);
            w.bytes(records_.data() + at, count * sizeof(BranchRecord));
            zeroRecordPadding(w.data() + w.size() -
                                  count * sizeof(BranchRecord),
                              count);
            w.endFrame(kFrame, mark);
        }
        ok = ok && std::fwrite(w.data(), 1, w.size(), f) == w.size();
        w.clear();
        at += count;
    }
    return std::fclose(f) == 0 && ok;
}

IoStatus
BranchTrace::load(const std::string &path)
{
    std::vector<unsigned char> bytes;
    if (IoStatus st = readFile(path, bytes); !st)
        return st;
    ByteReader r(bytes);
    TraceHeader header;
    if (const char *why = header.get(r))
        return IoStatus::corruptFile(path, why);
    // Every record takes at least sizeof(BranchRecord) bytes, so a
    // corrupt (or hostile) count errors out instead of allocating.
    if (!r.fits(header.records, sizeof(BranchRecord)))
        return IoStatus::corruptFile(path,
                                     "record count exceeds file size");

    std::vector<BranchRecord> records(header.records);
    if (header.version == 1) {
        r.bytes(records.data(), records.size() * sizeof(BranchRecord));
    } else {
        for (size_t at = 0; at < records.size();) {
            FrameHeader frame;
            FrameStatus st = FrameStatus::Ok;
            const unsigned char *payload = r.frame(kFrame, frame, &st);
            if (!payload)
                return IoStatus::corruptFile(
                    path, kFrameErrors[static_cast<int>(st)]);
            if (frame.length > records.size() - at)
                return IoStatus::corruptFile(
                    path, "frame record count out of bounds");
            std::memcpy(static_cast<void *>(records.data() + at), payload,
                        frame.payloadBytes);
            at += frame.length;
        }
    }
    if (!r.ok())
        return IoStatus::corruptFile(path, "truncated record array");
    if (!validRecords(records.data(), records.size()))
        return IoStatus::corruptFile(path, "invalid record field");
    if (!r.done())
        return IoStatus::corruptFile(path,
                                     "trailing bytes after the records");

    app_ = std::move(header.app);
    inputId_ = header.inputId;
    records_ = std::move(records);
    instructions_ = 0;
    conditionals_ = 0;
    for (const auto &rec : records_) {
        instructions_ += rec.instGap + 1;
        if (rec.isConditional())
            ++conditionals_;
    }
    return IoStatus::okStatus();
}

} // namespace whisper
