#include "net/wire_protocol.hh"

#include "trace/branch_trace.hh"

namespace whisper
{

std::vector<unsigned char>
encodeFrame(WireOp op, const std::vector<unsigned char> &payload)
{
    ByteWriter w;
    w.reserve(WireFrame::kHeaderBytes + payload.size());
    size_t mark = w.beginFrame(WireFrame::kFormat,
                               static_cast<uint32_t>(op));
    w.bytes(payload.data(), payload.size());
    w.endFrame(WireFrame::kFormat, mark);
    return w.take();
}

void
FrameParser::feed(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    buffer_.insert(buffer_.end(), p, p + n);
}

FrameParser::Result
FrameParser::next(WireFrame &out)
{
    // Reclaim consumed prefix once it dominates the buffer.
    if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
    }

    const unsigned char *frame = buffer_.data() + pos_;
    FrameHeader h;
    FrameStatus st = readFrame(WireFrame::kFormat, frame, buffered(), h);
    if (st == FrameStatus::Short)
        return Result::NeedMore;
    if (st == FrameStatus::BadMagic)
        return Result::BadMagic;
    if (st == FrameStatus::BadLength)
        return Result::TooLarge;
    pos_ += WireFrame::kHeaderBytes + h.length; // consumed either way
    if (st == FrameStatus::BadCrc)
        return Result::BadCrc;
    const unsigned char *payload = frame + WireFrame::kHeaderBytes;
    out.op = static_cast<WireOp>(h.tag);
    out.payload.assign(payload, payload + h.length);
    return Result::Frame;
}

// ---- typed messages ----------------------------------------------

std::vector<unsigned char>
encodeHello(const HelloMsg &m)
{
    ByteWriter w;
    w.u32(m.version);
    w.str(m.client);
    return w.take();
}

bool
decodeHello(const std::vector<unsigned char> &p, HelloMsg &m)
{
    ByteReader r(p);
    m.version = r.u32();
    m.client = r.str();
    return r.done();
}

std::vector<unsigned char>
encodeIngestChunk(const IngestChunkMsg &m)
{
    ByteWriter w;
    w.reserve(24 + m.app.size() + m.stream.size() +
              m.records.size() * sizeof(BranchRecord));
    w.str(m.app);
    w.str(m.stream);
    w.u32(m.inputId);
    w.u64(m.seq);
    w.u32(static_cast<uint32_t>(m.records.size()));
    w.bytes(m.records.data(), m.records.size() * sizeof(BranchRecord));
    zeroRecordPadding(w.data() + w.size() -
                          m.records.size() * sizeof(BranchRecord),
                      m.records.size());
    return w.take();
}

bool
decodeIngestChunk(const std::vector<unsigned char> &p,
                  IngestChunkMsg &m)
{
    ByteReader r(p);
    m.app = r.str();
    m.stream = r.str();
    m.inputId = r.u32();
    m.seq = r.u64();
    uint32_t count = r.u32();
    if (!r.ok() ||
        static_cast<uint64_t>(count) * sizeof(BranchRecord) !=
            r.remaining()) {
        return false;
    }
    m.records.resize(count);
    return r.bytes(m.records.data(), count * sizeof(BranchRecord)) &&
           validRecords(m.records.data(), count);
}

std::vector<unsigned char>
encodeChunkAck(const ChunkAckMsg &m)
{
    ByteWriter w;
    w.u64(m.seq);
    w.u32(m.status);
    return w.take();
}

bool
decodeChunkAck(const std::vector<unsigned char> &p, ChunkAckMsg &m)
{
    ByteReader r(p);
    m.seq = r.u64();
    m.status = r.u32();
    return r.done();
}

std::vector<unsigned char>
encodeRetryAfter(const RetryAfterMsg &m)
{
    ByteWriter w;
    w.u64(m.seq);
    w.u32(m.waitMs);
    return w.take();
}

bool
decodeRetryAfter(const std::vector<unsigned char> &p,
                 RetryAfterMsg &m)
{
    ByteReader r(p);
    m.seq = r.u64();
    m.waitMs = r.u32();
    return r.done();
}

std::vector<unsigned char>
encodePullBundle(const PullBundleMsg &m)
{
    ByteWriter w;
    w.str(m.app);
    w.u64(m.cachedEpoch);
    return w.take();
}

bool
decodePullBundle(const std::vector<unsigned char> &p,
                 PullBundleMsg &m)
{
    ByteReader r(p);
    m.app = r.str();
    m.cachedEpoch = r.u64();
    return r.done();
}

std::vector<unsigned char>
encodeBundleUnchanged(uint64_t epoch)
{
    ByteWriter w;
    w.u64(epoch);
    return w.take();
}

bool
decodeBundleUnchanged(const std::vector<unsigned char> &p,
                      uint64_t &epoch)
{
    ByteReader r(p);
    epoch = r.u64();
    return r.done();
}

std::vector<unsigned char>
encodeError(const ErrorMsg &m)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(m.code));
    w.str(m.message);
    return w.take();
}

bool
decodeError(const std::vector<unsigned char> &p, ErrorMsg &m)
{
    ByteReader r(p);
    m.code = static_cast<WireError>(r.u32());
    m.message = r.str();
    return r.done();
}

} // namespace whisper
