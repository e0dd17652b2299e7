#include "util/byte_codec.hh"

#include <cstdio>

namespace whisper
{

size_t
ByteWriter::beginFrame(const FrameFormat &fmt, uint32_t tag)
{
    size_t mark = buf_.size();
    u32(fmt.magic);
    if (fmt.tagged)
        u32(tag);
    u64(0); // length and crc, patched by endFrame()
    return mark;
}

void
ByteWriter::endFrame(const FrameFormat &fmt, size_t mark)
{
    unsigned char *payload = buf_.data() + mark + fmt.headerBytes();
    size_t bytes = static_cast<size_t>(buf_.data() + buf_.size() - payload);
    uint32_t words[2] = {static_cast<uint32_t>(bytes / fmt.unitBytes),
                         crc32(payload, bytes)};
    std::memcpy(payload - 8, words, 8);
}

FrameStatus
readFrameHeader(const FrameFormat &fmt, const unsigned char *p, size_t n,
                FrameHeader &h)
{
    if (n < fmt.headerBytes())
        return FrameStatus::Short;
    ByteReader r(p, n);
    if (r.u32() != fmt.magic)
        return FrameStatus::BadMagic;
    h.tag = fmt.tagged ? r.u32() : 0;
    h.length = r.u32();
    h.crc = r.u32();
    h.payloadBytes = static_cast<size_t>(h.length) * fmt.unitBytes;
    bool lengthOk = h.length <= fmt.maxLength && (h.length || fmt.emptyOk);
    return lengthOk ? FrameStatus::Ok : FrameStatus::BadLength;
}

FrameStatus
readFrame(const FrameFormat &fmt, const unsigned char *p, size_t n,
          FrameHeader &h)
{
    FrameStatus st = readFrameHeader(fmt, p, n, h);
    if (st != FrameStatus::Ok)
        return st;
    if (n - fmt.headerBytes() < h.payloadBytes)
        return FrameStatus::Short;
    return frameCrcOk(h, p + fmt.headerBytes()) ? FrameStatus::Ok
                                                 : FrameStatus::BadCrc;
}

IoStatus
readFile(const std::string &path, std::vector<unsigned char> &out)
{
    out.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return IoStatus::missingFile(path);
    long size = std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
    bool ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
    if (ok) {
        out.resize(static_cast<size_t>(size));
        ok = std::fread(out.data(), 1, out.size(), f) == out.size();
    }
    std::fclose(f);
    if (!ok) {
        out.clear();
        return IoStatus::missingFile(path);
    }
    return IoStatus::okStatus();
}

bool
writeFile(const std::string &path, const void *data, size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(data, 1, n, f) == n;
    return std::fclose(f) == 0 && ok;
}

} // namespace whisper
