/**
 * @file
 * The one byte codec behind every binary format: profiles, `.hints`
 * and `.vhints` bundles, `.whrt` traces, the hint-store journal and
 * the whisperd wire protocol.
 *
 * Integers are little-endian fixed-width fields, doubles their
 * IEEE-754 bits, and a string is `len:u32 bytes` with len capped at
 * kMaxString. ByteReader poisons itself on any overrun, over-long
 * string or hostile count (ok() turns false, later reads yield 0), so
 * a decoder reads straight through and checks once at the end,
 * usually with done(): ok and no trailing bytes. count() bounds an
 * element count by the bytes left, so no decoder allocates more than
 * its input can hold.
 *
 * Trace chunks, journal records and wire messages travel in CRC
 * frames:
 *
 *   magic:u32 [tag:u32] length:u32 crc:u32 payload
 *
 * length counts payload units (bytes, or records for `.whrt`) and crc
 * is the CRC32 of the payload. readFrame() checks magic, length cap,
 * completeness and CRC, in that order; what a damaged frame means
 * (skip it, cut the tail, drop the connection) is the caller's call.
 */

#ifndef WHISPER_UTIL_BYTE_CODEC_HH
#define WHISPER_UTIL_BYTE_CODEC_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/crc32.hh"
#include "util/io_status.hh"

namespace whisper
{

// Fields are copied with memcpy; the formats are little-endian.
static_assert(std::endian::native == std::endian::little,
              "byte codec assumes a little-endian host");

/** Layout and limits of one kind of CRC frame. */
struct FrameFormat
{
    uint32_t magic;
    bool tagged;        //!< a u32 tag word (wire opcode) precedes length
    uint32_t unitBytes; //!< payload bytes per length unit
    uint32_t maxLength; //!< largest legal length field
    bool emptyOk;       //!< whether length 0 is legal

    constexpr size_t headerBytes() const { return tagged ? 16 : 12; }
};

struct FrameHeader
{
    uint32_t tag = 0;
    uint32_t length = 0; //!< payload units
    uint32_t crc = 0;
    size_t payloadBytes = 0;
};

enum class FrameStatus
{
    Ok,
    Short,     //!< the bytes end before the frame does
    BadMagic,  //!< not a frame of this format
    BadLength, //!< length 0 where illegal, or above the cap
    BadCrc,    //!< complete frame whose payload fails its CRC
};

/** Decode the header at the front of [p, p+n): magic and length cap
 * only, for readers that fetch the payload separately. */
FrameStatus readFrameHeader(const FrameFormat &fmt,
                            const unsigned char *p, size_t n,
                            FrameHeader &h);

inline bool
frameCrcOk(const FrameHeader &h, const void *payload)
{
    return crc32(payload, h.payloadBytes) == h.crc;
}

/** Decode and check the whole frame at the front of [p, p+n). On Ok
 * and BadCrc it spans headerBytes() + payloadBytes bytes. */
FrameStatus readFrame(const FrameFormat &fmt, const unsigned char *p,
                      size_t n, FrameHeader &h);

/** Appends fields to a growing byte vector. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { bytes(&v, 1); }
    void u32(uint32_t v) { bytes(&v, 4); }
    void u64(uint64_t v) { bytes(&v, 8); }
    void f64(double v) { bytes(&v, 8); }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    /** Open a frame: magic, tag, and length/CRC placeholders. @return
     * the mark for endFrame(), called once the payload is written. */
    size_t beginFrame(const FrameFormat &fmt, uint32_t tag = 0);
    /** Patch the length and CRC of the frame opened at @p mark. */
    void endFrame(const FrameFormat &fmt, size_t mark);

    void reserve(size_t n) { buf_.reserve(n); }
    size_t size() const { return buf_.size(); }
    unsigned char *data() { return buf_.data(); }
    void clear() { buf_.clear(); }
    std::vector<unsigned char> take() { return std::move(buf_); }

  private:
    std::vector<unsigned char> buf_;
};

/** Bounds-checked reader; any failure poisons it for good. */
class ByteReader
{
  public:
    static constexpr uint32_t kMaxString = 4096;

    ByteReader(const unsigned char *data, size_t size)
        : data_(data), size_(size)
    {
    }
    explicit ByteReader(const std::vector<unsigned char> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    uint8_t u8() { return get<uint8_t>(); }
    uint32_t u32() { return get<uint32_t>(); }
    uint64_t u64() { return get<uint64_t>(); }
    double f64() { return get<double>(); }

    std::string
    str()
    {
        uint32_t len = u32();
        if (len > kMaxString)
            fail();
        const unsigned char *p = span(len);
        return p ? std::string(reinterpret_cast<const char *>(p), len)
                 : std::string();
    }

    /** Copy @p n bytes out. @return false on overrun. */
    bool
    bytes(void *out, size_t n)
    {
        const unsigned char *p = span(n);
        if (p && n != 0)
            std::memcpy(out, p, n);
        return p != nullptr;
    }

    /** Consume @p n bytes in place: their address, or nullptr. */
    const unsigned char *
    span(size_t n)
    {
        if (remaining() < n || !ok_) {
            fail();
            return nullptr;
        }
        pos_ += n;
        return data_ + pos_ - n;
    }

    /** Read a u64 element count; reject one above @p max or whose
     * elements (@p minBytesEach bytes or more each) cannot fit in the
     * bytes left. Check it before sizing anything by a count. */
    uint64_t
    count(uint64_t max, size_t minBytesEach)
    {
        uint64_t n = u64();
        if (n > max || !fits(n, minBytesEach))
            fail();
        return ok_ ? n : 0;
    }

    /** Could @p n elements of @p minBytesEach bytes still follow? */
    bool
    fits(uint64_t n, size_t minBytesEach) const
    {
        return minBytesEach == 0 || n <= remaining() / minBytesEach;
    }

    /** Consume one frame (see readFrame()) and return its payload;
     * nullptr, and poisoned, on anything but Ok. */
    const unsigned char *
    frame(const FrameFormat &fmt, FrameHeader &h,
          FrameStatus *status = nullptr)
    {
        FrameStatus st = readFrame(fmt, data_ + pos_, remaining(), h);
        if (status)
            *status = st;
        if (st != FrameStatus::Ok || !span(fmt.headerBytes())) {
            fail();
            return nullptr;
        }
        return span(h.payloadBytes);
    }

    void fail() { ok_ = false; }
    bool ok() const { return ok_; }
    /** ok() and every byte consumed: the one trailing-bytes rule. */
    bool done() const { return ok_ && pos_ == size_; }
    size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
    size_t position() const { return pos_; }

  private:
    template <typename T>
    T
    get()
    {
        T v{};
        bytes(&v, sizeof(T));
        return v;
    }

    const unsigned char *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Read a whole file; Missing when it cannot be opened or read. */
IoStatus readFile(const std::string &path,
                  std::vector<unsigned char> &out);

/** Replace @p path with @p n bytes. @return false on I/O failure. */
bool writeFile(const std::string &path, const void *data, size_t n);

} // namespace whisper

#endif // WHISPER_UTIL_BYTE_CODEC_HH
