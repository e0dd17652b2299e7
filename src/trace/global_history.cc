#include "trace/global_history.hh"

#include <algorithm>

namespace whisper
{

GlobalHistory::GlobalHistory(unsigned capacity)
    : capacity_(capacity)
{
    whisper_assert(capacity >= 1);
    // A power-of-two ring indexed with a mask. Holding more than
    // 'capacity' bits changes nothing observable: bit() refuses
    // i >= capacity and views are at most 'capacity' long.
    uint64_t ring = 1;
    while (ring < capacity)
        ring <<= 1;
    ringMask_ = ring - 1;
    bits_.assign(ring, 0);
}

uint64_t
GlobalHistory::lastBits(unsigned n) const
{
    whisper_assert(n <= 64 && n <= capacity_);
    uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i)
        v |= static_cast<uint64_t>(bit(i)) << i;
    return v;
}

uint32_t
GlobalHistory::foldedHash(unsigned length, unsigned width) const
{
    whisper_assert(length <= capacity_);
    whisper_assert(width >= 1 && width <= 32);
    // Walk the history oldest-to-newest, the views' insertion order.
    // Bits older than the first push read as zero from the ring.
    uint64_t folded = 0;
    for (unsigned i = length; i-- > 0;) {
        folded = (folded << 1) | static_cast<uint64_t>(bit(i));
        folded ^= folded >> width;
        folded &= maskBits(width);
    }
    return static_cast<uint32_t>(folded);
}

size_t
GlobalHistory::addFoldedView(unsigned length, unsigned width)
{
    whisper_assert(count_ == 0,
                   "folded views must be added before pushes");
    whisper_assert(length >= 1 && length <= capacity_);
    whisper_assert(width >= 1 && width <= 32);
    folded_.push_back(0);
    length_.push_back(length);
    widthMask_.push_back(static_cast<uint32_t>(maskBits(width)));
    topBit_.push_back(1u << (width - 1));
    outBit_.push_back(1u << (length % width));
    return folded_.size() - 1;
}

void
GlobalHistory::reset()
{
    std::fill(bits_.begin(), bits_.end(), 0);
    count_ = 0;
    std::fill(folded_.begin(), folded_.end(), 0);
}

} // namespace whisper
