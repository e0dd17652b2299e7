/**
 * @file
 * Global branch history: a raw bit ring plus TAGE-style folded
 * (hashed) views of configurable lengths.
 */

#ifndef WHISPER_TRACE_GLOBAL_HISTORY_HH
#define WHISPER_TRACE_GLOBAL_HISTORY_HH

#include <cstdint>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

/**
 * Global direction history with random access to recent bits and a
 * bank of folded views.
 *
 * The raw ring stores at least the most recent 'capacity' outcomes
 * (default 4096, comfortably above Whisper's N = 1024 maximum
 * correlation length). bit(0) is the most recent outcome.
 *
 * A folded view compresses the last 'length' bits into 'width' bits
 * and is maintained incrementally in O(1) per branch: the
 * circular-shift-register construction used by TAGE for index/tag
 * hashing and by Whisper for its 8-bit hashed histories (paper
 * SIII-A: "branch predictors used in today's hardware already use a
 * similar hashing mechanism"). The views are kept as one
 * struct-of-arrays bank so push() is a single branch-free pass over
 * contiguous registers.
 */
class GlobalHistory
{
  public:
    explicit GlobalHistory(unsigned capacity = 4096);

    /**
     * Record one resolved conditional-branch direction and update
     * every folded view. Per view, the newest bit shifts in at bit
     * 0, the bit leaving the window (distance 'length', read from
     * the ring) is XORed in at length % width, and the bit shifted
     * out at the top wraps around to bit 0. The ring is zero-filled
     * at construction and by reset(), so a view whose window is not
     * yet full evicts a zero without a check.
     */
    void
    push(bool taken)
    {
        const uint32_t t = taken;
        const uint8_t *ring = bits_.data();
        uint32_t *folded = folded_.data();
        const size_t views = folded_.size();
        for (size_t v = 0; v < views; ++v) {
            uint32_t evicted = ring[(count_ - length_[v]) & ringMask_];
            uint32_t f = folded[v];
            folded[v] = (((f << 1) & widthMask_[v]) | t) ^
                        (outBit_[v] & -evicted) ^
                        static_cast<uint32_t>((f & topBit_[v]) != 0);
        }
        bits_[count_ & ringMask_] = static_cast<uint8_t>(t);
        ++count_;
    }

    /** The i-th most recent direction (i = 0 is the newest). */
    bool
    bit(unsigned i) const
    {
        whisper_assert(i < capacity_);
        return bits_[(count_ - 1 - i) & ringMask_];
    }

    /** Number of outcomes pushed so far (not capped). */
    uint64_t count() const { return count_; }
    unsigned capacity() const { return capacity_; }

    /**
     * The last @p n bits packed into a uint64 (bit 0 = most recent).
     * @p n must be <= 64.
     */
    uint64_t lastBits(unsigned n) const;

    /**
     * XOR-fold of the last @p length bits into @p width bits,
     * computed from the raw ring: the reference the incremental
     * views must equal after every push.
     */
    uint32_t foldedHash(unsigned length, unsigned width) const;

    /**
     * Register a folded view maintained incrementally. Returns the
     * view's index for later lookup; indices are dense and assigned
     * in registration order. Must be called before any push().
     *
     * @param length number of history bits covered (1..capacity)
     * @param width folded register width in bits (1..32)
     */
    size_t addFoldedView(unsigned length, unsigned width);

    /** Current value of folded view @p idx. */
    uint32_t foldedValue(size_t idx) const { return folded_[idx]; }

    void reset();

  private:
    unsigned capacity_;
    uint64_t ringMask_;         //!< ring size (a power of two) - 1
    std::vector<uint8_t> bits_; //!< slot count_ % ring size is next
    uint64_t count_ = 0;

    // Folded views, one entry per view in each array.
    std::vector<uint32_t> folded_;    //!< the registers
    std::vector<uint32_t> length_;    //!< window length
    std::vector<uint32_t> widthMask_; //!< (1 << width) - 1
    std::vector<uint32_t> topBit_;    //!< 1 << (width - 1)
    std::vector<uint32_t> outBit_;    //!< 1 << (length % width)
};

} // namespace whisper

#endif // WHISPER_TRACE_GLOBAL_HISTORY_HH
