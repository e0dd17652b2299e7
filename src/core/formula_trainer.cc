#include "core/formula_trainer.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/rng.hh"

// The one function built for POPCNT; callers reach it only after
// the run-time CPU check, so the binary still runs on any x86-64.
#if defined(__x86_64__) || defined(__i386__)
#define WHISPER_TARGET_POPCNT [[gnu::target("popcnt")]]
#else
#define WHISPER_TARGET_POPCNT
#endif

namespace whisper
{

TruthTableCache::TruthTableCache(unsigned numInputs)
    : numInputs_(numInputs)
{
    uint32_t count = BoolFormula::encodingCount(numInputs);
    tables_.resize(count);
    supports_.resize(count, 0);
    uint32_t inputCount = 1u << numInputs;
    for (uint32_t enc = 0; enc < count; ++enc) {
        tables_[enc] =
            BoolFormula(static_cast<uint16_t>(enc), numInputs)
                .truthTable();
        const TruthTable &tt = tables_[enc];
        uint8_t mask = 0;
        for (unsigned bit = 0; bit < numInputs; ++bit) {
            uint32_t flip = 1u << bit;
            for (uint32_t v = 0; v < inputCount; ++v) {
                if (v & flip)
                    continue;
                bool a = (tt[v / 64] >> (v % 64)) & 1;
                uint32_t w = v | flip;
                bool b = (tt[w / 64] >> (w % 64)) & 1;
                if (a != b) {
                    mask |= static_cast<uint8_t>(1u << bit);
                    break;
                }
            }
        }
        supports_[enc] = mask;
    }
}

const TruthTable &
TruthTableCache::table(uint16_t encoding) const
{
    whisper_assert(encoding < tables_.size());
    return tables_[encoding];
}

FormulaCandidates::FormulaCandidates(unsigned numInputs,
                                     double fraction, uint64_t seed)
    : numInputs_(numInputs), fraction_(fraction)
{
    whisper_assert(fraction > 0.0 && fraction <= 1.0,
                   "fraction=", fraction);
    uint32_t count = BoolFormula::encodingCount(numInputs);
    permutation_.resize(count);
    for (uint32_t i = 0; i < count; ++i)
        permutation_[i] = static_cast<uint16_t>(i);
    Rng rng(seed);
    rng.shuffle(permutation_);
    selected_ = withFraction(fraction);
}

std::vector<uint16_t>
FormulaCandidates::withFraction(double fraction) const
{
    whisper_assert(fraction > 0.0 && fraction <= 1.0);
    size_t n = static_cast<size_t>(fraction * permutation_.size());
    n = std::max<size_t>(n, 1);
    n = std::min(n, permutation_.size());
    return {permutation_.begin(),
            permutation_.begin() + static_cast<long>(n)};
}

uint64_t
scoreFormula(const TruthTable &tt, const HashedSampleTable &samples,
             uint64_t earlyOut)
{
    // Mispredictions = taken samples the formula calls not-taken plus
    // not-taken samples it calls taken (Algorithm 1 lines 5-11).
    uint64_t t = 0;
    size_t keys = samples.taken.size();
    for (size_t k = 0; k < keys; ++k) {
        bool sat = (tt[k / 64] >> (k % 64)) & 1;
        t += sat ? samples.notTaken[k] : samples.taken[k];
        if (t > earlyOut)
            return t;
    }
    return t;
}

namespace
{

bool
detectPopcnt()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt");
#else
    // Elsewhere __builtin_popcountll is the ISA's own count.
    return true;
#endif
}

/** Per-byte bit counts of @p x (0..8 each): the SWAR popcount
 * without its final horizontal sum. */
inline uint64_t
byteCounts(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) +
        ((x >> 2) & 0x3333333333333333ULL);
    return (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
}

/**
 * Total set bits of four words. The hardware form becomes four
 * POPCNTs once inlined into a POPCNT-enabled function; the generic
 * form adds the words' byte counts (at most 32 per byte), widens
 * them to 16-bit lanes (the total can be 256) and sums the lanes
 * with one multiply.
 */
template <bool Hw>
[[gnu::always_inline]] inline uint64_t
countWords(uint64_t a, uint64_t b, uint64_t c, uint64_t d)
{
    if constexpr (Hw) {
        return static_cast<uint64_t>(
            __builtin_popcountll(a) + __builtin_popcountll(b) +
            __builtin_popcountll(c) + __builtin_popcountll(d));
    } else {
        uint64_t bytes = byteCounts(a) + byteCounts(b) +
                         byteCounts(c) + byteCounts(d);
        uint64_t lanes = (bytes & 0x00FF00FF00FF00FFULL) +
                         ((bytes >> 8) & 0x00FF00FF00FF00FFULL);
        return (lanes * 0x0001000100010001ULL) >> 48;
    }
}

/** sum_b 2^b * popcount(tt & planes[b]) over @p count planes, reading
 * the first @p Words words of each. */
template <bool Hw, unsigned Words>
[[gnu::always_inline]] inline uint64_t
weightedCount(const TruthTable &tt, const TruthTable *planes,
              unsigned count)
{
    const uint64_t t0 = tt[0];
    const uint64_t t1 = Words > 1 ? tt[1] : 0;
    const uint64_t t2 = Words > 1 ? tt[2] : 0;
    const uint64_t t3 = Words > 1 ? tt[3] : 0;
    // Horner's rule from the top plane down: no variable shifts.
    uint64_t sum = 0;
    for (unsigned b = count; b-- > 0;) {
        const TruthTable &p = planes[b];
        sum = 2 * sum + countWords<Hw>(t0 & p[0], t1 & p[1],
                                       t2 & p[2], t3 & p[3]);
    }
    return sum;
}

/** The body both score paths inline; the result wraps mod 2^64 on
 * the way but ends at the true (non-negative) count. */
template <bool Hw>
[[gnu::always_inline]] inline uint64_t
planeScore(uint64_t base, unsigned words, const TruthTable &tt,
           const TruthTable *pos, unsigned posPlanes,
           const TruthTable *neg, unsigned negPlanes)
{
    if (words == 1)
        return base + weightedCount<Hw, 1>(tt, pos, posPlanes) -
               weightedCount<Hw, 1>(tt, neg, negPlanes);
    return base + weightedCount<Hw, 4>(tt, pos, posPlanes) -
           weightedCount<Hw, 4>(tt, neg, negPlanes);
}

} // namespace

const bool SamplePlanes::kHasPopcnt = detectPopcnt();

SamplePlanes::SamplePlanes(const HashedSampleTable &samples)
{
    size_t keys = samples.taken.size();
    whisper_assert(keys <= 256 && samples.notTaken.size() == keys,
                   "keys=", keys);
    words_ = keys <= 64 ? 1 : 4;
    for (size_t k = 0; k < keys; ++k) {
        uint32_t t = samples.taken[k];
        uint32_t nt = samples.notTaken[k];
        base_ += t;
        bool positive = nt > t;
        uint32_t mag = positive ? nt - t : t - nt;
        auto &planes = positive ? pos_ : neg_;
        unsigned &used = positive ? posPlanes_ : negPlanes_;
        uint64_t bit = 1ULL << (k % 64);
        for (uint32_t m = mag; m != 0; m &= m - 1)
            planes[std::countr_zero(m)][k / 64] |= bit;
        used = std::max(used,
                        static_cast<unsigned>(std::bit_width(mag)));
    }
}

uint64_t
SamplePlanes::scoreGeneric(const TruthTable &tt) const
{
    return planeScore<false>(base_, words_, tt, pos_.data(), posPlanes_,
                             neg_.data(), negPlanes_);
}

WHISPER_TARGET_POPCNT uint64_t
SamplePlanes::scorePopcnt(const TruthTable &tt) const
{
    return planeScore<true>(base_, words_, tt, pos_.data(), posPlanes_,
                            neg_.data(), negPlanes_);
}

FormulaSearchResult
findBooleanFormula(const HashedSampleTable &samples,
                   const std::vector<uint16_t> &candidates,
                   const TruthTableCache &cache)
{
    // Every candidate is scored in full: with exact scores, the
    // strict < keeps the first of equal formulas, as scoreFormula's
    // early-out loop did.
    const SamplePlanes planes(samples);
    FormulaSearchResult best;
    for (uint16_t enc : candidates) {
        uint64_t t = planes.score(cache.table(enc));
        ++best.explored;
        if (t < best.mispredicts) {
            best.mispredicts = t;
            best.formula = BoolFormula(enc, cache.numInputs());
            best.valid = true;
        }
        if (best.mispredicts == 0)
            break;
    }
    return best;
}

} // namespace whisper
