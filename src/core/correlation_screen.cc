#include "core/correlation_screen.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

namespace
{

/** Taken/not-taken mass on each side of one key bit. */
struct BitSplit
{
    uint64_t taken[2] = {0, 0};
    uint64_t notTaken[2] = {0, 0};

    uint64_t
    total() const
    {
        return taken[0] + taken[1] + notTaken[0] + notTaken[1];
    }

    uint64_t
    splitMispredicts() const
    {
        return std::min(taken[0], notTaken[0]) +
               std::min(taken[1], notTaken[1]);
    }
};

/**
 * The split of every key bit of @p table from one pass: folding the
 * table in half along its top bit leaves that bit's side-1 mass in
 * the upper half and a table one bit narrower, down to the totals.
 * Entry b is bit b.
 */
std::vector<BitSplit>
splitAllBits(const HashedSampleTable &table)
{
    size_t keys = table.taken.size();
    whisper_assert(isPowerOfTwo(keys), "keys=", keys);
    std::vector<uint64_t> t(table.taken.begin(), table.taken.end());
    std::vector<uint64_t> nt(table.notTaken.begin(),
                             table.notTaken.end());
    std::vector<BitSplit> splits(
        static_cast<size_t>(std::countr_zero(keys)));
    for (size_t b = splits.size(); b-- > 0;) {
        size_t half = size_t{1} << b;
        BitSplit &s = splits[b];
        for (size_t i = 0; i < half; ++i) {
            s.taken[1] += t[half + i];
            s.notTaken[1] += nt[half + i];
            t[i] += t[half + i];
            nt[i] += nt[half + i];
        }
    }
    for (BitSplit &s : splits) {
        s.taken[0] = t[0] - s.taken[1];
        s.notTaken[0] = nt[0] - s.notTaken[1];
    }
    return splits;
}

double
entropyTerm(double p)
{
    return p > 0.0 ? -p * std::log2(p) : 0.0;
}

/** Mutual information (bits) between a key bit and the outcome. */
double
mutualInformation(const BitSplit &s)
{
    double total = static_cast<double>(s.total());
    if (total == 0.0)
        return 0.0;

    // I(B; O) = H(O) + H(B) - H(B, O), all in bits.
    double joint[2][2] = {
        {s.notTaken[0] / total, s.taken[0] / total},
        {s.notTaken[1] / total, s.taken[1] / total},
    };
    double pBit[2] = {joint[0][0] + joint[0][1],
                      joint[1][0] + joint[1][1]};
    double pOut[2] = {joint[0][0] + joint[1][0],
                      joint[0][1] + joint[1][1]};
    double mi = entropyTerm(pOut[0]) + entropyTerm(pOut[1]) +
                entropyTerm(pBit[0]) + entropyTerm(pBit[1]) -
                entropyTerm(joint[0][0]) - entropyTerm(joint[0][1]) -
                entropyTerm(joint[1][0]) - entropyTerm(joint[1][1]);
    return std::max(mi, 0.0);
}

/** True when the bit decides the outcome of every sample and both
 * outcomes occur (the never-prune guarantee trigger): a constant
 * branch is "predicted" by anything. */
bool
perfectlyCorrelated(const BitSplit &s)
{
    uint64_t taken = s.taken[0] + s.taken[1];
    uint64_t notTaken = s.notTaken[0] + s.notTaken[1];
    return taken > 0 && notTaken > 0 && s.splitMispredicts() == 0;
}

} // namespace

CorrelationScreen::CorrelationScreen(const ScreenConfig &cfg)
    : cfg_(cfg)
{
}

double
CorrelationScreen::lengthGain(const HashedSampleTable &table)
{
    uint64_t total = table.totalSamples();
    if (total == 0)
        return 0.0;
    uint64_t taken = 0;
    for (uint32_t t : table.taken)
        taken += t;
    uint64_t bias = std::min(taken, total - taken);
    uint64_t oracle = table.oracleMispredicts();
    return static_cast<double>(bias - oracle) /
           static_cast<double>(total);
}

std::vector<unsigned>
CorrelationScreen::distinctLengthIndices(
    const std::vector<unsigned> &lengths)
{
    std::vector<unsigned> out;
    out.reserve(lengths.size());
    for (unsigned i = 0; i < lengths.size(); ++i) {
        bool seen = false;
        for (unsigned j : out)
            if (lengths[j] == lengths[i]) {
                seen = true;
                break;
            }
        if (!seen)
            out.push_back(i);
    }
    return out;
}

BranchScreen
CorrelationScreen::screenBranch(
    const BranchProfileEntry &entry,
    const std::vector<unsigned> &lengths) const
{
    whisper_assert(entry.byLength.size() == lengths.size());
    BranchScreen out;
    if (!cfg_.enabled || lengths.empty()) {
        out.lengthIdx = distinctLengthIndices(lengths);
        return out;
    }

    // -- length selection: rank distinct lengths by oracle headroom,
    // keep the top maxLengths; a length holding a perfectly
    // correlated bit is kept unconditionally.
    struct Scored
    {
        unsigned idx;
        double gain;
        bool perfect;
    };
    std::vector<Scored> scored;
    std::vector<std::vector<BitSplit>> splits(lengths.size());
    for (unsigned idx : distinctLengthIndices(lengths)) {
        const HashedSampleTable &table = entry.byLength[idx];
        if (table.empty() || table.totalSamples() == 0)
            continue;
        Scored s{idx, lengthGain(table), false};
        splits[idx] = splitAllBits(table);
        for (const BitSplit &split : splits[idx])
            s.perfect = s.perfect || perfectlyCorrelated(split);
        scored.push_back(s);
    }
    // Stable sort, descending gain, perfect first; ties keep series
    // order so the pass is deterministic.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored &a, const Scored &b) {
                         if (a.perfect != b.perfect)
                             return a.perfect;
                         return a.gain > b.gain;
                     });
    unsigned budget = std::max(1u, cfg_.maxLengths);
    for (const Scored &s : scored) {
        if (out.lengthIdx.size() >= budget && !s.perfect)
            continue;
        out.lengthIdx.push_back(s.idx);
    }
    std::sort(out.lengthIdx.begin(), out.lengthIdx.end());

    // -- input-bit selection: union of informative bits over the
    // kept lengths, scored by mutual information. Perfect bits are
    // kept unconditionally; otherwise a bit must reach the relative
    // threshold at some kept length.
    unsigned hashBits = 0;
    for (unsigned idx : out.lengthIdx)
        hashBits = std::max(
            hashBits, static_cast<unsigned>(std::countr_zero(
                          entry.byLength[idx].taken.size())));
    hashBits = std::min(hashBits, 8u);
    if (hashBits == 0) {
        out.inputMask = 0xFF;
        return out;
    }

    double mi[8] = {};
    bool perfect[8] = {};
    double bestMi = 0.0;
    for (unsigned idx : out.lengthIdx) {
        // A narrower table leaves its missing bits at MI 0.
        unsigned bits = std::min<unsigned>(
            hashBits, static_cast<unsigned>(splits[idx].size()));
        for (unsigned b = 0; b < bits; ++b) {
            const BitSplit &split = splits[idx][b];
            mi[b] = std::max(mi[b], mutualInformation(split));
            perfect[b] = perfect[b] || perfectlyCorrelated(split);
        }
        for (unsigned b = 0; b < hashBits; ++b)
            bestMi = std::max(bestMi, mi[b]);
    }
    uint8_t mask = 0;
    for (unsigned b = 0; b < hashBits; ++b)
        if (perfect[b] || mi[b] >= bestMi * cfg_.bitKeepFraction)
            mask |= static_cast<uint8_t>(1u << b);
    // Top up to minBits with the best remaining bits (index order
    // breaks ties deterministically).
    unsigned floor = std::min(cfg_.minBits, hashBits);
    while (static_cast<unsigned>(std::popcount(mask)) < floor) {
        int bestBit = -1;
        double best = -1.0;
        for (unsigned b = 0; b < hashBits; ++b) {
            if (mask & (1u << b))
                continue;
            if (mi[b] > best) {
                best = mi[b];
                bestBit = static_cast<int>(b);
            }
        }
        if (bestBit < 0)
            break;
        mask |= static_cast<uint8_t>(1u << bestBit);
    }
    out.inputMask = mask ? mask : 0xFF;
    return out;
}

} // namespace whisper
