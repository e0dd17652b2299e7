/**
 * @file
 * Algorithm 1 (FIND-BOOLEAN-FORMULA) and randomized formula testing
 * (paper SIII-B).
 */

#ifndef WHISPER_CORE_FORMULA_TRAINER_HH
#define WHISPER_CORE_FORMULA_TRAINER_HH

#include <cstdint>
#include <vector>

#include "core/formula.hh"
#include "core/profile.hh"

namespace whisper
{

/**
 * Shared cache of formula truth tables.
 *
 * Scoring a formula against a sample table only needs the formula's
 * truth table; caching all 2^15 of them (1MB) makes exhaustive
 * sweeps and repeated randomized searches cheap.
 */
class TruthTableCache
{
  public:
    explicit TruthTableCache(unsigned numInputs = 8);

    const TruthTable &table(uint16_t encoding) const;
    unsigned numInputs() const { return numInputs_; }

    /**
     * Support mask of @p encoding: bit i is set iff flipping input
     * bit i changes the formula's output for some input vector.
     * A formula's mispredictions depend only on its supported bits,
     * so the sparse-correlation screen can discard candidates whose
     * support touches an uninformative input.
     */
    uint8_t
    supportMask(uint16_t encoding) const
    {
        return supports_[encoding];
    }

    /** Evaluate encoding on packed inputs via the cached table. */
    bool
    evaluate(uint16_t encoding, uint8_t inputs) const
    {
        const TruthTable &tt = tables_[encoding];
        return (tt[inputs / 64] >> (inputs % 64)) & 1;
    }

  private:
    unsigned numInputs_;
    std::vector<TruthTable> tables_;
    std::vector<uint8_t> supports_;
};

/**
 * The candidate set produced by randomized formula testing.
 *
 * One global Fisher-Yates permutation of all encodings is generated
 * once (from the config seed) and reused for every branch, exactly
 * as the paper specifies; a branch's candidates are the first
 * fraction * count entries of that permutation.
 */
class FormulaCandidates
{
  public:
    /**
     * @param numInputs formula arity (8 for Whisper)
     * @param fraction fraction of all encodings to consider (0..1]
     * @param seed Fisher-Yates shuffle seed
     */
    FormulaCandidates(unsigned numInputs, double fraction,
                      uint64_t seed);

    const std::vector<uint16_t> &encodings() const { return selected_; }
    unsigned numInputs() const { return numInputs_; }
    double fraction() const { return fraction_; }

    /** A different selection fraction over the same permutation. */
    std::vector<uint16_t> withFraction(double fraction) const;

  private:
    unsigned numInputs_;
    double fraction_;
    std::vector<uint16_t> permutation_;
    std::vector<uint16_t> selected_;
};

/** Result of Algorithm 1. */
struct FormulaSearchResult
{
    BoolFormula formula;
    /** m': mispredictions the chosen formula incurs on the profile. */
    uint64_t mispredicts = ~0ULL;
    /** Number of formulas actually scored. */
    uint64_t explored = 0;
    bool valid = false;
};

/**
 * Count the mispredictions formula @p encoding incurs on @p samples
 * (the inner loop of Algorithm 1, lines 5-11).
 *
 * @param earlyOut stop early once the count exceeds this bound
 *        (pass ~0 to disable).
 *
 * The scalar reference: SamplePlanes gives the same counts faster
 * and is what the trainers use.
 */
uint64_t scoreFormula(const TruthTable &tt,
                      const HashedSampleTable &samples,
                      uint64_t earlyOut = ~0ULL);

/**
 * A sample table in bit-sliced form, built once and then used to
 * score many formulas (the fast form of scoreFormula).
 *
 * A formula's mispredictions are linear in its truth-table bits:
 * score = sum_k taken[k] + sum_{k : tt[k] = 1} d[k], where
 * d = notTaken - taken. The constructor splits d into its positive
 * and negative parts and stores bit b of each part as a 256-bit
 * plane (P_b, N_b), so a score is
 *
 *     base + sum_b 2^b * (popcount(tt & P_b) - popcount(tt & N_b)).
 *
 * Keys the table does not have get no plane bits: a 16-key table
 * reads only the low 16 truth-table bits, as scoreFormula does.
 * Every path returns exactly scoreFormula(tt, samples, ~0ULL).
 */
class SamplePlanes
{
  public:
    explicit SamplePlanes(const HashedSampleTable &samples);

    /** Exact score; uses the POPCNT instruction when the CPU has it. */
    uint64_t
    score(const TruthTable &tt) const
    {
        return hasPopcnt() ? scorePopcnt(tt) : scoreGeneric(tt);
    }

    /** Exact score through a portable popcount (any CPU). */
    uint64_t scoreGeneric(const TruthTable &tt) const;
    /** Exact score through POPCNT; call only when hasPopcnt(). */
    uint64_t scorePopcnt(const TruthTable &tt) const;

    /** True when this CPU executes the POPCNT instruction. */
    static bool hasPopcnt() { return kHasPopcnt; }

  private:
    static const bool kHasPopcnt;

    uint64_t base_ = 0;     //!< sum of taken: the empty formula's score
    unsigned words_ = 0;    //!< truth-table words the keys span (1 or 4)
    unsigned posPlanes_ = 0; //!< bit length of max(d)
    unsigned negPlanes_ = 0; //!< bit length of max(-d)
    std::array<TruthTable, 32> pos_{};
    std::array<TruthTable, 32> neg_{};
};

/**
 * Algorithm 1: pick the candidate formula with the fewest
 * mispredictions on the T/NT tables.
 */
FormulaSearchResult findBooleanFormula(
    const HashedSampleTable &samples,
    const std::vector<uint16_t> &candidates,
    const TruthTableCache &cache);

} // namespace whisper

#endif // WHISPER_CORE_FORMULA_TRAINER_HH
