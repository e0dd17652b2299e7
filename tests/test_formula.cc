/**
 * @file
 * Unit + property tests for the extended-ROMBF formula machinery
 * (core/formula, core/formula_trainer, core/history_hash).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>

#include "core/correlation_screen.hh"
#include "core/formula.hh"
#include "core/formula_gates.hh"
#include "core/formula_trainer.hh"
#include "core/history_hash.hh"
#include "rombf/rombf_formula.hh"
#include "util/rng.hh"

using namespace whisper;

TEST(BoolOp, SingleUnitTruthTables)
{
    // Fig. 8: the four single-unit operations.
    EXPECT_TRUE(applyBoolOp(BoolOp::And, true, true));
    EXPECT_FALSE(applyBoolOp(BoolOp::And, true, false));
    EXPECT_TRUE(applyBoolOp(BoolOp::Or, false, true));
    EXPECT_FALSE(applyBoolOp(BoolOp::Or, false, false));
    // a -> b
    EXPECT_TRUE(applyBoolOp(BoolOp::Impl, false, false));
    EXPECT_TRUE(applyBoolOp(BoolOp::Impl, false, true));
    EXPECT_FALSE(applyBoolOp(BoolOp::Impl, true, false));
    EXPECT_TRUE(applyBoolOp(BoolOp::Impl, true, true));
    // converse non-implication: !a & b
    EXPECT_FALSE(applyBoolOp(BoolOp::Cnimpl, false, false));
    EXPECT_TRUE(applyBoolOp(BoolOp::Cnimpl, false, true));
    EXPECT_FALSE(applyBoolOp(BoolOp::Cnimpl, true, false));
    EXPECT_FALSE(applyBoolOp(BoolOp::Cnimpl, true, true));
}

TEST(BoolFormula, EncodingWidths)
{
    // 7 nodes * 2 bits + 1 inversion bit = the brhint's 15-bit field.
    EXPECT_EQ(BoolFormula::encodingBits(8), 15u);
    EXPECT_EQ(BoolFormula::encodingCount(8), 32768u);
    EXPECT_EQ(BoolFormula::encodingBits(4), 7u);
    EXPECT_EQ(BoolFormula::encodingBits(2), 3u);
}

TEST(BoolFormula, AllAndTree)
{
    // All nodes AND, no inversion: true only when all 8 bits set.
    BoolFormula f(0, 8);
    EXPECT_TRUE(f.evaluate(0xFF));
    EXPECT_FALSE(f.evaluate(0xFE));
    EXPECT_FALSE(f.evaluate(0x00));
    EXPECT_TRUE(f.isMonotone());
}

TEST(BoolFormula, AllOrTree)
{
    // All nodes OR: op bits 01 per node -> 0b01010101010101.
    uint16_t enc = 0;
    for (unsigned n = 0; n < 7; ++n)
        enc |= 1u << (2 * n);
    BoolFormula f(enc, 8);
    EXPECT_FALSE(f.evaluate(0x00));
    for (unsigned b = 0; b < 8; ++b)
        EXPECT_TRUE(f.evaluate(1u << b)) << b;
    EXPECT_TRUE(f.isMonotone());
}

TEST(BoolFormula, InversionBit)
{
    uint16_t inv = 1u << 14;
    BoolFormula f(inv, 8); // NOT(all-and)
    EXPECT_FALSE(f.evaluate(0xFF));
    EXPECT_TRUE(f.evaluate(0x00));
    EXPECT_TRUE(f.inverted());
    EXPECT_FALSE(f.isMonotone());
}

TEST(BoolFormula, NodeOpDecoding)
{
    // Node 3 = Impl (encoding 2 at bits 6-7).
    uint16_t enc = 2u << 6;
    BoolFormula f(enc, 8);
    EXPECT_EQ(f.nodeOp(3), BoolOp::Impl);
    EXPECT_EQ(f.nodeOp(0), BoolOp::And);
    EXPECT_FALSE(f.isMonotone());
}

TEST(BoolFormula, TruthTableMatchesEvaluate)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        BoolFormula f(enc, 8);
        TruthTable tt = f.truthTable();
        for (unsigned v = 0; v < 256; ++v) {
            bool viaTable = (tt[v / 64] >> (v % 64)) & 1;
            ASSERT_EQ(viaTable, f.evaluate(static_cast<uint8_t>(v)))
                << "enc=" << enc << " v=" << v;
        }
    }
}

TEST(BoolFormula, TreeFormulasAreNeverConstant)
{
    // Read-once trees over distinct leaves cannot compute a constant
    // function; Whisper handles always/never via the Bias field.
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        BoolFormula f(enc, 8);
        bool value = false;
        EXPECT_FALSE(f.isConstant(value)) << enc;
    }
}

TEST(BoolFormula, ClassifyRootFamilies)
{
    // classify() keys on the root node (node 6 for 8 inputs).
    auto mk = [](BoolOp root, bool invert) {
        uint16_t enc = static_cast<uint16_t>(root) << 12;
        if (invert)
            enc |= 1u << 14;
        return BoolFormula(enc, 8);
    };
    EXPECT_EQ(mk(BoolOp::And, false).classify(), OpClass::And);
    EXPECT_EQ(mk(BoolOp::Or, false).classify(), OpClass::Or);
    EXPECT_EQ(mk(BoolOp::Impl, false).classify(), OpClass::Impl);
    EXPECT_EQ(mk(BoolOp::Cnimpl, false).classify(), OpClass::Cnimpl);
    EXPECT_EQ(mk(BoolOp::And, true).classify(), OpClass::Others);
}

TEST(BoolFormula, FourInputVariant)
{
    // 4-input tree: nodes (b0,b1),(b2,b3),root.
    BoolFormula allAnd(0, 4);
    EXPECT_TRUE(allAnd.evaluate(0x0F));
    EXPECT_FALSE(allAnd.evaluate(0x07));
}

TEST(BoolFormula, ToStringRendersOps)
{
    BoolFormula f(0, 8);
    std::string s = f.toString();
    EXPECT_NE(s.find("b0"), std::string::npos);
    EXPECT_NE(s.find("&"), std::string::npos);
}

TEST(GateDelay, PaperNumbers)
{
    // Paper SIII-C: 3 single-unit levels * 5 + final mux 4 = 19.
    EXPECT_EQ(formulaGateDelay(8), 19u);
    EXPECT_EQ(formulaGateDelay(2), 9u);
    EXPECT_EQ(formulaGateDelay(4), 14u);
}

TEST(GeometricLengths, PaperSeries)
{
    // a=8, N=1024, m=16 -> 8, 11, 15, ..., 1024 (paper SIII-A).
    auto lengths = geometricLengths(8, 1024, 16);
    ASSERT_EQ(lengths.size(), 16u);
    EXPECT_EQ(lengths.front(), 8u);
    EXPECT_EQ(lengths[1], 11u);
    EXPECT_EQ(lengths[2], 15u);
    EXPECT_EQ(lengths.back(), 1024u);
    for (size_t i = 1; i < lengths.size(); ++i)
        EXPECT_GT(lengths[i], lengths[i - 1]);
}

TEST(GeometricLengths, RatioApproximatelyGeometric)
{
    auto lengths = geometricLengths(8, 1024, 16);
    double r = std::pow(1024.0 / 8.0, 1.0 / 15.0);
    for (size_t i = 1; i + 1 < lengths.size(); ++i) {
        double ratio = static_cast<double>(lengths[i + 1]) / lengths[i];
        EXPECT_NEAR(ratio, r, 0.25) << i;
    }
}

// Regression: when m is large relative to N-a, the rounded geometric
// series used to go non-monotone past N in the tail (e.g. a=1, N=4,
// m=8 produced ... 4, 5, 6, 4). The series must stay strictly
// increasing, stay within [a, N], and end exactly at N, even if that
// means fewer than m entries.
TEST(GeometricLengths, DegenerateTailStaysMonotone)
{
    auto lengths = geometricLengths(1, 4, 8);
    ASSERT_FALSE(lengths.empty());
    EXPECT_EQ(lengths.front(), 1u);
    EXPECT_EQ(lengths.back(), 4u);
    EXPECT_LE(lengths.size(), 8u);
    for (size_t i = 1; i < lengths.size(); ++i)
        EXPECT_GT(lengths[i], lengths[i - 1]) << i;
    EXPECT_EQ(lengths, (std::vector<unsigned>{1, 2, 3, 4}));
}

TEST(GeometricLengths, ClampedSeriesSweep)
{
    // Every (a, N, m) combination must produce a strictly increasing
    // series from a to N with at most m entries.
    for (unsigned a : {1u, 2u, 8u}) {
        for (unsigned n : {4u, 16u, 100u}) {
            if (n <= a)
                continue;
            for (unsigned m : {2u, 5u, 12u}) {
                auto lengths = geometricLengths(a, n, m);
                ASSERT_GE(lengths.size(), 2u)
                    << a << "," << n << "," << m;
                EXPECT_EQ(lengths.front(), a);
                EXPECT_EQ(lengths.back(), n);
                EXPECT_LE(lengths.size(), static_cast<size_t>(m));
                for (size_t i = 1; i < lengths.size(); ++i)
                    EXPECT_GT(lengths[i], lengths[i - 1])
                        << a << "," << n << "," << m << " @" << i;
            }
        }
    }
}

TEST(TruthTableCache, MatchesDirectEvaluation)
{
    TruthTableCache cache(8);
    Rng rng(11);
    for (int trial = 0; trial < 64; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        uint8_t in = static_cast<uint8_t>(rng.nextBelow(256));
        EXPECT_EQ(cache.evaluate(enc, in),
                  BoolFormula(enc, 8).evaluate(in));
    }
}

TEST(FormulaCandidates, GlobalPermutationIsStable)
{
    FormulaCandidates a(8, 0.001, 1234);
    FormulaCandidates b(8, 0.001, 1234);
    EXPECT_EQ(a.encodings(), b.encodings());
    EXPECT_EQ(a.encodings().size(), 32u); // 0.1% of 32768
}

TEST(FormulaCandidates, FractionPrefixNesting)
{
    // A smaller fraction must be a prefix of a larger one (the
    // Fisher-Yates order is generated once and shared).
    FormulaCandidates c(8, 1.0, 99);
    auto small = c.withFraction(0.01);
    auto large = c.withFraction(0.1);
    ASSERT_LT(small.size(), large.size());
    for (size_t i = 0; i < small.size(); ++i)
        EXPECT_EQ(small[i], large[i]);
    EXPECT_EQ(c.withFraction(1.0).size(), 32768u);
}

TEST(ScoreFormula, CountsMispredictions)
{
    // Table: key 0xFF taken 10 times; key 0x00 not-taken 5 times.
    HashedSampleTable t(8);
    t.taken[0xFF] = 10;
    t.notTaken[0x00] = 5;

    // all-AND: predicts taken only on 0xFF -> 0 misses.
    TruthTable andTt = BoolFormula(0, 8).truthTable();
    EXPECT_EQ(scoreFormula(andTt, t), 0u);

    // NOT(all-AND): wrong everywhere -> 15 misses.
    TruthTable notTt = BoolFormula(1u << 14, 8).truthTable();
    EXPECT_EQ(scoreFormula(notTt, t), 15u);
}

TEST(ScoreFormula, EarlyOutBounds)
{
    HashedSampleTable t(8);
    for (unsigned k = 0; k < 256; ++k)
        t.notTaken[k] = 100;
    // all-OR mispredicts every not-taken sample with any bit set.
    uint16_t enc = 0;
    for (unsigned n = 0; n < 7; ++n)
        enc |= 1u << (2 * n);
    TruthTable tt = BoolFormula(enc, 8).truthTable();
    uint64_t bounded = scoreFormula(tt, t, 500);
    EXPECT_GT(bounded, 500u);
    EXPECT_LT(bounded, 25500u); // stopped early
}

TEST(FindBooleanFormula, RecoversPlantedFormula)
{
    // Property: for a planted formula with noise-free samples,
    // Algorithm 1 over the full space returns a formula with zero
    // mispredictions.
    TruthTableCache cache(8);
    FormulaCandidates all(8, 1.0, 5);
    Rng rng(21);
    for (int trial = 0; trial < 5; ++trial) {
        uint16_t planted = static_cast<uint16_t>(rng.nextBelow(32768));
        BoolFormula f(planted, 8);
        HashedSampleTable t(8);
        for (unsigned k = 0; k < 256; ++k) {
            unsigned weight = 1 + (rng.nextBelow(20));
            if (f.evaluate(static_cast<uint8_t>(k)))
                t.taken[k] = weight;
            else
                t.notTaken[k] = weight;
        }
        auto res = findBooleanFormula(t, all.encodings(), cache);
        ASSERT_TRUE(res.valid);
        EXPECT_EQ(res.mispredicts, 0u) << "trial " << trial;
    }
}

TEST(FindBooleanFormula, RandomizedSubsetIsNearOptimal)
{
    // Property (paper SIII-B): scoring ~0.1% of formulas finds a
    // formula whose misprediction count is within a modest factor
    // of the exhaustive optimum on noisy data.
    TruthTableCache cache(8);
    FormulaCandidates c(8, 1.0, 7);
    Rng rng(31);

    BoolFormula planted(0x2A51, 8);
    HashedSampleTable t(8);
    for (unsigned k = 0; k < 256; ++k) {
        unsigned weight = 5 + rng.nextBelow(30);
        bool taken = planted.evaluate(static_cast<uint8_t>(k));
        if (rng.nextBool(0.08))
            taken = !taken; // noise
        if (taken)
            t.taken[k] = weight;
        else
            t.notTaken[k] = weight;
    }
    auto exhaustive = findBooleanFormula(t, c.withFraction(1.0), cache);
    auto randomized =
        findBooleanFormula(t, c.withFraction(0.01), cache);
    auto tiny = findBooleanFormula(t, c.withFraction(0.001), cache);
    ASSERT_TRUE(exhaustive.valid && randomized.valid && tiny.valid);
    EXPECT_LE(exhaustive.mispredicts, randomized.mispredicts);
    EXPECT_LE(randomized.mispredicts, tiny.mispredicts);
    // Near-optimality: a 1% sample stays within a small factor of
    // the exhaustive optimum (the full trainer additionally gets 16
    // history lengths and the bias fallback per branch).
    EXPECT_LE(randomized.mispredicts, 2 * exhaustive.mispredicts);
    EXPECT_GT(exhaustive.mispredicts, 0u); // noise floor exists
}

// ---------------------------------------------------------------
// Bit-sliced scoring (SamplePlanes) against the scalar reference.
// These suites are registered under the ctest prefix "formula.".
// Both popcount paths are checked against scoreFormula with no
// early-out; the generic path runs on every host, the POPCNT path
// wherever the CPU has the instruction.
// ---------------------------------------------------------------

namespace
{

/** True when the POPCNT path can run; says so once when it cannot. */
bool
popcntPathRuns()
{
    static const bool runs = [] {
        if (!SamplePlanes::hasPopcnt())
            std::printf("[   NOTE   ] this CPU has no POPCNT: only "
                        "the generic scoring path is checked\n");
        return SamplePlanes::hasPopcnt();
    }();
    return runs;
}

/** Every scoring path of @p planes must equal the scalar loop. */
void
expectExactScores(const HashedSampleTable &t, const SamplePlanes &planes,
                  const TruthTable &tt)
{
    uint64_t want = scoreFormula(tt, t, ~0ULL);
    EXPECT_EQ(planes.scoreGeneric(tt), want);
    if (popcntPathRuns()) {
        EXPECT_EQ(planes.scorePopcnt(tt), want);
    }
    EXPECT_EQ(planes.score(tt), want);
}

TruthTable
randomTruthTable(Rng &rng)
{
    return {rng.next(), rng.next(), rng.next(), rng.next()};
}

/** A table whose counts are each nonzero with probability @p density
 * and drawn below @p bound (bound 0 means any 32-bit value). */
HashedSampleTable
randomTable(Rng &rng, unsigned keyBits, double density, uint64_t bound)
{
    HashedSampleTable t(keyBits);
    auto draw = [&]() -> uint32_t {
        if (!rng.nextBool(density))
            return 0;
        return static_cast<uint32_t>(bound ? rng.nextBelow(bound)
                                           : rng.next());
    };
    for (size_t k = 0; k < t.taken.size(); ++k) {
        t.taken[k] = draw();
        t.notTaken[k] = draw();
    }
    return t;
}

/** The search findBooleanFormula did before bit-slicing: the scalar
 * score with its early-out at the best count so far. */
FormulaSearchResult
scalarSearch(const HashedSampleTable &t,
             const std::vector<uint16_t> &candidates,
             const TruthTableCache &cache)
{
    FormulaSearchResult best;
    for (uint16_t enc : candidates) {
        uint64_t m = scoreFormula(cache.table(enc), t, best.mispredicts);
        ++best.explored;
        if (m < best.mispredicts) {
            best.mispredicts = m;
            best.formula = BoolFormula(enc, cache.numInputs());
            best.valid = true;
        }
        if (best.mispredicts == 0)
            break;
    }
    return best;
}

} // namespace

TEST(BitSlicedScore, SeededRandomTablesMatchScalar)
{
    TruthTableCache cache(8);
    Rng rng(1601);
    struct Shape
    {
        double density;
        uint64_t bound;
    };
    const Shape shapes[] = {
        {0.05, 20},      // sparse, small counts
        {1.0, 64},       // dense, small counts
        {0.5, 1 << 20},  // mid-size counts
        {1.0, 0},        // dense, any 32-bit count
    };
    for (const Shape &shape : shapes) {
        for (int trial = 0; trial < 8; ++trial) {
            HashedSampleTable t =
                randomTable(rng, 8, shape.density, shape.bound);
            SamplePlanes planes(t);
            for (int i = 0; i < 64; ++i) {
                expectExactScores(
                    t, planes,
                    cache.table(static_cast<uint16_t>(
                        rng.nextBelow(32768))));
                expectExactScores(t, planes, randomTruthTable(rng));
            }
        }
    }
}

TEST(BitSlicedScore, EdgeTablesMatchScalar)
{
    const uint32_t kMax = UINT32_MAX;
    std::vector<HashedSampleTable> tables;
    tables.emplace_back(8); // all zero
    HashedSampleTable takenMax(8), notTakenMax(8), bothMax(8),
        alternating(8), single(8);
    for (unsigned k = 0; k < 256; ++k) {
        takenMax.taken[k] = kMax;
        notTakenMax.notTaken[k] = kMax;
        bothMax.taken[k] = kMax;
        bothMax.notTaken[k] = kMax;
        (k % 2 ? alternating.taken : alternating.notTaken)[k] = kMax;
    }
    single.notTaken[255] = kMax;
    single.taken[0] = 1;
    tables.insert(tables.end(),
                  {takenMax, notTakenMax, bothMax, alternating, single});

    Rng rng(1602);
    std::vector<TruthTable> tts = {
        {0, 0, 0, 0},
        {~0ULL, ~0ULL, ~0ULL, ~0ULL},
        {0x5555555555555555ULL, 0xAAAAAAAAAAAAAAAAULL, 1ULL << 63, 1},
    };
    for (int i = 0; i < 16; ++i)
        tts.push_back(randomTruthTable(rng));
    for (const HashedSampleTable &t : tables) {
        SamplePlanes planes(t);
        for (const TruthTable &tt : tts)
            expectExactScores(t, planes, tt);
    }
    // All-zero table: every formula scores 0.
    SamplePlanes empty(tables[0]);
    EXPECT_EQ(empty.scoreGeneric(tts[1]), 0u);
}

TEST(BitSlicedScore, RombfSixteenKeyTablesMatchScalar)
{
    // ROMBF's 4-bit variant scores raw4 tables: 16 keys, so only the
    // low 16 truth-table bits may count, whatever the rest hold.
    RombfEnumeration e = enumerateRombf(4, /*dedupe=*/false);
    Rng rng(1603);
    for (uint64_t bound : {uint64_t{8}, uint64_t{1} << 16, uint64_t{0}}) {
        for (int trial = 0; trial < 6; ++trial) {
            HashedSampleTable t = randomTable(rng, 4, 0.7, bound);
            SamplePlanes planes(t);
            for (const TruthTable &tt : e.tables)
                expectExactScores(t, planes, tt);
            for (int i = 0; i < 32; ++i)
                expectExactScores(t, planes, randomTruthTable(rng));
        }
    }
}

TEST(BitSlicedSearch, FindBooleanFormulaMatchesScalarLoop)
{
    // Same formula, score and explored count as the early-out scalar
    // loop, at the paper's 0.1% point, at 1% and exhaustively; the
    // planted noise-free tables exercise the stop at zero.
    TruthTableCache cache(8);
    FormulaCandidates c(8, 1.0, 77);
    Rng rng(1604);
    std::vector<HashedSampleTable> tables;
    for (int i = 0; i < 3; ++i)
        tables.push_back(randomTable(rng, 8, 0.3, 40));
    for (int i = 0; i < 3; ++i) {
        BoolFormula planted(
            static_cast<uint16_t>(rng.nextBelow(32768)), 8);
        HashedSampleTable t(8);
        for (unsigned k = 0; k < 256; ++k) {
            bool taken = planted.evaluate(static_cast<uint8_t>(k));
            if (i > 0 && rng.nextBool(0.05))
                taken = !taken; // noisy copies keep searching
            (taken ? t.taken : t.notTaken)[k] =
                static_cast<uint32_t>(1 + rng.nextBelow(30));
        }
        tables.push_back(t);
    }
    for (double fraction : {0.001, 0.01, 1.0}) {
        std::vector<uint16_t> encs = c.withFraction(fraction);
        for (const HashedSampleTable &t : tables) {
            FormulaSearchResult fast = findBooleanFormula(t, encs, cache);
            FormulaSearchResult ref = scalarSearch(t, encs, cache);
            ASSERT_EQ(fast.valid, ref.valid);
            EXPECT_EQ(fast.formula.encoding(), ref.formula.encoding())
                << "fraction " << fraction;
            EXPECT_EQ(fast.mispredicts, ref.mispredicts);
            EXPECT_EQ(fast.explored, ref.explored);
        }
    }
}

// ---------------------------------------------------------------
// Length dedup: the top-K budget counts *distinct* lengths, so a
// candidate series with duplicated values cannot eat the budget
// with copies of the same length.
// ---------------------------------------------------------------

TEST(DistinctLengths, FirstIndexPerValue)
{
    auto idx = CorrelationScreen::distinctLengthIndices(
        {4, 8, 8, 16});
    EXPECT_EQ(idx, (std::vector<unsigned>{0, 1, 3}));
    EXPECT_EQ(CorrelationScreen::distinctLengthIndices({7, 7, 7}),
              (std::vector<unsigned>{0}));
    EXPECT_TRUE(CorrelationScreen::distinctLengthIndices({}).empty());
}

TEST(DistinctLengths, BudgetCountsDistinctValues)
{
    // A series with duplicates: two branches of the search space
    // share length 8. The kept set must never contain two indices
    // referencing the same length value, and the maxLengths budget
    // must buy that many *distinct* lengths.
    std::vector<unsigned> lengths = {4, 8, 8, 16};
    BranchProfileEntry entry;
    entry.executions = 400;
    entry.takenCount = 200;
    entry.byLength.resize(lengths.size(), HashedSampleTable(8));
    Rng rng(91);
    for (auto &t : entry.byLength)
        for (unsigned k = 0; k < 64; ++k)
            t.record(static_cast<uint8_t>(rng.nextBelow(256)),
                     rng.nextBool(0.5));

    ScreenConfig cfg;
    cfg.maxLengths = 3;
    BranchScreen scr =
        CorrelationScreen(cfg).screenBranch(entry, lengths);
    ASSERT_FALSE(scr.lengthIdx.empty());
    EXPECT_LE(scr.lengthIdx.size(), 3u);
    std::set<unsigned> values;
    for (unsigned idx : scr.lengthIdx) {
        ASSERT_LT(idx, lengths.size());
        EXPECT_TRUE(values.insert(lengths[idx]).second)
            << "duplicate length " << lengths[idx];
    }
    // All three distinct values fit the budget of 3.
    EXPECT_EQ(values.size(), 3u);

    // Screening disabled: same dedup applies to the passthrough.
    ScreenConfig off;
    off.enabled = false;
    BranchScreen raw =
        CorrelationScreen(off).screenBranch(entry, lengths);
    EXPECT_EQ(raw.lengthIdx, (std::vector<unsigned>{0, 1, 3}));
}

TEST(HashedSampleTable, OracleAndMerge)
{
    HashedSampleTable a(4), b(4);
    a.record(3, true);
    a.record(3, false);
    a.record(3, true);
    b.record(3, false);
    EXPECT_EQ(a.oracleMispredicts(), 1u);
    a.addFrom(b);
    EXPECT_EQ(a.taken[3], 2u);
    EXPECT_EQ(a.notTaken[3], 2u);
    EXPECT_EQ(a.totalSamples(), 4u);
    EXPECT_EQ(a.oracleMispredicts(), 2u);
}

// ---------------------------------------------------------------
// Gate-level netlist (Figs. 8/9) vs the behavioural model.
// ---------------------------------------------------------------

TEST(FormulaNetlist, MatchesBehaviouralModelSampled)
{
    Rng rng(55);
    for (int trial = 0; trial < 40; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        BoolFormula f(enc, 8);
        FormulaNetlist net(f);
        for (unsigned v = 0; v < 256; ++v) {
            ASSERT_EQ(net.evaluate(static_cast<uint8_t>(v)),
                      f.evaluate(static_cast<uint8_t>(v)))
                << "enc=" << enc << " v=" << v;
        }
    }
}

TEST(FormulaNetlist, FourInputVariant)
{
    BoolFormula f(0x35, 4);
    FormulaNetlist net(f);
    for (unsigned v = 0; v < 16; ++v)
        EXPECT_EQ(net.evaluate(static_cast<uint8_t>(v)),
                  f.evaluate(static_cast<uint8_t>(v)));
}

TEST(FormulaNetlist, CriticalPathWithinPaperBound)
{
    // The paper counts 19 gate delays for 8 inputs using 3-gate
    // muxes; our primitive decomposition (NOT/AND/OR only, 4 gates
    // per 2:1 mux stage) costs at most 2x that bound.
    Rng rng(66);
    unsigned worst = 0;
    for (int trial = 0; trial < 64; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        FormulaNetlist net(BoolFormula(enc, 8));
        worst = std::max(worst, net.criticalPathDelay());
    }
    EXPECT_LE(worst, 2 * formulaGateDelay(8));
    EXPECT_GE(worst, formulaGateDelay(8) / 2);
}

TEST(FormulaNetlist, DepthGrowsLogarithmically)
{
    FormulaNetlist n2(BoolFormula(0, 2));
    FormulaNetlist n4(BoolFormula(0, 4));
    FormulaNetlist n8(BoolFormula(0, 8));
    EXPECT_LT(n2.criticalPathDelay(), n4.criticalPathDelay());
    EXPECT_LT(n4.criticalPathDelay(), n8.criticalPathDelay());
    // One extra tree level adds one single unit's delay, not a
    // doubling: depth is logarithmic in the input count.
    EXPECT_LT(n8.criticalPathDelay(),
              2u * n4.criticalPathDelay());
}

TEST(FormulaNetlist, GateCountIsLinearInInputs)
{
    FormulaNetlist n4(BoolFormula(0, 4));
    FormulaNetlist n8(BoolFormula(0, 8));
    // n inputs -> n-1 single units: gate count scales ~linearly.
    EXPECT_GT(n8.gateCount(), n4.gateCount());
    EXPECT_LT(n8.gateCount(), 3 * n4.gateCount());
}
