/**
 * @file
 * Unit tests for Whisper's core runtime pieces: brhint encoding,
 * hint buffer, hint injection, trainer and hybrid predictor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "bp/simple_predictors.hh"
#include "core/brhint.hh"
#include "core/hint_buffer.hh"
#include "core/hint_injection.hh"
#include "core/profile.hh"
#include "core/static_profile.hh"
#include "core/whisper_predictor.hh"
#include "core/whisper_trainer.hh"
#include "trace/branch_trace.hh"
#include "util/rng.hh"

using namespace whisper;

TEST(BrHint, EncodeDecodeRoundTrip)
{
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        BrHint h;
        h.historyIdx = static_cast<uint8_t>(rng.nextBelow(16));
        h.formula = static_cast<uint16_t>(rng.nextBelow(1u << 15));
        h.bias = static_cast<HintBias>(rng.nextBelow(3));
        h.pcPointer = static_cast<uint16_t>(rng.nextBelow(1u << 12));
        uint64_t bits = h.encode();
        EXPECT_LT(bits, 1ULL << BrHint::kEncodedBits);
        EXPECT_EQ(BrHint::decode(bits), h);
    }
}

TEST(BrHint, FieldWidthsMatchFig11)
{
    // 4 + 15 + 2 + 12 = 33 bits total.
    EXPECT_EQ(BrHint::kEncodedBits, 33u);
    BrHint h;
    h.historyIdx = 0xF;
    h.formula = 0x7FFF;
    h.bias = HintBias::NeverTaken;
    h.pcPointer = 0xFFF;
    EXPECT_EQ(h.encode() >> 33, 0u);
}

TEST(BrHint, PcPointerOffset)
{
    EXPECT_EQ(BrHint::pcPointerFor(0x400020),
              BrHint::pcPointerFor(0x400020 + (1ULL << 13)));
    EXPECT_NE(BrHint::pcPointerFor(0x400020),
              BrHint::pcPointerFor(0x400040));
}

TEST(HintBuffer, InsertLookup)
{
    HintBuffer buf(4);
    BrHint h;
    h.formula = 42;
    buf.insert(0x100, h);
    const BrHint *found = buf.lookup(0x100);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->formula, 42u);
    EXPECT_EQ(buf.lookup(0x200), nullptr);
    EXPECT_EQ(buf.hits(), 1u);
    EXPECT_EQ(buf.misses(), 1u);
}

TEST(HintBuffer, LruEviction)
{
    HintBuffer buf(2);
    BrHint h;
    buf.insert(0x1, h);
    buf.insert(0x2, h);
    buf.lookup(0x1);      // 0x1 becomes MRU
    buf.insert(0x3, h);   // evicts 0x2
    EXPECT_NE(buf.lookup(0x1), nullptr);
    EXPECT_EQ(buf.lookup(0x2), nullptr);
    EXPECT_NE(buf.lookup(0x3), nullptr);
    EXPECT_EQ(buf.evictions(), 1u);
    EXPECT_EQ(buf.size(), 2u);
}

TEST(HintBuffer, ReinsertRefreshes)
{
    HintBuffer buf(2);
    BrHint h1, h2;
    h1.formula = 1;
    h2.formula = 2;
    buf.insert(0x1, h1);
    buf.insert(0x1, h2);
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.lookup(0x1)->formula, 2u);
}

namespace
{

/** Synthetic trace: block A (pc 0xA00) always precedes branch B. */
BranchTrace
makePredecessorTrace()
{
    BranchTrace trace("t", 0);
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
        BranchRecord a;
        a.pc = 0xA00;
        a.kind = BranchKind::Call;
        a.taken = true;
        a.target = 0xB00;
        trace.append(a);

        BranchRecord filler;
        filler.pc = 0xC00 + 16 * (i % 3);
        filler.kind = BranchKind::Conditional;
        filler.taken = rng.nextBool(0.5);
        trace.append(filler);

        BranchRecord b;
        b.pc = 0xB40;
        b.kind = BranchKind::Conditional;
        b.taken = true;
        trace.append(b);
    }
    return trace;
}

} // namespace

TEST(HintInjection, FindsHighCoveragePredecessor)
{
    BranchTrace trace = makePredecessorTrace();
    TraceSource src(trace);

    TrainedHint hint;
    hint.pc = 0xB40;
    HintInjector injector;
    auto placements = injector.place(src, {hint});
    ASSERT_EQ(placements.size(), 1u);
    EXPECT_EQ(placements[0].branchPc, 0xB40u);
    EXPECT_GE(placements[0].coverage, 0.99);
    // 0xA00 and the branch itself both fully cover; either is a
    // valid timely predecessor.
    EXPECT_GT(placements[0].precision, 0.5);
}

TEST(HintInjection, FallbackToSelf)
{
    // A branch that never appears in the trace gets a self
    // placement.
    BranchTrace trace = makePredecessorTrace();
    TraceSource src(trace);
    TrainedHint hint;
    hint.pc = 0xDEAD;
    HintInjector injector;
    auto placements = injector.place(src, {hint});
    ASSERT_EQ(placements.size(), 1u);
    EXPECT_EQ(placements[0].predecessorPc, 0xDEADu);
}

namespace
{

/** Placement as first written, with node-based hash containers: the
 * reference the flat-table pass must match placement for placement,
 * including which of two equally scored predecessors wins (the
 * co-occurrence map's iteration order). */
std::vector<HintPlacement>
referencePlacements(BranchSource &trace,
                    const std::vector<TrainedHint> &hints,
                    const HintInjector::Config &cfg)
{
    std::unordered_set<uint64_t> hinted;
    for (const auto &h : hints)
        hinted.insert(h.pc);
    std::unordered_map<uint64_t,
                       std::unordered_map<uint64_t, uint64_t>>
        cooccur;
    std::unordered_map<uint64_t, uint64_t> execCount, branchExec;
    trace.rewind();
    std::deque<uint64_t> window;
    std::unordered_set<uint64_t> seen;
    BranchRecord rec;
    while (trace.next(rec)) {
        ++execCount[rec.pc];
        if (rec.isConditional() && hinted.count(rec.pc)) {
            ++branchExec[rec.pc];
            auto &preds = cooccur[rec.pc];
            seen.clear();
            for (uint64_t p : window)
                if (seen.insert(p).second)
                    ++preds[p];
        }
        window.push_back(rec.pc);
        if (window.size() > cfg.window)
            window.pop_front();
    }
    std::vector<HintPlacement> out;
    for (const auto &h : hints) {
        HintPlacement pl;
        pl.branchPc = h.pc;
        uint64_t execs = branchExec[h.pc];
        double bestScore = -1.0;
        auto it = cooccur.find(h.pc);
        if (it != cooccur.end() && execs > 0) {
            for (const auto &[pred, count] : it->second) {
                double coverage = static_cast<double>(count) / execs;
                double precision = std::min(
                    1.0, static_cast<double>(count) / execCount[pred]);
                double score = coverage * precision;
                if (coverage >= cfg.minCoverage && score > bestScore) {
                    bestScore = score;
                    pl.predecessorPc = pred;
                    pl.coverage = coverage;
                    pl.precision = precision;
                }
            }
        }
        if (bestScore < 0.0) {
            pl.predecessorPc = h.pc;
            pl.coverage = 1.0;
            pl.precision = 1.0;
        }
        pl.predecessorExecutions = execCount[pl.predecessorPc];
        out.push_back(pl);
    }
    return out;
}

} // namespace

TEST(HintInjection, MatchesReferencePlacement)
{
    // Enough distinct PCs to grow the flat table several times, PC 0,
    // repeated PCs inside one window, a duplicated hint, a hint that
    // never executes, and a hinted non-conditional.
    Rng rng(4242);
    BranchTrace trace("t", 0);
    for (int i = 0; i < 60000; ++i) {
        BranchRecord r;
        uint64_t site = rng.nextBool(0.7) ? rng.nextBelow(40)
                                          : rng.nextBelow(6000);
        r.pc = site * 16;
        r.kind = site % 7 == 3 ? BranchKind::Call
                               : BranchKind::Conditional;
        r.taken = rng.nextBool(0.5);
        r.target = r.pc + 64;
        trace.append(r);
    }
    std::vector<TrainedHint> hints;
    for (uint64_t pc : {0ull, 16ull, 48ull, 160ull, 16ull * 5999,
                        0xDEAD0ull, 48ull, 16ull * 3}) {
        TrainedHint h;
        h.pc = pc;
        hints.push_back(h);
    }
    // A fixed loop of five blocks before hinted branch 160: every
    // block scores the same, so the map's order alone picks the one
    // placed.
    BranchTrace ties("ties", 0);
    for (int i = 0; i < 500; ++i) {
        for (uint64_t pc : {4096ull, 4112ull, 4128ull, 4144ull, 4160ull,
                            160ull}) {
            BranchRecord r;
            r.pc = pc;
            r.kind = BranchKind::Conditional;
            ties.append(r);
        }
    }
    for (const BranchTrace *t : {&trace, &ties}) {
        for (unsigned window : {1u, 4u, 16u, 33u}) {
            HintInjector::Config cfg;
            cfg.window = window;
            cfg.minCoverage = window < 4 ? 0.05 : 0.30;
            TraceSource a(*t), b(*t);
            EXPECT_EQ(HintInjector(cfg).place(a, hints),
                      referencePlacements(b, hints, cfg))
                << t->app() << " window " << window;
        }
    }
}

TEST(HintInjection, OverheadAccounting)
{
    std::vector<HintPlacement> placements(3);
    placements[0].predecessorExecutions = 100;
    placements[1].predecessorExecutions = 50;
    placements[2].predecessorExecutions = 50;
    auto o = HintInjector::overhead(placements, 1000, 10000);
    EXPECT_EQ(o.staticHints, 3u);
    EXPECT_EQ(o.dynamicHints, 200u);
    EXPECT_DOUBLE_EQ(o.staticIncreasePct, 0.3);
    EXPECT_DOUBLE_EQ(o.dynamicIncreasePct, 2.0);
}

namespace
{

/** Build a profile with one planted hard branch. */
BranchProfile
makePlantedProfile(uint16_t plantedFormula, unsigned lengthIdx,
                   uint64_t branchPc, const WhisperConfig &cfg)
{
    BranchProfile profile(cfg);
    profile.markHard(branchPc);
    BranchProfileEntry &e = profile.entry(branchPc);
    BoolFormula f(plantedFormula, 8);
    Rng rng(5);
    for (int s = 0; s < 4000; ++s) {
        uint8_t hashed = static_cast<uint8_t>(rng.nextBelow(256));
        bool taken = f.evaluate(hashed);
        ++e.executions;
        if (taken)
            ++e.takenCount;
        e.byLength[lengthIdx].record(hashed, taken);
        // Other lengths see uncorrelated hashes.
        for (size_t l = 0; l < e.byLength.size(); ++l) {
            if (l != lengthIdx) {
                e.byLength[l].record(
                    static_cast<uint8_t>(rng.nextBelow(256)), taken);
            }
        }
        e.raw4.record(rng.nextBelow(16), taken);
        e.raw8.record(rng.nextBelow(256), taken);
    }
    // The profiled dynamic predictor was poor on this branch.
    e.baselineMispredicts = 1200;
    return profile;
}

} // namespace

TEST(WhisperTrainer, RecoversLengthAndBeatsBaseline)
{
    WhisperConfig cfg;
    cfg.formulaFraction = 1.0; // exhaustive for determinism
    TruthTableCache cache(8);
    WhisperTrainer trainer(cfg, cache);

    const unsigned plantedIdx = 9;
    BranchProfile profile =
        makePlantedProfile(0x1B3A, plantedIdx, 0x7F0, cfg);

    TrainingStats stats;
    auto hints = trainer.train(profile, &stats);
    ASSERT_EQ(hints.size(), 1u);
    EXPECT_EQ(hints[0].pc, 0x7F0u);
    EXPECT_EQ(hints[0].hint.historyIdx, plantedIdx);
    EXPECT_EQ(hints[0].hint.bias, HintBias::Formula);
    EXPECT_EQ(hints[0].expectedMispredicts, 0u);
    EXPECT_EQ(stats.hintsEmitted, 1u);
    EXPECT_GT(stats.formulasScored, 0u);
}

TEST(WhisperTrainer, NoHintWhenBaselineAlreadyGood)
{
    WhisperConfig cfg;
    cfg.formulaFraction = 0.01;
    TruthTableCache cache(8);
    WhisperTrainer trainer(cfg, cache);

    BranchProfile profile = makePlantedProfile(0x1B3A, 9, 0x7F0, cfg);
    // Pretend the dynamic predictor almost never missed.
    profile.entries().begin()->second.baselineMispredicts = 4;

    auto hints = trainer.train(profile);
    EXPECT_TRUE(hints.empty());
}

TEST(WhisperTrainer, BiasHintForSkewedBranch)
{
    WhisperConfig cfg;
    cfg.formulaFraction = 0.001;
    TruthTableCache cache(8);
    WhisperTrainer trainer(cfg, cache);

    BranchProfile profile(cfg);
    profile.markHard(0x900);
    BranchProfileEntry &e = profile.entry(0x900);
    Rng rng(9);
    for (int s = 0; s < 2000; ++s) {
        // 98% taken regardless of history.
        bool taken = rng.nextBool(0.98);
        uint8_t h = static_cast<uint8_t>(rng.nextBelow(256));
        ++e.executions;
        if (taken)
            ++e.takenCount;
        for (size_t l = 0; l < e.byLength.size(); ++l)
            e.byLength[l].record(h, taken);
        e.raw4.record(h & 15, taken);
        e.raw8.record(h, taken);
    }
    e.baselineMispredicts = 500; // dynamic predictor struggled
    auto hints = trainer.train(profile);
    ASSERT_EQ(hints.size(), 1u);
    EXPECT_EQ(hints[0].hint.bias, HintBias::AlwaysTaken);
}

TEST(WhisperPredictor, UsesHintWhenBuffered)
{
    WhisperConfig cfg;
    TruthTableCache cache(8);

    // Hint: always-taken for branch 0xB40, injected at block 0xA00.
    TrainedHint hint;
    hint.pc = 0xB40;
    hint.hint.bias = HintBias::AlwaysTaken;
    hint.hint.pcPointer = BrHint::pcPointerFor(0xB40);
    HintPlacement pl;
    pl.branchPc = 0xB40;
    pl.predecessorPc = 0xA00;

    WhisperPredictor wp(std::make_unique<StaticPredictor>(false), cfg,
                        cache, {hint}, {pl});

    // Before the brhint executes, the base predictor (never-taken)
    // answers.
    EXPECT_FALSE(wp.predict(0xB40, true));
    wp.update(0xB40, true, false);

    // Execute the predecessor: hint enters the buffer.
    BranchRecord trigger;
    trigger.pc = 0xA00;
    trigger.kind = BranchKind::Call;
    wp.onRecord(trigger);
    EXPECT_EQ(wp.dynamicHintInstructions(), 1u);

    EXPECT_TRUE(wp.predict(0xB40, true));
    wp.update(0xB40, true, true);
    EXPECT_EQ(wp.hintPredictions(), 1u);
    EXPECT_EQ(wp.hintCorrect(), 1u);
}

TEST(WhisperPredictor, FormulaHintTracksHashedHistory)
{
    WhisperConfig cfg;
    TruthTableCache cache(8);

    // Formula hint at the shortest length (8): fold(8,8) == raw
    // last-8 history, so we can predict its output exactly.
    TrainedHint hint;
    hint.pc = 0xB40;
    hint.hint.bias = HintBias::Formula;
    hint.hint.historyIdx = 0;
    hint.hint.formula = 0x2A51;
    HintPlacement pl;
    pl.branchPc = 0xB40;
    pl.predecessorPc = 0xB40; // self-placed

    WhisperPredictor wp(std::make_unique<StaticPredictor>(false), cfg,
                        cache, {hint}, {pl});

    // Warm the buffer via a first execution.
    wp.predict(0xB40, true);
    wp.update(0xB40, true, false);
    BranchRecord self;
    self.pc = 0xB40;
    self.kind = BranchKind::Conditional;
    wp.onRecord(self);

    // Now drive 200 branches; Whisper's prediction for 0xB40 must
    // equal the formula applied to the last 8 outcomes.
    GlobalHistory shadow(64);
    Rng rng(17);
    BoolFormula f(0x2A51, 8);
    for (int i = 0; i < 200; ++i) {
        bool taken = rng.nextBool(0.5);
        bool pred = wp.predict(0xB40, taken);
        EXPECT_EQ(pred, f.evaluate(static_cast<uint8_t>(
                            shadow.lastBits(8))))
            << i;
        wp.update(0xB40, taken, pred);
        shadow.push(taken);
        wp.onRecord(self);
    }
    EXPECT_GT(wp.hintPredictions(), 190u);
}

TEST(WhisperPredictor, StatsAndReset)
{
    WhisperConfig cfg;
    TruthTableCache cache(8);
    TrainedHint hint;
    hint.pc = 0x10;
    hint.hint.bias = HintBias::AlwaysTaken;
    HintPlacement pl;
    pl.branchPc = 0x10;
    pl.predecessorPc = 0x10;
    WhisperPredictor wp(std::make_unique<StaticPredictor>(true), cfg,
                        cache, {hint}, {pl});
    EXPECT_EQ(wp.staticHintInstructions(), 1u);

    wp.predict(0x10, true);
    wp.update(0x10, true, true);
    BranchRecord rec;
    rec.pc = 0x10;
    wp.onRecord(rec);
    wp.predict(0x10, true);
    wp.update(0x10, true, true);
    EXPECT_EQ(wp.hintPredictions(), 1u);

    wp.reset();
    EXPECT_EQ(wp.hintPredictions(), 0u);
    EXPECT_EQ(wp.dynamicHintInstructions(), 0u);
    EXPECT_EQ(wp.hintBuffer().size(), 0u);
}

TEST(BranchProfileMerge, SumsCounts)
{
    WhisperConfig cfg;
    BranchProfile a(cfg), b(cfg);
    a.markHard(0x10);
    b.markHard(0x10);
    a.entry(0x10).executions = 10;
    a.entry(0x10).takenCount = 6;
    a.entry(0x10).baselineMispredicts = 3;
    a.entry(0x10).byLength[0].record(5, true);
    b.entry(0x10).executions = 20;
    b.entry(0x10).takenCount = 4;
    b.entry(0x10).baselineMispredicts = 7;
    b.entry(0x10).byLength[0].record(5, false);
    b.entry(0x20).executions = 2;

    a.mergeFrom(b);
    EXPECT_EQ(a.entry(0x10).executions, 30u);
    EXPECT_EQ(a.entry(0x10).takenCount, 10u);
    EXPECT_EQ(a.entry(0x10).baselineMispredicts, 10u);
    EXPECT_EQ(a.entry(0x10).byLength[0].taken[5], 1u);
    EXPECT_EQ(a.entry(0x10).byLength[0].notTaken[5], 1u);
    EXPECT_EQ(a.entry(0x20).executions, 2u);
    EXPECT_EQ(a.numBranches(), 2u);
}

TEST(StaticProfilePredictor, MajorityDirections)
{
    WhisperConfig cfg;
    BranchProfile profile(cfg);
    auto &a = profile.entry(0x10);
    a.executions = 100;
    a.takenCount = 90;
    auto &b = profile.entry(0x20);
    b.executions = 100;
    b.takenCount = 10;

    StaticProfilePredictor pred(profile);
    EXPECT_EQ(pred.coveredBranches(), 2u);
    EXPECT_TRUE(pred.predict(0x10, false));
    EXPECT_FALSE(pred.predict(0x20, true));
    // Unseen branch: fallback direction.
    EXPECT_TRUE(pred.predict(0x999, false));
    StaticProfilePredictor nt(profile, false);
    EXPECT_FALSE(nt.predict(0x999, true));
}

TEST(StaticProfilePredictor, AccuracyEqualsProfileBias)
{
    // On a stationary stream, static prediction converges to the
    // per-branch majority rate.
    WhisperConfig cfg;
    BranchProfile profile(cfg);
    auto &e = profile.entry(0x40);
    e.executions = 1000;
    e.takenCount = 800;
    StaticProfilePredictor pred(profile);

    Rng rng(77);
    int correct = 0;
    for (int i = 0; i < 20000; ++i) {
        bool taken = rng.nextBool(0.8);
        bool p = pred.predict(0x40, taken);
        pred.update(0x40, taken, p);
        correct += p == taken;
    }
    EXPECT_NEAR(correct / 20000.0, 0.8, 0.02);
}
