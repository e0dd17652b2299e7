/**
 * @file
 * Unit tests for src/trace: records, global/folded history, trace
 * container and serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/history_hash.hh"
#include "trace/branch_trace.hh"
#include "trace/global_history.hh"

using namespace whisper;

TEST(GlobalHistory, PushAndBit)
{
    GlobalHistory h(16);
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_TRUE(h.bit(0));
    EXPECT_FALSE(h.bit(1));
    EXPECT_TRUE(h.bit(2));
    EXPECT_EQ(h.count(), 3u);
}

TEST(GlobalHistory, LastBits)
{
    GlobalHistory h(64);
    // Push 1,1,0,1 -> bit0 is the newest (1), then 0, 1, 1.
    h.push(true);
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_EQ(h.lastBits(4), 0b1101u);
    EXPECT_EQ(h.lastBits(2), 0b01u);
}

TEST(GlobalHistory, WrapsAround)
{
    GlobalHistory h(8);
    for (int i = 0; i < 20; ++i)
        h.push(i % 3 == 0);
    // Most recent push was i=19 (19%3!=0 -> false).
    EXPECT_FALSE(h.bit(0));
    // i=18 -> true.
    EXPECT_TRUE(h.bit(1));
}

TEST(FoldedHistory, MatchesReferenceFold)
{
    // The incremental folded register must equal the reference fold
    // computed from the raw ring at every step.
    GlobalHistory h(256);
    size_t v8 = h.addFoldedView(37, 8);
    size_t v5 = h.addFoldedView(12, 5);
    size_t v13 = h.addFoldedView(64, 13);

    uint64_t seed = 12345;
    for (int i = 0; i < 500; ++i) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        h.push((seed >> 40) & 1);
        ASSERT_EQ(h.foldedValue(v8), h.foldedHash(37, 8)) << i;
        ASSERT_EQ(h.foldedValue(v5), h.foldedHash(12, 5)) << i;
        ASSERT_EQ(h.foldedValue(v13), h.foldedHash(64, 13)) << i;
    }
}

TEST(FoldedHistory, IdentityWhenLengthEqualsWidth)
{
    // Folding the last 8 bits into 8 bits is the raw history.
    GlobalHistory h(64);
    size_t v = h.addFoldedView(8, 8);
    uint64_t seed = 7;
    for (int i = 0; i < 100; ++i) {
        seed = seed * 6364136223846793005ULL + 99;
        h.push((seed >> 33) & 1);
        ASSERT_EQ(h.foldedValue(v), h.lastBits(8));
    }
}

TEST(FoldedHistory, ResetClears)
{
    GlobalHistory h(32);
    size_t v = h.addFoldedView(16, 8);
    // 15 taken bits fold to a non-zero register (an even count per
    // fold position would cancel out).
    for (int i = 0; i < 15; ++i)
        h.push(true);
    EXPECT_NE(h.foldedValue(v), 0u);
    h.reset();
    EXPECT_EQ(h.foldedValue(v), 0u);
    EXPECT_EQ(h.count(), 0u);
}

// --------------------------------------------------------------------
// The folded-history kernel against the reference fold, many views at
// once: every view of every shape a predictor registers must equal
// foldedHash() after every push, across ring wrap-around, reset() and
// copies.
// --------------------------------------------------------------------

namespace
{

struct ViewShape
{
    unsigned length;
    unsigned width;
};

/** TAGE-SC-L 64 KB: 12 tables x (index, tag, tag - 1 bit) over
 * geometric lengths 6..1600, plus 5 statistical-corrector views. */
std::vector<ViewShape>
tageShape()
{
    std::vector<ViewShape> shape;
    std::vector<unsigned> lens = geometricLengths(6, 1600, 12);
    for (size_t t = 0; t < lens.size(); ++t) {
        unsigned tagBits = 8 + std::min<unsigned>(3, t / 4);
        shape.push_back({lens[t], 11});
        shape.push_back({lens[t], tagBits});
        shape.push_back({lens[t], tagBits - 1});
    }
    for (unsigned len : {4u, 10u, 16u, 27u, 44u})
        shape.push_back({len, 11});
    return shape;
}

/** Whisper's 16 hashed histories of 8 bits. */
std::vector<ViewShape>
whisperShape()
{
    std::vector<ViewShape> shape;
    for (unsigned len : geometricLengths(WhisperConfig{}))
        shape.push_back({len, 8});
    return shape;
}

std::vector<size_t>
addViews(GlobalHistory &h, const std::vector<ViewShape> &shape)
{
    std::vector<size_t> ids;
    for (const ViewShape &v : shape)
        ids.push_back(h.addFoldedView(v.length, v.width));
    return ids;
}

/** Push @p n pseudo-random bits and check every view on every push. */
void
pushAndCheck(GlobalHistory &h, const std::vector<ViewShape> &shape,
             const std::vector<size_t> &ids, uint64_t &seed, int n)
{
    for (int i = 0; i < n; ++i) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        h.push((seed >> 41) & 1);
        for (size_t v = 0; v < shape.size(); ++v) {
            ASSERT_EQ(h.foldedValue(ids[v]),
                      h.foldedHash(shape[v].length, shape[v].width))
                << "push " << h.count() << " view " << v << " (length "
                << shape[v].length << ", width " << shape[v].width
                << ")";
        }
    }
}

} // namespace

TEST(FoldedHistory, TageShapeTracksReferenceAcrossWrap)
{
    GlobalHistory h(4096);
    std::vector<ViewShape> shape = tageShape();
    ASSERT_EQ(shape.size(), 41u);
    std::vector<size_t> ids = addViews(h, shape);
    uint64_t seed = 41;
    pushAndCheck(h, shape, ids, seed, 4096 + 1700);
}

TEST(FoldedHistory, WhisperShapeTracksReferenceAcrossWrap)
{
    GlobalHistory h(2 * WhisperConfig{}.maxHistoryLength);
    std::vector<ViewShape> shape = whisperShape();
    ASSERT_EQ(shape.size(), 16u);
    std::vector<size_t> ids = addViews(h, shape);
    uint64_t seed = 16;
    pushAndCheck(h, shape, ids, seed, 2 * 2048 + 300);
}

TEST(FoldedHistory, NonPowerOfTwoCapacityWithFullLengthView)
{
    for (unsigned capacity : {300u, 1000u}) {
        SCOPED_TRACE(capacity);
        GlobalHistory h(capacity);
        EXPECT_EQ(h.capacity(), capacity);
        std::vector<ViewShape> shape = {{capacity, 8},
                                        {capacity, 13},
                                        {capacity - 1, 11},
                                        {capacity / 3, 7},
                                        {5, 8},
                                        {1, 1}};
        std::vector<size_t> ids = addViews(h, shape);
        uint64_t seed = capacity;
        pushAndCheck(h, shape, ids, seed, 3 * capacity + 17);
        // The raw ring keeps exactly the requested window.
        for (unsigned i = 0; i < 64; ++i)
            ASSERT_EQ((h.lastBits(64) >> i) & 1, h.bit(i) ? 1u : 0u);
    }
}

TEST(FoldedHistory, ResetMidStreamRestartsFromZero)
{
    GlobalHistory h(1500);
    std::vector<ViewShape> shape = whisperShape();
    shape.push_back({1500, 8});
    std::vector<size_t> ids = addViews(h, shape);
    uint64_t seed = 99;
    pushAndCheck(h, shape, ids, seed, 2000);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    for (size_t v = 0; v < ids.size(); ++v)
        ASSERT_EQ(h.foldedValue(ids[v]), 0u) << v;
    for (unsigned i = 0; i < h.capacity(); ++i)
        ASSERT_FALSE(h.bit(i)) << i;
    // Until the longest window refills, evictions must read as
    // zeros, not as pre-reset bits.
    pushAndCheck(h, shape, ids, seed, 3100);
}

TEST(FoldedHistory, CopyStepsInLockstepWithOriginal)
{
    GlobalHistory h(4096);
    std::vector<ViewShape> shape = tageShape();
    std::vector<size_t> ids = addViews(h, shape);
    uint64_t seed = 7;
    pushAndCheck(h, shape, ids, seed, 2500);

    GlobalHistory copy(h);
    uint64_t copySeed = seed;
    for (int step = 0; step < 4; ++step) {
        pushAndCheck(h, shape, ids, seed, 700);
        pushAndCheck(copy, shape, ids, copySeed, 700);
        ASSERT_EQ(copy.count(), h.count());
        for (size_t v = 0; v < ids.size(); ++v)
            ASSERT_EQ(copy.foldedValue(ids[v]), h.foldedValue(ids[v]));
    }
}

TEST(BranchTrace, AppendAccumulates)
{
    BranchTrace trace("app", 3);
    BranchRecord rec;
    rec.pc = 0x100;
    rec.kind = BranchKind::Conditional;
    rec.instGap = 4;
    trace.append(rec);
    rec.kind = BranchKind::Call;
    rec.instGap = 2;
    trace.append(rec);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.instructions(), 5u + 3u);
    EXPECT_EQ(trace.conditionals(), 1u);
    EXPECT_EQ(trace.app(), "app");
    EXPECT_EQ(trace.inputId(), 3u);
}

TEST(BranchTrace, SaveLoadRoundTrip)
{
    BranchTrace trace("roundtrip", 7);
    uint64_t seed = 5;
    for (int i = 0; i < 1000; ++i) {
        seed = seed * 2862933555777941757ULL + 3037000493ULL;
        BranchRecord rec;
        rec.pc = 0x400000 + (seed & 0xFFFF);
        rec.target = rec.pc + 16;
        rec.taken = (seed >> 17) & 1;
        rec.kind = static_cast<BranchKind>((seed >> 20) % 5);
        rec.instGap = (seed >> 24) & 0xF;
        trace.append(rec);
    }

    std::string path = "/tmp/whisper_test_trace.bin";
    ASSERT_TRUE(trace.save(path));

    BranchTrace loaded;
    ASSERT_TRUE(loaded.load(path).ok());
    ASSERT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(loaded.app(), "roundtrip");
    EXPECT_EQ(loaded.inputId(), 7u);
    EXPECT_EQ(loaded.instructions(), trace.instructions());
    EXPECT_EQ(loaded.conditionals(), trace.conditionals());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, trace[i].pc);
        EXPECT_EQ(loaded[i].taken, trace[i].taken);
        EXPECT_EQ(loaded[i].kind, trace[i].kind);
        EXPECT_EQ(loaded[i].instGap, trace[i].instGap);
    }
    std::remove(path.c_str());
}

TEST(BranchTrace, LoadRejectsGarbage)
{
    std::string path = "/tmp/whisper_test_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace", f);
    std::fclose(f);
    BranchTrace t;
    EXPECT_TRUE(t.load(path).corrupt());

    // 25 bytes: a valid header claiming 2^63 records, then one byte.
    // n * sizeof(BranchRecord) wraps to 0 there, so a multiplying
    // size check passes and reserve(2^63) throws; it must be an
    // ordinary corrupt-file error instead.
    f = std::fopen(path.c_str(), "wb");
    const uint32_t header[] = {BranchTrace::kFileMagic,
                               BranchTrace::kFileVersion, 0, 0};
    const uint64_t count = 1ULL << 63;
    std::fwrite(header, sizeof header, 1, f);
    std::fwrite(&count, sizeof count, 1, f);
    std::fputc(0, f);
    std::fclose(f);
    EXPECT_TRUE(t.load(path).corrupt());
    std::remove(path.c_str());
}

TEST(TraceSource, IteratesAndRewinds)
{
    BranchTrace trace("s", 0);
    for (int i = 0; i < 5; ++i) {
        BranchRecord rec;
        rec.pc = 0x10 * (i + 1);
        trace.append(rec);
    }
    TraceSource src(trace);
    BranchRecord rec;
    int n = 0;
    while (src.next(rec))
        ++n;
    EXPECT_EQ(n, 5);
    EXPECT_FALSE(src.next(rec));
    src.rewind();
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.pc, 0x10u);
}

TEST(LimitSource, Truncates)
{
    BranchTrace trace("s", 0);
    for (int i = 0; i < 10; ++i)
        trace.append(BranchRecord{});
    TraceSource inner(trace);
    LimitSource limited(inner, 4);
    BranchRecord rec;
    int n = 0;
    while (limited.next(rec))
        ++n;
    EXPECT_EQ(n, 4);
    limited.rewind();
    n = 0;
    while (limited.next(rec))
        ++n;
    EXPECT_EQ(n, 4);
}
