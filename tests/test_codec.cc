/**
 * @file
 * Byte-codec tests (`ctest -R codec.`).
 *
 * Part 1 pins the exact bytes of every binary format — `.whrt` v2,
 * profile, `.hints`, `.vhints`, the hint-store journal and every wire
 * message — as (CRC32, length) goldens of fixed encodings, so a codec
 * refactor that moves a single byte fails here.
 *
 * Part 2 is a deterministic mutation fuzzer over the same encodings:
 * bit flips, truncations, length/count fields forced to hostile
 * values, and splices of two encodings. Every decoder must either
 * reject the mutant or return a value whose re-encoding decodes
 * again; none may throw, abort or allocate what the bytes cannot
 * hold. Seeds and iteration counts are fixed, so a failure replays.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "net/wire_protocol.hh"
#include "service/hint_journal.hh"
#include "service/trace_stream.hh"
#include "trace/branch_trace.hh"
#include "util/crc32.hh"
#include "util/rng.hh"

using namespace whisper;

namespace
{

using Bytes = std::vector<unsigned char>;

/** Per-process scratch path (ctest runs test processes in
 * parallel). */
std::string
scratchPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("whisper_codec_" + std::to_string(::getpid()) + "_" + name))
        .string();
}

Bytes
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const Bytes &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::vector<BranchRecord>
goldenRecords(size_t n)
{
    // Zero the struct padding too, as the .whrt and INGEST_CHUNK
    // encoders do, so the in-memory records match their encodings.
    std::vector<BranchRecord> records(n);
    std::memset(static_cast<void *>(records.data()), 0,
                n * sizeof(BranchRecord));
    uint64_t seed = 5;
    for (BranchRecord &rec : records) {
        seed = seed * 2862933555777941757ULL + 3037000493ULL;
        rec.pc = 0x400000 + (seed & 0xFFFF);
        rec.target = rec.pc + 16;
        rec.taken = (seed >> 17) & 1;
        rec.kind = static_cast<BranchKind>((seed >> 20) % 5);
        rec.instGap = (seed >> 24) & 0xF;
    }
    return records;
}

BranchTrace
goldenTrace(size_t n)
{
    BranchTrace trace("golden", 3);
    for (const BranchRecord &rec : goldenRecords(n))
        trace.append(rec);
    return trace;
}

BranchProfile
goldenProfile()
{
    WhisperConfig cfg;
    cfg.numHistoryLengths = 4;
    cfg.hashWidth = 4;
    BranchProfile profile(cfg);
    profile.totalInstructions = 123456;
    profile.totalConditionals = 23456;
    profile.totalMispredicts = 3456;
    for (uint64_t i = 0; i < 3; ++i) {
        uint64_t pc = 0x400100 + 16 * i;
        BranchProfileEntry &e = profile.entry(pc);
        e.executions = 1000 + i;
        e.takenCount = 400 + i;
        e.baselineMispredicts = 50 + i;
    }
    profile.markHard(0x400110);
    BranchProfileEntry &hard = profile.entry(0x400110);
    uint32_t v = 1;
    for (auto &table : hard.byLength) {
        for (size_t k = 0; k < table.taken.size(); ++k) {
            table.taken[k] = v++;
            table.notTaken[k] = 3 * v++;
        }
    }
    hard.raw4.taken[2] = 9;
    hard.raw8.notTaken[200] = 11;
    return profile;
}

HintBundle
goldenBundle()
{
    HintBundle b;
    for (uint64_t i = 0; i < 4; ++i) {
        TrainedHint h;
        h.pc = 0x400000 + 0x40 * i;
        h.hint.historyIdx = static_cast<uint8_t>(i * 3 % 16);
        h.hint.formula = static_cast<uint16_t>(0x1234 + 977 * i);
        h.hint.bias = static_cast<HintBias>(i % 3);
        h.hint.pcPointer = BrHint::pcPointerFor(h.pc);
        h.historyLength = static_cast<unsigned>(8 << i);
        h.expectedMispredicts = 10 + i;
        h.profiledMispredicts = 100 + i;
        h.executions = 5000 + i;
        b.hints.push_back(h);

        HintPlacement p;
        p.branchPc = h.pc;
        p.predecessorPc = h.pc - 0x20;
        p.coverage = 0.25 * static_cast<double>(i);
        p.precision = 1.0 / static_cast<double>(i + 2);
        p.predecessorExecutions = 7000 + i;
        b.placements.push_back(p);
    }
    return b;
}

VersionedHintBundle
goldenVersioned(uint64_t epoch)
{
    VersionedHintBundle v;
    v.epoch = epoch;
    v.validationAccuracy = 0.875 + 0.001 * static_cast<double>(epoch);
    v.bundle = goldenBundle();
    v.bundle.hints.resize(epoch % 4 + 1);
    return v;
}

/** One named fixed encoding of one wire message, framed. */
struct WireCase
{
    const char *name;
    WireOp op;
    Bytes payload;
};

std::vector<WireCase>
goldenWireMessages()
{
    IngestChunkMsg ingest;
    ingest.app = "kafka";
    ingest.stream = "agent-7";
    ingest.inputId = 2;
    ingest.seq = 0x0102030405ULL;
    ingest.records = goldenRecords(20);
    return {
        {"hello", WireOp::Hello, encodeHello({1, "loadgen"})},
        {"hello_ok", WireOp::HelloOk, encodeHello({1, "whisperd"})},
        {"ingest_chunk", WireOp::IngestChunk, encodeIngestChunk(ingest)},
        {"chunk_ack", WireOp::ChunkAck,
         encodeChunkAck({0xABCDEF, ChunkAckMsg::kDuplicate})},
        {"retry_after", WireOp::RetryAfter, encodeRetryAfter({77, 250})},
        {"pull_bundle", WireOp::PullBundle, encodePullBundle({"mysql", 41})},
        {"bundle", WireOp::Bundle,
         encodeVersionedBundle(goldenVersioned(5))},
        {"bundle_unchanged", WireOp::BundleUnchanged,
         encodeBundleUnchanged(42)},
        {"error", WireOp::Error,
         encodeError({WireError::UnknownApp, "no such tenant"})},
    };
}

/** Asserts the (CRC32, length) fingerprint of one encoding. */
void
expectGolden(const std::string &name, const Bytes &bytes,
             uint32_t crc, size_t size)
{
    EXPECT_EQ(bytes.size(), size) << name;
    char got[16];
    std::snprintf(got, sizeof got, "0x%08X",
                  crc32(bytes.data(), bytes.size()));
    char want[16];
    std::snprintf(want, sizeof want, "0x%08X", crc);
    EXPECT_STREQ(got, want) << name;
}

} // namespace

// --------------------------------------------------------------------
// Part 1: byte-format goldens
// --------------------------------------------------------------------

TEST(ByteFormat, WhrtV2)
{
    std::string path = scratchPath("golden.whrt");
    // 40000 records = two full 16384-record frames plus a partial.
    ASSERT_TRUE(goldenTrace(40'000).save(path));
    expectGolden("whrt", readBytes(path), 0x7E033C2Fu, 960066);
    std::remove(path.c_str());
}

TEST(ByteFormat, Profile)
{
    std::string path = scratchPath("golden.profile");
    ASSERT_TRUE(saveProfile(goldenProfile(), path));
    expectGolden("profile", readBytes(path), 0xA840B520u, 2939);
    std::remove(path.c_str());
}

TEST(ByteFormat, HintBundle)
{
    std::string path = scratchPath("golden.hints");
    ASSERT_TRUE(saveHintBundle(goldenBundle(), path));
    expectGolden("hints", readBytes(path), 0x5A68F0D9u, 360);
    std::remove(path.c_str());
}

TEST(ByteFormat, VersionedBundle)
{
    std::string path = scratchPath("golden.vhints");
    ASSERT_TRUE(saveVersionedBundle(goldenVersioned(3), path));
    expectGolden("vhints", readBytes(path), 0x6E3E8AB6u, 376);
    std::remove(path.c_str());
}

TEST(ByteFormat, JournalWithTwoRecords)
{
    std::string path = scratchPath("golden.journal");
    std::remove(path.c_str());
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(path, replayed).ok());
        ASSERT_TRUE(journal.append(goldenVersioned(1)));
        ASSERT_TRUE(journal.append(goldenVersioned(2)));
    }
    expectGolden("journal", readBytes(path), 0x825448BEu, 636);
    std::remove(path.c_str());
}

TEST(ByteFormat, WireMessages)
{
    struct Want
    {
        uint32_t crc;
        size_t size;
    };
    const Want want[] = {
        {0x05243ED4u, 31}, // hello
        {0xD296CB13u, 32}, // hello_ok
        {0x87DF0202u, 532}, // ingest_chunk
        {0x19EB467Du, 28}, // chunk_ack
        {0x943EBA5Eu, 28}, // retry_after
        {0x3DBC1DD7u, 33}, // pull_bundle
        {0x00DA901Eu, 296}, // bundle
        {0x87D78170u, 24}, // bundle_unchanged
        {0x1D3A229Cu, 38}, // error
    };
    std::vector<WireCase> cases = goldenWireMessages();
    ASSERT_EQ(cases.size(), std::size(want));
    for (size_t i = 0; i < cases.size(); ++i) {
        expectGolden(cases[i].name,
                     encodeFrame(cases[i].op, cases[i].payload),
                     want[i].crc, want[i].size);
    }
}

// --------------------------------------------------------------------
// Part 2: hostile counts, trailing bytes, and the mutation fuzzer
// --------------------------------------------------------------------

namespace
{

void
appendU32(Bytes &b, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void
appendU64(Bytes &b, uint64_t v)
{
    appendU32(b, static_cast<uint32_t>(v));
    appendU32(b, static_cast<uint32_t>(v >> 32));
}

long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** The bytes @p save writes to a scratch file. */
template <typename Save>
Bytes
savedBytes(const std::string &name, Save save)
{
    std::string path = scratchPath(name);
    EXPECT_TRUE(save(path));
    Bytes bytes = readBytes(path);
    std::remove(path.c_str());
    return bytes;
}

/** One decoder under fuzz: takes a mutant, returns whether it
 * decoded, and checks the decoded value's re-encoding itself. */
using Decoder = std::function<bool(const Bytes &)>;

/** Bit flips, truncation, hostile length/count words, or a splice
 * with @p other — the mutation classes named in the file comment. */
Bytes
mutate(const Bytes &seed, const Bytes &other, Rng &rng)
{
    Bytes b = seed;
    if (b.empty())
        return other;
    switch (rng.nextBelow(4)) {
      case 0: {
        uint64_t flips = 1 + rng.nextBelow(8);
        for (uint64_t i = 0; i < flips; ++i)
            b[rng.nextBelow(b.size())] ^=
                static_cast<unsigned char>(1u << rng.nextBelow(8));
        break;
      }
      case 1:
        b.resize(rng.nextBelow(b.size()));
        break;
      case 2: {
        static const uint64_t kHostile[] = {
            0, 1ULL << 31, 0xFFFFFFFFULL, 1ULL << 63, ~0ULL};
        uint64_t v = kHostile[rng.nextBelow(std::size(kHostile))];
        size_t width = rng.nextBool() ? 4 : 8;
        if (b.size() < width)
            break;
        // Aligned words hit the header and count fields most often.
        size_t at = rng.nextBelow(b.size() - width + 1);
        if (rng.nextBool())
            at &= ~size_t{3};
        for (size_t i = 0; i < width; ++i)
            b[at + i] = static_cast<unsigned char>(v >> (8 * i));
        break;
      }
      default: {
        size_t cut = rng.nextBelow(b.size() + 1);
        size_t from = other.empty() ? 0 : rng.nextBelow(other.size());
        b.resize(cut);
        b.insert(b.end(), other.begin() + static_cast<ptrdiff_t>(from),
                 other.end());
        break;
      }
    }
    return b;
}

/** Fixed seed and iteration count: a failure replays exactly. */
constexpr int kIterations = 2000;

void
fuzz(const char *name, const std::vector<Bytes> &seeds,
     const Decoder &decode, uint64_t rngSeed)
{
    ASSERT_FALSE(seeds.empty());
    for (const Bytes &seed : seeds)
        ASSERT_TRUE(decode(seed)) << name << ": a seed must decode";
    Rng rng(rngSeed);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const Bytes &seed = seeds[rng.nextBelow(seeds.size())];
        const Bytes &other = seeds[rng.nextBelow(seeds.size())];
        Bytes mutant = mutate(seed, other, rng);
        accepted += decode(mutant) ? 1 : 0;
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << name << ": iteration " << i;
            return;
        }
    }
    // A decoder that accepts every mutant is not checking anything.
    EXPECT_LT(accepted, kIterations) << name;
}

/** encode(decode(bytes)) must decode again to the same encoding. */
bool
bundleRoundTrips(const VersionedHintBundle &v)
{
    Bytes again = encodeVersionedBundle(v);
    VersionedHintBundle w;
    EXPECT_TRUE(decodeVersionedBundle(w, again.data(), again.size()));
    EXPECT_EQ(encodeVersionedBundle(w), again);
    return true;
}

Decoder
fileDecoder(const std::string &name, std::function<bool(const std::string &)> load)
{
    return [name, load](const Bytes &bytes) {
        std::string path = scratchPath(name);
        writeBytes(path, bytes);
        bool ok = load(path);
        std::remove(path.c_str());
        return ok;
    };
}

Bytes
whrtV1(const std::vector<BranchRecord> &records)
{
    Bytes b;
    appendU32(b, BranchTrace::kFileMagic);
    appendU32(b, 1);
    appendU32(b, 2);
    b.push_back('v');
    b.push_back('1');
    appendU32(b, 9);
    appendU64(b, records.size());
    const auto *p = reinterpret_cast<const unsigned char *>(records.data());
    b.insert(b.end(), p, p + records.size() * sizeof(BranchRecord));
    return b;
}

} // namespace

TEST(HostileInput, BundleHintCountAllocatesNothing)
{
    // 24 bytes: epoch, accuracy, then a hint count of 2^24 (the old
    // cap) that the 0 bytes behind it cannot hold.
    Bytes payload;
    appendU64(payload, 1);
    appendU64(payload, 0);
    appendU64(payload, 1ULL << 24);
    ASSERT_EQ(payload.size(), 24u);

    long before = peakRssKb();
    VersionedHintBundle v;
    EXPECT_FALSE(decodeVersionedBundle(v, payload.data(), payload.size()));

    // The same payload as a .vhints file body.
    Bytes file;
    appendU32(file, 0x57484550); // "WHEP"
    appendU32(file, 1);
    file.insert(file.end(), payload.begin(), payload.end());
    std::string path = scratchPath("hostile.vhints");
    writeBytes(path, file);
    EXPECT_TRUE(loadVersionedBundle(v, path).corrupt());
    std::remove(path.c_str());
    EXPECT_LT(peakRssKb() - before, 64 * 1024);
}

TEST(HostileInput, TrailingBytesAreRejectedByEveryFileLoader)
{
    Bytes garbage(8, 0xA5);
    auto appendGarbage = [&](const std::string &path) {
        Bytes bytes = readBytes(path);
        bytes.insert(bytes.end(), garbage.begin(), garbage.end());
        writeBytes(path, bytes);
    };

    std::string path = scratchPath("trailing");
    HintBundle bundle;
    ASSERT_TRUE(saveHintBundle(goldenBundle(), path));
    ASSERT_TRUE(loadHintBundle(bundle, path).ok());
    appendGarbage(path);
    EXPECT_TRUE(loadHintBundle(bundle, path).corrupt());

    VersionedHintBundle versioned;
    ASSERT_TRUE(saveVersionedBundle(goldenVersioned(2), path));
    appendGarbage(path);
    EXPECT_TRUE(loadVersionedBundle(versioned, path).corrupt());

    BranchProfile profile;
    ASSERT_TRUE(saveProfile(goldenProfile(), path));
    appendGarbage(path);
    EXPECT_TRUE(loadProfile(profile, path).corrupt());

    BranchTrace trace;
    ASSERT_TRUE(goldenTrace(100).save(path));
    appendGarbage(path);
    EXPECT_TRUE(trace.load(path).corrupt());
    std::remove(path.c_str());
}

TEST(Fuzz, VersionedBundlePayload)
{
    fuzz("bundle",
         {encodeVersionedBundle(goldenVersioned(1)),
          encodeVersionedBundle(goldenVersioned(3)),
          encodeVersionedBundle(VersionedHintBundle{})},
         [](const Bytes &b) {
             VersionedHintBundle v;
             return decodeVersionedBundle(v, b.data(), b.size()) &&
                    bundleRoundTrips(v);
         },
         101);
}

TEST(Fuzz, WirePayloads)
{
    // Every message decoder on raw (CRC-free) payloads.
    std::vector<WireCase> cases = goldenWireMessages();
    for (size_t i = 0; i < cases.size(); ++i) {
        WireOp op = cases[i].op;
        fuzz(cases[i].name, {cases[i].payload},
             [op](const Bytes &p) {
                 switch (op) {
                   case WireOp::Hello:
                   case WireOp::HelloOk: {
                       HelloMsg m, again;
                       return decodeHello(p, m) &&
                              decodeHello(encodeHello(m), again);
                   }
                   case WireOp::IngestChunk: {
                       IngestChunkMsg m, again;
                       return decodeIngestChunk(p, m) &&
                              decodeIngestChunk(encodeIngestChunk(m),
                                                again) &&
                              again.records.size() == m.records.size();
                   }
                   case WireOp::ChunkAck: {
                       ChunkAckMsg m, again;
                       return decodeChunkAck(p, m) &&
                              decodeChunkAck(encodeChunkAck(m), again);
                   }
                   case WireOp::RetryAfter: {
                       RetryAfterMsg m, again;
                       return decodeRetryAfter(p, m) &&
                              decodeRetryAfter(encodeRetryAfter(m), again);
                   }
                   case WireOp::PullBundle: {
                       PullBundleMsg m, again;
                       return decodePullBundle(p, m) &&
                              decodePullBundle(encodePullBundle(m), again);
                   }
                   case WireOp::Bundle: {
                       VersionedHintBundle v;
                       return decodeVersionedBundle(v, p.data(),
                                                    p.size()) &&
                              bundleRoundTrips(v);
                   }
                   case WireOp::BundleUnchanged: {
                       uint64_t epoch = 0, again = 0;
                       return decodeBundleUnchanged(p, epoch) &&
                              decodeBundleUnchanged(
                                  encodeBundleUnchanged(epoch), again);
                   }
                   default: {
                       ErrorMsg m, again;
                       return decodeError(p, m) &&
                              decodeError(encodeError(m), again);
                   }
                 }
             },
             200 + i);
    }
}

TEST(Fuzz, WireFrameStream)
{
    // All messages back to back through one parser: damage may cost
    // frames, never the process.
    Bytes stream;
    for (const WireCase &c : goldenWireMessages()) {
        Bytes frame = encodeFrame(c.op, c.payload);
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    fuzz("wire stream", {stream},
         [](const Bytes &bytes) {
             FrameParser parser;
             parser.feed(bytes.data(), bytes.size());
             WireFrame frame;
             size_t frames = 0;
             for (;;) {
                 FrameParser::Result r = parser.next(frame);
                 if (r == FrameParser::Result::Frame) {
                     // Re-framing a delivered frame parses again.
                     FrameParser again;
                     Bytes f = encodeFrame(frame.op, frame.payload);
                     again.feed(f.data(), f.size());
                     WireFrame copy;
                     EXPECT_EQ(again.next(copy),
                               FrameParser::Result::Frame);
                     ++frames;
                 } else if (r != FrameParser::Result::BadCrc) {
                     break;
                 }
             }
             return frames == goldenWireMessages().size() &&
                    parser.buffered() == 0;
         },
         300);
}

TEST(Fuzz, ProfileFile)
{
    fuzz("profile",
         {savedBytes("seed.profile",
                     [](const std::string &p) {
                         return saveProfile(goldenProfile(), p);
                     }),
          savedBytes("seed0.profile",
                     [](const std::string &p) {
                         return saveProfile(BranchProfile{}, p);
                     })},
         fileDecoder("fuzz.profile",
                     [](const std::string &path) {
                         BranchProfile loaded, again;
                         if (!loadProfile(loaded, path).ok())
                             return false;
                         std::string copy = path + ".copy";
                         EXPECT_TRUE(saveProfile(loaded, copy));
                         EXPECT_TRUE(loadProfile(again, copy).ok());
                         EXPECT_TRUE(again == loaded);
                         std::remove(copy.c_str());
                         return true;
                     }),
         400);
}

TEST(Fuzz, HintBundleFiles)
{
    auto hintsSeed = savedBytes("seed.hints", [](const std::string &p) {
        return saveHintBundle(goldenBundle(), p);
    });
    fuzz("hints", {hintsSeed},
         fileDecoder("fuzz.hints",
                     [](const std::string &path) {
                         HintBundle b;
                         if (!loadHintBundle(b, path).ok())
                             return false;
                         VersionedHintBundle v;
                         v.bundle = b;
                         return bundleRoundTrips(v);
                     }),
         500);
    auto vhintsSeed = savedBytes("seed.vhints", [](const std::string &p) {
        return saveVersionedBundle(goldenVersioned(2), p);
    });
    fuzz("vhints", {vhintsSeed},
         fileDecoder("fuzz.vhints",
                     [](const std::string &path) {
                         VersionedHintBundle v;
                         return loadVersionedBundle(v, path).ok() &&
                                bundleRoundTrips(v);
                     }),
         501);
}

TEST(Fuzz, Journal)
{
    std::string seedPath = scratchPath("seed.journal");
    std::remove(seedPath.c_str());
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(seedPath, replayed).ok());
        ASSERT_TRUE(journal.append(goldenVersioned(1)));
        ASSERT_TRUE(journal.append(goldenVersioned(2)));
    }
    Bytes seed = readBytes(seedPath);
    std::remove(seedPath.c_str());

    fuzz("journal", {seed},
         fileDecoder("fuzz.journal",
                     [](const std::string &path) {
                         // A torn or damaged tail is cut, never fatal;
                         // what survives replays again after the
                         // compaction open() performs.
                         HintJournal::RecoveryInfo info;
                         auto replayed = HintJournal::replay(path, &info);
                         for (const auto &v : replayed)
                             bundleRoundTrips(v);
                         std::vector<VersionedHintBundle> opened;
                         {
                             HintJournal journal;
                             EXPECT_TRUE(journal.open(path, opened).ok());
                         }
                         EXPECT_EQ(opened.size(), replayed.size());
                         EXPECT_EQ(HintJournal::replay(path).size(),
                                   replayed.size());
                         std::remove((path + ".tmp").c_str());
                         return info.tailBytesDiscarded == 0 &&
                                replayed.size() == 2;
                     }),
         600);
}

TEST(Fuzz, TraceFiles)
{
    std::vector<Bytes> seeds = {
        savedBytes("seed.whrt",
                   [](const std::string &p) {
                       return goldenTrace(100).save(p);
                   }),
        whrtV1(goldenRecords(30)),
    };
    // Strict load: any damage is an error.
    fuzz("whrt load", seeds,
         fileDecoder("fuzz.whrt",
                     [](const std::string &path) {
                         BranchTrace trace, again;
                         if (!trace.load(path).ok())
                             return false;
                         std::string copy = path + ".copy";
                         EXPECT_TRUE(trace.save(copy));
                         EXPECT_TRUE(again.load(copy).ok());
                         EXPECT_EQ(again.size(), trace.size());
                         std::remove(copy.c_str());
                         return true;
                     }),
         700);
    // Streaming read: damaged frames are skipped, never fatal, and
    // what it delivers is valid trace data.
    fuzz("whrt stream", seeds,
         fileDecoder("fuzz.stream.whrt",
                     [](const std::string &path) {
                         TraceStreamReader reader(path);
                         if (!reader.valid())
                             return false;
                         BranchTrace trace(reader.app(), reader.inputId());
                         std::vector<BranchRecord> chunk;
                         while (reader.readChunk(chunk, 64) > 0) {
                             for (const BranchRecord &rec : chunk)
                                 trace.append(rec);
                         }
                         std::string copy = path + ".copy";
                         BranchTrace again;
                         EXPECT_TRUE(trace.save(copy));
                         EXPECT_TRUE(again.load(copy).ok());
                         std::remove(copy.c_str());
                         return reader.status().ok() &&
                                reader.framesSkipped() == 0;
                     }),
         701);
}
