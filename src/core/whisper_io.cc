#include "core/whisper_io.hh"

#include "util/byte_codec.hh"

namespace whisper
{

namespace
{

constexpr uint32_t kProfileMagic = 0x57485052; // "WHPR"
constexpr uint32_t kHintMagic = 0x57484E54;    // "WHNT"
constexpr uint32_t kEpochMagic = 0x57484550;   // "WHEP"
constexpr uint32_t kVersion = 1;

/** Hard caps on untrusted length fields (counts, not bytes); the
 * reader also bounds every count by the bytes that remain. */
constexpr uint64_t kMaxHints = 1ULL << 24;
constexpr uint64_t kMaxBranches = 1ULL << 32;
constexpr unsigned kMaxHashWidth = 20;

/** Encoded sizes: the minimum bytes one element occupies. */
constexpr size_t kHintBytes = 8 + 8 + 4 + 8 + 8 + 8;
constexpr size_t kPlacementBytes = 8 + 8 + 8 + 8 + 8;
constexpr size_t kEntryBytes = 8 + 8 + 8 + 8 + 1;

void
putSampleTable(ByteWriter &w, const HashedSampleTable &t)
{
    for (const std::vector<uint32_t> *v : {&t.taken, &t.notTaken}) {
        w.u64(v->size());
        w.bytes(v->data(), v->size() * sizeof(uint32_t));
    }
}

/** A table must have exactly the 2^keyBits cells markHard() gives
 * it; any other size would index out of bounds in training. */
void
getSampleTable(ByteReader &r, HashedSampleTable &t, unsigned keyBits)
{
    for (std::vector<uint32_t> *v : {&t.taken, &t.notTaken}) {
        if (r.count(1ULL << keyBits, sizeof(uint32_t)) != 1ULL << keyBits)
            r.fail();
        v->resize(r.ok() ? 1ULL << keyBits : 0);
        r.bytes(v->data(), v->size() * sizeof(uint32_t));
    }
}

void
putBundleBody(ByteWriter &w, const HintBundle &bundle)
{
    w.reserve(w.size() + 16 + bundle.hints.size() * kHintBytes +
              bundle.placements.size() * kPlacementBytes);
    w.u64(bundle.hints.size());
    for (const auto &h : bundle.hints) {
        w.u64(h.pc);
        w.u64(h.hint.encode());
        w.u32(h.historyLength);
        w.u64(h.expectedMispredicts);
        w.u64(h.profiledMispredicts);
        w.u64(h.executions);
    }
    w.u64(bundle.placements.size());
    for (const auto &p : bundle.placements) {
        w.u64(p.branchPc);
        w.u64(p.predecessorPc);
        w.f64(p.coverage);
        w.f64(p.precision);
        w.u64(p.predecessorExecutions);
    }
}

/** Read a bundle body; a damaged one poisons @p r. */
void
getBundleBody(ByteReader &r, HintBundle &bundle)
{
    bundle.hints.resize(r.count(kMaxHints, kHintBytes));
    for (auto &h : bundle.hints) {
        h.pc = r.u64();
        uint64_t encoded = r.u64();
        if (!BrHint::isValidEncoding(encoded)) {
            r.fail();
            return;
        }
        h.hint = BrHint::decode(encoded);
        h.historyLength = r.u32();
        h.expectedMispredicts = r.u64();
        h.profiledMispredicts = r.u64();
        h.executions = r.u64();
    }
    bundle.placements.resize(r.count(kMaxHints, kPlacementBytes));
    for (auto &p : bundle.placements) {
        p.branchPc = r.u64();
        p.predecessorPc = r.u64();
        p.coverage = r.f64();
        p.precision = r.f64();
        p.predecessorExecutions = r.u64();
    }
}

void
putVersioned(ByteWriter &w, const VersionedHintBundle &bundle)
{
    w.u64(bundle.epoch);
    w.f64(bundle.validationAccuracy);
    putBundleBody(w, bundle.bundle);
}

void
getVersioned(ByteReader &r, VersionedHintBundle &bundle)
{
    bundle.epoch = r.u64();
    bundle.validationAccuracy = r.f64();
    getBundleBody(r, bundle.bundle);
}

/** Write magic, version and @p body to @p path. */
template <typename Body>
bool
saveArtifact(const std::string &path, uint32_t magic, Body body)
{
    ByteWriter w;
    w.u32(magic);
    w.u32(kVersion);
    body(w);
    return writeFile(path, w.data(), w.size());
}

/** Read @p path: magic and version, then @p body into a fresh T that
 * replaces @p out only once every byte of the file has decoded. The
 * body returns nullptr or why the file is damaged. */
template <typename T, typename Body>
IoStatus
loadArtifact(const std::string &path, uint32_t magic, const char *what,
             T &out, Body body)
{
    std::vector<unsigned char> bytes;
    if (IoStatus st = readFile(path, bytes); !st)
        return st;
    ByteReader r(bytes);
    uint32_t gotMagic = r.u32();
    uint32_t version = r.u32();
    if (!r.ok() || gotMagic != magic)
        return IoStatus::corruptFile(
            path, std::string("bad magic (not a ") + what + ")");
    if (version != kVersion)
        return IoStatus::corruptFile(
            path, std::string("unsupported ") + what + " version");
    T loaded;
    const char *why = body(r, loaded);
    if (!why && !r.done())
        why = "truncated or damaged";
    if (why)
        return IoStatus::corruptFile(path, std::string(what) + ": " + why);
    out = std::move(loaded);
    return IoStatus::okStatus();
}

} // namespace

bool
saveProfile(const BranchProfile &profile, const std::string &path)
{
    return saveArtifact(path, kProfileMagic, [&](ByteWriter &w) {
        const WhisperConfig &cfg = profile.config();
        w.u32(cfg.minHistoryLength);
        w.u32(cfg.maxHistoryLength);
        w.u32(cfg.numHistoryLengths);
        w.u32(cfg.hashWidth);
        w.u64(profile.totalInstructions);
        w.u64(profile.totalConditionals);
        w.u64(profile.totalMispredicts);
        w.u64(profile.numBranches());
        for (const auto &[pc, e] : profile.entries()) {
            w.u64(e.pc);
            w.u64(e.executions);
            w.u64(e.takenCount);
            w.u64(e.baselineMispredicts);
            w.u8(e.hard);
            if (e.hard) {
                for (const auto &table : e.byLength)
                    putSampleTable(w, table);
                putSampleTable(w, e.raw4);
                putSampleTable(w, e.raw8);
            }
        }
    });
}

IoStatus
loadProfile(BranchProfile &profile, const std::string &path)
{
    return loadArtifact(path, kProfileMagic, "profile", profile,
                        [](ByteReader &r, BranchProfile &loaded)
                            -> const char * {
        WhisperConfig cfg;
        cfg.minHistoryLength = r.u32();
        cfg.maxHistoryLength = r.u32();
        cfg.numHistoryLengths = r.u32();
        cfg.hashWidth = r.u32();
        if (!r.ok() || cfg.numHistoryLengths < 2 ||
            cfg.numHistoryLengths > 16 || cfg.minHistoryLength < 1 ||
            cfg.minHistoryLength >= cfg.maxHistoryLength ||
            cfg.hashWidth > kMaxHashWidth) {
            return "implausible config";
        }
        loaded = BranchProfile(cfg);
        loaded.totalInstructions = r.u64();
        loaded.totalConditionals = r.u64();
        loaded.totalMispredicts = r.u64();
        uint64_t numBranches = r.count(kMaxBranches, kEntryBytes);
        for (uint64_t i = 0; i < numBranches && r.ok(); ++i) {
            uint64_t pc = r.u64();
            if (loaded.find(pc)) // a saved profile has one entry per PC
                return "duplicate branch entry";
            BranchProfileEntry &e = loaded.entry(pc);
            e.executions = r.u64();
            e.takenCount = r.u64();
            e.baselineMispredicts = r.u64();
            e.hard = r.u8() != 0;
            if (!e.hard)
                continue;
            // Read in place of markHard()'s zeroed tables, so nothing
            // is allocated before its bytes are known to exist.
            e.byLength.resize(loaded.lengths().size());
            for (auto &table : e.byLength)
                getSampleTable(r, table, cfg.hashWidth);
            getSampleTable(r, e.raw4, 4);
            getSampleTable(r, e.raw8, 8);
        }
        return nullptr;
    });
}

bool
saveHintBundle(const HintBundle &bundle, const std::string &path)
{
    return saveArtifact(path, kHintMagic, [&](ByteWriter &w) {
        putBundleBody(w, bundle);
    });
}

IoStatus
loadHintBundle(HintBundle &bundle, const std::string &path)
{
    return loadArtifact(path, kHintMagic, "hint bundle", bundle,
                        [](ByteReader &r, HintBundle &loaded) {
                            getBundleBody(r, loaded);
                            return nullptr;
                        });
}

bool
saveVersionedBundle(const VersionedHintBundle &bundle,
                    const std::string &path)
{
    return saveArtifact(path, kEpochMagic, [&](ByteWriter &w) {
        putVersioned(w, bundle);
    });
}

IoStatus
loadVersionedBundle(VersionedHintBundle &bundle,
                    const std::string &path)
{
    return loadArtifact(path, kEpochMagic, "versioned bundle", bundle,
                        [](ByteReader &r, VersionedHintBundle &loaded) {
                            getVersioned(r, loaded);
                            return nullptr;
                        });
}

std::vector<unsigned char>
encodeVersionedBundle(const VersionedHintBundle &bundle)
{
    ByteWriter w;
    putVersioned(w, bundle);
    return w.take();
}

bool
decodeVersionedBundle(VersionedHintBundle &bundle,
                      const unsigned char *data, size_t size)
{
    ByteReader r(data, size);
    VersionedHintBundle loaded;
    getVersioned(r, loaded);
    if (!r.done())
        return false;
    bundle = std::move(loaded);
    return true;
}

} // namespace whisper
