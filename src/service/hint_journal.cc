#include "service/hint_journal.hh"

#include <unistd.h>

#include "service/fault_injection.hh"
#include "util/byte_codec.hh"
#include "util/logging.hh"

namespace whisper
{

namespace
{

constexpr FrameFormat kRecordFrame{HintJournal::kRecordMagic, false, 1,
                                   HintJournal::kMaxPayload, false};

/** What a journal file holds: its valid record prefix. */
struct Replayed
{
    bool headerOk = false; //!< file magic and version matched
    std::vector<VersionedHintBundle> bundles;
    HintJournal::RecoveryInfo info;
};

Replayed
replayFile(const std::string &path)
{
    Replayed out;
    std::vector<unsigned char> bytes;
    readFile(path, bytes); // a missing file replays as empty
    ByteReader r(bytes);
    out.headerOk = r.u32() == HintJournal::kFileMagic &&
                   r.u32() == HintJournal::kVersion && r.ok();
    // Records replay until the first one that is torn, damaged or
    // undecodable; everything from there on is the tail to cut.
    size_t validEnd = out.headerOk ? r.position() : 0;
    while (out.headerOk && r.remaining() > 0) {
        FrameHeader h;
        const unsigned char *payload = r.frame(kRecordFrame, h);
        VersionedHintBundle bundle;
        if (!payload || !decodeVersionedBundle(bundle, payload, h.length))
            break;
        out.bundles.push_back(std::move(bundle));
        validEnd = r.position();
    }
    out.info = {out.bundles.size(), bytes.size() - validEnd, false};
    return out;
}

void
putRecord(ByteWriter &w, const VersionedHintBundle &bundle)
{
    size_t mark = w.beginFrame(kRecordFrame);
    std::vector<unsigned char> payload = encodeVersionedBundle(bundle);
    w.bytes(payload.data(), payload.size());
    w.endFrame(kRecordFrame, mark);
}

bool
syncFile(std::FILE *f)
{
    return std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
}

} // namespace

HintJournal::~HintJournal()
{
    close();
}

void
HintJournal::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

IoStatus
HintJournal::open(const std::string &path,
                  std::vector<VersionedHintBundle> &out,
                  RecoveryInfo *info)
{
    close();
    Replayed replayed = replayFile(path);
    out = std::move(replayed.bundles);
    RecoveryInfo local = replayed.info;

    // Anything but a clean header plus whole records (including no
    // file yet, or an empty one) is rewritten from the surviving
    // prefix through a temp file and an atomic rename, so a crash
    // during compaction leaves either the old file or the new one —
    // never a half-written hybrid.
    if (!replayed.headerOk || local.tailBytesDiscarded > 0) {
        ByteWriter w;
        w.u32(kFileMagic);
        w.u32(kVersion);
        for (const VersionedHintBundle &bundle : out)
            putRecord(w, bundle);
        std::string tmp = path + ".tmp";
        std::FILE *nf = std::fopen(tmp.c_str(), "wb");
        if (!nf)
            return IoStatus::missingFile(tmp);
        bool ok = std::fwrite(w.data(), 1, w.size(), nf) == w.size() &&
                  syncFile(nf);
        std::fclose(nf);
        if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::remove(tmp.c_str());
            return IoStatus::corruptFile(path,
                                         "journal compaction failed");
        }
        local.compacted = true;
    }

    file_ = std::fopen(path.c_str(), "r+b");
    if (!file_)
        return IoStatus::missingFile(path);
    std::fseek(file_, 0, SEEK_END);
    goodOffset_ = std::ftell(file_);
    repairPending_ = false;
    if (info)
        *info = local;
    return IoStatus::okStatus();
}

bool
HintJournal::append(const VersionedHintBundle &bundle)
{
    if (!file_)
        return false;

    if (repairPending_) {
        // A previous append tore; cut the file back to the last
        // durable record before writing anything new.
        if (::ftruncate(::fileno(file_), goodOffset_) != 0) {
            ++appendFailures_;
            return false;
        }
        std::fseek(file_, goodOffset_, SEEK_SET);
        repairPending_ = false;
        ++repairs_;
    }

    ByteWriter record;
    putRecord(record, bundle);
    uint64_t index = appends_++;

    size_t toWrite = record.size();
    if (FaultInjector::instance().journalWritePlan(index) ==
        FaultInjector::WritePlan::Torn) {
        toWrite = record.size() / 2; // simulate a torn write
    }

    size_t wrote = std::fwrite(record.data(), 1, toWrite, file_);
    bool ok = wrote == record.size() && syncFile(file_);
    if (!ok) {
        std::fflush(file_);
        ++appendFailures_;
        repairPending_ = true;
        whisper_warn("hint journal: torn write on append ", index,
                     " (", wrote, "/", record.size(),
                     " bytes); will repair");
        return false;
    }
    goodOffset_ += static_cast<long>(record.size());
    return true;
}

std::vector<VersionedHintBundle>
HintJournal::replay(const std::string &path, RecoveryInfo *info)
{
    Replayed replayed = replayFile(path);
    if (info)
        *info = replayed.info;
    return std::move(replayed.bundles);
}

} // namespace whisper
