/**
 * @file
 * Crash-safe write-ahead journal for the versioned hint store.
 *
 * Every accepted deployment (and rollback) is appended as one CRC
 * frame (util/byte_codec) holding the encoded VersionedHintBundle,
 * written with a single fwrite and made durable with fflush+fsync
 * before the append returns. A crash can therefore only ever produce
 * a torn *tail*: on open() the journal replays records until the
 * first one that fails validation, discards everything from there
 * on, and compacts the surviving prefix through a temp file + atomic
 * rename so the file on disk is valid again. whisperd feeds the
 * replayed bundles into HintStore::restore() and resumes from the
 * last intact epoch instead of epoch 0.
 *
 * A torn append observed *in-process* (injected via
 * `truncate-journal`, or a real ENOSPC) is self-healed: the next
 * append first truncates back to the last known-good offset.
 */

#ifndef WHISPER_SERVICE_HINT_JOURNAL_HH
#define WHISPER_SERVICE_HINT_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "util/io_status.hh"

namespace whisper
{

/** Append-only journal of deployed hint-bundle generations. */
class HintJournal
{
  public:
    static constexpr uint32_t kFileMagic = 0x57484A4C;   // "WHJL"
    static constexpr uint32_t kRecordMagic = 0x574A5243; // "WJRC"
    static constexpr uint32_t kVersion = 1;
    /** Cap on one record's payload size (bounds allocations). */
    static constexpr uint32_t kMaxPayload = 1u << 26;

    /** What open()/replay() found on disk. */
    struct RecoveryInfo
    {
        size_t recordsRecovered = 0;
        size_t tailBytesDiscarded = 0; //!< torn/corrupt tail dropped
        bool compacted = false;        //!< file was rewritten clean
    };

    HintJournal() = default;
    ~HintJournal();
    HintJournal(const HintJournal &) = delete;
    HintJournal &operator=(const HintJournal &) = delete;

    /**
     * Open @p path (creating it when absent), replay the valid
     * record prefix into @p out, discard any torn/corrupt tail
     * (compacting via temp file + atomic rename when one is found),
     * and stay open for appends.
     */
    IoStatus open(const std::string &path,
                  std::vector<VersionedHintBundle> &out,
                  RecoveryInfo *info = nullptr);

    /**
     * Durably append one deployed generation: single fwrite of the
     * framed record, then fflush+fsync. @return false when the write
     * failed (the journal truncates back to the last good offset on
     * the next append, so one failure never poisons the file).
     */
    bool append(const VersionedHintBundle &bundle);

    void close();

    uint64_t appendFailures() const { return appendFailures_; }
    uint64_t repairs() const { return repairs_; }

    /** Read-only replay of @p path's valid record prefix. */
    static std::vector<VersionedHintBundle>
    replay(const std::string &path, RecoveryInfo *info = nullptr);

  private:
    std::FILE *file_ = nullptr;
    /** End of the last fully validated/durable record. */
    long goodOffset_ = 0;
    /** A previous append tore; truncate before the next one. */
    bool repairPending_ = false;
    uint64_t appends_ = 0;
    uint64_t appendFailures_ = 0;
    uint64_t repairs_ = 0;
};

} // namespace whisper

#endif // WHISPER_SERVICE_HINT_JOURNAL_HH
