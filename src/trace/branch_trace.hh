/**
 * @file
 * Materialized branch trace with binary (de)serialization.
 */

#ifndef WHISPER_TRACE_BRANCH_TRACE_HH
#define WHISPER_TRACE_BRANCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/branch_record.hh"
#include "trace/branch_source.hh"
#include "util/byte_codec.hh"
#include "util/io_status.hh"

namespace whisper
{

/**
 * An in-memory branch trace.
 *
 * Stores the full record sequence plus identifying metadata (the
 * application name and input id the trace was collected from).
 */
class BranchTrace
{
  public:
    /** A .whrt file is a TraceHeader and the record array: in v2
     * as kFrame CRC frames, so damage stays local to one frame; v1
     * (one raw array) is still read. */
    static constexpr uint32_t kFileMagic = 0x57485254; // "WHRT"
    static constexpr uint32_t kFileVersion = 2;
    static constexpr uint32_t kFrameMagic = 0x57484652; // "WHFR"
    /** Upper bound a reader accepts for one frame's record count —
     * turns hostile length fields into errors, not allocations. */
    static constexpr uint32_t kMaxFrameRecords = 1u << 20;
    /** Frame granularity save() uses. */
    static constexpr uint32_t kDefaultFrameRecords = 16'384;
    static constexpr FrameFormat kFrame{kFrameMagic, false,
                                        sizeof(BranchRecord),
                                        kMaxFrameRecords, false};

    BranchTrace() = default;
    BranchTrace(std::string app, uint32_t inputId)
        : app_(std::move(app)), inputId_(inputId)
    {
    }

    void
    append(const BranchRecord &rec)
    {
        records_.push_back(rec);
        instructions_ += rec.instGap + 1;
        if (rec.isConditional())
            ++conditionals_;
    }

    /** Drain @p source (up to @p maxRecords) into this trace. */
    void fill(BranchSource &source, uint64_t maxRecords);

    size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const BranchRecord &operator[](size_t i) const { return records_[i]; }

    /** Total retired instructions represented by the trace. */
    uint64_t instructions() const { return instructions_; }
    /** Number of conditional-branch records. */
    uint64_t conditionals() const { return conditionals_; }

    const std::string &app() const { return app_; }
    uint32_t inputId() const { return inputId_; }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    /** Binary round-trip. save() overwrites @p path and returns
     * false on I/O failure; load() replaces the current contents and
     * reports missing-vs-corrupt through its IoStatus. */
    bool save(const std::string &path) const;
    IoStatus load(const std::string &path);

  private:
    std::string app_;
    uint32_t inputId_ = 0;
    std::vector<BranchRecord> records_;
    uint64_t instructions_ = 0;
    uint64_t conditionals_ = 0;
};

/** The .whrt header, parsed the same way by every reader. */
struct TraceHeader
{
    /** Largest encoded header: fixed fields plus the longest name. */
    static constexpr size_t kMaxBytes = 24 + ByteReader::kMaxString;

    uint32_t version = BranchTrace::kFileVersion;
    std::string app;
    uint32_t inputId = 0;
    uint64_t records = 0; //!< record count the header claims

    void put(ByteWriter &w) const;
    /** @return nullptr, or why the header is rejected. */
    const char *get(ByteReader &r);
};

/** Do raw decoded records hold only field values an encoder writes
 * (a known kind, taken 0 or 1)? Checked without loading the fields,
 * so a hostile byte is an error instead of undefined behaviour. */
bool validRecords(const BranchRecord *records, size_t n);

/** Zero the tail padding of @p n records encoded at @p bytes, so
 * identical records encode to identical bytes and no uninitialized
 * memory leaves the process. */
void zeroRecordPadding(unsigned char *bytes, size_t n);

/** BranchSource view over a materialized trace. */
class TraceSource : public BranchSource
{
  public:
    explicit TraceSource(const BranchTrace &trace) : trace_(trace) {}

    bool
    next(BranchRecord &rec) override
    {
        if (pos_ >= trace_.size())
            return false;
        rec = trace_[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

  private:
    const BranchTrace &trace_;
    size_t pos_ = 0;
};

/**
 * BranchSource adaptor that truncates an underlying source after a
 * fixed number of records (used for warm-up/length sweeps).
 */
class LimitSource : public BranchSource
{
  public:
    LimitSource(BranchSource &inner, uint64_t limit)
        : inner_(inner), limit_(limit)
    {
    }

    bool
    next(BranchRecord &rec) override
    {
        if (produced_ >= limit_)
            return false;
        if (!inner_.next(rec))
            return false;
        ++produced_;
        return true;
    }

    void
    rewind() override
    {
        inner_.rewind();
        produced_ = 0;
    }

  private:
    BranchSource &inner_;
    uint64_t limit_;
    uint64_t produced_ = 0;
};

} // namespace whisper

#endif // WHISPER_TRACE_BRANCH_TRACE_HH
