/**
 * @file
 * Streaming trace ingest for whisperd.
 *
 * The offline tools load whole .whrt traces into memory; a
 * continuously profiling service cannot. TraceStreamReader walks a
 * trace file in bounded chunks, and ChunkIngestor runs a producer
 * thread over a directory of trace files (sorted by name, so file
 * naming encodes the drift sequence) feeding a BoundedQueue of
 * TraceChunks.
 *
 * The reader is hardened against the inputs production actually
 * delivers: a v2 frame that fails its CRC (bit rot, torn write,
 * fault injection) is skipped and counted, a damaged frame header
 * triggers a bounded resync scan for the next frame magic, and
 * transient short reads are retried with exponential backoff.
 */

#ifndef WHISPER_SERVICE_TRACE_STREAM_HH
#define WHISPER_SERVICE_TRACE_STREAM_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "service/bounded_queue.hh"
#include "trace/branch_record.hh"
#include "trace/branch_source.hh"
#include "trace/branch_trace.hh"
#include "util/io_status.hh"

namespace whisper
{

/** One bounded slice of a trace file, the service's unit of work. */
struct TraceChunk
{
    uint64_t sequence = 0;    //!< global arrival index
    std::string app;          //!< application the trace came from
    uint32_t inputId = 0;     //!< workload input id
    std::string sourceFile;   //!< originating .whrt path
    std::vector<BranchRecord> records;
};

/** BranchSource view over a chunk's record array. */
class ChunkSource : public BranchSource
{
  public:
    explicit ChunkSource(const std::vector<BranchRecord> &records)
        : records_(records)
    {
    }

    bool
    next(BranchRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

  private:
    const std::vector<BranchRecord> &records_;
    size_t pos_ = 0;
};

/**
 * Incremental .whrt reader: parses the header eagerly, then returns
 * records in caller-sized chunks so memory stays bounded no matter
 * how large the trace file is. Reads both format versions (raw v1,
 * CRC-framed v2); damaged v2 frames are skipped and counted.
 */
class TraceStreamReader
{
  public:
    /** Bytes scanned past a damaged frame header looking for the
     * next frame magic before giving up on the file. */
    static constexpr size_t kResyncWindowBytes = 4u << 20;
    /** Transient-read retries before the error counts as hard. */
    static constexpr unsigned kMaxReadRetries = 4;

    explicit TraceStreamReader(const std::string &path);
    ~TraceStreamReader();

    TraceStreamReader(const TraceStreamReader &) = delete;
    TraceStreamReader &operator=(const TraceStreamReader &) = delete;

    /** Header parsed and magic/version verified. */
    bool valid() const { return file_ != nullptr; }
    /** Why the header was rejected (missing vs corrupt). */
    const IoStatus &status() const { return status_; }

    const std::string &app() const { return header_.app; }
    uint32_t inputId() const { return header_.inputId; }
    /** Records the header promises. */
    uint64_t recordsTotal() const { return header_.records; }

    /** Damaged frames dropped (CRC mismatch, bad header, torn
     * tail). */
    uint64_t framesSkipped() const { return framesSkipped_; }
    /** Records lost to dropped frames. */
    uint64_t recordsSkipped() const { return recordsSkipped_; }
    /** Transient read errors that were retried. */
    uint64_t readRetries() const { return readRetries_; }

    /**
     * Read up to @p maxRecords into @p out (replacing its contents).
     * @return number of records delivered; 0 at end of stream.
     * Damaged v2 frames are skipped (see framesSkipped()); a short
     * v1 file (fewer records than the header claimed) invalidates
     * the reader.
     */
    size_t readChunk(std::vector<BranchRecord> &out,
                     size_t maxRecords);

  private:
    /** Buffer the next valid v2 frame in frame_, skipping damaged
     * ones. @return false at the end of the stream. */
    bool loadNextFrame();
    /** Scan forward from @p from for the next frame magic and seek
     * to it. @return false at EOF or past kResyncWindowBytes. */
    bool resyncToFrameMagic(long from);
    /** fread with bounded retry/backoff on transient errors; returns
     * bytes actually read (< @p n only on EOF or hard error). */
    size_t readWithRetry(void *p, size_t n);
    void finishStream(bool corrupt);

    std::string path_;
    std::FILE *file_ = nullptr;
    IoStatus status_;
    TraceHeader header_;
    uint64_t recordsRead_ = 0;

    std::vector<BranchRecord> frame_; //!< validated v2 frame buffer
    size_t framePos_ = 0;

    uint64_t framesSkipped_ = 0;
    uint64_t recordsSkipped_ = 0;
    uint64_t readRetries_ = 0;
};

/**
 * Producer side of the ingest pipeline: streams every trace file of
 * a directory, in name order, as TraceChunks into a shared queue.
 * Several ingestors may feed one queue (MPSC); each runs one thread.
 */
class ChunkIngestor
{
  public:
    /**
     * @param chunkRecords chunk granularity (records per chunk)
     * @param queue destination; NOT closed by the ingestor (the
     *        coordinator closes it once all producers joined)
     * @param sequence shared arrival counter for deterministic chunk
     *        numbering across producers (may be shared or private)
     */
    ChunkIngestor(std::vector<std::string> files, size_t chunkRecords,
                  BoundedQueue<TraceChunk> &queue,
                  std::atomic<uint64_t> &sequence);
    ~ChunkIngestor();

    /** Spawn the producer thread. */
    void start();
    /** Wait for the producer to finish its file list. */
    void join();

    uint64_t filesIngested() const { return filesIngested_; }
    uint64_t recordsIngested() const { return recordsIngested_; }
    /** Damaged frames skipped across all files. */
    uint64_t framesSkipped() const { return framesSkipped_; }
    /** Records lost to skipped frames across all files. */
    uint64_t recordsSkipped() const { return recordsSkipped_; }
    /** Transient read errors retried across all files. */
    uint64_t readRetries() const { return readRetries_; }
    /** Files that failed to open/parse, with the reason (missing vs
     * corrupt header vs truncated body). */
    const std::vector<std::string> &errors() const { return errors_; }

    /** All .whrt files directly inside @p dir, sorted by name. */
    static std::vector<std::string>
    listTraceFiles(const std::string &dir);

  private:
    void produce();

    std::vector<std::string> files_;
    size_t chunkRecords_;
    BoundedQueue<TraceChunk> &queue_;
    std::atomic<uint64_t> &sequence_;
    std::thread thread_;

    uint64_t filesIngested_ = 0;
    uint64_t recordsIngested_ = 0;
    uint64_t framesSkipped_ = 0;
    uint64_t recordsSkipped_ = 0;
    uint64_t readRetries_ = 0;
    std::vector<std::string> errors_;
};

} // namespace whisper

#endif // WHISPER_SERVICE_TRACE_STREAM_HH
