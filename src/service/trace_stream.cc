#include "service/trace_stream.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "service/fault_injection.hh"

namespace whisper
{

TraceStreamReader::TraceStreamReader(const std::string &path)
    : path_(path), file_(std::fopen(path.c_str(), "rb"))
{
    if (!file_) {
        status_ = IoStatus::missingFile(path);
        return;
    }
    unsigned char buf[TraceHeader::kMaxBytes];
    ByteReader r(buf, std::fread(buf, 1, sizeof(buf), file_));
    const char *why = header_.get(r);
    if (!why && std::fseek(file_, static_cast<long>(r.position()),
                           SEEK_SET) != 0) {
        why = "unseekable file";
    }
    if (why) {
        std::fclose(file_);
        file_ = nullptr;
        status_ = IoStatus::corruptFile(path_, why);
    }
}

TraceStreamReader::~TraceStreamReader()
{
    if (file_)
        std::fclose(file_);
}

size_t
TraceStreamReader::readWithRetry(void *p, size_t n)
{
    auto *dst = static_cast<unsigned char *>(p);
    size_t got = 0;
    unsigned attempt = 0;
    while (got < n) {
        bool injectedFailure = FaultInjector::instance().failRead();
        if (!injectedFailure) {
            got += std::fread(dst + got, 1, n - got, file_);
            if (got == n)
                break;
            if (std::feof(file_))
                return got; // real end of data: no retry helps
            std::clearerr(file_);
        }
        if (++attempt > kMaxReadRetries)
            return got;
        // Transient error (EINTR, EAGAIN on a network fs, injected):
        // back off exponentially and try again from where we were.
        ++readRetries_;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1u << std::min(attempt, 5u)));
    }
    return got;
}

void
TraceStreamReader::finishStream(bool corrupt)
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    // Records the header promised but we never delivered were lost
    // to skipped/torn frames; keep whichever count is larger (frame
    // counts are exact, the header remainder covers torn tails).
    if (header_.records > recordsRead_) {
        recordsSkipped_ = std::max(recordsSkipped_,
                                   header_.records - recordsRead_);
    }
    if (corrupt && status_.ok())
        status_ = IoStatus::corruptFile(path_, "truncated record "
                                               "array");
}

bool
TraceStreamReader::resyncToFrameMagic(long from)
{
    // Overlapping block reads, so a magic spanning a block boundary
    // is still found.
    long pos = from;
    const long limit = pos + static_cast<long>(kResyncWindowBytes);
    unsigned char buf[4096];
    while (pos < limit) {
        if (std::fseek(file_, pos, SEEK_SET) != 0)
            return false;
        size_t r = readWithRetry(buf, sizeof(buf));
        if (r < sizeof(uint32_t))
            return false; // hit EOF without finding another frame
        for (size_t i = 0; i + sizeof(uint32_t) <= r; ++i) {
            uint32_t v = 0;
            std::memcpy(&v, buf + i, sizeof(v));
            if (v == BranchTrace::kFrameMagic) {
                std::fseek(file_, pos + static_cast<long>(i),
                           SEEK_SET);
                return true;
            }
        }
        pos += static_cast<long>(r) - 3;
    }
    return false;
}

bool
TraceStreamReader::loadNextFrame()
{
    constexpr const FrameFormat &kFrame = BranchTrace::kFrame;
    framePos_ = 0;
    for (;;) {
        frame_.clear(); // never serve a damaged frame
        long start = std::ftell(file_);
        unsigned char raw[kFrame.headerBytes()];
        size_t got = readWithRetry(raw, sizeof(raw));
        FrameHeader h;
        FrameStatus st = readFrameHeader(kFrame, raw, got, h);
        if (got == 0)
            return false; // clean EOF
        if (st == FrameStatus::Short) {
            ++framesSkipped_; // torn tail
            return false;
        }
        if (st != FrameStatus::Ok) {
            // Damaged magic or a hostile/smashed length field: never
            // allocate it, scan for the next frame instead.
            ++framesSkipped_;
            if (start < 0 || !resyncToFrameMagic(start + 1))
                return false;
            continue;
        }

        frame_.resize(h.length);
        bool torn = readWithRetry(frame_.data(), h.payloadBytes) !=
                    h.payloadBytes;
        if (!torn)
            FaultInjector::instance().corruptFrame(frame_.data(),
                                                   h.payloadBytes);
        if (!torn && frameCrcOk(h, frame_.data()) &&
            validRecords(frame_.data(), frame_.size())) {
            return true;
        }
        // Bit rot or an overwritten frame: drop it and keep going; a
        // torn payload is the end of the stream.
        ++framesSkipped_;
        recordsSkipped_ += h.length;
        if (torn) {
            frame_.clear();
            return false;
        }
    }
}

size_t
TraceStreamReader::readChunk(std::vector<BranchRecord> &out,
                             size_t maxRecords)
{
    out.clear();
    if (!file_ || maxRecords == 0)
        return 0;

    if (header_.version == 1) {
        // Legacy raw array: bounded read, short or invalid = corrupt.
        if (recordsRead_ >= header_.records) {
            finishStream(false);
            return 0;
        }
        size_t want = static_cast<size_t>(std::min<uint64_t>(
            maxRecords, header_.records - recordsRead_));
        out.resize(want);
        size_t got = std::fread(out.data(), sizeof(BranchRecord),
                                want, file_);
        out.resize(validRecords(out.data(), got) ? got : 0);
        recordsRead_ += out.size();
        if (out.size() < want)
            finishStream(true);
        return out.size();
    }

    while (out.size() < maxRecords) {
        if (framePos_ >= frame_.size()) {
            if (!loadNextFrame()) {
                if (out.empty())
                    finishStream(false);
                break;
            }
        }
        size_t take = std::min(maxRecords - out.size(),
                               frame_.size() - framePos_);
        out.insert(out.end(), frame_.begin() + framePos_,
                   frame_.begin() + framePos_ + take);
        framePos_ += take;
    }
    recordsRead_ += out.size();
    return out.size();
}

ChunkIngestor::ChunkIngestor(std::vector<std::string> files,
                             size_t chunkRecords,
                             BoundedQueue<TraceChunk> &queue,
                             std::atomic<uint64_t> &sequence)
    : files_(std::move(files)), chunkRecords_(chunkRecords),
      queue_(queue), sequence_(sequence)
{
    whisper_assert(chunkRecords_ > 0);
}

ChunkIngestor::~ChunkIngestor()
{
    if (thread_.joinable())
        thread_.join();
}

void
ChunkIngestor::start()
{
    whisper_assert(!thread_.joinable(), "ingestor already started");
    thread_ = std::thread([this] { produce(); });
}

void
ChunkIngestor::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
ChunkIngestor::produce()
{
    for (const std::string &file : files_) {
        TraceStreamReader reader(file);
        if (!reader.valid()) {
            errors_.push_back(reader.status().message);
            continue;
        }
        TraceChunk chunk;
        while (reader.readChunk(chunk.records, chunkRecords_) > 0) {
            chunk.sequence =
                sequence_.fetch_add(1, std::memory_order_relaxed);
            chunk.app = reader.app();
            chunk.inputId = reader.inputId();
            chunk.sourceFile = file;
            recordsIngested_ += chunk.records.size();
            if (!queue_.push(std::move(chunk))) {
                framesSkipped_ += reader.framesSkipped();
                recordsSkipped_ += reader.recordsSkipped();
                readRetries_ += reader.readRetries();
                return; // queue closed under us: stop producing
            }
            chunk = TraceChunk{};
        }
        framesSkipped_ += reader.framesSkipped();
        recordsSkipped_ += reader.recordsSkipped();
        readRetries_ += reader.readRetries();
        if (!reader.status().ok())
            errors_.push_back(reader.status().message);
        else
            ++filesIngested_;
    }
}

std::vector<std::string>
ChunkIngestor::listTraceFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".whrt") {
            files.push_back(entry.path().string());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace whisper
