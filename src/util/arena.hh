/**
 * @file
 * Monotonic (bump-pointer) arena and a matching STL allocator.
 *
 * The sharded trace runner burns its time in tiny, identically-sized
 * scratch allocations made once per evaluation window per worker.
 * A monotonic arena turns each of those into a pointer bump: blocks
 * are grabbed from the heap in coarse chunks, handed out linearly,
 * and recycled wholesale by reset() — no per-allocation free, no
 * allocator lock contention between workers (each worker owns its
 * own arena).
 */

#ifndef WHISPER_UTIL_ARENA_HH
#define WHISPER_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/logging.hh"

namespace whisper
{

/**
 * Bump-pointer arena with block recycling.
 *
 * allocate() never frees; reset() rewinds to the first block and
 * reuses every block already acquired, so a steady-state caller
 * (reset per window, same allocation pattern each window) stops
 * touching the heap entirely after the first window.
 */
class MonotonicArena
{
  public:
    /** @param blockBytes granularity of heap requests; allocations
     *  larger than this get a dedicated block of their exact size. */
    explicit MonotonicArena(size_t blockBytes = 64 * 1024)
        : blockBytes_(blockBytes)
    {
        whisper_assert(blockBytes_ > 0);
    }

    MonotonicArena(const MonotonicArena &) = delete;
    MonotonicArena &operator=(const MonotonicArena &) = delete;
    MonotonicArena(MonotonicArena &&) = default;
    MonotonicArena &operator=(MonotonicArena &&) = default;

    /** Aligned bump allocation. @p align must be a power of two. */
    void *
    allocate(size_t bytes, size_t align = alignof(std::max_align_t))
    {
        whisper_assert(align > 0 && (align & (align - 1)) == 0);
        if (bytes == 0)
            bytes = 1;
        for (;;) {
            if (cur_ < blocks_.size()) {
                Block &b = blocks_[cur_];
                // Align the address, not the offset: new[] only
                // guarantees the block base is max_align_t-aligned.
                uintptr_t base =
                    reinterpret_cast<uintptr_t>(b.data.get());
                size_t at = ((base + offset_ + align - 1) & ~(align - 1)) -
                            base;
                if (at + bytes <= b.size) {
                    offset_ = at + bytes;
                    used_ += bytes;
                    return b.data.get() + at;
                }
                // Block exhausted: move on (the remainder is waste,
                // bounded by one allocation per block).
                ++cur_;
                offset_ = 0;
                continue;
            }
            // Out of recycled blocks — grow. Oversized requests get
            // an exact-fit block so blockBytes_ stays a granularity
            // hint, not a limit.
            size_t sz = bytes + align > blockBytes_ ? bytes + align
                                                    : blockBytes_;
            blocks_.push_back(Block{
                std::unique_ptr<unsigned char[]>(
                    new unsigned char[sz]),
                sz});
        }
    }

    /** Typed convenience: space for @p n objects of T (no ctor). */
    template <typename T>
    T *
    allocateArray(size_t n)
    {
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /** Rewind to the start, keeping every block for reuse. */
    void
    reset()
    {
        cur_ = 0;
        offset_ = 0;
        used_ = 0;
    }

    /** Release all blocks back to the heap. */
    void
    release()
    {
        blocks_.clear();
        reset();
    }

    // --- introspection (tests, reports) ---
    size_t blockCount() const { return blocks_.size(); }
    size_t usedBytes() const { return used_; }
    size_t
    reservedBytes() const
    {
        size_t total = 0;
        for (const auto &b : blocks_)
            total += b.size;
        return total;
    }

  private:
    struct Block
    {
        std::unique_ptr<unsigned char[]> data;
        size_t size;
    };

    size_t blockBytes_;
    std::vector<Block> blocks_;
    size_t cur_ = 0;    //!< block currently being bumped
    size_t offset_ = 0; //!< bump offset within blocks_[cur_]
    size_t used_ = 0;   //!< bytes handed out since reset()
};

/**
 * STL-compatible allocator over a MonotonicArena. deallocate() is a
 * no-op — memory comes back only via arena.reset() — so containers
 * using it must not outlive a reset. Intended for per-window scratch
 * containers in worker loops.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;

    explicit ArenaAllocator(MonotonicArena &arena) : arena_(&arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other)
        : arena_(other.arena())
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(
            arena_->allocate(n * sizeof(T), alignof(T)));
    }

    void deallocate(T *, size_t) {}

    MonotonicArena *arena() const { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &other) const
    {
        return arena_ == other.arena();
    }
    template <typename U>
    bool
    operator!=(const ArenaAllocator<U> &other) const
    {
        return !(*this == other);
    }

  private:
    MonotonicArena *arena_;
};

} // namespace whisper

#endif // WHISPER_UTIL_ARENA_HH
