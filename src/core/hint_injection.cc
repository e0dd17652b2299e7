#include "core/hint_injection.hh"

#include <algorithm>
#include <cstdint>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

HintInjector::HintInjector() : HintInjector(Config{})
{
}

HintInjector::HintInjector(const Config &cfg) : cfg_(cfg)
{
    whisper_assert(cfg.window >= 1);
}

namespace
{

/**
 * Open-addressing map from PC to its execution count and, for a
 * hinted branch, the index of its statistics; probed once per
 * training record. Linear probing over a power-of-two array that
 * doubles at half load; slots are never removed.
 */
class PcTable
{
  public:
    static constexpr uint32_t kNoHint = UINT32_MAX;

    struct Slot
    {
        uint64_t pc = 0;
        uint64_t executions = 0;
        uint32_t hint = kNoHint;
        bool used = false;
    };

    PcTable() : slots_(1024) {}

    /** The slot of @p pc; a fresh one if it has none yet. */
    Slot &
    insert(uint64_t pc)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        Slot &s = slots_[probe(pc)];
        if (!s.used) {
            s.used = true;
            s.pc = pc;
            ++size_;
        }
        return s;
    }

    /** Executions of @p pc; 0 when it never ran. */
    uint64_t executions(uint64_t pc) const
    {
        return slots_[probe(pc)].executions;
    }

    /** @p pc's hint index, or kNoHint. */
    uint32_t hint(uint64_t pc) const { return slots_[probe(pc)].hint; }

  private:
    /** Index of @p pc's slot, or of the empty slot where it goes. */
    size_t
    probe(uint64_t pc) const
    {
        size_t mask = slots_.size() - 1;
        for (size_t i = mix64(pc) & mask;; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (!s.used || s.pc == pc)
                return i;
        }
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        for (const Slot &s : old)
            if (s.used)
                slots_[probe(s.pc)] = s;
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
};

} // namespace

std::vector<HintPlacement>
HintInjector::place(BranchSource &trace,
                    const std::vector<TrainedHint> &hints) const
{
    // Per hinted branch: its conditional executions and
    // cooccur[pred] = executions with pred in the preceding window
    // (each pred counted once per branch execution). The inner map's
    // iteration order breaks score ties between predecessors below,
    // so it is filled in the same order as ever: window order, first
    // occurrence only.
    struct BranchStats
    {
        uint64_t executions = 0;
        std::unordered_map<uint64_t, uint64_t> cooccur;
    };
    std::vector<BranchStats> branches;
    PcTable pcs;
    for (const auto &h : hints) {
        PcTable::Slot &slot = pcs.insert(h.pc);
        if (slot.hint == PcTable::kNoHint) {
            slot.hint = static_cast<uint32_t>(branches.size());
            branches.emplace_back();
        }
    }

    // The window is the last cfg_.window PCs of `recent`, oldest
    // first; `recent` drops all but those when it reaches twice that.
    const size_t window = cfg_.window;
    std::vector<uint64_t> recent;
    recent.reserve(2 * window);

    trace.rewind();
    BranchRecord rec;
    while (trace.next(rec)) {
        PcTable::Slot &slot = pcs.insert(rec.pc);
        ++slot.executions;
        if (slot.hint != PcTable::kNoHint && rec.isConditional()) {
            BranchStats &b = branches[slot.hint];
            ++b.executions;
            size_t n = std::min(recent.size(), window);
            const uint64_t *win = recent.data() + recent.size() - n;
            for (size_t i = 0; i < n; ++i) {
                if (std::find(win, win + i, win[i]) == win + i)
                    ++b.cooccur[win[i]];
            }
        }
        if (recent.size() == 2 * window)
            recent.erase(recent.begin(),
                         recent.begin() + static_cast<long>(window));
        recent.push_back(rec.pc);
    }

    std::vector<HintPlacement> placements;
    placements.reserve(hints.size());
    for (const auto &h : hints) {
        HintPlacement pl;
        pl.branchPc = h.pc;

        const BranchStats &b = branches[pcs.hint(h.pc)];
        uint64_t execs = b.executions;
        double bestScore = -1.0;
        if (execs > 0) {
            for (const auto &[pred, count] : b.cooccur) {
                double coverage =
                    static_cast<double>(count) / execs;
                // A branch may execute several times inside one
                // predecessor window; cap so precision stays a
                // probability.
                double precision = std::min(
                    1.0,
                    static_cast<double>(count) / pcs.executions(pred));
                // Conditional-probability score: a good predecessor
                // covers the branch and rarely fires spuriously.
                double score = coverage * precision;
                if (coverage >= cfg_.minCoverage &&
                    score > bestScore) {
                    bestScore = score;
                    pl.predecessorPc = pred;
                    pl.coverage = coverage;
                    pl.precision = precision;
                }
            }
        }
        if (bestScore < 0.0) {
            // Fall back to the branch's own block: the hint becomes
            // available from the branch's second execution onwards.
            pl.predecessorPc = h.pc;
            pl.coverage = 1.0;
            pl.precision = 1.0;
        }
        pl.predecessorExecutions = pcs.executions(pl.predecessorPc);
        placements.push_back(pl);
    }
    return placements;
}

InjectionOverhead
HintInjector::overhead(const std::vector<HintPlacement> &placements,
                       uint64_t staticInstructions,
                       uint64_t dynamicInstructions)
{
    InjectionOverhead o;
    o.staticHints = placements.size();
    for (const auto &pl : placements)
        o.dynamicHints += pl.predecessorExecutions;
    if (staticInstructions > 0) {
        o.staticIncreasePct = 100.0 *
            static_cast<double>(o.staticHints) / staticInstructions;
    }
    if (dynamicInstructions > 0) {
        o.dynamicIncreasePct = 100.0 *
            static_cast<double>(o.dynamicHints) / dynamicInstructions;
    }
    return o;
}

} // namespace whisper
