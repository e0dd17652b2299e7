#include "core/whisper_predictor.hh"

#include "util/logging.hh"

namespace whisper
{

WhisperPredictor::WhisperPredictor(
    std::unique_ptr<BranchPredictor> base, const WhisperConfig &cfg,
    const TruthTableCache &cache, const std::vector<TrainedHint> &hints,
    const std::vector<HintPlacement> &placements)
    : base_(std::move(base)), cfg_(cfg), cache_(cache),
      lengths_(geometricLengths(cfg)),
      buffer_(cfg.hintBufferEntries),
      history_(2 * cfg.maxHistoryLength)
{
    whisper_assert(base_ != nullptr);
    whisper_assert(lengths_.size() <= 16,
                   "history index must fit the 4-bit field");

    for (unsigned len : lengths_)
        history_.addFoldedView(len, cfg.hashWidth);

    replaceHints(hints, placements);
}

WhisperPredictor::WhisperPredictor(const WhisperPredictor &other)
    : base_(other.base_->clone()), cfg_(other.cfg_),
      cache_(other.cache_), lengths_(other.lengths_),
      staticHints_(other.staticHints_), triggers_(other.triggers_),
      buffer_(other.buffer_), history_(other.history_),
      usedHint_(other.usedHint_), basePred_(other.basePred_),
      hintPredictions_(other.hintPredictions_),
      hintCorrect_(other.hintCorrect_),
      dynamicHints_(other.dynamicHints_)
{
}

void
WhisperPredictor::replaceHints(
    const std::vector<TrainedHint> &hints,
    const std::vector<HintPlacement> &placements)
{
    // A later hint for the same PC replaces an earlier one.
    std::unordered_map<uint64_t, BrHint> byPc;
    for (const auto &h : hints)
        byPc[h.pc] = h.hint;
    staticHints_ = byPc.size();
    triggers_.clear();
    buffer_.clear();
    for (const auto &pl : placements) {
        auto it = byPc.find(pl.branchPc);
        whisper_assert(it != byPc.end(), "placement for unknown hint");
        triggers_[pl.predecessorPc].push_back({pl.branchPc, it->second});
    }
}

std::string
WhisperPredictor::name() const
{
    return "whisper+" + base_->name();
}

uint64_t
WhisperPredictor::storageBits() const
{
    // The hint buffer is the only added predictor-side storage; the
    // hints themselves live in the binary as brhint instructions.
    return base_->storageBits() +
           cfg_.hintBufferEntries * (BrHint::kEncodedBits + 64);
}

bool
WhisperPredictor::evaluateHint(const BrHint &hint) const
{
    switch (hint.bias) {
      case HintBias::AlwaysTaken:
        return true;
      case HintBias::NeverTaken:
        return false;
      case HintBias::Formula:
        break;
    }
    whisper_assert(hint.historyIdx < lengths_.size());
    uint8_t hashed = static_cast<uint8_t>(
        history_.foldedValue(hint.historyIdx));
    return cache_.evaluate(hint.formula, hashed);
}

bool
WhisperPredictor::predict(uint64_t pc, bool oracleTaken)
{
    // Query the dynamic predictor unconditionally: real hardware
    // looks up both structures in parallel, and the base predictor
    // needs its prediction context for update().
    basePred_ = base_->predict(pc, oracleTaken);
    usedHint_ = false;

    const BrHint *hint = buffer_.lookup(pc);
    if (hint) {
        usedHint_ = true;
        ++hintPredictions_;
        return evaluateHint(*hint);
    }
    return basePred_;
}

void
WhisperPredictor::update(uint64_t pc, bool taken, bool predicted,
                         bool allocate)
{
    if (usedHint_ && predicted == taken)
        ++hintCorrect_;
    // Hinted branches never allocate new entries in the dynamic
    // predictor (paper SIV); its capacity serves the rest.
    base_->update(pc, taken, basePred_, allocate && !usedHint_);
    history_.push(taken);
}

void
WhisperPredictor::predictMany(const BranchRecord *records, size_t n,
                              uint8_t *outMispredicted)
{
    // Same per-record sequence as the base-class loop, with this
    // class's predict/update/onRecord resolved statically. The base
    // predictor is still reached through its vtable; TageScl et al.
    // devirtualize their own inner loops when driven directly.
    for (size_t i = 0; i < n; ++i) {
        const BranchRecord &rec = records[i];
        uint8_t miss = 0;
        if (rec.isConditional()) {
            bool p = WhisperPredictor::predict(rec.pc, rec.taken);
            WhisperPredictor::update(rec.pc, rec.taken, p);
            miss = p != rec.taken;
        }
        WhisperPredictor::onRecord(rec);
        outMispredicted[i] = miss;
    }
}

void
WhisperPredictor::onRecord(const BranchRecord &rec)
{
    auto it = triggers_.find(rec.pc);
    if (it == triggers_.end())
        return;
    // This block carries brhint instructions: executing it decodes
    // each hint into the hint buffer.
    for (const Trigger &t : it->second) {
        ++dynamicHints_;
        buffer_.insert(t.branchPc, t.hint);
    }
}

void
WhisperPredictor::reset()
{
    base_->reset();
    buffer_.clear();
    buffer_.resetStats();
    history_.reset();
    usedHint_ = false;
    basePred_ = false;
    hintPredictions_ = 0;
    hintCorrect_ = 0;
    dynamicHints_ = 0;
}

} // namespace whisper
