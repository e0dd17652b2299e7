/**
 * @file
 * The run-time Whisper hybrid (paper SIV, "Run-time hint usage").
 *
 * Predictions query the hint buffer and the underlying dynamic
 * predictor in parallel. A buffer hit predicts via the hint's bias
 * or Boolean formula applied to the hashed dynamic history; a miss
 * falls through to the dynamic predictor. Hinted branches do not
 * allocate new entries in the dynamic predictor, freeing its
 * capacity for the remaining branches.
 */

#ifndef WHISPER_CORE_WHISPER_PREDICTOR_HH
#define WHISPER_CORE_WHISPER_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bp/branch_predictor.hh"
#include "core/formula_trainer.hh"
#include "core/hint_buffer.hh"
#include "core/hint_injection.hh"
#include "core/history_hash.hh"
#include "trace/global_history.hh"

namespace whisper
{

/** Whisper hybrid: hint buffer + formulas over a dynamic predictor. */
class WhisperPredictor : public BranchPredictor
{
  public:
    /**
     * @param base underlying dynamic predictor (owned)
     * @param cfg Whisper design parameters
     * @param cache shared truth-table cache (must outlive this)
     * @param hints trained hints
     * @param placements brhint placements for the hints
     */
    WhisperPredictor(std::unique_ptr<BranchPredictor> base,
                     const WhisperConfig &cfg,
                     const TruthTableCache &cache,
                     const std::vector<TrainedHint> &hints,
                     const std::vector<HintPlacement> &placements);

    /**
     * Swap in a new hint deployment without disturbing the dynamic
     * predictor or history state — the model of whisperd pushing a
     * fresh bundle to a running fleet: the rewritten binary carries
     * new brhint instructions (so the hint buffer starts empty), but
     * the hardware predictor tables stay warm.
     */
    void replaceHints(const std::vector<TrainedHint> &hints,
                      const std::vector<HintPlacement> &placements);

    /** Deep copy: clones the owned dynamic predictor and copies the
     * hint buffer, history, and statistics; the truth-table cache is
     * shared (it is immutable after construction). */
    WhisperPredictor(const WhisperPredictor &other);

    bool predict(uint64_t pc, bool oracleTaken) override;
    void update(uint64_t pc, bool taken, bool predicted,
                bool allocate = true) override;
    void onRecord(const BranchRecord &rec) override;
    void predictMany(const BranchRecord *records, size_t n,
                     uint8_t *outMispredicted) override;
    std::unique_ptr<BranchPredictor>
    clone() const override
    {
        return std::make_unique<WhisperPredictor>(*this);
    }
    std::string name() const override;
    void reset() override;
    uint64_t storageBits() const override;

    // --- statistics ---
    uint64_t hintPredictions() const { return hintPredictions_; }
    uint64_t hintCorrect() const { return hintCorrect_; }
    uint64_t dynamicHintInstructions() const { return dynamicHints_; }
    uint64_t staticHintInstructions() const { return staticHints_; }
    const HintBuffer &hintBuffer() const { return buffer_; }
    BranchPredictor &base() { return *base_; }

    /** Whether the last prediction came from a hint. */
    bool lastUsedHint() const { return usedHint_; }

  private:
    bool evaluateHint(const BrHint &hint) const;

    std::unique_ptr<BranchPredictor> base_;
    WhisperConfig cfg_;
    const TruthTableCache &cache_;
    std::vector<unsigned> lengths_;

    /** A brhint in a predecessor block: the hinted branch and its
     * payload, resolved once by replaceHints(). */
    struct Trigger
    {
        uint64_t branchPc;
        BrHint hint;
    };

    /** Distinct hinted branch PCs in the deployment. */
    uint64_t staticHints_ = 0;
    /** predecessor PC -> hints injected there, in placement order. */
    std::unordered_map<uint64_t, std::vector<Trigger>> triggers_;

    HintBuffer buffer_;
    GlobalHistory history_;

    bool usedHint_ = false;
    bool basePred_ = false;
    uint64_t hintPredictions_ = 0;
    uint64_t hintCorrect_ = 0;
    uint64_t dynamicHints_ = 0;
};

} // namespace whisper

#endif // WHISPER_CORE_WHISPER_PREDICTOR_HH
