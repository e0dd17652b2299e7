#include "service/hint_store.hh"

#include "util/logging.hh"

namespace whisper
{

void
HintStore::publish(std::shared_ptr<const VersionedHintBundle> next)
{
    if (journal_ && !journal_->append(*next)) {
        whisper_warn("hint store: journal append failed for epoch ",
                     next->epoch, " (deployment proceeds, durability "
                     "degraded)");
    }
    std::lock_guard<std::mutex> lock(historyMutex_);
    current_ = next;
    history_.push_back(std::move(next));
}

size_t
HintStore::restore(std::vector<VersionedHintBundle> history)
{
    std::vector<Snapshot> restored;
    uint64_t lastEpoch = 0;
    for (VersionedHintBundle &bundle : history) {
        if (bundle.epoch <= lastEpoch) {
            whisper_warn("hint store: dropping non-monotonic journal "
                         "record (epoch ", bundle.epoch, " after ",
                         lastEpoch, ")");
            continue;
        }
        lastEpoch = bundle.epoch;
        restored.push_back(std::make_shared<VersionedHintBundle>(
            std::move(bundle)));
    }
    if (restored.empty())
        return 0;

    std::lock_guard<std::mutex> lock(historyMutex_);
    whisper_assert(!current_ && history_.empty(),
                   "restore() must precede any deployment");
    current_ = restored.back();
    nextEpoch_.store(lastEpoch + 1, std::memory_order_relaxed);
    history_ = std::move(restored);
    return history_.size();
}

void
HintStore::attachJournal(HintJournal *journal)
{
    journal_ = journal;
}

bool
HintStore::propose(HintBundle candidate, double candidateAccuracy,
                   double incumbentAccuracy, double margin)
{
    if (candidateAccuracy <= incumbentAccuracy + margin) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    auto version = std::make_shared<VersionedHintBundle>();
    version->epoch =
        nextEpoch_.fetch_add(1, std::memory_order_relaxed);
    version->validationAccuracy = candidateAccuracy;
    version->bundle = std::move(candidate);
    publish(std::move(version));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
HintStore::rollback()
{
    Snapshot previous;
    {
        std::lock_guard<std::mutex> lock(historyMutex_);
        // Nothing deployed, or only the first generation: there is
        // no earlier payload to return to (epoch 0 is "no hints",
        // not a generation). Clean error, never an out-of-bounds
        // history index.
        if (history_.size() < 2)
            return false;
        previous = history_[history_.size() - 2];
    }
    auto version = std::make_shared<VersionedHintBundle>();
    version->epoch =
        nextEpoch_.fetch_add(1, std::memory_order_relaxed);
    version->validationAccuracy = previous->validationAccuracy;
    version->bundle = previous->bundle;
    publish(std::move(version));
    rollbacks_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

size_t
HintStore::generations() const
{
    std::lock_guard<std::mutex> lock(historyMutex_);
    return history_.size();
}

HintStoreConsultant::HintStoreConsultant(const HintStore &store,
                                         const WhisperConfig &cfg,
                                         const TruthTableCache &cache,
                                         BaselineFactory baseline)
    : store_(store), cfg_(cfg), cache_(cache),
      baseline_(std::move(baseline))
{
}

WhisperPredictor &
HintStoreConsultant::predictor()
{
    if (!active_) {
        HintStore::Snapshot snap = store_.current();
        static const std::vector<TrainedHint> noHints;
        static const std::vector<HintPlacement> noPlacements;
        active_ = std::make_unique<WhisperPredictor>(
            baseline_(), cfg_, cache_,
            snap ? snap->bundle.hints : noHints,
            snap ? snap->bundle.placements : noPlacements);
        seenEpoch_ = snap ? snap->epoch : 0;
    }
    return *active_;
}

BranchPredictor *
HintStoreConsultant::refresh(uint64_t)
{
    HintStore::Snapshot snap = store_.current();
    if (!snap || snap->epoch == seenEpoch_)
        return nullptr;
    if (active_) {
        active_->replaceHints(snap->bundle.hints,
                              snap->bundle.placements);
    } else {
        active_ = std::make_unique<WhisperPredictor>(
            baseline_(), cfg_, cache_, snap->bundle.hints,
            snap->bundle.placements);
    }
    seenEpoch_ = snap->epoch;
    return active_.get();
}

} // namespace whisper
