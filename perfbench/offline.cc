/**
 * @file
 * The offline_paper workload and the offline chain it times.
 *
 * Why this workload: it is the path every bench_fig* binary runs
 * (profile -> Algorithm-1 training -> brhint placement -> TAGE-SC-L
 * and Whisper replay -> pipeline model), serial and unsharded. The
 * bp, core, sim and uarch layers do nearly all of its work; net and
 * service do none. mysql carries most hints (training is a real
 * share of its pass); finagle-http has few hints (training ~2%).
 */

#include <cstdio>

#include "common.hh"
#include "spans.hh"
#include "sim/profiler.hh"
#include "sim/runner.hh"
#include "uarch/pipeline.hh"

namespace perfbench
{

ChainResult
offlineChain(const Records &train, const Records &test,
             const ExperimentConfig &cfg, const TruthTableCache &cache,
             std::vector<std::pair<double, double>> *stages)
{
    ChainResult out;
    {
        Span span("sim.collectProfile", 2 * train.size());
        StageTimer timer(stages);
        ChunkSource source(train);
        auto baseline = makeTage(cfg.tageBudgetKB);
        out.profile = collectProfile(source, *baseline, cfg.whisper,
                                     cfg.profile);
    }
    {
        Span span("core.train");
        StageTimer timer(stages);
        WhisperTrainer trainer(cfg.whisper, cache);
        out.bundle.hints = trainer.train(out.profile, &out.training);
        span.setItems(out.training.branchesConsidered);
    }
    {
        Span span("core.place", train.size());
        StageTimer timer(stages);
        ChunkSource source(train);
        HintInjector injector(cfg.injector);
        out.bundle.placements = injector.place(source, out.bundle.hints);
    }
    out.eval = evalBundle(out.bundle, test, cfg, cache, stages);
    out.records = 3 * train.size() + 4 * test.size();
    return out;
}

BundleEval
evalBundle(const HintBundle &bundle, const Records &test,
           const ExperimentConfig &cfg, const TruthTableCache &cache,
           std::vector<std::pair<double, double>> *stages)
{
    BundleEval out;
    {
        Span span("bp.runPredictor.tage", test.size());
        StageTimer timer(stages);
        ChunkSource source(test);
        auto tage = makeTage(cfg.tageBudgetKB);
        out.tage = runPredictor(source, *tage, cfg.evalWarmup);
    }
    {
        Span span("core.runPredictor.whisper", test.size());
        StageTimer timer(stages);
        ChunkSource source(test);
        WhisperPredictor whisper(makeTage(cfg.tageBudgetKB), cfg.whisper,
                                 cache, bundle.hints, bundle.placements);
        out.whisper = runPredictor(source, whisper, cfg.evalWarmup);
        const HintBuffer &buffer = whisper.hintBuffer();
        out.hintHits = buffer.hits();
        out.hintLookups = buffer.hits() + buffer.misses();
        out.hintEvictions = buffer.evictions();
    }
    PipelineModel model(cfg.pipeline);
    {
        Span span("uarch.pipeline.tage", test.size());
        StageTimer timer(stages);
        ChunkSource source(test);
        auto tage = makeTage(cfg.tageBudgetKB);
        out.tagePipe = model.run(source, *tage);
    }
    {
        Span span("uarch.pipeline.whisper", test.size());
        StageTimer timer(stages);
        ChunkSource source(test);
        WhisperPredictor whisper(makeTage(cfg.tageBudgetKB), cfg.whisper,
                                 cache, bundle.hints, bundle.placements);
        out.whisperPipe = model.run(source, whisper);
    }
    return out;
}

void
screenReplay(const std::vector<const BranchProfile *> &profiles,
             Report &report)
{
    CorrelationScreen screen;
    uint64_t branches = 0;
    uint64_t keptLengths = 0;
    for (const BranchProfile *profile : profiles) {
        for (const BranchProfileEntry *entry : profile->hardBranches()) {
            Span span("core.screenBranch", 1);
            BranchScreen s = screen.screenBranch(*entry, profile->lengths());
            keptLengths += s.lengthIdx.size();
            ++branches;
        }
    }
    report.digest["core.screen_branches"] = std::to_string(branches);
    report.digest["core.screen_kept_lengths"] = std::to_string(keptLengths);
}

void
checkAccuracy(const std::vector<BundleEval> &evals,
              const std::vector<std::string> &apps, Report &report)
{
    uint64_t tage = 0, whisper = 0;
    double tageCycles = 0.0, whisperCycles = 0.0;
    uint64_t appLosses = 0;
    for (size_t i = 0; i < evals.size(); ++i) {
        const BundleEval &e = evals[i];
        tage += e.tage.mispredicts;
        whisper += e.whisper.mispredicts;
        tageCycles += e.tagePipe.cycles();
        whisperCycles += e.whisperPipe.cycles();
        if (e.whisper.mispredicts > e.tage.mispredicts) {
            ++appLosses;
            std::fprintf(stderr,
                         "perfbench: note: %s: Whisper lost to TAGE-SC-L on "
                         "its held-out input (%llu vs %llu mispredicts)\n",
                         apps[i].c_str(),
                         static_cast<unsigned long long>(e.whisper.mispredicts),
                         static_cast<unsigned long long>(e.tage.mispredicts));
        }
    }
    report.op(whisper <= tage,
              "Whisper test mispredicts <= TAGE-SC-L over the workload's "
              "apps (" +
                  std::to_string(whisper) + " vs " + std::to_string(tage) +
                  ")");
    report.layer("core.test_app_losses", static_cast<double>(appLosses));
    report.mispredictRatio =
        static_cast<double>(whisper) / static_cast<double>(tage);
    report.cycleRatio = whisperCycles / tageCycles;
}

void
summarizeChains(const std::vector<ChainResult> &chains, Report &report)
{
    uint64_t scored = 0, hints = 0, considered = 0;
    uint64_t hits = 0, lookups = 0, evictions = 0;
    double squash = 0.0, cycles = 0.0;
    for (const ChainResult &r : chains) {
        squash += r.eval.whisperPipe.squashCycles;
        cycles += r.eval.whisperPipe.cycles();
        scored += r.training.formulasScored;
        hints += r.training.hintsEmitted;
        considered += r.training.branchesConsidered;
        hits += r.eval.hintHits;
        lookups += r.eval.hintLookups;
        evictions += r.eval.hintEvictions;
    }
    report.layer("core.formulas_scored", static_cast<double>(scored));
    report.layer("core.hint_coverage",
                 considered ? static_cast<double>(hints) / considered : 0.0);
    report.layer("core.hint_hit_frac",
                 lookups ? static_cast<double>(hits) / lookups : 0.0);
    report.layer("core.hint_evictions", static_cast<double>(evictions));
    report.layer("uarch.squash_cycle_frac",
                 cycles > 0.0 ? squash / cycles : 0.0);
    report.digest["core.formulas_scored"] = std::to_string(scored);
    report.digest["core.hints"] = std::to_string(hints);
}

void
bundleRoundTrip(const HintBundle &bundle, Report &report)
{
    VersionedHintBundle versioned;
    versioned.epoch = 1;
    versioned.bundle = bundle;
    std::vector<unsigned char> bytes;
    {
        Span span("core.bundle_encode", bundle.hints.size());
        bytes = encodeVersionedBundle(versioned);
    }
    VersionedHintBundle decoded;
    bool ok = decodeVersionedBundle(decoded, bytes.data(), bytes.size());
    report.op(ok && decoded == versioned &&
                  encodeVersionedBundle(decoded) == bytes,
              "offline bundle survives encode/decode byte-identically");
}

namespace
{

struct AppInputs
{
    const AppConfig *app = nullptr;
    uint32_t trainInput = 0;
    Records train;
    Records test;
};

class OfflinePaper : public Workload
{
  public:
    OfflinePaper(uint64_t seed, double scale) : seed_(seed)
    {
        // Half the figure benches' trace lengths (1 M training, 750 k
        // test records), so that a run holds enough passes for a
        // median that rides out host-speed drift. At a quarter of them
        // finagle-http's few hints lose to TAGE-SC-L on some inputs.
        cfg_.trainRecords =
            static_cast<uint64_t>(cfg_.trainRecords * 0.5 * scale);
        cfg_.testRecords =
            static_cast<uint64_t>(cfg_.testRecords * 0.5 * scale);
    }

    void
    setup(Report &) override
    {
        {
            Span span("core.truthTables");
            cache_ = std::make_unique<TruthTableCache>(8);
        }
        Span span("workloads.generate");
        SeedStream rng(seed_, 0x0FF1);
        apps_.clear();
        for (const char *name : {"mysql", "finagle-http"}) {
            AppInputs in;
            in.app = &appByName(name);
            std::vector<uint32_t> ids = pickInputs(rng, 2);
            in.trainInput = ids[0];
            in.train = generate(*in.app, ids[0], cfg_.trainRecords);
            in.test = generate(*in.app, ids[1], cfg_.testRecords);
            span.setItems(in.train.size() + in.test.size());
            apps_.push_back(std::move(in));
        }
    }

    uint64_t
    run(Report &report) override
    {
        Span span("pass.offline");
        results_.clear();
        uint64_t records = 0;
        for (const AppInputs &in : apps_) {
            results_.push_back(
                offlineChain(in.train, in.test, cfg_, *cache_, &report.stages));
            records += results_.back().records;
        }
        return records;
    }

    void
    verify(Report &report, bool first) override
    {
        for (size_t i = 0; i < results_.size(); ++i) {
            const ChainResult &r = results_[i];
            bundleRoundTrip(r.bundle, report);
            VersionedHintBundle v;
            v.bundle = r.bundle;
            std::string digest = bundleDigest(v);
            std::string key = "bundle." + apps_[i].app->name;
            if (first)
                report.digest[key] = digest;
            else
                report.op(report.digest[key] == digest,
                          key + " identical in every pass");
        }
        if (!first)
            return;
        summarizeChains(results_, report);
        std::vector<BundleEval> evals;
        std::vector<std::string> apps;
        for (size_t i = 0; i < results_.size(); ++i) {
            evals.push_back(results_[i].eval);
            apps.push_back(apps_[i].app->name);
        }
        checkAccuracy(evals, apps, report);
    }

    void teardown() override { /* inputs are rebuilt by setup() */ }

    void replay(Report &report) override;

  private:
    uint64_t seed_;
    ExperimentConfig cfg_;
    std::unique_ptr<TruthTableCache> cache_;
    std::vector<AppInputs> apps_;
    std::vector<ChainResult> results_;
};

void
OfflinePaper::replay(Report &report)
{
    Span span("replay");
    std::vector<const BranchProfile *> profiles;
    std::vector<VersionedHintBundle> bundles;
    std::vector<TenantStream> tenants;
    for (size_t i = 0; i < apps_.size(); ++i) {
        profiles.push_back(&results_[i].profile);
        VersionedHintBundle v;
        v.epoch = i + 1;
        v.bundle = results_[i].bundle;
        bundles.push_back(std::move(v));
        TenantStream t;
        t.app = apps_[i].app->name;
        t.chunks = chunkRecords(apps_[i].train, 25'000, 8);
        t.chunkInput.assign(t.chunks.size(), apps_[i].trainInput);
        tenants.push_back(std::move(t));
    }
    screenReplay(profiles, report);
    std::string tmp = scratchDir("offline-replay");
    chunkLayerReplay(tenants, bundles, *cache_, tmp, report);
    serialWireSession(std::move(tenants), *cache_, tmp, report);
}

} // namespace

std::unique_ptr<Workload>
makeOfflinePaper(uint64_t seed, double scale)
{
    return std::make_unique<OfflinePaper>(seed, scale);
}

} // namespace perfbench
