/**
 * @file
 * Shared pieces of the benchmark: the per-run report, the
 * workload interface, seed-derived input selection and the offline
 * chain (profile -> train -> place -> replay -> pipeline) that both
 * the offline workload and the wire workloads' traced replay run.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/formula_trainer.hh"
#include "core/profile.hh"
#include "core/whisper_io.hh"
#include "sim/experiment.hh"
#include "service/trace_stream.hh"
#include "workloads/app_config.hh"

namespace perfbench
{

using namespace whisper;

/** Everything one process run accumulates. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    std::vector<double> setupSeconds;  //!< one per pass
    std::vector<double> recordsPerSec; //!< one per pass
    std::vector<double> peakRssMb;     //!< one per pass (0 = unknown)
    /** Reference kernel ms, before the first pass and after each. */
    std::vector<double> refMs;
    /** (start, end) steady-clock seconds of each stage of the current
     * pass's timed phase, in a fixed order: stage k does the same work
     * in every pass. */
    std::vector<std::pair<double, double>> stages;
    uint64_t timedRecords = 0;         //!< summed over passes
    double timedCpuSeconds = 0.0;      //!< process CPU, timed phases

    double mispredictRatio = 0.0;
    double cycleRatio = 0.0;

    /** Per-layer metrics measured by counting (not from spans). */
    std::map<std::string, double> layers;

    /** Values the determinism self-test compares across runs. */
    std::map<std::string, std::string> digest;

    /** Count one operation; a failed one is reported on stderr. */
    bool op(bool ok, const std::string &what);

    void layer(const std::string &name, double value) { layers[name] = value; }
};

/**
 * One workload. main() repeats passes (setup, run, verify,
 * teardown) for the run's duration; only run() is timed as work.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs and start whatever the pass needs. */
    virtual void setup(Report &report) = 0;
    /** The timed phase. @return branch records pushed through. */
    virtual uint64_t run(Report &report) = 0;
    /** Untimed output checks. @p first: also compute accuracy. */
    virtual void verify(Report &report, bool first) = 0;
    /** Stop services, release inputs. */
    virtual void teardown() = 0;
    /** Traced run only: replay inputs serially through the layers
     * this workload's timed phase does not call one at a time. */
    virtual void replay(Report &report) = 0;
};

std::unique_ptr<Workload> makeOfflinePaper(uint64_t seed, double scale);
std::unique_ptr<Workload> makeWireIngest(uint64_t seed, double scale);
std::unique_ptr<Workload> makeWireRetrain(uint64_t seed, double scale);

/** Seconds on the steady clock (the time base of stage windows). */
inline double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Appends the (start, end) of its scope to a stage list (none when
 * the list is null). */
class StageTimer
{
  public:
    explicit StageTimer(std::vector<std::pair<double, double>> *stages)
        : stages_(stages), start_(steadySeconds())
    {
    }
    ~StageTimer()
    {
        if (stages_)
            stages_->emplace_back(start_, steadySeconds());
    }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    std::vector<std::pair<double, double>> *stages_;
    double start_;
};

/** Deterministic 64-bit stream derived from the benchmark seed. */
class SeedStream
{
  public:
    explicit SeedStream(uint64_t seed, uint64_t salt)
        : state_(seed * 0x9E3779B97F4A7C15ull ^ salt)
    {
    }

    uint64_t next();
    /** Uniform in [0, n). */
    uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }

  private:
    uint64_t state_;
};

/** @p count distinct input ids of one application, drawn from the
 * first 16. Callers keep the last one as the held-out test input. */
std::vector<uint32_t> pickInputs(SeedStream &rng, size_t count);

/** FNV-1a digest of a bundle's wire encoding, as hex. */
std::string bundleDigest(const VersionedHintBundle &bundle);

double median(std::vector<double> v);
/** Nearest-rank percentile, @p q in [0, 1]. */
double percentile(std::vector<double> v, double q);

/** A materialized input: the records a BranchSource would yield. */
using Records = std::vector<BranchRecord>;

/** Generate @p n records of @p app's input @p input into one buffer
 * sized up front (no growth copies). */
Records generate(const AppConfig &app, uint32_t input, uint64_t n,
                 const DriftSpec &drift = DriftSpec{});

/** TAGE-SC-L vs Whisper with one bundle on one test input. */
struct BundleEval
{
    PredictorRunStats tage;
    PredictorRunStats whisper;
    PipelineStats tagePipe;
    PipelineStats whisperPipe;
    uint64_t hintHits = 0;
    uint64_t hintLookups = 0;
    uint64_t hintEvictions = 0;
};

/** The test-input replays of the figure benches: TAGE-SC-L and
 * Whisper with @p bundle, accuracy (with their warm-up) and
 * PipelineModel runs. Each replay's time is appended to @p stages. */
BundleEval evalBundle(const HintBundle &bundle, const Records &test,
                      const ExperimentConfig &cfg,
                      const TruthTableCache &cache,
                      std::vector<std::pair<double, double>> *stages = nullptr);

/** Result of one offline chain over one application. */
struct ChainResult
{
    BranchProfile profile;
    TrainingStats training;
    HintBundle bundle;
    BundleEval eval;
    uint64_t records = 0; //!< records every stage consumed
};

/**
 * The path every figure bench runs: collectProfile on @p train,
 * Algorithm-1 training, brhint placement on @p train, then
 * evalBundle() on @p test. Each stage's time is appended to
 * @p stages.
 */
ChainResult offlineChain(const Records &train, const Records &test,
                         const ExperimentConfig &cfg,
                         const TruthTableCache &cache,
                         std::vector<std::pair<double, double>> *stages = nullptr);

/** Traced replays shared by every workload (see replay()). */
void screenReplay(const std::vector<const BranchProfile *> &profiles,
                  Report &report);
void bundleRoundTrip(const HintBundle &bundle, Report &report);

/**
 * Set the report's mispredict and cycle ratios from the summed evals
 * of a workload's apps, and check that Whisper's test mispredicts,
 * summed the same way, are <= TAGE-SC-L's. An app whose Whisper loses
 * on its own held-out input is noted on stderr and counted in
 * core.test_app_losses.
 */
void checkAccuracy(const std::vector<BundleEval> &evals,
                   const std::vector<std::string> &apps, Report &report);
/** Record the chains' exact per-layer counts and digests. */
void summarizeChains(const std::vector<ChainResult> &chains,
                     Report &report);

/** Cut @p records into at most @p maxChunks chunks of @p chunkRecords
 * (the last may be short). */
std::vector<Records> chunkRecords(const Records &records,
                                  size_t chunkRecords, size_t maxChunks);

/** One tenant's input stream for the wire path. */
struct TenantStream
{
    std::string app;
    std::vector<Records> chunks;
    std::vector<uint32_t> chunkInput; //!< input id of each chunk
    Records test; //!< held-out input for the bundle replay
};

/** Traced replays of the chunk-level layers: frame codec, streaming
 * profiler, journal append of @p bundles, and validation replay of
 * bundles[i] on tenants[i]'s newest chunk. */
void chunkLayerReplay(const std::vector<TenantStream> &tenants,
                      const std::vector<VersionedHintBundle> &bundles,
                      const TruthTableCache &cache,
                      const std::string &tmpDir, Report &report);

/**
 * Serial closed-loop wire session over @p tenants (epochChunks = 2,
 * journals under @p tmpDir): send one epoch's chunks per tenant,
 * wait for the epoch, pull. Records its per-layer metrics.
 */
void serialWireSession(std::vector<TenantStream> tenants,
                       const TruthTableCache &cache,
                       const std::string &tmpDir, Report &report);

/** Scratch directory under the working directory (created). */
std::string scratchDir(const std::string &tag);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
