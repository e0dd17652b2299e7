/**
 * @file
 * Simulation-throughput microbench: branches/sec/core for every
 * predictor on the mysql trace, serial (three virtual calls per
 * record) versus batched (one predictMany call per 4096 records),
 * plus the hint-buffer hot path measured in isolation against the
 * pre-refactor pointer-chasing implementation.
 *
 * This bench measures the simulator, not the modeled hardware: it
 * exists so the data-layout work (flat SoA predictor tables, the
 * open-addressing hint buffer, the batched dispatch path) has a
 * pinned, machine-readable trajectory. Besides the human tables it
 * writes BENCH_micro_throughput.json; CI's perf-smoke job parses
 * that file and the repo commits a reference copy at the root.
 *
 * Each path is timed kTimedRuns times and the fastest run counts.
 * Whisper's overhead over TAGE-SC-L is timed apart from the rows, as
 * the median of kOverheadPairs back-to-back TAGE / whisper+TAGE
 * pairs; the JSON lists every pair's ratio so its spread shows.
 * Every timed pair is also a correctness check: serial and batched
 * runs must report identical mispredict counts, and the legacy and
 * flat hint buffers must agree on every counter after replaying the
 * identical operation sequence.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hh"
#include "bp/perceptron.hh"
#include "core/hint_buffer.hh"
#include "core/legacy_hint_buffer.hh"
#include "trace/branch_trace.hh"
#include "util/logging.hh"

using namespace whisper;
using namespace whisper::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

constexpr size_t kBatch = 4096;

struct Throughput
{
    double serialBps = 0;  //!< conditional branches/sec, serial
    double batchedBps = 0; //!< conditional branches/sec, batched
    uint64_t mispredicts = 0;
};

/** Timed runs per path; the fastest counts, so a burst from a
 * neighbour on a shared host does not set the number. */
constexpr int kTimedRuns = 3;

/** One serial run of a fresh clone of @p proto: the pre-batching
 * replay loop, three virtual calls per record. Returns seconds. */
double
timeSerial(const BranchTrace &trace, const BranchPredictor &proto,
           uint64_t &mispredicts)
{
    auto pred = proto.clone();
    mispredicts = 0;
    auto start = Clock::now();
    for (const BranchRecord &rec : trace) {
        if (rec.isConditional()) {
            bool p = pred->predict(rec.pc, rec.taken);
            pred->update(rec.pc, rec.taken, p);
            mispredicts += p != rec.taken;
        }
        pred->onRecord(rec);
    }
    return secondsSince(start);
}

/** Time one predictor both ways; assert identical outcomes. */
Throughput
measurePredictor(const BranchTrace &trace,
                 const BranchPredictor &proto)
{
    Throughput out;

    for (int run = 0; run < kTimedRuns; ++run) {
        uint64_t mispredicts = 0;
        double secs = timeSerial(trace, proto, mispredicts);
        out.serialBps =
            std::max(out.serialBps, trace.conditionals() / secs);
        whisper_assert(run == 0 || mispredicts == out.mispredicts,
                       "repeated serial run diverged");
        out.mispredicts = mispredicts;
    }

    // Batched: one virtual call per kBatch records.
    for (int run = 0; run < kTimedRuns; ++run) {
        auto pred = proto.clone();
        std::vector<uint8_t> miss(kBatch);
        uint64_t mispredicts = 0;
        const BranchRecord *records = &trace[0];
        size_t count = trace.size();
        auto start = Clock::now();
        for (size_t i = 0; i < count; i += kBatch) {
            size_t n = std::min(kBatch, count - i);
            pred->predictMany(records + i, n, miss.data());
            for (size_t k = 0; k < n; ++k)
                mispredicts += miss[k];
        }
        double secs = secondsSince(start);
        out.batchedBps =
            std::max(out.batchedBps, trace.conditionals() / secs);
        whisper_assert(mispredicts == out.mispredicts,
                       "batched run diverged from serial run");
    }
    return out;
}

/** Interleaved TAGE / whisper+TAGE serial pairs timed for the
 * overhead ratio; the order alternates from pair to pair. */
constexpr int kOverheadPairs = 5;

/**
 * Whisper's cost over its base predictor, one ratio per pair: the
 * serial time of whisper+TAGE over that of TAGE alone, the two runs
 * back to back so that both see the same host load.
 */
std::vector<double>
overheadPairs(const BranchTrace &trace, const BranchPredictor &tage,
              const BranchPredictor &whisper)
{
    std::vector<double> ratios;
    uint64_t firstTage = 0, firstWhisper = 0;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
        uint64_t tageMiss = 0, whisperMiss = 0;
        double tageSecs, whisperSecs;
        if (pair % 2 == 0) {
            tageSecs = timeSerial(trace, tage, tageMiss);
            whisperSecs = timeSerial(trace, whisper, whisperMiss);
        } else {
            whisperSecs = timeSerial(trace, whisper, whisperMiss);
            tageSecs = timeSerial(trace, tage, tageMiss);
        }
        whisper_assert(pair == 0 || (tageMiss == firstTage &&
                                     whisperMiss == firstWhisper),
                       "repeated overhead pair diverged");
        firstTage = tageMiss;
        firstWhisper = whisperMiss;
        ratios.push_back(whisperSecs / tageSecs);
    }
    return ratios;
}

/**
 * The exact hint-buffer op sequence WhisperPredictor would issue
 * while replaying a trace: a lookup per conditional, inserts when a
 * record executes a predecessor block that carries brhints. Stored
 * run-structured — maximal runs of consecutive lookups separated by
 * insert bursts — which is also how the simulator sees the stream
 * (brhint triggers punctuate long stretches of plain conditionals).
 * The run structure is what lets the flat buffer amortize: each
 * lookup run becomes one lookupMany() call.
 */
struct BufScript
{
    struct Run
    {
        uint32_t lookups; //!< consumed from lookupPcs
        uint32_t inserts; //!< consumed from insertOps, after lookups
    };

    std::vector<Run> runs;
    std::vector<uint64_t> lookupPcs;
    std::vector<std::pair<uint64_t, BrHint>> insertOps;
    size_t maxRun = 0;
};

BufScript
hintBufferScript(const BranchTrace &trace, const WhisperBuild &build)
{
    std::unordered_map<uint64_t, BrHint> hints;
    for (const auto &h : build.hints)
        hints[h.pc] = h.hint;
    std::unordered_map<uint64_t, std::vector<uint64_t>> triggers;
    for (const auto &pl : build.placements)
        triggers[pl.predecessorPc].push_back(pl.branchPc);

    BufScript script;
    BufScript::Run cur{0, 0};
    for (const BranchRecord &rec : trace) {
        if (rec.isConditional()) {
            if (cur.inserts) { // insert burst ended: close the run
                script.runs.push_back(cur);
                cur = {0, 0};
            }
            script.lookupPcs.push_back(rec.pc);
            ++cur.lookups;
        }
        auto it = triggers.find(rec.pc);
        if (it == triggers.end())
            continue;
        for (uint64_t branchPc : it->second) {
            script.insertOps.emplace_back(branchPc,
                                          hints[branchPc]);
            ++cur.inserts;
        }
    }
    if (cur.lookups || cur.inserts)
        script.runs.push_back(cur);
    for (const auto &run : script.runs)
        script.maxRun = std::max<size_t>(script.maxRun, run.lookups);
    return script;
}

/** Replay the script per-op @p reps times; seconds elapsed. This is
 * the only way the pre-refactor buffer can be driven. */
template <typename Buffer>
double
replayScript(Buffer &buf, const BufScript &script, unsigned reps)
{
    auto start = Clock::now();
    for (unsigned r = 0; r < reps; ++r) {
        const uint64_t *pc = script.lookupPcs.data();
        const auto *ins = script.insertOps.data();
        for (const auto &run : script.runs) {
            for (uint32_t i = 0; i < run.lookups; ++i)
                buf.lookup(pc[i]);
            pc += run.lookups;
            for (uint32_t i = 0; i < run.inserts; ++i)
                buf.insert(ins[i].first, ins[i].second);
            ins += run.inserts;
        }
    }
    return secondsSince(start);
}

/** Replay the script with each lookup run batched through
 * lookupMany() — observably identical to replayScript() (the
 * differential assert below holds it to that). */
double
replayScriptBatched(HintBuffer &buf, const BufScript &script,
                    unsigned reps)
{
    std::vector<const BrHint *> out(script.maxRun);
    auto start = Clock::now();
    for (unsigned r = 0; r < reps; ++r) {
        const uint64_t *pc = script.lookupPcs.data();
        const auto *ins = script.insertOps.data();
        for (const auto &run : script.runs) {
            buf.lookupMany(pc, run.lookups, out.data());
            pc += run.lookups;
            for (uint32_t i = 0; i < run.inserts; ++i)
                buf.insert(ins[i].first, ins[i].second);
            ins += run.inserts;
        }
    }
    return secondsSince(start);
}

} // namespace

int
main()
{
    banner("micro_throughput: simulator branches/sec/core",
           "engineering trajectory (not a paper figure)");

    ExperimentConfig cfg = defaultConfig();
    const AppConfig &app = appByName("mysql");

    // Evaluation trace: the test input, as in the accuracy benches.
    AppWorkload workload(app, 1, cfg.testRecords);
    BranchTrace trace(app.name, 1);
    trace.fill(workload, cfg.testRecords);
    std::printf("trace: %s  records=%zu  conditionals=%llu\n\n",
                app.name.c_str(), trace.size(),
                static_cast<unsigned long long>(
                    trace.conditionals()));

    // Whisper needs trained hints for a realistic hint-buffer load.
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);

    struct Row
    {
        std::string name;
        Throughput t;
    };
    std::vector<Row> rows;

    auto runOne = [&](const std::string &label,
                      const BranchPredictor &proto) {
        rows.push_back({label, measurePredictor(trace, proto)});
    };

    auto tage = makeTage(cfg.tageBudgetKB);
    auto whisper = makeWhisperPredictor(cfg, build);
    runOne("tage64", *tage);
    runOne("bimodal", BimodalPredictor());
    runOne("gshare", GsharePredictor());
    runOne("perceptron", PerceptronPredictor());
    runOne("whisper_tage64", *whisper);

    TableReporter table("simulator throughput (mysql)");
    table.setHeader({"predictor", "serial Mbr/s", "batched Mbr/s",
                     "batch speedup"});
    for (const auto &r : rows)
        table.addRow(r.name,
                     {r.t.serialBps / 1e6, r.t.batchedBps / 1e6,
                      r.t.batchedBps / r.t.serialBps});
    table.print();

    // Whisper's cost over its base predictor (ROADMAP target 1.10):
    // the median of interleaved pairs, so that a burst of host load
    // lands on both sides of a ratio instead of on one predictor.
    std::vector<double> pairs = overheadPairs(trace, *tage, *whisper);
    std::vector<double> sorted = pairs;
    std::sort(sorted.begin(), sorted.end());
    double whisperOverhead = sorted[sorted.size() / 2];
    std::printf("whisper overhead (whisper+tage64 / tage64 time):"
                " %.3f, median of %zu interleaved pairs"
                " (range %.3f-%.3f)\n",
                whisperOverhead, pairs.size(), sorted.front(),
                sorted.back());

    // --- hint-buffer hot path, flat vs pre-refactor legacy ---
    BufScript script = hintBufferScript(trace, build);
    uint64_t lookups = script.lookupPcs.size();
    uint64_t inserts = script.insertOps.size();
    size_t totalOps = lookups + inserts;

    // Repeat the script so even heavily scaled-down CI runs time
    // tens of millions of ops.
    unsigned reps = 1;
    while (reps * totalOps < 8'000'000)
        ++reps;

    LegacyHintBuffer legacy(cfg.whisper.hintBufferEntries);
    HintBuffer flatSerial(cfg.whisper.hintBufferEntries);
    HintBuffer flat(cfg.whisper.hintBufferEntries);
    double legacySecs = replayScript(legacy, script, reps);
    double flatSerialSecs = replayScript(flatSerial, script, reps);
    double flatSecs = replayScriptBatched(flat, script, reps);

    // The timed replays double as a differential test: all three
    // must land in the identical observable state.
    auto sameState = [&](const auto &buf) {
        return buf.hits() == legacy.hits() &&
               buf.misses() == legacy.misses() &&
               buf.insertions() == legacy.insertions() &&
               buf.refreshes() == legacy.refreshes() &&
               buf.evictions() == legacy.evictions() &&
               buf.lruOrder() == legacy.lruOrder();
    };
    whisper_assert(sameState(flatSerial) && sameState(flat),
                   "flat and legacy hint buffers diverged");

    // branches/sec through the buffer: one lookup per conditional.
    double legacyBps = lookups * reps / legacySecs;
    double flatSerialBps = lookups * reps / flatSerialSecs;
    double flatBps = lookups * reps / flatSecs;

    TableReporter buftab("hint-buffer path (per core)");
    buftab.setHeader(
        {"impl", "Mbranches/s", "vs pre-refactor"});
    buftab.addRow("legacy", {legacyBps / 1e6, 1.0});
    buftab.addRow("flat per-op",
                  {flatSerialBps / 1e6, flatSerialBps / legacyBps});
    buftab.addRow("flat batched",
                  {flatBps / 1e6, flatBps / legacyBps});
    buftab.print();
    std::printf("script: %zu ops (%llu lookups + %llu inserts) in"
                " %zu runs x %u reps, %u entries\n",
                totalOps,
                static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(inserts),
                script.runs.size(), reps,
                cfg.whisper.hintBufferEntries);
    std::printf("buffer service: hits=%llu misses=%llu"
                " insertions=%llu refreshes=%llu evictions=%llu\n",
                static_cast<unsigned long long>(flat.hits()),
                static_cast<unsigned long long>(flat.misses()),
                static_cast<unsigned long long>(flat.insertions()),
                static_cast<unsigned long long>(flat.refreshes()),
                static_cast<unsigned long long>(flat.evictions()));

    const char *jsonPath = "BENCH_micro_throughput.json";
    if (FILE *f = std::fopen(jsonPath, "w")) {
        std::fprintf(f, "{\n  \"bench\": \"micro_throughput\",\n");
        std::fputs(benchStampJson().c_str(), f);
        std::fprintf(f, "  \"scale\": %.3f,\n", scaleFactor());
        std::fprintf(f, "  \"trace\": \"%s\",\n", app.name.c_str());
        std::fprintf(f, "  \"records\": %zu,\n", trace.size());
        std::fprintf(f, "  \"conditionals\": %llu,\n",
                     static_cast<unsigned long long>(
                         trace.conditionals()));
        std::fprintf(f, "  \"predictors\": {\n");
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(
                f,
                "    \"%s\": {\n"
                "      \"serial_branches_per_sec\": %.0f,\n"
                "      \"batched_branches_per_sec\": %.0f,\n"
                "      \"batch_speedup\": %.3f,\n"
                "      \"mispredicts\": %llu\n"
                "    }%s\n",
                r.name.c_str(), r.t.serialBps, r.t.batchedBps,
                r.t.batchedBps / r.t.serialBps,
                static_cast<unsigned long long>(r.t.mispredicts),
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  },\n");
        std::fprintf(f, "  \"whisper_overhead\": %.3f,\n",
                     whisperOverhead);
        std::fprintf(f, "  \"whisper_overhead_pairs\": [");
        for (size_t i = 0; i < pairs.size(); ++i)
            std::fprintf(f, "%s%.3f", i ? ", " : "", pairs[i]);
        std::fprintf(f, "],\n");
        std::fprintf(
            f,
            "  \"hint_buffer\": {\n"
            "    \"entries\": %u,\n"
            "    \"script_ops\": %zu,\n"
            "    \"lookups\": %llu,\n"
            "    \"inserts\": %llu,\n"
            "    \"reps\": %u,\n"
            "    \"legacy_branches_per_sec\": %.0f,\n"
            "    \"flat_serial_branches_per_sec\": %.0f,\n"
            "    \"flat_branches_per_sec\": %.0f,\n"
            "    \"flat_serial_speedup\": %.3f,\n"
            "    \"speedup\": %.3f\n"
            "  }\n}\n",
            cfg.whisper.hintBufferEntries, totalOps,
            static_cast<unsigned long long>(lookups),
            static_cast<unsigned long long>(inserts), reps,
            legacyBps, flatSerialBps, flatBps,
            flatSerialBps / legacyBps, flatBps / legacyBps);
        std::fclose(f);
        std::printf("\nwrote %s\n", jsonPath);
    } else {
        std::fprintf(stderr, "warning: cannot write %s\n", jsonPath);
    }
    return 0;
}
