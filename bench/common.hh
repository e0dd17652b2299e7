/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper
 * and prints it through TableReporter so the output can be diffed
 * against EXPERIMENTS.md. Trace lengths scale with the
 * WHISPER_BENCH_SCALE environment variable (default 1.0) so a quick
 * smoke run (e.g. 0.2) and a high-fidelity run (e.g. 4.0) use the
 * same binaries.
 */

#ifndef WHISPER_BENCH_COMMON_HH
#define WHISPER_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bp/simple_predictors.hh"
#include "sim/experiment.hh"
#include "sim/sharded_runner.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workloads/app_workload.hh"

namespace whisper::bench
{

/** Trace-length scale factor from the environment. */
inline double
scaleFactor()
{
    const char *env = std::getenv("WHISPER_BENCH_SCALE");
    if (!env)
        return 1.0;
    double v = std::strtod(env, nullptr);
    return v > 0.0 ? v : 1.0;
}

/** Experiment defaults shared by the benches. */
inline ExperimentConfig
defaultConfig(double extraScale = 1.0)
{
    ExperimentConfig cfg;
    double s = scaleFactor() * extraScale;
    cfg.trainRecords =
        static_cast<uint64_t>(cfg.trainRecords * s);
    cfg.testRecords = static_cast<uint64_t>(cfg.testRecords * s);
    return cfg;
}

/** Worker threads for shard-parallel evaluation runs, from the
 * WHISPER_BENCH_JOBS environment variable (default: all cores). */
inline unsigned
benchJobs()
{
    const char *env = std::getenv("WHISPER_BENCH_JOBS");
    if (!env)
        return 0; // resolved to hardware_concurrency by the runner
    long v = std::strtol(env, nullptr, 10);
    return v > 0 ? static_cast<unsigned>(v) : 0;
}

/** Sharded-run configuration for bench evaluation sweeps: exact
 * full-prefix warm-up, so tables are bit-identical to the serial
 * engine's, parallel when cores are available. */
inline ShardedRunConfig
benchShardConfig(uint64_t windowRecords)
{
    ShardedRunConfig cfg;
    cfg.jobs = benchJobs();
    cfg.windowRecords = windowRecords;
    cfg.warmupRecords = ShardedRunConfig::kFullPrefix;
    return cfg;
}

/** Announce a bench with its paper reference. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("### %s\n### reproduces: %s\n", what.c_str(),
                paperRef.c_str());
    std::printf("### trace scale: %.2fx\n\n", scaleFactor());
}

/** Append an arithmetic-mean row across the numeric columns. */
inline void
addAverageRow(TableReporter &table,
              const std::vector<std::vector<double>> &rows,
              int precision = 2)
{
    if (rows.empty())
        return;
    std::vector<double> avg(rows[0].size(), 0.0);
    for (const auto &r : rows)
        for (size_t c = 0; c < r.size(); ++c)
            avg[c] += r[c];
    for (auto &v : avg)
        v /= rows.size();
    table.addRow("Avg", avg, precision);
}

/** @p s as a JSON string literal. */
inline std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/**
 * The members that say where a bench JSON's numbers come from:
 * "host" (CPU model and hardware threads), "commit" (the source
 * tree's git commit, "-dirty" when it has uncommitted changes) and
 * "build_type". Each line is indented two spaces and ends with
 * ",\n", ready to follow the JSON object's opening brace.
 */
inline std::string
benchStampJson()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos &&
                colon + 2 <= line.size())
                cpu = line.substr(colon + 2);
            break;
        }
    }

    std::string commit;
    std::string cmd = std::string("git -C \"") + WHISPER_SOURCE_DIR +
                      "\" describe --always --dirty --abbrev=40"
                      " 2>/dev/null";
    if (FILE *git = popen(cmd.c_str(), "r")) {
        char buf[128];
        if (std::fgets(buf, sizeof buf, git))
            commit = buf;
        pclose(git);
    }
    while (!commit.empty() &&
           (commit.back() == '\n' || commit.back() == '\r'))
        commit.pop_back();
    if (commit.empty())
        commit = "unknown";

    return "  \"host\": {\"cpu_model\": " + jsonQuote(cpu) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           "},\n  \"commit\": " + jsonQuote(commit) +
           ",\n  \"build_type\": " + jsonQuote(WHISPER_BUILD_TYPE) +
           ",\n";
}

} // namespace whisper::bench

#endif // WHISPER_BENCH_COMMON_HH
