/**
 * @file
 * Benchmark entry point: one process runs one workload for --seconds,
 * repeating whole passes (setup, timed run, checks): setup time is a
 * median over passes, throughput counts each stage of the timed run at
 * its fastest pass. Prints a stamp line, a determinism digest line
 * and, last, the result JSON.
 *
 *   perfbench --workload offline_paper|wire_ingest|wire_retrain
 *             --seed N --seconds S --trace 0|1 [--scale F]
 *             [--commit ID]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 records spans,
 * replays inputs serially through each layer, writes the spans to
 * .bench_out/spans-<workload>-<seed>.json and reports per-layer
 * metrics.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common.hh"
#include "spans.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "offline_paper|wire_ingest|wire_retrain --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--commit ID]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), &end, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v.c_str(), &end);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--scale")
            o.scale = std::strtod(v.c_str(), &end);
        else if (a == "--commit")
            o.commit = v;
        else
            usage(("unknown option " + a).c_str());
        if (end && *end)
            usage(("bad number for " + a).c_str());
    }
    if (o.seconds <= 0.0 || o.scale <= 0.0 || o.scale > 1.0)
        usage("--seconds must be positive and --scale in (0, 1]");
    return o;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** Restart the kernel's peak-RSS mark (VmHWM) at the current RSS.
 * @return false where /proc/self/clear_refs does not support it. */
bool
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return static_cast<bool>(f);
}

/** Peak RSS in MB since the last resetPeakRss() (process lifetime
 * where the reset is unsupported). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

/** Table updates per reference-kernel timing. */
constexpr int kRefSteps = 8'000'000;
/** The reference kernel's time on an uncontended host (4-vCPU Xeon
 * VM); it only sets the scale of the host-adjusted metrics. */
constexpr double kRefNominalMs = 25.0;

/**
 * How much slower than nominal the host ran, from the reference
 * kernel's time. On a shared VM the host's memory system is the
 * noise: over sets of runs in which the kernel's time ranged from 24
 * to 47 ms, the benchmark's work slowed in proportion to it, while CPU
 * time tracked wall time. Setup times are therefore scaled by this
 * factor to the nominal host.
 */
double
hostSlowdown(double refMs)
{
    return refMs / kRefNominalMs;
}

/** A fixed single-threaded kernel (xorshift walk over a 4 MB table):
 * its time drifts with the host, not with the code under test. */
class RefKernel
{
  public:
    RefKernel() : table_(1u << 20)
    {
        for (uint32_t i = 0; i < table_.size(); ++i)
            table_[i] = i * 2654435761u;
    }

    /** Milliseconds for @p steps table updates. */
    double
    ms(int steps)
    {
        auto t0 = Clock::now();
        for (int i = 0; i < steps; ++i) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 17;
            x_ ^= x_ << 5;
            uint32_t &slot = table_[x_ & (table_.size() - 1)];
            acc_ += slot;
            slot ^= acc_;
        }
        double out =
            1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
        if (acc_ == 0x12345678u)
            std::fprintf(stderr, " ");
        return out;
    }

  private:
    std::vector<uint32_t> table_;
    uint32_t x_ = 2463534242u;
    uint32_t acc_ = 0;
};

/** Samples which CPUs the process's threads run on, from
 * /proc/self/task/<tid>/stat (field 39), every 20 ms. */
class CpuSampler
{
  public:
    CpuSampler() : thread_([this] { loop(); }) {}
    ~CpuSampler()
    {
        stop_ = true;
        thread_.join();
    }

    size_t
    cpusUsed()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return cpus_.size();
    }

  private:
    void
    loop()
    {
        long self = syscall(SYS_gettid);
        while (!stop_) {
            sample(self);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }

    void
    sample(long self)
    {
        DIR *dir = opendir("/proc/self/task");
        if (!dir)
            return;
        while (dirent *e = readdir(dir)) {
            if (e->d_name[0] == '.' || std::atol(e->d_name) == self)
                continue;
            std::ifstream in(std::string("/proc/self/task/") + e->d_name +
                             "/stat");
            std::string line;
            if (!std::getline(in, line))
                continue;
            size_t close = line.rfind(')');
            if (close == std::string::npos)
                continue;
            std::istringstream fields(line.substr(close + 2));
            std::string f;
            // Fields after "comm": state is field 3, processor is 39.
            for (int i = 3; i <= 39 && fields >> f; ++i)
                if (i == 39) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    cpus_.insert(std::atoi(f.c_str()));
                }
        }
        closedir(dir);
    }

    std::atomic<bool> stop_{false};
    std::mutex mutex_;
    std::set<int> cpus_;
    std::thread thread_;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
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

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += jsonString(name) + ": {\"value\": " + num(value) +
                 ", \"unit\": " + jsonString(unit) + "}";
    }
    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Seconds per offline pass of the spans named @p name inside the
 * "pass.offline" spans @p inPass. */
double
perPass(const std::map<std::string, SpanTotals> &inPass,
        const std::string &name, double passes)
{
    auto it = inPass.find(name);
    return it == inPass.end() || passes <= 0 ? 0.0
                                             : it->second.seconds / passes;
}

const SpanTotals &
spans(const std::map<std::string, SpanTotals> &t, const std::string &name)
{
    static const SpanTotals empty;
    auto it = t.find(name);
    return it == t.end() ? empty : it->second;
}

/** Mean cost of one recorded span, measured on the live tracer. */
double
spanCostSeconds()
{
    Tracer &tracer = Tracer::instance();
    size_t mark = tracer.size();
    const int n = 20'000;
    tracer.setEnabled(true);
    auto t0 = Clock::now();
    for (int i = 0; i < n; ++i)
        Span span("host.calibrate");
    double s = std::chrono::duration<double>(Clock::now() - t0).count();
    tracer.setEnabled(false);
    tracer.truncate(mark);
    return s / n;
}

void
addLayerMetrics(MetricSet &m, const Report &r, double wallSeconds,
                double spanCoverage)
{
    auto t = Tracer::instance().totals();
    auto inPass = Tracer::instance().totals("pass.offline");
    double passes = static_cast<double>(spans(t, "pass.offline").count);
    auto ms = [](const SpanTotals &s, double q) {
        return 1e3 * percentile(s.durations, q);
    };
    auto layer = [&](const std::string &name, const char *unit) {
        auto it = r.layers.find(name);
        m.add(name, it == r.layers.end() ? 0.0 : it->second, unit);
    };

    m.add("workloads.gen_s", median(spans(t, "workloads.generate").durations),
          "s");
    const SpanTotals &tage = spans(t, "bp.runPredictor.tage");
    m.add("bp.tage_mrec_per_s",
          tage.seconds > 0 ? tage.items / tage.seconds / 1e6 : 0.0,
          "Mrec/s");
    m.add("sim.profile_s", perPass(inPass, "sim.collectProfile", passes), "s");
    m.add("core.train_s", perPass(inPass, "core.train", passes), "s");
    m.add("core.screen_s", spans(t, "core.screenBranch").seconds, "s");
    layer("core.formulas_scored", "count");
    layer("core.hint_coverage", "ratio");
    m.add("core.place_s", perPass(inPass, "core.place", passes), "s");
    const SpanTotals &whisper = spans(t, "core.runPredictor.whisper");
    m.add("core.whisper_overhead",
          tage.seconds > 0 ? whisper.seconds / tage.seconds : 0.0, "ratio");
    layer("core.hint_hit_frac", "ratio");
    layer("core.hint_evictions", "count");
    layer("core.test_app_losses", "count");
    m.add("core.bundle_encode_ms", ms(spans(t, "core.bundle_encode"), 0.5),
          "ms");
    m.add("uarch.pipeline_s",
          perPass(inPass, "uarch.pipeline.tage", passes) +
              perPass(inPass, "uarch.pipeline.whisper", passes),
          "s");
    layer("uarch.squash_cycle_frac", "ratio");
    m.add("net.ack_ms_p50", ms(spans(t, "net.ingestChunk"), 0.5), "ms");
    m.add("net.ack_ms_p99", ms(spans(t, "net.ingestChunk"), 0.99), "ms");
    const SpanTotals &codec = spans(t, "net.codec");
    m.add("net.codec_mb_per_s",
          codec.seconds > 0 ? codec.items / codec.seconds / 1e6 : 0.0, "MB/s");
    layer("net.retry_frac", "ratio");
    m.add("net.pull_ms_p50", ms(spans(t, "net.pullBundle"), 0.5), "ms");
    layer("net.pull_unchanged_frac", "ratio");
    m.add("service.profile_chunk_ms",
          ms(spans(t, "service.profileChunk"), 0.5), "ms");
    m.add("service.drain_s", median(spans(t, "service.finish").durations),
          "s");
    layer("service.epoch_turnaround_ms_p50", "ms");
    layer("service.train_ms_mean", "ms");
    m.add("service.validate_ms", ms(spans(t, "service.validate"), 0.5), "ms");
    m.add("service.journal_append_ms",
          ms(spans(t, "service.journalAppend"), 0.5), "ms");
    layer("service.warm_hit_frac", "ratio");
    layer("service.accept_frac", "ratio");
    layer("service.train_jobs_dropped", "count");
    m.add("host.cpu_ns_per_rec",
          r.timedRecords ? 1e9 * r.timedCpuSeconds / r.timedRecords : 0.0,
          "ns");
    size_t total = 0;
    for (const auto &[name, s] : t)
        total += s.count;
    m.add("host.tracing_overhead",
          wallSeconds > 0 ? total * spanCostSeconds() / wallSeconds : 0.0,
          "ratio");
    m.add("host.span_coverage", spanCoverage, "ratio");
}

int
benchMain(const Options &opt)
{
    std::unique_ptr<Workload> wl;
    if (opt.workload == "offline_paper")
        wl = makeOfflinePaper(opt.seed, opt.scale);
    else if (opt.workload == "wire_ingest")
        wl = makeWireIngest(opt.seed, opt.scale);
    else if (opt.workload == "wire_retrain")
        wl = makeWireRetrain(opt.seed, opt.scale);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    CpuSampler sampler;
    Tracer &tracer = Tracer::instance();
    Report report;
    RefKernel ref;
    ref.ms(kRefSteps); // warms the table and the CPU
    // The host's speed, timed while the process is quiet: before the
    // first pass and after every pass.
    auto timeHost = [&] {
        std::vector<double> ms;
        for (int i = 0; i < 3; ++i)
            ms.push_back(ref.ms(kRefSteps));
        report.refMs.push_back(median(ms));
    };
    timeHost();

    tracer.setEnabled(opt.trace);
    double runStart = tracer.now();
    auto wallStart = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - wallStart).count();
    };
    // Pass 0 warms the allocator, page cache and CPU; the figures use
    // the (at least three) passes after it.
    const unsigned minPasses = 3;
    std::vector<double> setupAdjusted;
    std::vector<double> bestStage; // fastest time of each stage
    uint64_t passRecords = 0;
    for (unsigned pass = 0; pass <= minPasses || elapsed() < opt.seconds;
         ++pass) {
        bool perPassPeak = resetPeakRss();
        double t0 = steadySeconds();
        wl->setup(report);
        double t1 = steadySeconds();
        double cpu0 = cpuSeconds();
        report.stages.clear();
        uint64_t records = wl->run(report);
        double t2 = steadySeconds();
        double cpu1 = cpuSeconds();
        double peakMb = perPassPeak ? peakRssMb() : 0.0;
        wl->verify(report, pass == 0);
        wl->teardown();
        // Hand freed heap back to the kernel, so that every pass starts
        // from the same resident baseline.
        malloc_trim(0);
        timeHost();
        if (pass == 0)
            continue;
        report.peakRssMb.push_back(peakMb);
        report.timedCpuSeconds += cpu1 - cpu0;
        report.timedRecords += records;
        double setupSec = t1 - t0;
        double runSec = t2 - t1;
        report.setupSeconds.push_back(setupSec);
        report.recordsPerSec.push_back(runSec > 0 ? records / runSec : 0.0);
        setupAdjusted.push_back(
            setupSec / hostSlowdown(0.5 * (report.refMs.rbegin()[1] +
                                           report.refMs.back())));
        // A workload that does not time its stages is one stage.
        if (report.stages.empty())
            report.stages.emplace_back(t1, t2);
        report.op(passRecords == 0 ||
                      (records == passRecords &&
                       report.stages.size() == bestStage.size()),
                  "every pass does the same work");
        passRecords = records;
        for (size_t k = 0; k < report.stages.size(); ++k) {
            double sec = report.stages[k].second - report.stages[k].first;
            if (k < bestStage.size())
                bestStage[k] = std::min(bestStage[k], sec);
            else
                bestStage.push_back(sec);
        }
    }
    double bestRunSec = 0.0;
    for (double sec : bestStage)
        bestRunSec += sec;
    if (opt.trace)
        wl->replay(report);
    double runEnd = tracer.now();
    tracer.setEnabled(false);
    double hostRefMs = median(report.refMs);

    std::ostringstream stamp;
    stamp << "{\"workload\": " << jsonString(opt.workload)
          << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
          << ", \"scale\": " << num(opt.scale)
          << ", \"passes\": " << report.recordsPerSec.size()
          << ", \"nproc\": " << std::thread::hardware_concurrency()
          << ", \"cpu_model\": " << jsonString(cpuModel())
          << ", \"commit\": " << jsonString(opt.commit)
          << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
          << ", \"host.ref_kernel_ms\": " << num(hostRefMs)
          << ", \"host.cpus_used\": " << sampler.cpusUsed()
          << ", \"pass_setup_s\": " << numList(report.setupSeconds)
          << ", \"pass_records_per_s\": " << numList(report.recordsPerSec)
          << ", \"pass_peak_rss_mb\": " << numList(report.peakRssMb)
          << ", \"pass_ref_ms\": " << numList(report.refMs)
          << ", \"best_stage_s\": " << numList(bestStage)
          << "}";
    std::printf("{\"stamp\": %s}\n", stamp.str().c_str());

    std::string digest;
    for (const auto &[k, v] : report.digest)
        digest += (digest.empty() ? "" : ", ") + jsonString(k) + ": " +
                  jsonString(v);
    std::printf("{\"digest\": {\"mispredict_ratio\": %s, \"cycle_ratio\": "
                "%s%s%s}}\n",
                num(report.mispredictRatio).c_str(),
                num(report.cycleRatio).c_str(), digest.empty() ? "" : ", ",
                digest.c_str());

    MetricSet m;
    if (!opt.trace) {
        // Setup: each pass's time scaled to nominal host speed by the
        // reference kernel timed before and after it (hostSlowdown()),
        // then the median over passes. Throughput: one pass's records
        // over the sum of each stage's fastest time across passes, so
        // that a stage slowed by a noisy neighbour in some passes
        // counts at the speed the host gave it in its quietest pass.
        m.add("setup_s", median(setupAdjusted), "s");
        m.add("records_per_s",
              bestRunSec > 0 ? passRecords / bestRunSec : 0.0, "1/s");
        // Peak of one pass (setup and timed phase), the smallest over
        // passes: later passes also hold what glibc's per-thread
        // arenas kept from earlier ones, which a single run of the
        // workload would not. The process peak where the mark cannot
        // be reset.
        double lifetimePeak = peakRssMb();
        double passPeak = *std::min_element(report.peakRssMb.begin(),
                                            report.peakRssMb.end());
        m.add("peak_rss_mb", passPeak > 0.0 ? passPeak : lifetimePeak, "MB");
        m.add("ok_ops_frac",
              report.attempted
                  ? static_cast<double>(report.attempted - report.failed) /
                        report.attempted
                  : 0.0,
              "ratio");
        m.add("mispredict_ratio", report.mispredictRatio, "ratio");
        m.add("cycle_ratio", report.cycleRatio, "ratio");
    } else {
        double coverage = tracer.coverage(
            runStart, runEnd,
            {"workloads.", "bp.", "sim.", "core.", "uarch.", "net.",
             "service."});
        addLayerMetrics(m, report, runEnd - runStart, coverage);
        m.add("host.cpus_used", static_cast<double>(sampler.cpusUsed()),
              "count");
        m.add("host.ref_kernel_ms", hostRefMs, "ms");
        std::filesystem::create_directories(".bench_out");
        std::string path = ".bench_out/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
        report.op(tracer.write(path, stamp.str()), "write " + path);
    }

    bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                m.json().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::benchMain(perfbench::parseArgs(argc, argv));
}
