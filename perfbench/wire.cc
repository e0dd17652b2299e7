/**
 * @file
 * The wire workloads (wire_ingest, wire_retrain) and the chunk-level
 * layer replays.
 *
 * Both workloads run one in-process TenantRouter + WireServer and
 * drive it from one WhisperClient connection in a closed loop (each
 * chunk waits for its ack), so at most nproc threads are busy: the
 * client, the event loop and one absorber per tenant.
 *
 * wire_ingest: two tenants, large (~50k-record) chunks, epochChunks
 * above the chunks per tenant, so training runs once, at drain. Frame
 * CRC/parse, routing and ChunkProfiler dominate; training does little.
 *
 * wire_retrain: two tenants with phase drift, small chunks,
 * epochChunks = 2 and per-tenant journals. Each round sends one
 * epoch's chunks per tenant, waits until the tenants' metrics show
 * the epochs those chunks imply, then pulls both bundles. Screening,
 * search, warm/cold retraining, validation replay, journal fsync,
 * deploy and BUNDLE/BUNDLE_UNCHANGED pulls dominate, and waiting per
 * epoch keeps the bundle history deterministic (no dropped jobs).
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common.hh"
#include "spans.hh"
#include "net/whisper_client.hh"
#include "net/wire_protocol.hh"
#include "net/wire_server.hh"
#include "service/chunk_profiler.hh"
#include "service/hint_journal.hh"
#include "service/tenant_router.hh"
#include "sim/runner.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** How a session drives the service. */
struct SessionShape
{
    bool perEpochLoop = false; //!< wait + pull after every epoch
    unsigned epochChunks = 2;
    std::string journalDir;    //!< "" = no journals
};

/** One in-process service instance plus its client connection. */
class WireSession
{
  public:
    WireSession(const std::vector<TenantStream> &tenants,
                const SessionShape &shape, const TruthTableCache &cache)
        : tenants_(tenants), shape_(shape)
    {
        Span span("service.start");
        TenantRouterConfig cfg;
        cfg.epochChunks = shape.epochChunks;
        cfg.trainWorkers =
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        cfg.verbose = false;
        cfg.journalDir = shape.journalDir;
        size_t maxChunks = 0;
        for (const TenantStream &t : tenants)
            maxChunks = std::max(maxChunks, t.chunks.size());
        // A queue that holds every chunk of a tenant: the closed loop
        // never meets backpressure, so no retry timer adds idle time.
        cfg.defaultQuota.maxQueuedChunks = maxChunks + 1;
        router_ = std::make_unique<TenantRouter>(cfg, cache);
        for (const TenantStream &t : tenants)
            router_->addTenant(t.app);
        router_->start();

        WireServerConfig scfg;
        scfg.retryAfterMs = 5;
        TenantRouter *router = router_.get();
        server_ = std::make_unique<WireServer>(
            scfg,
            [router](TraceChunk chunk) {
                switch (router->tryOffer(std::move(chunk))) {
                case TenantRouter::OfferOutcome::Accepted:
                    return ChunkSinkResult::Accepted;
                case TenantRouter::OfferOutcome::UnknownApp:
                    return ChunkSinkResult::UnknownApp;
                default:
                    return ChunkSinkResult::Backpressure;
                }
            },
            [router](const std::string &app)
                -> std::optional<HintStore::Snapshot> {
                Tenant *tenant = router->registry().find(app);
                if (!tenant)
                    return std::nullopt;
                return tenant->store.current();
            });
    }

    ~WireSession() { stop(); }

    /** Start listening and connect the client (first pull = the
     * connection handshake). */
    bool
    connect(Report &report)
    {
        Span span("net.serverStart");
        std::string error;
        if (!report.op(server_->start(&error), "wire server start: " + error))
            return false;
        WhisperClientConfig ccfg;
        ccfg.port = server_->boundPort();
        ccfg.stream = "perfbench";
        ccfg.incarnation = 1;
        client_ = std::make_unique<WhisperClient>(ccfg);
        return report.op(client_->pullBundle(tenants_.front().app)
                             .has_value(),
                         "client handshake: " + client_->lastError());
    }

    /** The timed phase: each round, then the drain and final pulls, is
     * one stage appended to @p stages. @return records acked. */
    uint64_t
    run(Report &report,
        std::vector<std::pair<double, double>> *stages = nullptr)
    {
        WhisperClientStats before = client_->stats();
        std::vector<size_t> sent(tenants_.size(), 0);
        std::vector<Clock::time_point> lastAck(tenants_.size());
        std::vector<double> turnaround;
        uint64_t acked = 0;

        auto send = [&](size_t t) {
            const TenantStream &ts = tenants_[t];
            const Records &chunk = ts.chunks[sent[t]];
            bool ok;
            {
                Span span("net.ingestChunk", chunk.size());
                ok = client_->ingestChunk(ts.app, ts.chunkInput[sent[t]],
                                          chunk);
            }
            if (report.op(ok, ts.app + " chunk ack: " + client_->lastError()))
                acked += chunk.size();
            ++sent[t];
            lastAck[t] = Clock::now();
        };
        auto pullAll = [&]() {
            for (size_t t = 0; t < tenants_.size(); ++t) {
                std::optional<VersionedHintBundle> b;
                {
                    Span span("net.pullBundle");
                    b = client_->pullBundle(tenants_[t].app);
                }
                if (report.op(b.has_value(), tenants_[t].app + " pull: " +
                                                 client_->lastError()))
                    pulled_[tenants_[t].app] = std::move(*b);
            }
        };

        size_t rounds = 0;
        for (const TenantStream &ts : tenants_)
            rounds = std::max(rounds, ts.chunks.size());
        size_t perRound = shape_.perEpochLoop ? shape_.epochChunks : 1;
        for (size_t r = 0; r * perRound < rounds; ++r) {
            StageTimer timer(stages);
            for (size_t t = 0; t < tenants_.size(); ++t)
                for (size_t k = 0;
                     k < perRound && sent[t] < tenants_[t].chunks.size();
                     ++k)
                    send(t);
            if (!shape_.perEpochLoop)
                continue;
            waitForEpochs(sent, lastAck, turnaround, report);
            pullAll();
        }
        {
            StageTimer timer(stages);
            auto drainStart = Clock::now();
            {
                Span span("service.finish");
                router_->finish();
            }
            if (!shape_.perEpochLoop)
                for (size_t t = 0; t < tenants_.size(); ++t)
                    turnaround.push_back(since(drainStart));
            pullAll();
        }

        const WhisperClientStats &after = client_->stats();
        uint64_t acks = after.chunksAcked - before.chunksAcked;
        uint64_t pulls = after.bundlePulls - before.bundlePulls;
        report.layer("net.retry_frac",
                     acks ? static_cast<double>(after.retries -
                                                before.retries) /
                                acks
                          : 0.0);
        report.layer("net.pull_unchanged_frac",
                     pulls ? static_cast<double>(after.bundleHits -
                                                 before.bundleHits) /
                                 pulls
                           : 0.0);
        report.layer("service.epoch_turnaround_ms_p50",
                     1e3 * percentile(turnaround, 0.5));
        recordsSent_ = 0;
        for (size_t t = 0; t < tenants_.size(); ++t)
            for (size_t i = 0; i < sent[t]; ++i)
                recordsSent_ += tenants_[t].chunks[i].size();
        chunksSent_ = 0;
        for (size_t n : sent)
            chunksSent_ += n;
        return acked;
    }

    /** Untimed output checks against the service's own state. */
    void
    check(Report &report)
    {
        WireServerStats ws = server_->stats();
        report.op(client_->stats().chunksAcked == ws.chunksAccepted &&
                      ws.chunksAccepted == chunksSent_,
                  "client acks == server chunksAccepted == chunks sent");
        uint64_t routed = 0, dropped = 0, jobsDropped = 0, epochs = 0;
        uint64_t warm = 0, cold = 0, accepted = 0, rejected = 0;
        double trainSecs = 0.0;
        for (const TenantStream &ts : tenants_) {
            Tenant *tenant = router_->registry().find(ts.app);
            TenantMetrics m = tenant->metrics();
            routed += m.recordsRouted;
            dropped += m.chunksDropped;
            jobsDropped += m.trainJobsDropped;
            epochs += m.epochsRun;
            warm += m.warmHits;
            cold += m.coldSearches;
            accepted += m.bundlesAccepted;
            rejected += m.bundlesRejected;
            trainSecs += m.trainLatencyMean * m.epochsRun;
            HintStore::Snapshot current = tenant->store.current();
            auto it = pulled_.find(ts.app);
            report.op(it != pulled_.end() &&
                          (current ? *current == it->second
                                   : it->second.epoch == 0),
                      ts.app + ": pulled bundle == HintStore::current()");
        }
        report.op(routed == recordsSent_,
                  "records routed == records sent");
        report.op(dropped == 0 && jobsDropped == 0,
                  "no chunk and no training job dropped");
        report.layer("service.train_jobs_dropped",
                     static_cast<double>(jobsDropped));
        report.layer("service.train_ms_mean",
                     epochs ? 1e3 * trainSecs / epochs : 0.0);
        report.layer("service.warm_hit_frac",
                     warm + cold ? static_cast<double>(warm) / (warm + cold)
                                 : 0.0);
        report.layer("service.accept_frac",
                     accepted + rejected
                         ? static_cast<double>(accepted) /
                               (accepted + rejected)
                         : 0.0);
        report.digest["service.epochs"] = std::to_string(epochs);
        report.digest["service.bundles_accepted"] = std::to_string(accepted);
    }

    void
    stop()
    {
        if (server_)
            server_->stop();
        client_.reset();
        if (router_)
            router_->finish();
    }

    const std::map<std::string, VersionedHintBundle> &
    pulled() const
    {
        return pulled_;
    }

  private:
    /** Block until every tenant has run the epochs its chunks imply
     * (the newest chunk is held out, so n chunks give (n-1)/E). */
    void
    waitForEpochs(const std::vector<size_t> &sent,
                  const std::vector<Clock::time_point> &lastAck,
                  std::vector<double> &turnaround, Report &report)
    {
        Span span("service.epochWait");
        const double timeoutSec = 60.0;
        auto start = Clock::now();
        std::vector<bool> done(tenants_.size(), false);
        size_t remaining = tenants_.size();
        while (remaining > 0) {
            for (size_t t = 0; t < tenants_.size(); ++t) {
                if (done[t])
                    continue;
                uint64_t want = sent[t] ? (sent[t] - 1) / shape_.epochChunks
                                        : 0;
                if (want > epochsSeen_[tenants_[t].app]) {
                    TenantMetrics m =
                        router_->registry().find(tenants_[t].app)->metrics();
                    if (m.epochsRun < want)
                        continue;
                    turnaround.push_back(since(lastAck[t]));
                    report.op(true, "epoch");
                    epochsSeen_[tenants_[t].app] = want;
                }
                done[t] = true;
                --remaining;
            }
            if (remaining == 0)
                break;
            if (since(start) > timeoutSec) {
                report.op(false, "expected training epoch within 60 s");
                return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    const std::vector<TenantStream> &tenants_;
    SessionShape shape_;
    std::unique_ptr<TenantRouter> router_;
    std::unique_ptr<WireServer> server_;
    std::unique_ptr<WhisperClient> client_;
    std::map<std::string, VersionedHintBundle> pulled_;
    std::map<std::string, uint64_t> epochsSeen_;
    uint64_t recordsSent_ = 0;
    uint64_t chunksSent_ = 0;
};

/** Shared implementation of both wire workloads. */
class WireWorkload : public Workload
{
  public:
    struct Shape
    {
        const char *tag;
        std::vector<const char *> apps;
        size_t chunkRecords;
        size_t chunksPerTenant;
        size_t inputsPerTenant;
        uint64_t testRecords;
        bool retrain; //!< per-epoch loop, journals and phase drift
    };

    WireWorkload(uint64_t seed, double scale, const Shape &shape)
        : seed_(seed), shape_(shape)
    {
        shape_.chunksPerTenant = std::max<size_t>(
            2 * shape_.inputsPerTenant,
            static_cast<size_t>(shape_.chunksPerTenant * scale));
        shape_.testRecords =
            static_cast<uint64_t>(shape_.testRecords * scale);
    }

    void
    setup(Report &report) override
    {
        {
            Span span("core.truthTables");
            cache_ = std::make_unique<TruthTableCache>(8);
        }
        buildTenants();
        SessionShape s;
        s.perEpochLoop = shape_.retrain;
        s.epochChunks =
            shape_.retrain ? 2
                           : static_cast<unsigned>(shape_.chunksPerTenant + 1);
        if (shape_.retrain)
            s.journalDir = journalDir_ = scratchDir(shape_.tag);
        session_ = std::make_unique<WireSession>(tenants_, s, *cache_);
        setupOk_ = session_->connect(report);
    }

    uint64_t
    run(Report &report) override
    {
        if (!setupOk_)
            return 0;
        return session_->run(report, &report.stages);
    }

    void
    verify(Report &report, bool first) override
    {
        if (!setupOk_)
            return;
        session_->check(report);
        for (const TenantStream &ts : tenants_) {
            auto it = session_->pulled().find(ts.app);
            if (it == session_->pulled().end())
                continue;
            std::string key = "bundle." + ts.app;
            std::string digest = bundleDigest(it->second);
            if (first)
                report.digest[key] = digest;
            else
                report.op(report.digest[key] == digest,
                          key + " identical in every pass");
        }
        if (!first)
            return;
        // Replay the final pulled bundles on held-out inputs (untimed).
        std::vector<BundleEval> evals;
        std::vector<std::string> apps;
        ExperimentConfig cfg;
        uint64_t hints = 0;
        for (const TenantStream &ts : tenants_) {
            auto it = session_->pulled().find(ts.app);
            if (it == session_->pulled().end())
                continue;
            const HintBundle &bundle = it->second.bundle;
            hints += bundle.hints.size();
            evals.push_back(evalBundle(bundle, ts.test, cfg, *cache_));
            apps.push_back(ts.app);
        }
        checkAccuracy(evals, apps, report);
        report.digest["service.hints_deployed"] = std::to_string(hints);
    }

    void
    teardown() override
    {
        if (session_) {
            last_ = session_->pulled();
            session_.reset();
        }
        if (!journalDir_.empty())
            std::filesystem::remove_all(journalDir_);
    }

    void replay(Report &report) override;

  private:
    /** Each tenant's stream models a fleet: inputsPerTenant agents,
     * each running its own input, whose chunks arrive round-robin. A
     * drift schedule shifts every agent's phase at the same time. */
    void
    buildTenants()
    {
        Span span("workloads.generate");
        SeedStream rng(seed_, shape_.retrain ? 0x2E72 : 0x1A6E);
        tenants_.clear();
        const size_t agents = shape_.inputsPerTenant;
        const size_t perAgent = shape_.chunksPerTenant / agents;
        const uint64_t agentRecords = shape_.chunkRecords * perAgent;
        for (const char *app : shape_.apps) {
            const AppConfig &cfg = appByName(app);
            std::vector<uint32_t> ids = pickInputs(rng, agents + 1);
            DriftSpec drift;
            if (shape_.retrain) {
                drift.kind = DriftKind::Phase;
                drift.periodRecords = agentRecords / 4;
                drift.phases = 4;
                drift.intensity = 0.5;
                drift.seed = rng.next();
            }
            std::vector<std::vector<Records>> byAgent;
            for (size_t a = 0; a < agents; ++a)
                byAgent.push_back(
                    chunkRecords(generate(cfg, ids[a], agentRecords, drift),
                                 shape_.chunkRecords, perAgent));
            TenantStream ts;
            ts.app = app;
            for (size_t j = 0; j < perAgent; ++j)
                for (size_t a = 0; a < agents; ++a) {
                    ts.chunks.push_back(std::move(byAgent[a][j]));
                    ts.chunkInput.push_back(ids[a]);
                }
            // Held out = an input no agent ran. Under drift it is drawn
            // from the phase the stream ends in (every fourth period),
            // the traffic the last bundle serves.
            uint32_t testInput = ids.back();
            if (!shape_.retrain) {
                ts.test = generate(cfg, testInput, shape_.testRecords);
            } else {
                Records all =
                    generate(cfg, testInput, 4 * shape_.testRecords, drift);
                ts.test.reserve(shape_.testRecords);
                for (uint64_t i = 0; i < all.size() &&
                                     ts.test.size() < shape_.testRecords;
                     ++i)
                    if ((i / drift.periodRecords) % drift.phases ==
                        drift.phases - 1)
                        ts.test.push_back(all[i]);
            }
            span.setItems(agentRecords * agents + ts.test.size());
            tenants_.push_back(std::move(ts));
        }
    }

    uint64_t seed_;
    Shape shape_;
    std::unique_ptr<TruthTableCache> cache_;
    std::vector<TenantStream> tenants_;
    std::unique_ptr<WireSession> session_;
    std::map<std::string, VersionedHintBundle> last_;
    std::string journalDir_;
    bool setupOk_ = false;
};

void
WireWorkload::replay(Report &report)
{
    Span span("replay");
    // The offline chain over each tenant's own chunk stream gives the
    // bp/sim/core/uarch numbers free of thread interleaving.
    ExperimentConfig cfg;
    std::vector<ChainResult> chains;
    {
        Span pass("pass.offline");
        for (const TenantStream &ts : tenants_) {
            Records train;
            for (const Records &chunk : ts.chunks)
                train.insert(train.end(), chunk.begin(), chunk.end());
            chains.push_back(offlineChain(train, ts.test, cfg, *cache_));
        }
    }
    summarizeChains(chains, report);
    std::vector<const BranchProfile *> profiles;
    for (const ChainResult &c : chains)
        profiles.push_back(&c.profile);
    screenReplay(profiles, report);

    std::vector<VersionedHintBundle> bundles;
    for (const TenantStream &ts : tenants_) {
        auto it = last_.find(ts.app);
        if (it != last_.end()) {
            bundleRoundTrip(it->second.bundle, report);
            bundles.push_back(it->second);
        }
    }
    std::string tmp = scratchDir(std::string(shape_.tag) + "-replay");
    chunkLayerReplay(tenants_, bundles, *cache_, tmp, report);
    std::filesystem::remove_all(tmp);
}

} // namespace

void
chunkLayerReplay(const std::vector<TenantStream> &tenants,
                 const std::vector<VersionedHintBundle> &bundles,
                 const TruthTableCache &cache, const std::string &tmpDir,
                 Report &report)
{
    ExperimentConfig cfg;
    bool codecOk = true;
    for (const TenantStream &ts : tenants) {
        uint64_t seq = 0;
        for (const auto &chunk : ts.chunks) {
            IngestChunkMsg msg;
            msg.app = ts.app;
            msg.stream = "replay";
            msg.seq = seq++;
            msg.records = chunk;
            Span span("net.codec");
            std::vector<unsigned char> payload = encodeIngestChunk(msg);
            span.setItems(payload.size());
            std::vector<unsigned char> frame =
                encodeFrame(WireOp::IngestChunk, payload);
            FrameParser parser;
            parser.feed(frame.data(), frame.size());
            WireFrame out;
            IngestChunkMsg decoded;
            codecOk = codecOk &&
                      parser.next(out) == FrameParser::Result::Frame &&
                      decodeIngestChunk(out.payload, decoded) &&
                      decoded.records.size() == chunk.size();
        }
    }
    report.op(codecOk, "frame codec round trip");

    for (const TenantStream &ts : tenants) {
        ChunkProfiler profiler(cfg.whisper, makeTage(cfg.tageBudgetKB),
                               ChunkProfiler::Options{});
        for (const auto &chunk : ts.chunks) {
            Span span("service.profileChunk", chunk.size());
            profiler.profileChunk(chunk);
        }
    }

    std::filesystem::create_directories(tmpDir);
    HintJournal journal;
    std::vector<VersionedHintBundle> replayed;
    report.op(journal.open(tmpDir + "/replay.journal", replayed).ok(),
              "replay journal open");
    uint64_t epoch = 0;
    for (VersionedHintBundle b : bundles) {
        b.epoch = ++epoch;
        Span span("service.journalAppend", b.bundle.hints.size());
        report.op(journal.append(b), "journal append");
    }
    journal.close();

    // Validation replay: the incumbent-vs-candidate accuracy runs a
    // deploy decision makes, on each tenant's newest chunk.
    for (size_t i = 0; i < bundles.size() && i < tenants.size(); ++i) {
        const Records &holdout = tenants[i].chunks.back();
        Span span("service.validate", 2 * holdout.size());
        ChunkSource tageSource(holdout);
        auto tage = makeTage(cfg.tageBudgetKB);
        runPredictor(tageSource, *tage);
        ChunkSource whisperSource(holdout);
        WhisperPredictor whisper(makeTage(cfg.tageBudgetKB), cfg.whisper,
                                 cache, bundles[i].bundle.hints,
                                 bundles[i].bundle.placements);
        runPredictor(whisperSource, whisper);
    }
}

void
serialWireSession(std::vector<TenantStream> tenants,
                  const TruthTableCache &cache, const std::string &tmpDir,
                  Report &report)
{
    Span span("replay.session");
    SessionShape shape;
    shape.perEpochLoop = true;
    shape.epochChunks = 2;
    shape.journalDir = tmpDir + "/journals";
    std::filesystem::create_directories(shape.journalDir);
    {
        WireSession session(tenants, shape, cache);
        if (session.connect(report)) {
            session.run(report);
            session.check(report);
        }
    }
    std::filesystem::remove_all(tmpDir);
}

std::unique_ptr<Workload>
makeWireIngest(uint64_t seed, double scale)
{
    return std::make_unique<WireWorkload>(
        seed, scale,
        WireWorkload::Shape{"wire_ingest", {"kafka", "mysql"}, 50'000, 24, 4,
                            300'000, false});
}

std::unique_ptr<Workload>
makeWireRetrain(uint64_t seed, double scale)
{
    return std::make_unique<WireWorkload>(
        seed, scale,
        WireWorkload::Shape{"wire_retrain", {"kafka", "mysql"}, 20'000, 40, 4,
                            200'000, true});
}

} // namespace perfbench


