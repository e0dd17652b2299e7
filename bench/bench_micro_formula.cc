/**
 * @file
 * Google-benchmark microbenchmarks for the formula machinery: the
 * per-prediction costs Whisper adds (formula evaluation, hashed
 * history maintenance) and the offline costs (Algorithm 1 scoring,
 * scalar and bit-sliced, and candidate search).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/formula.hh"
#include "core/formula_trainer.hh"
#include "core/history_hash.hh"
#include "rombf/rombf_formula.hh"
#include "trace/global_history.hh"
#include "util/rng.hh"

using namespace whisper;

namespace
{

void
BM_FormulaEvaluate(benchmark::State &state)
{
    BoolFormula f(0x2A51, 8);
    uint8_t in = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.evaluate(in));
        ++in;
    }
}
BENCHMARK(BM_FormulaEvaluate);

void
BM_TruthTableLookup(benchmark::State &state)
{
    static const TruthTableCache cache(8);
    uint16_t enc = 0x2A51;
    uint8_t in = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.evaluate(enc, in));
        ++in;
    }
}
BENCHMARK(BM_TruthTableLookup);

void
BM_FoldedHistoryPush(benchmark::State &state)
{
    // The 16 folded views Whisper maintains at run time.
    GlobalHistory h(2048);
    for (unsigned len : geometricLengths(WhisperConfig{}))
        h.addFoldedView(len, 8);
    bool bit = false;
    for (auto _ : state) {
        h.push(bit);
        bit = !bit;
    }
}
BENCHMARK(BM_FoldedHistoryPush);

void
BM_FoldedHistoryPushTage(benchmark::State &state)
{
    // TAGE-SC-L 64KB's 41 views: 12 tagged tables x (index, tag,
    // tag - 1 bit) over geometric lengths 6..1600, and 5 SC views.
    GlobalHistory h(4096);
    std::vector<unsigned> lens = geometricLengths(6, 1600, 12);
    for (unsigned t = 0; t < lens.size(); ++t) {
        unsigned tagBits = 8 + std::min(3u, t / 4);
        h.addFoldedView(lens[t], 11);
        h.addFoldedView(lens[t], tagBits);
        h.addFoldedView(lens[t], tagBits - 1);
    }
    for (unsigned len : {4u, 10u, 16u, 27u, 44u})
        h.addFoldedView(len, 11);
    bool bit = false;
    for (auto _ : state) {
        h.push(bit);
        bit = !bit;
    }
}
BENCHMARK(BM_FoldedHistoryPushTage);

/** The sample table every scoring case scores against. */
HashedSampleTable
scoringTable()
{
    HashedSampleTable table(8);
    Rng rng(1);
    for (unsigned k = 0; k < 256; ++k) {
        table.taken[k] = static_cast<uint32_t>(rng.nextBelow(50));
        table.notTaken[k] = static_cast<uint32_t>(rng.nextBelow(50));
    }
    return table;
}

void
BM_ScoreFormula(benchmark::State &state)
{
    // The scalar reference: one branchy step per hash key.
    static const TruthTableCache cache(8);
    HashedSampleTable table = scoringTable();
    uint16_t enc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scoreFormula(cache.table(enc), table));
        enc = static_cast<uint16_t>((enc + 977) & 0x7FFF);
    }
}
BENCHMARK(BM_ScoreFormula);

/** The same scores through the bit planes; @p popcnt picks the
 * POPCNT path over the portable one. */
void
scoreBitSliced(benchmark::State &state, bool popcnt)
{
    if (popcnt && !SamplePlanes::hasPopcnt()) {
        state.SkipWithError("this CPU has no POPCNT");
        return;
    }
    static const TruthTableCache cache(8);
    const SamplePlanes planes(scoringTable());
    uint16_t enc = 0;
    for (auto _ : state) {
        const TruthTable &tt = cache.table(enc);
        benchmark::DoNotOptimize(popcnt ? planes.scorePopcnt(tt)
                                        : planes.scoreGeneric(tt));
        enc = static_cast<uint16_t>((enc + 977) & 0x7FFF);
    }
}

void
BM_ScoreFormulaBitSlicedGeneric(benchmark::State &state)
{
    scoreBitSliced(state, false);
}
BENCHMARK(BM_ScoreFormulaBitSlicedGeneric);

void
BM_ScoreFormulaBitSlicedPopcnt(benchmark::State &state)
{
    scoreBitSliced(state, true);
}
BENCHMARK(BM_ScoreFormulaBitSlicedPopcnt);

void
BM_SamplePlanesBuild(benchmark::State &state)
{
    // Paid once per (branch, history length) table.
    HashedSampleTable table = scoringTable();
    for (auto _ : state) {
        SamplePlanes planes(table);
        benchmark::DoNotOptimize(planes);
    }
}
BENCHMARK(BM_SamplePlanesBuild);

void
BM_Algorithm1Randomized(benchmark::State &state)
{
    // One branch x one history length at the paper's 0.1% operating
    // point.
    static const TruthTableCache cache(8);
    FormulaCandidates candidates(8, 0.001, 42);
    HashedSampleTable table(8);
    Rng rng(2);
    for (unsigned k = 0; k < 256; ++k) {
        table.taken[k] = static_cast<uint32_t>(rng.nextBelow(50));
        table.notTaken[k] = static_cast<uint32_t>(rng.nextBelow(50));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            findBooleanFormula(table, candidates.encodings(), cache));
    }
}
BENCHMARK(BM_Algorithm1Randomized);

void
BM_RombfEnumerate(benchmark::State &state)
{
    // The prior work's exhaustive search-space construction; the
    // argument is the history length (grows exponentially).
    unsigned vars = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto e = enumerateRombf(vars, /*dedupe=*/false);
        benchmark::DoNotOptimize(e.tables.data());
    }
}
BENCHMARK(BM_RombfEnumerate)->Arg(4)->Arg(6)->Arg(8);

} // namespace

BENCHMARK_MAIN();
