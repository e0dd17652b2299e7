#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "workloads/app_workload.hh"

namespace perfbench
{

bool
Report::op(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
}

uint64_t
SeedStream::next()
{
    // splitmix64
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::vector<uint32_t>
pickInputs(SeedStream &rng, size_t count)
{
    std::vector<uint32_t> ids;
    while (ids.size() < count) {
        uint32_t id = rng.below(16);
        if (std::find(ids.begin(), ids.end(), id) == ids.end())
            ids.push_back(id);
    }
    return ids;
}

std::string
bundleDigest(const VersionedHintBundle &bundle)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : encodeVersionedBundle(bundle)) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    if (q == 0.5 && v.size() % 2 == 0)
        return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

Records
generate(const AppConfig &app, uint32_t input, uint64_t n,
         const DriftSpec &drift)
{
    AppWorkload gen(app, input, n, drift);
    Records out;
    out.reserve(n);
    BranchRecord rec;
    while (out.size() < n && gen.next(rec))
        out.push_back(rec);
    return out;
}

std::vector<Records>
chunkRecords(const Records &records, size_t chunkRecords, size_t maxChunks)
{
    std::vector<Records> chunks;
    for (size_t at = 0; at < records.size() && chunks.size() < maxChunks;
         at += chunkRecords) {
        size_t end = std::min(records.size(), at + chunkRecords);
        chunks.emplace_back(records.begin() + at, records.begin() + end);
    }
    return chunks;
}

std::string
scratchDir(const std::string &tag)
{
    std::string dir = ".bench_tmp/" + tag + "-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace perfbench
