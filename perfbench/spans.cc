#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point &
epoch()
{
    static const Clock::time_point t0 = Clock::now();
    return t0;
}

/** Innermost open span of this thread (0 = none). */
thread_local uint64_t tCurrent = 0;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer()
{
    epoch();
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

uint64_t
Tracer::begin()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::end(uint64_t id, const char *name, double start,
            uint64_t parent, uint64_t items)
{
    double stop = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, stop, id, parent, items});
}

std::map<std::string, SpanTotals>
Tracer::totals(const std::string &under) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<uint64_t, const SpanRecord *> byId;
    for (const SpanRecord &s : spans_)
        byId[s.id] = &s;
    auto nested = [&](const SpanRecord &s) {
        for (auto it = byId.find(s.parent); it != byId.end();
             it = byId.find(it->second->parent))
            if (it->second->name == under)
                return true;
        return false;
    };
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : spans_) {
        if (!under.empty() && !nested(s))
            continue;
        SpanTotals &t = out[s.name];
        ++t.count;
        t.items += s.items;
        t.seconds += s.seconds();
        t.durations.push_back(s.seconds());
    }
    return out;
}

double
Tracer::coverage(double from, double to,
                 const std::vector<std::string> &prefixes) const
{
    std::vector<std::pair<double, double>> top;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const SpanRecord &s : spans_)
            for (const std::string &p : prefixes)
                if (s.name.compare(0, p.size(), p) == 0) {
                    top.emplace_back(std::max(s.start, from),
                                     std::min(s.end, to));
                    break;
                }
    }
    std::sort(top.begin(), top.end());
    double covered = 0.0;
    double reach = from;
    for (const auto &[a, b] : top) {
        double lo = std::max(a, reach);
        if (b > lo) {
            covered += b - lo;
            reach = b;
        }
    }
    return to > from ? covered / (to - from) : 0.0;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::truncate(size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (n < spans_.size())
        spans_.resize(n);
}

bool
Tracer::write(const std::string &path, const std::string &stamp) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"stamp\": %s,\n\"spans\": [\n", stamp.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"start\": %.9f, \"end\": %.9f, \"items\": %llu}%s\n",
                     jsonEscape(s.name).c_str(),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.start,
                     s.end, static_cast<unsigned long long>(s.items),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char *name, uint64_t items)
    : name_(name), items_(items)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    id_ = t.begin();
    parent_ = tCurrent;
    tCurrent = id_;
    start_ = t.now();
}

Span::~Span()
{
    if (id_ == 0)
        return;
    tCurrent = parent_;
    Tracer::instance().end(id_, name_, start_, parent_, items_);
}

} // namespace perfbench
