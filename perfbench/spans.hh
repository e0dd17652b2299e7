/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is (name, start, end, parent) around one call from the
 * benchmark into a layer's public function. Spans are kept in memory
 * and written out once, when the run ends. With tracing disabled a
 * Span costs one relaxed load.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** One finished span. Times are seconds since the tracer's epoch. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = top level
    uint64_t items = 0;  //!< work units the call processed

    double seconds() const { return end - start; }
};

/** Per-name aggregate over the recorded spans. */
struct SpanTotals
{
    uint64_t count = 0;
    uint64_t items = 0;
    double seconds = 0.0; //!< summed durations
    std::vector<double> durations;
};

class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Seconds since the tracer was created (steady clock). */
    double now() const;

    uint64_t begin();
    void end(uint64_t id, const char *name, double start,
             uint64_t parent, uint64_t items);

    /** Aggregates by span name; with @p under, only of the spans
     * nested (at any depth) in a span of that name. */
    std::map<std::string, SpanTotals>
    totals(const std::string &under = "") const;

    /** Share of [from, to] covered by the union of spans whose name
     * starts with one of @p prefixes. */
    double coverage(double from, double to,
                    const std::vector<std::string> &prefixes) const;

    size_t size() const;
    /** Drop every span recorded after the first @p n. */
    void truncate(size_t n);

    /** Write every span as JSON to @p path. @return false on I/O
     * failure. */
    bool write(const std::string &path, const std::string &stamp) const;

  private:
    Tracer();

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    uint64_t nextId_ = 1;
};

/** RAII span; records nothing while tracing is disabled. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t items = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setItems(uint64_t items) { items_ = items; }

  private:
    const char *name_;
    uint64_t items_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    double start_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
