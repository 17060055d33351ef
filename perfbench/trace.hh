/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark wraps each public library call it makes in a span
 * {name, start, end, parent, op}. Spans stay in memory (one mutex-guarded
 * vector; a span is pushed once, when it closes) and are written out when
 * the run ends. A layer's self time is its span's duration minus the part
 * of that interval its child spans cover. With tracing off a ScopedSpan
 * is one branch on a flag, so the untraced run that reports the
 * end-to-end numbers pays nothing measurable for it.
 */

#ifndef RISOTTO_PERFBENCH_TRACE_HH
#define RISOTTO_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace risotto::perfbench
{

using Clock = std::chrono::steady_clock;

/** One closed span. Times are nanoseconds since the tracer's epoch. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span.
    std::uint64_t op = 0;     ///< Benchmark op the span belongs to (0: none).
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/** Process-wide span sink. */
class Tracer
{
  public:
    /** The tracer every ScopedSpan reports to. */
    static Tracer &instance();

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    std::uint64_t nextId();
    void record(Span span);
    std::int64_t now() const;

    /** Every span recorded so far, in closing order. */
    std::vector<Span> spans() const;

    /** Self time of every span, in nanoseconds, keyed by span id. */
    std::map<std::uint64_t, std::int64_t> selfTimes() const;

    /** Write all spans (with self times) as a JSON array to @p path. */
    bool write(const std::string &path) const;

  private:
    Tracer();

    bool enabled_ = false;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
    std::uint64_t nextId_ = 1; // guarded by mutex_
};

/** Marks the benchmark op the calling thread is executing. */
class OpScope
{
  public:
    explicit OpScope(std::uint64_t op);
    ~OpScope();
    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

  private:
    std::uint64_t saved_;
};

/** RAII span: opens on construction, records on destruction. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    void open();

    std::string name_;
    bool active_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t start_ = 0;
};

} // namespace risotto::perfbench

#endif // RISOTTO_PERFBENCH_TRACE_HH
