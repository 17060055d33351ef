#include "perfbench/trace.hh"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace risotto::perfbench
{

namespace
{

thread_local std::uint64_t currentSpan = 0;
thread_local std::uint64_t currentOp = 0;

} // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::uint64_t, std::int64_t>
Tracer::selfTimes() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                            std::int64_t>>>
        children;
    for (const Span &s : all)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    std::map<std::uint64_t, std::int64_t> self;
    for (const Span &s : all) {
        auto &kids = children[s.id];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent's.
        std::int64_t covered = 0;
        std::int64_t reach = s.start;
        for (const auto &[a, b] : kids) {
            const std::int64_t from = std::max(a, reach);
            const std::int64_t to = std::min(b, s.end);
            if (to > from)
                covered += to - from;
            reach = std::max(reach, std::min(b, s.end));
        }
        self[s.id] = (s.end - s.start) - covered;
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const auto self = selfTimes();
    std::ofstream out(path);
    if (!out)
        return false;
    out << "[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"op\": " << s.op
            << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
            << ", \"self_ns\": " << self.at(s.id) << "}"
            << (i + 1 == all.size() ? "\n" : ",\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

OpScope::OpScope(std::uint64_t op) : saved_(currentOp) { currentOp = op; }

OpScope::~OpScope() { currentOp = saved_; }

ScopedSpan::ScopedSpan(std::string name)
{
    if (Tracer::instance().enabled()) {
        name_ = std::move(name);
        open();
    }
}

void
ScopedSpan::open()
{
    Tracer &tracer = Tracer::instance();
    active_ = true;
    id_ = tracer.nextId();
    parent_ = currentSpan;
    currentSpan = id_;
    start_ = tracer.now();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    Tracer &tracer = Tracer::instance();
    const std::int64_t end = tracer.now();
    currentSpan = parent_;
    tracer.record({std::move(name_), id_, parent_, currentOp, start_, end});
}

} // namespace risotto::perfbench
