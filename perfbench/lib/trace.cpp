#include "trace.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t
Lane::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                 origin_)
        .count();
}

std::int32_t
Lane::open(const char *name, const char *layer, std::uint64_t id,
           std::int32_t parent)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.id = id;
    s.parent = parent;
    s.start_ns = toNs(Clock::now());
    s.end_ns = s.start_ns;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Lane::close(std::int32_t index)
{
    spans_[static_cast<std::size_t>(index)].end_ns = toNs(Clock::now());
}

std::int32_t
Lane::add(const char *name, const char *layer, std::uint64_t id,
          std::int32_t parent, Clock::time_point start,
          Clock::time_point end)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.id = id;
    s.parent = parent;
    s.start_ns = toNs(start);
    s.end_ns = std::max(s.start_ns, toNs(end));
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

Lane &
Tracer::addLane()
{
    lanes_.push_back(std::make_unique<Lane>(origin_));
    return *lanes_.back();
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 ||
            static_cast<std::size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        std::int64_t lo = std::max(s.start_ns, p.start_ns);
        std::int64_t hi = std::min(s.end_ns, p.end_ns);
        if (hi > lo)
            children[static_cast<std::size_t>(s.parent)].emplace_back(lo,
                                                                      hi);
    }
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0, cur_hi = -1;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (!open || lo > cur_hi) {
                if (open)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
                open = true;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (open)
            covered += cur_hi - cur_lo;
        out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
    }
    return out;
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    std::vector<std::int64_t> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += static_cast<double>(self[i]);
    return out;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    bool first = true;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        for (const Span &s : lanes_[l]->spans()) {
            os << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
               << "\", \"cat\": \"" << s.layer
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << l
               << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
               << ", \"dur\": "
               << static_cast<double>(s.end_ns - s.start_ns) / 1e3
               << ", \"args\": {\"id\": " << s.id << "}}";
            first = false;
        }
    }
    os << "\n]}\n";
}

} // namespace perfbench
