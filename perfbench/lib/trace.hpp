/**
 * @file
 * In-memory span recording for the traced run, layer self-times, and
 * Chrome/Perfetto JSON export.
 *
 * Spans are recorded by the benchmark's own code around its calls
 * into the system, never inside the system. Each recording thread
 * owns one lane; lanes are merged only after the threads have ended.
 * A span's self time is its duration minus the part of its interval
 * that its child spans cover.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/** One recorded interval. Names and layers are string literals. */
struct Span
{
    const char *name = "";
    const char *layer = "";
    std::uint64_t id = 0;  ///< shared by every span of one request
    std::int32_t parent = -1; ///< index in the same lane, or -1
    std::int64_t start_ns = 0; ///< relative to the tracer's origin
    std::int64_t end_ns = 0;
};

/** Spans of one recording thread. Not thread safe by design. */
class Lane
{
  public:
    explicit Lane(Clock::time_point origin) : origin_(origin) {}

    /** Opens a span now; returns its index for close() and as a
     *  parent for children. */
    std::int32_t open(const char *name, const char *layer,
                      std::uint64_t id, std::int32_t parent = -1);
    void close(std::int32_t index);

    /** Records a finished span with explicit bounds. */
    std::int32_t add(const char *name, const char *layer,
                     std::uint64_t id, std::int32_t parent,
                     Clock::time_point start, Clock::time_point end);

    const std::vector<Span> &spans() const { return spans_; }
    std::int64_t toNs(Clock::time_point t) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Owns the lanes of one traced run. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** Adds a lane; the reference stays valid while the tracer lives
     *  (lanes are never erased). Call before starting threads. */
    Lane &addLane();

    const Lane &lane(std::size_t i) const { return *lanes_[i]; }

    /** Writes {"traceEvents": [...]} with one complete ("X") event
     *  per span; tid is the lane, args carry the request id. */
    void writeChromeJson(std::ostream &os) const;

  private:
    Clock::time_point origin_;
    std::vector<std::unique_ptr<Lane>> lanes_;
};

/**
 * Self time of every span of @p spans: its duration minus the union
 * of its children's intervals, each clipped to the parent.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Nanoseconds of self time per layer over @p spans. */
std::map<std::string, double> selfTimeByLayer(const std::vector<Span> &spans);

/** RAII span on a possibly-null lane (null = untraced, no cost but a
 *  branch). */
class ScopedSpan
{
  public:
    ScopedSpan(Lane *lane, const char *name, const char *layer,
               std::uint64_t id = 0, std::int32_t parent = -1)
        : lane_(lane),
          index_(lane ? lane->open(name, layer, id, parent) : -1)
    {}
    ~ScopedSpan()
    {
        if (lane_)
            lane_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Lane *lane_;
    std::int32_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
