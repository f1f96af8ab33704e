/**
 * @file
 * Sample statistics for the benchmark: nearest-rank percentiles with
 * the "at least ten samples beyond it" rule, medians, and wall-clock
 * rates.
 *
 * Every time here is wall-clock (std::chrono::steady_clock). A rate
 * divides by elapsed wall time, never by the CPU time of one thread:
 * for a threaded run the submitting thread's CPU time can be a third
 * of the wall time, which inflates a rate threefold.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <chrono>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Minimum number of samples that must lie beyond a reported
 *  percentile for it to be reported at all. */
inline constexpr std::size_t kTailSamples = 10;

/**
 * Nearest-rank percentile of @p sorted (ascending): the value at rank
 * ceil(p/100 * n), 1-based. @p p in (0, 100]. Empty input gives 0.
 */
double nearestRank(const std::vector<double> &sorted, double p);

/** Samples strictly after the nearest-rank position of @p p. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The nearest-rank percentile, or nothing when fewer than
 * kTailSamples samples lie beyond it (the percentile would rest on a
 * handful of outliers).
 */
std::optional<double> tailPercentile(const std::vector<double> &sorted,
                                     double p);

/** Sorts a copy and summarises it. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0;
    double p99 = 0;
    bool p99_valid = false; ///< kTailSamples samples lie beyond p99
    double mean = 0;
    double max = 0;
};
Summary summarize(std::vector<double> samples);

/** Median of @p values (mean of the two middle ones when even). */
double median(std::vector<double> values);

/** Seconds between two steady_clock points. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Microseconds between two steady_clock points. */
inline double
micros(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Events per wall-clock second. Zero when no time elapsed. */
double wallRate(double events, double wall_seconds);

/**
 * Wall-clock stopwatch for rates: start() and stop() read
 * steady_clock on the calling thread, so worker threads' CPU time
 * neither adds to nor replaces the elapsed time.
 */
class Stopwatch
{
  public:
    void start() { begin_ = Clock::now(); }
    void stop() { end_ = Clock::now(); }
    double elapsedSeconds() const { return seconds(begin_, end_); }
    double rate(double events) const
    {
        return wallRate(events, elapsedSeconds());
    }

  private:
    Clock::time_point begin_{};
    Clock::time_point end_{};
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
