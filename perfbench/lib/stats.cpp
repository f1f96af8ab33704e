#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. */
std::size_t
rankOf(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    const double exact = p / 100.0 * static_cast<double>(n);
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
nearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[rankOf(sorted.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n - rankOf(n, p);
}

std::optional<double>
tailPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty() || samplesBeyond(sorted.size(), p) < kTailSamples)
        return std::nullopt;
    return nearestRank(sorted, p);
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = nearestRank(samples, 50);
    std::optional<double> p99 = tailPercentile(samples, 99);
    s.p99_valid = p99.has_value();
    s.p99 = p99.value_or(nearestRank(samples, 99));
    s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
             static_cast<double>(samples.size());
    s.max = samples.back();
    return s;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
wallRate(double events, double wall_seconds)
{
    return wall_seconds > 0 ? events / wall_seconds : 0.0;
}

} // namespace perfbench
