// Unit tests of the benchmark harness: percentiles and the tail rule,
// lateness accounting against a fake clock, ladder and backlog
// detection against a fake stack, and wall-clock rates.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ctime>
#include <deque>
#include <map>
#include <thread>

#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

TEST(PerfbenchStats, NearestRankPicksTheCeilingRank)
{
    std::vector<double> v = oneTo(100);
    EXPECT_EQ(nearestRank(v, 50), 50);
    EXPECT_EQ(nearestRank(v, 99), 99);
    EXPECT_EQ(nearestRank(v, 100), 100);
    EXPECT_EQ(nearestRank(v, 0.5), 1);
    EXPECT_EQ(nearestRank({7.0}, 99), 7);
    EXPECT_EQ(nearestRank({}, 50), 0);
    // Rank ceil(0.5 * 5) = 3 of five samples.
    EXPECT_EQ(nearestRank({1, 2, 3, 4, 5}, 50), 3);
}

TEST(PerfbenchStats, TailPercentileNeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_TRUE(tailPercentile(oneTo(1000), 99).has_value());
    EXPECT_FALSE(tailPercentile(oneTo(999), 99).has_value());
    EXPECT_EQ(*tailPercentile(oneTo(1000), 99), 990);
    // The median of twenty samples has ten beyond it; of nineteen, nine.
    EXPECT_TRUE(tailPercentile(oneTo(20), 50).has_value());
    EXPECT_FALSE(tailPercentile(oneTo(19), 50).has_value());

    Summary s = summarize(oneTo(999));
    EXPECT_FALSE(s.p99_valid);
    s = summarize(oneTo(2000));
    EXPECT_TRUE(s.p99_valid);
    EXPECT_EQ(s.p50, 1000);
    EXPECT_EQ(s.p99, 1980);
    EXPECT_EQ(s.n, 2000u);
}

TEST(PerfbenchStats, MedianOfEvenCountAveragesTheMiddle)
{
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({5, 1, 3}), 3);
}

TEST(PerfbenchStats, RatesDivideByWallTimeNotCpuTime)
{
    // Two workers spin while the timing thread sleeps: the timing
    // thread burns almost no CPU, so a rate over its CPU time would be
    // wildly inflated. The stopwatch must report the wall time.
    std::atomic<bool> stop{false};
    auto spin = [&] {
        volatile std::uint64_t x = 0;
        while (!stop.load(std::memory_order_relaxed))
            x = x + 1;
    };
    timespec cpu0{}, cpu1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu0);
    Stopwatch sw;
    sw.start();
    std::thread a(spin), b(spin);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    stop = true;
    a.join();
    b.join();
    sw.stop();
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu1);
    const double thread_cpu = (cpu1.tv_sec - cpu0.tv_sec) +
                              (cpu1.tv_nsec - cpu0.tv_nsec) * 1e-9;

    EXPECT_GE(sw.elapsedSeconds(), 0.06);
    EXPECT_LT(thread_cpu, 0.5 * sw.elapsedSeconds());
    const double rate = sw.rate(6000);
    EXPECT_LE(rate, 6000 / 0.06 + 1e-6);
    EXPECT_LT(rate, 6000 / std::max(thread_cpu, 1e-9));
}

/** A clock that only moves when the fake stack moves it. */
class FakeTime : public TimeSource
{
  public:
    Clock::time_point now() override { return t; }
    Clock::time_point t = Clock::time_point(std::chrono::seconds(1000));
};

/**
 * A single FIFO server with a fixed service time. poll() jumps the
 * fake clock to the next reply or to the deadline, plus a fixed
 * oversleep, which is exactly how late the generator then sends.
 */
class FakeStack : public Transport
{
  public:
    FakeStack(FakeTime &time, double service_us, double oversleep_us = 0)
        : time_(time), service_us_(service_us), oversleep_us_(oversleep_us)
    {}

    void send(std::uint64_t id, const Op &op) override
    {
        Clock::time_point begin = std::max(time_.t, free_at_);
        free_at_ = begin + us(service_us_);
        Completion c;
        c.id = id;
        c.at = free_at_;
        c.tag = id;
        c.retracted = op.kind == OpKind::Retract;
        queue_.push_back(c);
    }

    void poll(Clock::time_point until, std::vector<Completion> &out) override
    {
        if (!queue_.empty() && queue_.front().at <= until)
            time_.t = std::max(time_.t, queue_.front().at);
        else
            time_.t = std::max(time_.t, until) + us(oversleep_us_);
        while (!queue_.empty() && queue_.front().at <= time_.t) {
            out.push_back(queue_.front());
            queue_.pop_front();
        }
    }

  private:
    static Clock::duration us(double v)
    {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::micro>(v));
    }
    FakeTime &time_;
    double service_us_;
    double oversleep_us_;
    Clock::time_point free_at_{};
    std::deque<Completion> queue_;
};

MixOptions
mix()
{
    MixOptions m;
    m.tenants = {0, 1, 2, 3};
    m.n_templates = 10;
    return m;
}

TEST(PerfbenchLoadgen, LatencyRunsFromTheDueTimeAndLatenessIsRecorded)
{
    FakeTime time;
    FakeStack stack(time, /*service_us=*/50, /*oversleep_us=*/300);
    OpenLoop loop(stack, time, mix(), 1);
    PhaseStats ps = loop.runPhase(/*primary_rate=*/500, /*seconds=*/2.0,
                                  /*drain=*/1.0, /*abort=*/1e9);
    ASSERT_GT(ps.sent, 1000u);
    EXPECT_EQ(ps.failed, 0u);
    std::vector<double> late = ps.late_us;
    std::sort(late.begin(), late.end());
    // Primaries are sent 300 us late (the oversleep); retracts are sent
    // the moment their reply is seen, so they are never late.
    EXPECT_NEAR(nearestRank(late, 99), 300, 1);
    EXPECT_NEAR(late.front(), 0, 1e-6);
    // A late primary's latency includes its lateness: 300 + 50 us; a
    // retract's is the service time alone.
    Summary primary =
        summarize(ps.kind_latency_us[static_cast<int>(OpKind::Assert)]);
    EXPECT_NEAR(primary.p50, 350, 1);
    EXPECT_NEAR(primary.max, 350, 1);
    Summary retract =
        summarize(ps.kind_latency_us[static_cast<int>(OpKind::Retract)]);
    EXPECT_NEAR(retract.p50, 50, 1);
    LadderRules rules;
    EXPECT_FALSE(generatorBehind(ps.late_us, rules));
    rules.late_share = 0.05; // 250 us of a 5 ms limit
    EXPECT_TRUE(generatorBehind(ps.late_us, rules));
}

TEST(PerfbenchLoadgen, EveryAcknowledgedAssertIsRetractedOnce)
{
    FakeTime time;
    FakeStack stack(time, 20);
    OpenLoop loop(stack, time, mix(), 3);
    PhaseStats ps = loop.runPhase(1000, 1.0, 1.0, 1e9);
    std::map<std::uint64_t, int> retracts;
    std::uint64_t asserts = 0, runs = 0;
    for (const SentOp &s : loop.sent()) {
        ASSERT_TRUE(s.replied);
        if (s.op.kind == OpKind::Assert)
            ++asserts;
        else if (s.op.kind == OpKind::Retract)
            ++retracts[s.op.tag];
        else
            ++runs;
    }
    EXPECT_EQ(retracts.size(), asserts);
    for (const auto &[tag, n] : retracts)
        EXPECT_EQ(n, 1) << tag;
    EXPECT_EQ(ps.wme_changes, 2 * asserts);
    // About one request in sixteen is a Run.
    const double share = static_cast<double>(runs) /
                         static_cast<double>(ps.sent);
    EXPECT_NEAR(share, 1.0 / 16.0, 0.02);
}

TEST(PerfbenchLoadgen, BacklogDetection)
{
    std::vector<std::pair<double, double>> flat, growing;
    for (int i = 0; i < 100; ++i) {
        const double t = i * 0.01;
        flat.emplace_back(t, 5 + (i % 3));
        growing.emplace_back(t, 5 + 400 * t);
    }
    EXPECT_FALSE(backlogGrowing(flat, 1.0, 10000, 0.002));
    EXPECT_TRUE(backlogGrowing(growing, 1.0, 10000, 0.002));
}

TEST(PerfbenchLoadgen, LadderFindsTheRateAFakeStackSustains)
{
    // 100 us of service: the stack sustains 10k requests/s.
    const std::vector<double> ladder = {2000, 4000, 8000, 16000, 32000};
    FakeTime time;
    FakeStack stack(time, 100);
    OpenLoop loop(stack, time, mix(), 7);
    LadderRules rules;
    std::vector<RungResult> rungs;
    for (double offered : ladder) {
        const double primary = primaryRate(offered, mix().run_share);
        PhaseStats ps = loop.runPhase(primary, 1.0, 5.0, offered * 0.25);
        rungs.push_back(judgeRung(offered, ps, rules));
    }
    EXPECT_TRUE(rungs[0].passed);
    EXPECT_TRUE(rungs[1].passed);
    EXPECT_TRUE(rungs[2].passed);
    EXPECT_FALSE(rungs[3].passed);
    EXPECT_TRUE(rungs[3].backlog_growing || rungs[3].aborted ||
                rungs[3].p99_us > rules.p99_limit_us);
    ASSERT_EQ(highestPassingRung(rungs), 2);
    EXPECT_NEAR(rungs[2].achieved_rps, 8000, 8000 * 0.05);

    // A pass above a failure does not count.
    std::vector<RungResult> gap(3);
    gap[0].passed = true;
    gap[2].passed = true;
    EXPECT_EQ(highestPassingRung(gap), 0);
}

TEST(PerfbenchTrace, SelfTimeSubtractsCoveredChildIntervals)
{
    std::vector<Span> spans(4);
    spans[0] = {"req", "loadgen", 1, -1, 0, 100};
    spans[1] = {"a", "serve", 1, 0, 10, 40};
    spans[2] = {"b", "durable", 1, 0, 30, 60}; // overlaps a by 10
    spans[3] = {"c", "cluster", 1, 1, 20, 25};
    std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - 50);
    EXPECT_EQ(self[1], 30 - 5);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 5);
}

} // namespace
} // namespace perfbench
