// The engine workloads: recognize-act from a calibrated preset's
// initial working memory, a fixed number of firings per repetition.
//
//  daa-par3    DAA preset on core::ParallelReteMatcher, 3 workers,
//              default ParallelOptions scheduler.
//  daa-serial  DAA preset on serial rete::ReteMatcher: WM stays near
//              117 elements. Its traced run also measures a 3-worker
//              ParallelReteMatcher on the same program and firings.
//  ilog-grow   ILOG preset on serial rete::ReteMatcher; WM and the
//              conflict set grow with every firing.
//
// Every repetition is checked against a serial Rete reference run of
// the same program (same fired sequence, same final WM) and must fire
// the full count; the last timed repetition's matcher state is then
// checked with rete::validateMatcherState.
//
// Each repetition builds the program, matcher and engine afresh
// (set-up, timed apart) and then times its firings. Reported values
// are medians over repetitions; step latencies pool every step.

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/parallel_matcher.hpp"
#include "core/telemetry.hpp"
#include "rete/matcher.hpp"
#include "rete/validate.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/presets.hpp"

namespace perfbench {
namespace {

using psm::core::Engine;

struct EngineSpec
{
    const char *preset;
    std::size_t workers;   ///< 0 = serial Rete
    std::uint64_t firings; ///< per repetition
    /** Repetitions the end-to-end metrics are taken over: the fastest
     *  this many of the run (see Series). */
    std::size_t kept;
    /** Serial workloads only: workers of the ParallelReteMatcher the
     *  traced run also measures on the same program and firings, for
     *  the core layer's metrics; 0 = none. */
    std::size_t probe_workers = 0;
};

/** One program + matcher + engine, built the way a user would. */
struct Built
{
    std::shared_ptr<psm::ops5::Program> program;
    std::unique_ptr<psm::core::Matcher> matcher; // outlives engine
    std::unique_ptr<Engine> engine;
    double generate_s = 0;
    double compile_s = 0;
    double load_s = 0;
    double setup_s() const { return generate_s + compile_s + load_s; }
};

Built
build(const EngineSpec &spec, bool telemetry, Lane *lane)
{
    Built b;
    const auto t0 = Clock::now();
    {
        ScopedSpan s(lane, "generate", "workloads");
        b.program = psm::workloads::generateProgram(
            psm::workloads::presetByName(spec.preset).config);
    }
    const auto t1 = Clock::now();
    {
        ScopedSpan s(lane, "compile", spec.workers ? "core" : "rete");
        if (spec.workers) {
            psm::core::ParallelOptions o;
            o.n_workers = spec.workers;
            b.matcher =
                std::make_unique<psm::core::ParallelReteMatcher>(b.program, o);
        } else {
            b.matcher = std::make_unique<psm::rete::ReteMatcher>(
                std::shared_ptr<const psm::ops5::Program>(b.program));
        }
        if (telemetry)
            b.matcher->enableTelemetry();
    }
    const auto t2 = Clock::now();
    {
        ScopedSpan s(lane, "load_wm", "core");
        b.engine = std::make_unique<Engine>(b.program, *b.matcher);
        b.engine->loadInitialWorkingMemory();
    }
    const auto t3 = Clock::now();
    b.generate_s = seconds(t0, t1);
    b.compile_s = seconds(t1, t2);
    b.load_s = seconds(t2, t3);
    return b;
}

struct Rep
{
    double wall_s = 0;
    std::uint64_t firings = 0;
    std::uint64_t changes = 0;
    std::uint64_t digest = 0; ///< fired sequence + final WM image
    Summary steps; ///< wall time of this repetition's Engine::steps, us
    Engine::PhaseTimes phases;
    std::size_t conflict_set_end = 0;
    std::size_t wm_live_end = 0;
};

/**
 * Times @p firings recognize-act cycles. With a lane, records one span
 * per Engine::step and, as its children, the step's match, resolve and
 * act durations read from Engine::phaseTimes (laid end to end in the
 * engine's order: resolve, act, match).
 */
Rep
runRep(Built &b, std::uint64_t firings, const char *match_layer, Lane *lane,
       std::uint64_t rep_id)
{
    Rep r;
    Digest d;
    b.engine->setFiringObserver(
        [&d](const psm::ops5::Instantiation &inst,
             const psm::ops5::FiringResult &) {
            d.add(static_cast<std::uint64_t>(inst.production->id()));
            for (const psm::ops5::Wme *w : inst.wmes)
                d.add(w->timeTag());
        });
    const Engine::PhaseTimes p_begin = b.engine->phaseTimes();
    const std::uint64_t changes0 = b.engine->totals().wme_changes;
    Engine::PhaseTimes prev = p_begin;
    std::vector<double> step_us;
    step_us.reserve(firings);
    Stopwatch sw;
    sw.start();
    for (std::uint64_t i = 0; i < firings; ++i) {
        const auto s0 = Clock::now();
        const bool fired = b.engine->step();
        const auto s1 = Clock::now();
        step_us.push_back(micros(s0, s1));
        if (lane) {
            const Engine::PhaseTimes &now = b.engine->phaseTimes();
            const std::int32_t step =
                lane->add("step", "core", rep_id, -1, s0, s1);
            auto dur = [](double sec) {
                return std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(sec));
            };
            auto c0 = s0;
            auto c1 = c0 + dur(now.resolve_seconds - prev.resolve_seconds);
            auto c2 = c1 + dur(now.act_seconds - prev.act_seconds);
            auto c3 = c2 + dur(now.match_seconds - prev.match_seconds);
            lane->add("resolve", "ops5", rep_id, step, c0, std::min(c1, s1));
            lane->add("act", "ops5", rep_id, step, std::min(c1, s1),
                      std::min(c2, s1));
            lane->add("match", match_layer, rep_id, step, std::min(c2, s1),
                      std::min(c3, s1));
            prev = now;
        }
        if (!fired)
            break;
        ++r.firings;
    }
    sw.stop();
    b.engine->setFiringObserver({});
    r.wall_s = sw.elapsedSeconds();
    r.steps = summarize(std::move(step_us));
    r.changes = b.engine->totals().wme_changes - changes0;
    const Engine::PhaseTimes &p_end = b.engine->phaseTimes();
    r.phases.match_seconds = p_end.match_seconds - p_begin.match_seconds;
    r.phases.resolve_seconds = p_end.resolve_seconds - p_begin.resolve_seconds;
    r.phases.act_seconds = p_end.act_seconds - p_begin.act_seconds;
    r.conflict_set_end = b.matcher->conflictSet().size();
    r.wm_live_end = b.engine->workingMemory().liveCount();
    d.add(wmImage(b.engine->workingMemory()));
    r.digest = d.value();
    return r;
}

/**
 * Repetitions of one configuration, run until a time budget is used.
 *
 * Every repetition does the same deterministic work, yet on a shared
 * VM the same repetition takes anywhere from 1x to 2x its undisturbed
 * time, in bursts set by the host's other tenants; run medians moved by
 * up to 30% between runs minutes apart while the fastest repetition
 * moved by about 4%. The end-to-end metrics are therefore medians
 * over the fastest few percent of the run's repetitions (`keep`); the
 * median over all repetitions is printed as a note.
 */
struct Series
{
    explicit Series(std::size_t keep) : keep(keep) {}

    std::size_t keep;
    std::vector<Rep> reps; ///< every repetition
    std::vector<Rep> kept; ///< the fastest `keep`
    std::vector<double> setup_s, generate_s, compile_s;

    void add(Rep rep, const Built &b)
    {
        setup_s.push_back(b.setup_s());
        generate_s.push_back(b.generate_s);
        compile_s.push_back(b.compile_s);
        reps.push_back(rep);
        auto slowest = std::max_element(
            kept.begin(), kept.end(),
            [](const Rep &x, const Rep &y) { return x.wall_s < y.wall_s; });
        if (kept.size() < keep)
            kept.push_back(rep);
        else if (slowest != kept.end() && rep.wall_s < slowest->wall_s)
            *slowest = rep;
    }
    /** Median of @p f over every repetition. */
    template <typename F> double medianOf(F f) const { return over(reps, f); }
    /** Median of @p f over the fastest repetitions. */
    template <typename F> double keptMedianOf(F f) const
    {
        return over(kept, f);
    }

  private:
    template <typename F>
    static double over(const std::vector<Rep> &rs, F f)
    {
        std::vector<double> v;
        for (const Rep &r : rs)
            v.push_back(f(r));
        return median(v);
    }
};

/** Output checks shared by both workloads; every repetition counts as
 *  attempted, a failed one as failed. */
void
checkRep(Result &res, const Rep &rep, const EngineSpec &spec,
         std::uint64_t expected_digest, const char *against)
{
    ++res.attempted;
    if (rep.firings != spec.firings) {
        res.fail("fired " + std::to_string(rep.firings) + " of " +
                 std::to_string(spec.firings));
    } else if (rep.digest != expected_digest) {
        std::ostringstream os;
        os << "digest " << std::hex << rep.digest << " != " << expected_digest
           << " (" << against << ")";
        res.fail(os.str());
    }
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** The rete layer's counters from a matcher's telemetry registry. */
void
reteTelemetry(Result &res, const Built &b)
{
    const psm::telemetry::Registry *t = b.matcher->telemetry();
    if (!t)
        return;
    using psm::telemetry::Counter;
    using psm::telemetry::Histogram;
    res.metrics["rete.join_candidates_mean"] =
        t->merged(Histogram::JoinCandidates).mean();
    res.metrics["rete.beta_memory_p99"] =
        t->merged(Histogram::BetaMemorySize).percentile(99);
    res.metrics["rete.affected_per_change"] = ratio(
        static_cast<double>(t->total(Counter::AffectedProductionChanges)),
        static_cast<double>(b.matcher->stats().changes_processed));
}

/** The core layer's scheduler counters from a parallel matcher. */
void
coreTelemetry(Result &res, const Built &b)
{
    const psm::telemetry::Registry *t = b.matcher->telemetry();
    if (!t)
        return;
    using psm::telemetry::Counter;
    using psm::telemetry::Histogram;
    const double tasks = static_cast<double>(t->total(Counter::TasksExecuted));
    res.metrics["core.tasks_per_change"] = ratio(
        tasks, static_cast<double>(b.matcher->stats().changes_processed));
    res.metrics["core.steal_success_frac"] =
        ratio(static_cast<double>(t->total(Counter::Steals)),
              static_cast<double>(t->total(Counter::StealAttempts)));
    res.metrics["core.idle_spins_per_task"] =
        ratio(static_cast<double>(t->total(Counter::IdleSpins)), tasks);
    res.metrics["core.worker_parks"] =
        static_cast<double>(t->total(Counter::WorkerParks));
    res.metrics["core.park_ns_p99"] =
        t->merged(Histogram::ParkNanos).percentile(99);
    res.metrics["core.queue_depth_p50"] =
        t->merged(Histogram::QueueDepth).percentile(50);
}

Result
runEngineWorkload(const Args &args, const EngineSpec &spec)
{
    Result res;
    const bool parallel = spec.workers > 0;
    const char *match_layer = parallel ? "core" : "rete";
    const auto start = Clock::now();
    auto elapsed = [&] { return seconds(start, Clock::now()); };

    // Reference digest and, for the parallel workload, serial wall
    // time: the same program and firings on serial Rete.
    std::uint64_t expected = 0;
    std::vector<double> serial_wall;
    const int n_ref = parallel ? 3 : 1;
    for (int i = 0; i < n_ref; ++i) {
        EngineSpec serial = spec;
        serial.workers = 0;
        Built ref = build(serial, false, nullptr);
        Rep r = runRep(ref, spec.firings, "rete", nullptr, 0);
        ++res.attempted;
        if (r.firings != spec.firings)
            res.fail("reference run fired " + std::to_string(r.firings));
        expected = r.digest;
        serial_wall.push_back(r.wall_s);
    }
    if (args.fault == "digest")
        expected ^= 1;
    const char *against = "serial Rete reference run";

    // Untraced repetitions: the end-to-end result, or in a traced run
    // the baseline for the tracing overhead.
    const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
    Series plain(spec.kept);
    std::unique_ptr<Built> last_plain;
    while (plain.reps.size() < 3 ||
           (elapsed() < untraced_budget && plain.reps.size() < 10000)) {
        last_plain.reset();
        auto b = std::make_unique<Built>(build(spec, false, nullptr));
        Rep r = runRep(*b, spec.firings, match_layer, nullptr, 0);
        checkRep(res, r, spec, expected, against);
        plain.add(std::move(r), *b);
        last_plain = std::move(b);
    }
    const double timed_end = elapsed();
    // Full matcher-state validation of the last timed repetition.
    {
        psm::rete::Network &net =
            parallel ? static_cast<psm::core::ParallelReteMatcher &>(
                           *last_plain->matcher)
                           .network()
                     : static_cast<psm::rete::ReteMatcher &>(
                           *last_plain->matcher)
                           .network();
        psm::rete::ValidationResult v = psm::rete::validateMatcherState(
            net, last_plain->engine->workingMemory().liveElements(),
            last_plain->matcher->conflictSet());
        ++res.attempted;
        if (!v.ok())
            res.fail("validateMatcherState: " + v.summary());
        else
            res.notes.push_back("validateMatcherState ok after the last "
                                "timed repetition");
        last_plain.reset();
        std::ostringstream os;
        os.precision(4);
        std::vector<double> walls;
        for (const Rep &r : plain.reps)
            walls.push_back(r.wall_s);
        std::sort(walls.begin(), walls.end());
        os << "timed region ended at " << timed_end << " s, validation took "
           << elapsed() - timed_end << " s; repetition wall s: min "
           << walls.front() << " p25 " << nearestRank(walls, 25) << " p50 "
           << nearestRank(walls, 50) << " p75 " << nearestRank(walls, 75)
           << " max " << walls.back();
        res.notes.push_back(os.str());
    }

    std::unique_ptr<Built> last;
    Series traced(spec.kept);
    Tracer tracer;
    if (args.trace) {
        Lane &setup_lane = tracer.addLane();
        Lane &cycle_lane = tracer.addLane();
        while (traced.reps.size() < 3 ||
               (elapsed() < args.seconds && traced.reps.size() < 10000)) {
            auto b = std::make_unique<Built>(build(spec, true, &setup_lane));
            Rep r = runRep(*b, spec.firings, match_layer, &cycle_lane,
                           traced.reps.size() + 1);
            checkRep(res, r, spec, expected, against);
            traced.add(std::move(r), *b);
            last = std::move(b);
        }
    }

    const Series &s = args.trace ? traced : plain;
    res.notes.push_back(std::to_string(plain.reps.size()) +
                        " untraced and " + std::to_string(traced.reps.size()) +
                        " traced repetitions of " +
                        std::to_string(spec.firings) + " firings");
    auto rate = [](const Rep &r) {
        return wallRate(static_cast<double>(r.changes), r.wall_s);
    };
    res.metrics["wme_changes_per_s"] = plain.keptMedianOf(rate);
    res.metrics["cycle_p50_us"] =
        plain.keptMedianOf([](const Rep &r) { return r.steps.p50; });
    res.metrics["core.cycle_p99_us"] =
        plain.keptMedianOf([](const Rep &r) { return r.steps.p99; });
    {
        std::ostringstream os;
        os << "metrics: medians over the fastest " << plain.kept.size()
           << " of " << plain.reps.size() << " repetitions, each with "
           << spec.firings << " step samples; median over all repetitions: "
           << plain.medianOf(rate) << " changes/s, step p50 "
           << plain.medianOf([](const Rep &r) { return r.steps.p50; })
           << " us, p99 "
           << plain.medianOf([](const Rep &r) { return r.steps.p99; })
           << " us";
        res.notes.push_back(os.str());
    }
    for (const Rep &r : plain.kept)
        if (!r.steps.p99_valid)
            res.invalid = "too few steps per repetition for a p99";
    res.metrics["setup_s"] = median(plain.setup_s);

    if (!args.trace)
        return res;

    res.metrics["workloads.generate_ms"] = 1e3 * median(s.generate_s);
    res.metrics["rete.compile_ms"] = 1e3 * median(s.compile_s);
    res.metrics["rete.match_s"] =
        s.medianOf([](const Rep &r) { return r.phases.match_seconds; });
    res.metrics["rete.match_frac"] =
        s.medianOf([](const Rep &r) { return r.phases.matchFraction(); });
    res.metrics["ops5.resolve_s"] =
        s.medianOf([](const Rep &r) { return r.phases.resolve_seconds; });
    res.metrics["ops5.act_s"] =
        s.medianOf([](const Rep &r) { return r.phases.act_seconds; });
    res.metrics["ops5.conflict_set_end"] = s.medianOf(
        [](const Rep &r) { return static_cast<double>(r.conflict_set_end); });
    res.metrics["ops5.wm_live_end"] = s.medianOf(
        [](const Rep &r) { return static_cast<double>(r.wm_live_end); });
    reteTelemetry(res, *last);
    const double traced_wall =
        s.medianOf([](const Rep &r) { return r.wall_s; });
    if (parallel) {
        coreTelemetry(res, *last);
        res.metrics["core.parallel_speedup"] = median(serial_wall) / traced_wall;
    } else if (spec.probe_workers) {
        // The core layer on the same program and firings: a few
        // repetitions on the parallel matcher, checked like the rest.
        EngineSpec par = spec;
        par.workers = spec.probe_workers;
        std::vector<double> par_wall;
        std::unique_ptr<Built> pb;
        for (int i = 0; i < 5; ++i) {
            pb.reset();
            pb = std::make_unique<Built>(build(par, true, nullptr));
            Rep r = runRep(*pb, spec.firings, "core", nullptr, 0);
            checkRep(res, r, spec, expected, against);
            par_wall.push_back(r.wall_s);
        }
        coreTelemetry(res, *pb);
        res.metrics["core.parallel_speedup"] =
            plain.medianOf([](const Rep &r) { return r.wall_s; }) /
            median(par_wall);
    }
    res.metrics["trace.overhead_frac"] =
        traced_wall / plain.medianOf([](const Rep &r) { return r.wall_s; }) -
        1.0;

    // Self time per layer along the cycle path (the step spans and
    // their children), against the timed repetitions' wall time.
    const std::vector<Span> &cycle = tracer.lane(1).spans();
    std::map<std::string, double> self = selfTimeByLayer(cycle);
    double path_ns = 0;
    for (const auto &[layer, ns] : self)
        path_ns += ns;
    double wall_ns = 0;
    for (const Rep &r : s.reps)
        wall_ns += r.wall_s * 1e9;
    res.metrics["trace.path_sum_frac"] = wall_ns > 0 ? path_ns / wall_ns : 0;
    for (const auto &[layer, ns] : self)
        res.metrics["self." + layer + "_frac"] = path_ns > 0 ? ns / path_ns : 0;

    const std::string path = args.out_dir + "/" + args.workload + ".trace.json";
    std::ofstream out(path);
    tracer.writeChromeJson(out);
    res.notes.push_back("trace file: " + path);
    return res;
}

} // namespace

Result
runDaaPar3(const Args &args)
{
    return runEngineWorkload(args, {"daa", 3, 4000, 5});
}

Result
runDaaSerial(const Args &args)
{
    return runEngineWorkload(args, {"daa", 0, 2000, 20, 3});
}

Result
runIlogGrow(const Args &args)
{
    return runEngineWorkload(args, {"ilog", 0, 3000, 5});
}

} // namespace perfbench
