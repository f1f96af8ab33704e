// The benchmark driver: runs one workload through the system's public
// APIs and prints its metrics. See perfbench/README.md.
//
//   perfbench --workload daa-serial|ilog-grow|daa-par3|serve-open --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--git-commit SHA]
//             [--fault digest]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit codes: 0 result printed and every check passed;
// 1 an output check failed (the result says correct=false); 2 bad
// arguments or an invalid run (nothing reported); 3 a Debug or
// sanitizer build, which is never reported as a result.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

// End-to-end metrics (--trace 0) of the engine workloads.
// cycle_p99_us is per-layer (core.cycle_p99_us): on the shared VM the
// benchmark was built on, its run-to-run spread reached 40%, too wide
// to gate a change.
const MetricDef kEngineEndToEnd[] = {
    {"wme_changes_per_s", "1/s"},
    {"cycle_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// End-to-end metrics (--trace 0) of serve-open.
const MetricDef kServeEndToEnd[] = {
    {"wme_changes_per_s", "1/s"}, {"request_p50_us", "us"},
    {"request_p99_us", "us"},     {"max_rate_rps", "1/s"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
};

// Per-layer metrics (--trace 1) of the engine workloads, along the
// recognize-act cycle.
const MetricDef kEnginePerLayer[] = {
    {"workloads.generate_ms", "ms"},
    {"rete.compile_ms", "ms"},
    {"rete.match_s", "s"},
    {"rete.match_frac", "ratio"},
    {"rete.join_candidates_mean", "count"},
    {"rete.beta_memory_p99", "count"},
    {"rete.affected_per_change", "count"},
    {"ops5.resolve_s", "s"},
    {"ops5.act_s", "s"},
    {"ops5.conflict_set_end", "count"},
    {"ops5.wm_live_end", "count"},
    {"core.cycle_p99_us", "us"},
    {"core.parallel_speedup", "ratio"},
    {"core.tasks_per_change", "count"},
    {"core.steal_success_frac", "ratio"},
    {"core.idle_spins_per_task", "ratio"},
    {"core.worker_parks", "count"},
    {"core.park_ns_p99", "ns"},
    {"core.queue_depth_p50", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.path_sum_frac", "ratio"},
    {"self.rete_frac", "ratio"},
    {"self.ops5_frac", "ratio"},
    {"self.core_frac", "ratio"},
};

// Per-layer metrics (--trace 1) of serve-open, along a request's path.
const MetricDef kServePerLayer[] = {
    {"workloads.generate_ms", "ms"},
    {"serve.submit_p99_us", "us"},
    {"serve.pool_p50_us", "us"},
    {"serve.pool_p99_us", "us"},
    {"serve.requests_per_batch", "ratio"},
    {"serve.queue_depth_p99", "count"},
    {"serve.ingest_p99_us", "us"},
    {"serve.run_p99_us", "us"},
    {"durable.cost_p50_us", "us"},
    {"durable.wal_bytes_per_change", "B"},
    {"durable.wal_append_us_p99", "us"},
    {"durable.checkpoints", "count"},
    {"durable.checkpoint_ms_p99", "ms"},
    {"durable.snapshot_bytes_mean", "B"},
    {"durable.recovery_ms", "ms"},
    {"cluster.worker_rtt_p50_us", "us"},
    {"cluster.worker_rtt_p99_us", "us"},
    {"cluster.wire_p50_us", "us"},
    {"cluster.router_hop_p50_us", "us"},
    {"cluster.errors", "count"},
    {"loadgen.late_p50_us", "us"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.samples", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.path_sum_frac", "ratio"},
    {"self.loadgen_frac", "ratio"},
    {"self.serve_frac", "ratio"},
    {"self.durable_frac", "ratio"},
    {"self.cluster_frac", "ratio"},
};

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload daa-serial|ilog-grow|"
                 "daa-par3|serve-open --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--git-commit SHA] [--fault digest]\n";
    return 2;
}

bool
optimisedBuild()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    const std::string flags = PERFBENCH_CXX_FLAGS;
    const bool optimised = type == "Release" || type == "RelWithDebInfo" ||
                           type == "MinSizeRel";
    return optimised && std::strlen(PERFBENCH_SANITIZE) == 0 &&
           flags.find("-fsanitize") == std::string::npos;
}

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
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                args.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                args.seed = std::stoull(v);
            } else if (a == "--seconds") {
                args.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                args.trace = v == "1";
            } else if (a == "--out-dir") {
                args.out_dir = v;
            } else if (a == "--git-commit") {
                args.git_commit = v;
            } else if (a == "--fault") {
                if (v != "digest")
                    return usage("--fault takes: digest");
                args.fault = v;
            } else {
                return usage(("unknown argument " + a).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (!(args.seconds > 0))
        return usage("--seconds must be positive");
    if (!optimisedBuild()) {
        std::cerr << "perfbench: refusing to report a " PERFBENCH_BUILD_TYPE
                     " build (sanitizers: '" PERFBENCH_SANITIZE
                     "'); configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    std::filesystem::create_directories(args.out_dir);

    Result r;
    try {
        if (args.workload == "daa-par3")
            r = runDaaPar3(args);
        else if (args.workload == "daa-serial")
            r = runDaaSerial(args);
        else if (args.workload == "ilog-grow")
            r = runIlogGrow(args);
        else if (args.workload == "serve-open")
            r = runServeOpen(args);
        else
            return usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
                  << "\n";
        return 2;
    }
    r.metrics["peak_rss_mb"] = peakRssMb();

    std::cout << "# perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n";
    std::cout << "# record: {\"seed\": " << args.seed
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"git_commit\": \"" << jsonEscape(args.git_commit)
              << "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                 "\", \"sanitizers\": \"" PERFBENCH_SANITIZE
                 "\", \"state_fs\": \""
              << jsonEscape(r.state_fs) << "\"}\n";
    for (const std::string &n : r.notes)
        std::cout << "# " << n << "\n";
    if (!r.invalid.empty()) {
        std::cerr << "perfbench: invalid run, not reported: " << r.invalid
                  << "\n";
        return 2;
    }

    std::ostringstream js;
    js.precision(10);
    js << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef &m) {
        auto it = r.metrics.find(m.name);
        double v = it == r.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("#   %-30s %16.6f %s\n", m.name, v, m.unit);
        js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    };
    std::fflush(stdout);
    const bool serve = args.workload == "serve-open";
    if (args.trace && serve) {
        for (const MetricDef &m : kServePerLayer)
            emit(m);
    } else if (args.trace) {
        for (const MetricDef &m : kEnginePerLayer)
            emit(m);
    } else if (serve) {
        for (const MetricDef &m : kServeEndToEnd)
            emit(m);
    } else {
        for (const MetricDef &m : kEngineEndToEnd)
            emit(m);
    }
    std::fflush(stdout);
    js << "}}";
    const double failed_frac =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 0.0;
    std::cout << "#   failed_frac " << failed_frac << " (" << r.failed << " of "
              << r.attempted << ")\n";
    std::cout << js.str() << std::endl;
    return r.correct ? 0 : 1;
}
