/**
 * @file
 * Shared types of the benchmark driver: arguments, the result every
 * workload returns, and the output checks' digest helpers.
 */

#ifndef PERFBENCH_DRIVER_COMMON_HPP
#define PERFBENCH_DRIVER_COMMON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ops5/wme.hpp"

namespace perfbench {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory inside the checkout (state, trace file). */
    std::string out_dir = ".bench_build/run";
    std::string git_commit = "unknown";
    /** Self-test only: "digest" corrupts an expected output digest so
     *  the run must report correct=false and exit non-zero. */
    std::string fault;
};

/** What one workload run measured and checked. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric name -> value; units come from the metric tables. */
    std::map<std::string, double> metrics;
    /** Human-readable lines printed before the result (sample counts,
     *  check outcomes, ladder rungs). */
    std::vector<std::string> notes;
    /** The run is not a result (generator behind, too few samples):
     *  report nothing and exit non-zero. */
    std::string invalid;
    std::string state_fs = "none";

    void fail(const std::string &why)
    {
        correct = false;
        ++failed;
        notes.push_back("CHECK FAILED: " + why);
    }
};

Result runDaaPar3(const Args &args);
Result runDaaSerial(const Args &args);
Result runIlogGrow(const Args &args);
Result runServeOpen(const Args &args);

/** FNV-1a, 64-bit, fed word by word. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Order-independent canonical image of a working memory: every live
 *  element's tag, class and fields, in tag order. */
std::uint64_t wmImage(const psm::ops5::WorkingMemory &wm);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Name of the filesystem holding @p path ("tmpfs", "ext4", ...). */
std::string filesystemOf(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_COMMON_HPP
