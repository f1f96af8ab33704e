/**
 * @file
 * The benchmark's open-loop load generator, independent of the
 * system's own load drivers.
 *
 * Every request is stamped with the time it was *due* to be sent, and
 * its latency runs from that moment to its reply. A stalled server
 * therefore charges its stall to every request that fell due during
 * it instead of hiding it by sending later (coordinated omission).
 * How late the generator actually sent is recorded separately.
 *
 * One OpenLoop instance runs on one thread and owns a Transport (one
 * connection, or one set of in-process futures) and a fixed set of
 * tenants. Primary requests (asserts and runs) fall due at a fixed
 * rate; each acknowledged assert is retracted by tag as soon as its
 * reply arrives, and that retract is due at the reply's arrival.
 */

#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t { Assert, Retract, Run };

/** One request as the generator sees it. */
struct Op
{
    OpKind kind = OpKind::Assert;
    std::uint32_t tenant = 0;
    std::uint32_t tmpl = 0;   ///< Assert: index of the WME template
    std::uint64_t tag = 0;    ///< Retract: tag from the assert's reply
    std::uint64_t cycles = 0; ///< Run: firing budget
};

/** One reply, stamped when it arrived. */
struct Completion
{
    std::uint64_t id = 0;
    Clock::time_point at{};
    bool failed = false;     ///< rejection, expiry, routed error, loss
    std::string error;       ///< why, when failed
    std::uint64_t tag = 0;   ///< Assert: the new element's tag
    bool retracted = false;  ///< Retract: the element was live
    std::uint64_t firings = 0; ///< Run: firings executed
};

/** Where time comes from; tests substitute a fake. */
class TimeSource
{
  public:
    virtual ~TimeSource() = default;
    virtual Clock::time_point now() = 0;
};

class SteadyTime : public TimeSource
{
  public:
    Clock::time_point now() override { return Clock::now(); }
};

/** The system side of one generator thread. */
class Transport
{
  public:
    virtual ~Transport() = default;
    /** Sends @p op as request @p id. Must not block on the reply.
     *  Throws on transport loss. */
    virtual void send(std::uint64_t id, const Op &op) = 0;
    /** Returns once at least one reply arrived or @p until passed,
     *  appending every reply that is available. */
    virtual void poll(Clock::time_point until,
                      std::vector<Completion> &out) = 0;
};

/** The record of one sent request, kept for the output checks. */
struct SentOp
{
    Op op;
    std::uint64_t id = 0;
    bool replied = false;
    Completion reply;
};

/** Per-phase accounting of one generator. */
struct PhaseStats
{
    std::vector<double> latency_us;  ///< due -> reply, replied only
    std::vector<double> late_us;     ///< due -> actual send
    std::vector<double> rtt_us;      ///< actual send -> reply
    std::vector<double> kind_latency_us[3]; ///< by OpKind
    std::uint64_t sent = 0;
    std::uint64_t replied = 0;
    std::uint64_t failed = 0;      ///< failed replies + never answered
    std::uint64_t wme_changes = 0; ///< replied asserts and retracts
    double seconds = 0;            ///< scheduled duration
    double elapsed = 0;            ///< phase start -> last reply
    bool aborted = false;          ///< backlog passed the abort mark
    /** (seconds since phase start, backlog) every sample period;
     *  backlog = requests due so far minus replies so far. */
    std::vector<std::pair<double, double>> backlog;

    void merge(const PhaseStats &o);
};

/** Fixed parameters of the request mix. */
struct MixOptions
{
    std::vector<std::uint32_t> tenants; ///< tenants this thread drives
    std::uint32_t n_templates = 1;
    /** Share of primary requests that are Run; 2/17 makes one
     *  request in sixteen a Run once retracts are counted. */
    double run_share = 2.0 / 17.0;
    std::uint64_t run_cycles = 4;
};

/** Requests per second that primaries at @p primary_rate produce
 *  once retracts are added. */
double offeredRate(double primary_rate, double run_share);
/** Inverse of offeredRate. */
double primaryRate(double offered_rate, double run_share);

/**
 * One open-loop generator thread. Phases run back to back on the same
 * transport, so tenants keep their state across phases.
 */
class OpenLoop
{
  public:
    OpenLoop(Transport &transport, TimeSource &time, MixOptions mix,
             std::uint64_t seed);

    /**
     * Offers primaries at @p primary_rate for @p phase_seconds, then waits
     * up to @p drain_seconds for outstanding replies (sending the
     * retracts they trigger). The phase aborts early, and stops
     * offering, once the backlog passes @p abort_backlog. Replies
     * that arrive after their own phase ended are still bookkept (and
     * their retracts sent) but count in no phase's statistics.
     */
    PhaseStats runPhase(double primary_rate, double phase_seconds,
                        double drain_seconds, double abort_backlog);

    /** Every request sent so far, in send order (per tenant order is
     *  the order the system receives them). */
    const std::vector<SentOp> &sent() const { return sent_; }

    /** Optional tracing hooks (one lane per generator thread). */
    struct Hooks
    {
        virtual ~Hooks() = default;
        virtual void onSend(std::uint64_t id, const Op &op,
                            Clock::time_point due,
                            Clock::time_point begin,
                            Clock::time_point end) = 0;
        virtual void onReply(std::uint64_t id, const Op &op,
                             Clock::time_point due,
                             Clock::time_point sent,
                             const Completion &c) = 0;
    };
    void setHooks(Hooks *hooks) { hooks_ = hooks; }

  private:
    Op nextPrimary();
    void sendOne(const Op &op, Clock::time_point due, PhaseStats &ps);

    Transport &transport_;
    TimeSource &time_;
    MixOptions mix_;
    std::mt19937_64 rng_;
    Hooks *hooks_ = nullptr;
    std::vector<SentOp> sent_;
    /** Index into sent_ of each outstanding id, with its due time. */
    struct Pending
    {
        std::size_t sent_index = 0;
        Clock::time_point due{};
        Clock::time_point sent_at{};
        std::uint32_t phase = 0;
    };
    std::vector<Pending> pending_; ///< indexed by id - 1
    std::uint32_t phase_ = 0;
    std::uint64_t next_id_ = 1;
    std::uint64_t outstanding_ = 0;
};

/** What one rung of the offered-rate ladder measured. */
struct RungResult
{
    double offered_rps = 0;  ///< nominal rate of the rung
    double achieved_rps = 0; ///< replies per scheduled second
    double p99_us = 0;
    bool p99_valid = false;
    std::uint64_t failed = 0;
    bool aborted = false;
    bool backlog_growing = false;
    bool generator_late = false;
    bool passed = false;
};

/** Ladder rules, frozen with the benchmark. */
struct LadderRules
{
    double p99_limit_us = 5000;
    /** The backlog may not grow by more than this many seconds' worth
     *  of offered load between the rung's second and last quarter. */
    double growth_allow_s = 0.002;
    /** A generator whose p99 lateness passes this share of the
     *  latency limit is behind: its rung (or run) is invalid. */
    double late_share = 0.2;
};

/**
 * True when @p backlog (time, depth) grows: the mean over the last
 * quarter of the phase exceeds the mean over the second quarter by
 * more than @p rate * @p growth_allow_s requests.
 */
bool backlogGrowing(const std::vector<std::pair<double, double>> &backlog,
                    double phase_seconds, double rate,
                    double growth_allow_s);

/** True when the generator's p99 lateness passes the rules' share of
 *  the latency limit. */
bool generatorBehind(std::vector<double> late_us, const LadderRules &rules);

/** Judges one rung from its merged phase statistics. */
RungResult judgeRung(double offered_rps, const PhaseStats &ps,
                     const LadderRules &rules);

/**
 * The highest passing rung of an ascending ladder, counting only rungs
 * below the first failure; nothing passes -> index -1.
 */
int highestPassingRung(const std::vector<RungResult> &rungs);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
