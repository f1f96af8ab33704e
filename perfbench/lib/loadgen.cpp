#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace perfbench {

void
PhaseStats::merge(const PhaseStats &o)
{
    auto append = [](std::vector<double> &a, const std::vector<double> &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_us, o.latency_us);
    append(late_us, o.late_us);
    append(rtt_us, o.rtt_us);
    for (int k = 0; k < 3; ++k)
        append(kind_latency_us[k], o.kind_latency_us[k]);
    sent += o.sent;
    replied += o.replied;
    failed += o.failed;
    wme_changes += o.wme_changes;
    seconds = std::max(seconds, o.seconds);
    elapsed = std::max(elapsed, o.elapsed);
    aborted = aborted || o.aborted;
    // Backlogs of parallel generators add up at equal offsets; both
    // sample on the same period from (nearly) the same start.
    if (backlog.empty()) {
        backlog = o.backlog;
    } else {
        std::size_t n = std::min(backlog.size(), o.backlog.size());
        backlog.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            backlog[i].second += o.backlog[i].second;
    }
}

double
offeredRate(double primary_rate, double run_share)
{
    return primary_rate * (2.0 - run_share);
}

double
primaryRate(double offered_rate, double run_share)
{
    return offered_rate / (2.0 - run_share);
}

OpenLoop::OpenLoop(Transport &transport, TimeSource &time, MixOptions mix,
                   std::uint64_t seed)
    : transport_(transport), time_(time), mix_(std::move(mix)), rng_(seed)
{
    if (mix_.tenants.empty() || mix_.n_templates == 0)
        throw std::invalid_argument("open loop needs tenants and templates");
}

Op
OpenLoop::nextPrimary()
{
    Op op;
    op.tenant = mix_.tenants[rng_() % mix_.tenants.size()];
    const double u =
        static_cast<double>(rng_() >> 11) * (1.0 / 9007199254740992.0);
    if (u < mix_.run_share) {
        op.kind = OpKind::Run;
        op.cycles = mix_.run_cycles;
    } else {
        op.kind = OpKind::Assert;
        op.tmpl = static_cast<std::uint32_t>(rng_() % mix_.n_templates);
    }
    return op;
}

void
OpenLoop::sendOne(const Op &op, Clock::time_point due, PhaseStats &ps)
{
    const std::uint64_t id = next_id_++;
    SentOp rec;
    rec.op = op;
    rec.id = id;
    sent_.push_back(rec);
    Pending p;
    p.sent_index = sent_.size() - 1;
    p.due = due;
    p.phase = phase_;
    const Clock::time_point begin = time_.now();
    p.sent_at = begin;
    pending_.push_back(p);
    ++outstanding_;
    transport_.send(id, op);
    const Clock::time_point end = time_.now();
    ++ps.sent;
    ps.late_us.push_back(micros(due, begin));
    if (hooks_)
        hooks_->onSend(id, op, due, begin, end);
}

PhaseStats
OpenLoop::runPhase(double primary_rate, double phase_seconds,
                   double drain_seconds, double abort_backlog)
{
    ++phase_;
    PhaseStats ps;
    ps.seconds = phase_seconds;
    const Clock::time_point start = time_.now();
    const auto n_primary =
        static_cast<std::uint64_t>(std::floor(primary_rate * phase_seconds));
    const double interval = 1.0 / primary_rate;
    auto dueOf = [&](std::uint64_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) * interval));
    };
    const Clock::time_point offer_end = dueOf(n_primary);
    const Clock::time_point drain_deadline =
        offer_end + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(drain_seconds));
    constexpr double kSamplePeriod = 0.01;
    double next_sample = 0.0;

    std::deque<std::pair<Op, Clock::time_point>> retracts;
    std::uint64_t next_primary = 0;
    std::uint64_t issued = 0; // requests due so far (sent or queued)
    std::uint64_t done = 0;   // this phase's replies so far
    Clock::time_point last_reply = start;
    std::vector<Completion> completions;

    for (;;) {
        Clock::time_point now = time_.now();
        if (!ps.aborted) {
            while (next_primary < n_primary && dueOf(next_primary) <= now) {
                sendOne(nextPrimary(), dueOf(next_primary), ps);
                ++next_primary;
                ++issued;
            }
        }
        while (!retracts.empty()) {
            sendOne(retracts.front().first, retracts.front().second, ps);
            retracts.pop_front();
        }
        const double t = seconds(start, now);
        const double backlog =
            static_cast<double>(issued) - static_cast<double>(done);
        while (t >= next_sample && next_sample <= phase_seconds) {
            ps.backlog.emplace_back(next_sample, backlog);
            next_sample += kSamplePeriod;
        }
        if (!ps.aborted && backlog > abort_backlog)
            ps.aborted = true;

        const bool offering = !ps.aborted && next_primary < n_primary;
        if (!offering && outstanding_ == 0)
            break;
        if (now >= drain_deadline)
            break;
        completions.clear();
        transport_.poll(offering ? dueOf(next_primary) : drain_deadline,
                        completions);
        for (const Completion &c : completions) {
            if (c.id == 0 || c.id > pending_.size())
                throw std::runtime_error("reply for a request never sent");
            const Pending &p = pending_[c.id - 1];
            SentOp &rec = sent_[p.sent_index];
            if (rec.replied)
                throw std::runtime_error("second reply for one request");
            rec.replied = true;
            rec.reply = c;
            --outstanding_;
            if (!c.failed && rec.op.kind == OpKind::Assert) {
                ++issued; // its retract falls due now
                Op retract;
                retract.kind = OpKind::Retract;
                retract.tenant = rec.op.tenant;
                retract.tag = c.tag;
                retracts.emplace_back(retract, c.at);
            }
            if (hooks_)
                hooks_->onReply(c.id, rec.op, p.due, p.sent_at, c);
            if (p.phase != phase_)
                continue; // a straggler of an earlier phase
            ++done;
            last_reply = std::max(last_reply, c.at);
            const double lat = micros(p.due, c.at);
            ps.latency_us.push_back(lat);
            ps.rtt_us.push_back(micros(p.sent_at, c.at));
            ps.kind_latency_us[static_cast<int>(rec.op.kind)].push_back(lat);
            if (c.failed) {
                ++ps.failed;
            } else {
                ++ps.replied;
                if (rec.op.kind != OpKind::Run)
                    ++ps.wme_changes;
            }
        }
    }
    // Requests of this phase still unanswered count as failed.
    for (const Pending &p : pending_)
        if (p.phase == phase_ && !sent_[p.sent_index].replied)
            ++ps.failed;
    ps.elapsed = std::max(phase_seconds, seconds(start, last_reply));
    return ps;
}

bool
backlogGrowing(const std::vector<std::pair<double, double>> &backlog,
               double phase_seconds, double rate, double growth_allow_s)
{
    auto meanIn = [&](double lo, double hi) {
        double sum = 0;
        std::size_t n = 0;
        for (const auto &[t, b] : backlog) {
            if (t >= lo && t < hi) {
                sum += b;
                ++n;
            }
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    };
    const double q = phase_seconds / 4;
    const double second = meanIn(q, 2 * q);
    const double last = meanIn(3 * q, phase_seconds + 1e-9);
    return last - second > rate * growth_allow_s;
}

bool
generatorBehind(std::vector<double> late_us, const LadderRules &rules)
{
    if (late_us.empty())
        return false;
    std::sort(late_us.begin(), late_us.end());
    return nearestRank(late_us, 99) > rules.late_share * rules.p99_limit_us;
}

RungResult
judgeRung(double offered_rps, const PhaseStats &ps, const LadderRules &rules)
{
    RungResult r;
    r.offered_rps = offered_rps;
    r.achieved_rps =
        wallRate(static_cast<double>(ps.replied), ps.elapsed);
    Summary s = summarize(ps.latency_us);
    r.p99_us = s.p99;
    r.p99_valid = s.p99_valid;
    r.failed = ps.failed;
    r.aborted = ps.aborted;
    r.backlog_growing = backlogGrowing(ps.backlog, ps.seconds, offered_rps,
                                       rules.growth_allow_s);
    r.generator_late = generatorBehind(ps.late_us, rules);
    r.passed = r.p99_valid && r.p99_us <= rules.p99_limit_us &&
               r.failed == 0 && !r.aborted && !r.backlog_growing &&
               !r.generator_late;
    return r;
}

int
highestPassingRung(const std::vector<RungResult> &rungs)
{
    int best = -1;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        if (!rungs[i].passed)
            break;
        best = static_cast<int>(i);
    }
    return best;
}

} // namespace perfbench
