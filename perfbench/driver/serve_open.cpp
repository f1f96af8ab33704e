// serve-open: an open loop of independent tenants against the full
// serving stack — an in-process cluster::Router, two in-process
// cluster::Workers over loopback, and one single-session SessionPool
// per shard (serial Rete on the DAA program, durable state with a
// checkpoint every kCheckpointEvery batches).
//
// Eight tenants, one session each. Two generator threads, each with
// one pipelined connection and four tenants. The mix: asserts built
// from the program's initial-WME templates, each retracted by tag once
// its reply arrives (working memory stays stationary), and one request
// in sixteen a Run with a small firing budget.
//
// Untraced run: set-up three times (median), then a nominal-rate phase
// (latency, throughput), then an ascending ladder of offered rates
// (the highest passing rung). Traced run: the same request stream at
// the nominal rate against four rungs of the stack — (1) the pools
// alone, (2) the pools with durability, (3) a connection straight to
// one Worker, (4) the full router path — whose differences split the
// request path by layer.
//
// Output checks: every reply matches a request that was sent; every
// acknowledged assert is retracted exactly once; every reply agrees
// with a serial Rete shadow engine fed the same per-tenant request
// sequence; and each shard reopened with restore=true holds the same
// working-memory image as the shadow.

#include <poll.h>
#include <sys/prctl.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/load_driver.hpp"
#include "cluster/protocol.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "loadgen.hpp"
#include "rete/matcher.hpp"
#include "serve/session_pool.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/presets.hpp"

namespace perfbench {
namespace {

namespace cl = psm::cluster;
namespace sv = psm::serve;
namespace fs = std::filesystem;

constexpr std::uint32_t kTenants = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kThreads = 2;
constexpr std::uint64_t kRunCycles = 4;
/** Batches between checkpoints: at the nominal rate each shard
 *  commits about 250 batches a second, so it checkpoints several
 *  times per rung. */
constexpr std::uint64_t kCheckpointEvery = 64;
/** Offered load, requests per second with retracts counted. On a
 *  4-vCPU host the generator starts to fall behind near 4000. */
constexpr double kNominalRps = 2000;
/** The frozen ladder of offered rates for max_rate_rps. */
const std::vector<double> kLadder = {1000, 2000, 3000, 4000,
                                     6000, 8000, 12000};
const char *const kHost = "127.0.0.1";

using Program = psm::ops5::Program;

/** The program's initial WMEs, the assert templates. */
struct Templates
{
    std::vector<sv::WireRequest> wire;
    const std::vector<Program::InitialWme> *local = nullptr;

    explicit Templates(const Program &p) : local(&p.initialWmes())
    {
        for (const auto &t : p.initialWmes()) {
            sv::WireRequest w;
            w.kind = sv::RequestKind::Assert;
            w.cls = p.symbols().name(t.cls);
            for (const psm::ops5::Value &v : t.fields)
                w.fields.push_back(sv::WireValue::of(v, p.symbols()));
            wire.push_back(std::move(w));
        }
    }
};

sv::WireRequest
wireOf(const Op &op, const Templates &t)
{
    sv::WireRequest w;
    switch (op.kind) {
      case OpKind::Assert: w = t.wire[op.tmpl]; break;
      case OpKind::Retract:
        w.kind = sv::RequestKind::Retract;
        w.tag = op.tag;
        break;
      case OpKind::Run:
        w.kind = sv::RequestKind::Run;
        w.max_cycles = op.cycles;
        break;
    }
    return w;
}

/** One pipelined protocol connection (to the router or a worker). */
class SocketTransport : public Transport
{
  public:
    SocketTransport(std::uint16_t port, const Templates &t)
        : fd_(cl::connectTcp(kHost, port)), templates_(t)
    {}

    void send(std::uint64_t id, const Op &op) override
    {
        cl::Frame f;
        f.msg = cl::Msg::Submit;
        f.req_id = id;
        f.gsid = op.tenant + 1;
        f.body = sv::encodeRequest(wireOf(op, templates_));
        if (!cl::sendFrame(fd_.get(), f))
            throw cl::ClusterError("connection lost on send");
    }

    void poll(Clock::time_point until, std::vector<Completion> &out) override
    {
        pollfd p{fd_.get(), POLLIN, 0};
        const auto left = until - Clock::now();
        timespec ts{0, 0};
        if (left > Clock::duration::zero()) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                    .count();
            ts.tv_sec = ns / 1000000000;
            ts.tv_nsec = ns % 1000000000;
        }
        int n = ppoll(&p, 1, &ts, nullptr);
        for (int frames = 0; n > 0 && frames < 256; ++frames) {
            cl::Frame f;
            if (!cl::recvFrame(fd_.get(), f))
                throw cl::ClusterError("connection lost awaiting reply");
            Completion c;
            c.id = f.req_id;
            c.at = Clock::now();
            if (f.msg != cl::Msg::Reply) {
                c.failed = true;
                c.error = f.msg == cl::Msg::Error ? f.bodyText()
                                                  : cl::msgName(f.msg);
            } else {
                sv::WireResponse r = sv::decodeResponse(f.body);
                c.failed = !r.accepted() || r.deadline_expired;
                if (!r.accepted())
                    c.error = sv::rejectReasonName(r.rejected);
                else if (r.deadline_expired)
                    c.error = "deadline expired";
                c.tag = r.tag;
                c.retracted = r.retracted;
                c.firings = r.run.firings;
            }
            out.push_back(std::move(c));
            timespec zero{0, 0};
            p.revents = 0;
            n = ppoll(&p, 1, &zero, nullptr);
        }
    }

  private:
    cl::Fd fd_;
    const Templates &templates_;
};

/** In-process submits to one single-session pool per tenant. Reply
 *  time is the submit time plus the pool's own measured latency, so
 *  how soon this thread notices a future does not bias latency. */
class PoolTransport : public Transport
{
  public:
    PoolTransport(std::vector<sv::SessionPool *> pools, const Templates &t)
        : pools_(std::move(pools)), templates_(t), out_(pools_.size())
    {}

    void send(std::uint64_t id, const Op &op) override
    {
        sv::Request req;
        switch (op.kind) {
          case OpKind::Assert: {
              const auto &tmpl = (*templates_.local)[op.tmpl];
              req = sv::Request::makeAssert(tmpl.cls, tmpl.fields);
              break;
          }
          case OpKind::Retract: req = sv::Request::makeRetractTag(op.tag); break;
          case OpKind::Run: req = sv::Request::makeRun(op.cycles); break;
        }
        const auto t0 = Clock::now();
        sv::Submit s = pools_[op.tenant]->submit(0, std::move(req));
        if (!s.accepted()) {
            Completion c;
            c.id = id;
            c.at = Clock::now();
            c.failed = true;
            c.error = sv::rejectReasonName(s.rejected);
            rejected_.push_back(std::move(c));
            return;
        }
        out_[op.tenant].push_back({id, t0, std::move(s.response)});
    }

    void poll(Clock::time_point until, std::vector<Completion> &out) override
    {
        out.insert(out.end(), rejected_.begin(), rejected_.end());
        rejected_.clear();
        Outstanding *oldest = nullptr;
        for (auto &q : out_)
            if (!q.empty() && (!oldest || q.front().submit < oldest->submit))
                oldest = &q.front();
        if (out.empty()) {
            if (!oldest) {
                std::this_thread::sleep_until(until);
                return;
            }
            oldest->response.wait_until(until);
        }
        for (auto &q : out_) {
            while (!q.empty() && q.front().response.wait_for(
                                     std::chrono::seconds(0)) ==
                                     std::future_status::ready) {
                sv::Response r = q.front().response.get();
                Completion c;
                c.id = q.front().id;
                c.at = q.front().submit + r.latency;
                c.failed = r.deadline_expired;
                c.tag = r.tag;
                c.retracted = r.retracted;
                c.firings = r.run.firings;
                out.push_back(std::move(c));
                q.pop_front();
            }
        }
    }

  private:
    struct Outstanding
    {
        std::uint64_t id;
        Clock::time_point submit;
        std::future<sv::Response> response;
    };
    std::vector<sv::SessionPool *> pools_;
    const Templates &templates_;
    std::vector<std::deque<Outstanding>> out_;
    std::vector<Completion> rejected_;
};

/** Per-request spans: request (due -> reply, loadgen) with children
 *  submit (the send call) and wait (send returned -> reply). */
class SpanHooks : public OpenLoop::Hooks
{
  public:
    SpanHooks(Lane &lane, const char *submit_layer, const char *wait_layer,
              std::uint64_t id_base)
        : lane_(lane), submit_layer_(submit_layer), wait_layer_(wait_layer),
          id_base_(id_base)
    {}
    void onSend(std::uint64_t id, const Op &, Clock::time_point,
                Clock::time_point begin, Clock::time_point end) override
    {
        if (sends_.size() < id)
            sends_.resize(id);
        sends_[id - 1] = {begin, end};
    }
    void onReply(std::uint64_t id, const Op &, Clock::time_point due,
                 Clock::time_point, const Completion &c) override
    {
        const auto [begin, end] = sends_[id - 1];
        const std::uint64_t rid = id_base_ + id;
        const std::int32_t req = lane_.add("request", "loadgen", rid, -1, due,
                                           std::max(c.at, end));
        lane_.add("submit", submit_layer_, rid, req, begin, end);
        lane_.add("wait", wait_layer_, rid, req, end, std::max(c.at, end));
    }

  private:
    Lane &lane_;
    const char *submit_layer_;
    const char *wait_layer_;
    std::uint64_t id_base_;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> sends_;
};

/** Routers, workers and their shards, or pools alone. */
struct Stack
{
    std::shared_ptr<Program> program;
    std::string root;
    std::vector<std::unique_ptr<cl::Worker>> workers;
    std::unique_ptr<cl::Router> router;
    std::vector<std::unique_ptr<sv::SessionPool>> pools;

    std::uint16_t entryPort() const
    {
        return router ? router->port() : workers.front()->port();
    }
    /** Stops serving; workers and pools drain and checkpoint. */
    void shutdown()
    {
        if (router)
            router->stop();
        router.reset();
        for (auto &w : workers)
            w->stop();
        workers.clear();
        pools.clear();
    }
    ~Stack() { shutdown(); }
};

psm::durable::CheckpointPolicy
checkpointPolicy()
{
    psm::durable::CheckpointPolicy c;
    c.every_batches = kCheckpointEvery;
    return c;
}

/** A cluster: @p n_workers workers, behind a router when asked, with
 *  every tenant's shard opened. */
std::unique_ptr<Stack>
makeCluster(std::shared_ptr<Program> program, const std::string &root,
            std::size_t n_workers, bool with_router, Lane *lane)
{
    auto s = std::make_unique<Stack>();
    s->program = program;
    s->root = root;
    {
        ScopedSpan span(lane, "start_workers", "cluster");
        for (std::size_t i = 0; i < n_workers; ++i) {
            cl::WorkerOptions wo;
            wo.slot = static_cast<std::uint32_t>(i);
            wo.dir = root + "/worker-" + std::to_string(i);
            wo.fsync = psm::durable::FsyncPolicy::None;
            wo.checkpoint = checkpointPolicy();
            s->workers.push_back(std::make_unique<cl::Worker>(program, wo));
            s->workers.back()->start();
        }
    }
    if (with_router) {
        ScopedSpan span(lane, "start_router", "cluster");
        cl::RouterOptions ro;
        for (const auto &w : s->workers)
            ro.workers.push_back(cl::Endpoint{kHost, w->port()});
        s->router = std::make_unique<cl::Router>(ro);
        s->router->start();
    }
    {
        ScopedSpan span(lane, "open_shards", "serve");
        cl::Client ctl(kHost, s->entryPort());
        for (std::uint32_t t = 0; t < kTenants; ++t)
            ctl.openShard(t + 1, false);
    }
    return s;
}

/** One single-session pool per tenant, durable when @p durable. */
std::unique_ptr<Stack>
makePools(std::shared_ptr<Program> program, const std::string &root,
          bool durable)
{
    auto s = std::make_unique<Stack>();
    s->program = program;
    s->root = root;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
        sv::PoolOptions po;
        po.n_sessions = 1;
        po.n_threads = 1;
        if (durable) {
            po.durability.dir = root + "/pool-" + std::to_string(t);
            po.durability.fsync = psm::durable::FsyncPolicy::None;
            po.durability.checkpoint = checkpointPolicy();
        }
        s->pools.push_back(std::make_unique<sv::SessionPool>(program, po));
    }
    return s;
}

/** The generator threads and their transports, on one stack. */
struct Load
{
    std::vector<std::unique_ptr<Transport>> transports;
    std::vector<std::unique_ptr<OpenLoop>> loops;
    std::vector<std::unique_ptr<SpanHooks>> hooks;
    SteadyTime time;

    Load(Stack &stack, const Templates &t, std::uint64_t seed)
    {
        for (std::size_t i = 0; i < kThreads; ++i) {
            MixOptions mix;
            for (std::uint32_t tenant = static_cast<std::uint32_t>(i);
                 tenant < kTenants; tenant += kThreads)
                mix.tenants.push_back(tenant);
            mix.n_templates = static_cast<std::uint32_t>(t.wire.size());
            mix.run_cycles = kRunCycles;
            if (stack.pools.empty()) {
                transports.push_back(
                    std::make_unique<SocketTransport>(stack.entryPort(), t));
            } else {
                std::vector<sv::SessionPool *> pools;
                for (auto &p : stack.pools)
                    pools.push_back(p.get());
                transports.push_back(
                    std::make_unique<PoolTransport>(std::move(pools), t));
            }
            loops.push_back(std::make_unique<OpenLoop>(
                *transports.back(), time, mix, seed * 7919 + i));
        }
    }

    void trace(Tracer &tracer, const char *submit_layer,
               const char *wait_layer, std::uint64_t id_base)
    {
        for (std::size_t i = 0; i < loops.size(); ++i) {
            hooks.push_back(std::make_unique<SpanHooks>(
                tracer.addLane(), submit_layer, wait_layer,
                id_base + (static_cast<std::uint64_t>(i) << 32)));
            loops[i]->setHooks(hooks.back().get());
        }
    }

    /** Runs one phase on every generator thread at @p offered_rps in
     *  total; transport loss is recorded in @p errors. */
    PhaseStats phase(double offered_rps, double secs,
                     std::vector<std::string> &errors)
    {
        const double primary =
            primaryRate(offered_rps, MixOptions{}.run_share) / kThreads;
        std::vector<PhaseStats> out(loops.size());
        std::vector<std::string> err(loops.size());
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < loops.size(); ++i) {
            threads.emplace_back([&, i] {
                prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
                try {
                    out[i] = loops[i]->runPhase(primary, secs, 3.0,
                                                0.25 * offered_rps / kThreads);
                } catch (const std::exception &e) {
                    err[i] = e.what();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        PhaseStats merged;
        for (std::size_t i = 0; i < loops.size(); ++i) {
            merged.merge(out[i]);
            if (!err[i].empty()) {
                errors.push_back(err[i]);
                ++merged.failed;
            }
        }
        return merged;
    }
};

/** Sums the numbers that follow every `"key": ` in @p json. */
double
sumField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    double sum = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1))
        sum += std::strtod(json.c_str() + at + needle.size(), nullptr);
    return sum;
}

psm::telemetry::HistogramData
mergedHistogram(const Stack &s, psm::telemetry::Histogram h)
{
    psm::telemetry::HistogramData out;
    for (const auto &p : s.pools) {
        psm::telemetry::HistogramData d = p->metrics().merged(h);
        for (std::size_t b = 0; b < out.buckets.size(); ++b)
            out.buckets[b] += d.buckets[b];
        out.count += d.count;
        out.sum += d.sum;
        out.max = std::max(out.max, d.max);
    }
    return out;
}

double
counterSum(const Stack &s, psm::telemetry::Counter c)
{
    double sum = 0;
    for (const auto &p : s.pools)
        sum += static_cast<double>(p->metrics().total(c));
    return sum;
}

/** Directory that holds @p tenant's durable session on @p stack. */
std::string
tenantPoolDir(const Stack &s, std::uint32_t tenant, bool pools)
{
    if (pools)
        return s.root + "/pool-" + std::to_string(tenant);
    for (std::size_t i = 0; i < kWorkers; ++i) {
        std::string d = cl::Worker::shardDir(
            s.root + "/worker-" + std::to_string(i), tenant + 1);
        if (fs::exists(d))
            return d;
    }
    return {};
}

/**
 * Output checks of one stack after it shut down: replays each tenant's
 * requests, in the order the tenant sent them, on a serial Rete shadow
 * engine and compares every reply; then, when @p restore_dirs is set,
 * reopens each tenant's durable state with restore=true and compares
 * its working-memory image with the shadow's. Returns recovery times.
 */
std::vector<double>
verify(Result &res, const char *label, const Stack &stack,
       const Templates &templates, const Load &load, bool durable,
       bool pools)
{
    std::vector<double> recovery_ms;
    std::vector<std::vector<const SentOp *>> by_tenant(kTenants);
    for (const auto &loop : load.loops)
        for (const SentOp &s : loop->sent())
            by_tenant[s.op.tenant].push_back(&s);

    for (std::uint32_t t = 0; t < kTenants; ++t) {
        const std::string who =
            std::string(label) + " tenant " + std::to_string(t) + ": ";
        psm::rete::ReteMatcher matcher(
            std::shared_ptr<const Program>(stack.program));
        psm::core::Engine shadow(stack.program, matcher);
        shadow.loadInitialWorkingMemory();
        std::set<std::uint64_t> acked;
        std::map<std::uint64_t, int> retracts;
        bool followed = true;
        for (const SentOp *s : by_tenant[t]) {
            if (!s->replied || s->reply.failed) {
                res.fail(who + "request " + std::to_string(s->id) +
                         (s->replied ? " failed: " + s->reply.error
                                     : " never answered"));
                followed = false;
                break;
            }
            switch (s->op.kind) {
              case OpKind::Assert: {
                  const auto &tmpl = (*templates.local)[s->op.tmpl];
                  const psm::ops5::Wme *w =
                      shadow.assertWme(tmpl.cls, tmpl.fields);
                  if (w->timeTag() != s->reply.tag) {
                      res.fail(who + "assert got tag " +
                               std::to_string(s->reply.tag) + ", shadow " +
                               std::to_string(w->timeTag()));
                      followed = false;
                  }
                  acked.insert(s->reply.tag);
                  break;
              }
              case OpKind::Retract: {
                  ++retracts[s->op.tag];
                  const psm::ops5::Wme *w =
                      shadow.workingMemory().findByTag(s->op.tag);
                  const bool ok = w && shadow.retractWme(w);
                  if (ok != s->reply.retracted) {
                      res.fail(who + "retract of tag " +
                               std::to_string(s->op.tag) + " answered " +
                               (s->reply.retracted ? "true" : "false") +
                               ", shadow " + (ok ? "true" : "false"));
                      followed = false;
                  }
                  break;
              }
              case OpKind::Run: {
                  psm::core::RunResult r = shadow.run(s->op.cycles);
                  if (r.firings != s->reply.firings) {
                      res.fail(who + "run fired " +
                               std::to_string(s->reply.firings) +
                               ", shadow " + std::to_string(r.firings));
                      followed = false;
                  }
                  break;
              }
            }
            // After a disagreement the shadow no longer models the
            // tenant; following it further only compounds the error.
            if (!followed)
                break;
        }
        if (!followed)
            continue;
        {
            std::ostringstream os;
            os << who << by_tenant[t].size() << " requests, final WM "
               << shadow.workingMemory().liveCount() << ", fired "
               << shadow.totals().firings;
            res.notes.push_back(os.str());
        }
        for (std::uint64_t tag : acked)
            if (retracts[tag] != 1)
                res.fail(who + "tag " + std::to_string(tag) + " retracted " +
                         std::to_string(retracts[tag]) + " times");
        if (retracts.size() != acked.size())
            res.fail(who + "retracted a tag never acknowledged");
        if (!durable)
            continue;

        ++res.attempted;
        const std::string dir = tenantPoolDir(stack, t, pools);
        if (dir.empty()) {
            res.fail(who + "no durable state found");
            continue;
        }
        sv::PoolOptions po;
        po.autostart = false;
        po.durability.dir = dir;
        po.durability.fsync = psm::durable::FsyncPolicy::None;
        po.durability.checkpoint.on_drain = false;
        po.restore = true;
        sv::SessionPool reopened(stack.program, po);
        const psm::durable::RecoveryStats &rs = reopened.recoveryStats(0);
        recovery_ms.push_back(rs.recovery_ms);
        const std::uint64_t image = wmImage(reopened.engine(0).workingMemory());
        if (!rs.recovered)
            res.fail(who + "restore found no state");
        else if (image != wmImage(shadow.workingMemory()))
            res.fail(who + "restored working memory differs from the shadow");
    }
    return recovery_ms;
}

std::string
rungNote(const RungResult &r)
{
    std::ostringstream os;
    os.precision(6);
    os << "rung " << r.offered_rps << " req/s: achieved " << r.achieved_rps
       << ", p99 " << r.p99_us << " us" << (r.p99_valid ? "" : " (too few)")
       << ", failed " << r.failed << (r.backlog_growing ? ", backlog grows" : "")
       << (r.aborted ? ", aborted" : "")
       << (r.generator_late ? ", generator late" : "")
       << (r.passed ? " -> pass" : " -> FAIL");
    return os.str();
}

std::shared_ptr<Program>
generate()
{
    return psm::workloads::generateProgram(
        psm::workloads::presetByName("daa").config);
}

void
phaseNote(Result &res, const char *what, const PhaseStats &ps)
{
    Summary l = summarize(ps.latency_us);
    Summary g = summarize(ps.late_us);
    std::ostringstream os;
    os.precision(6);
    os << what << ": sent " << ps.sent << ", replied " << ps.replied
       << ", failed " << ps.failed << ", latency n=" << l.n
       << " p50=" << l.p50 << "us p99=" << l.p99
       << "us, generator late p99=" << g.p99 << "us";
    res.notes.push_back(os.str());
}

} // namespace

Result
runServeOpen(const Args &args)
{
    Result res;
    const LadderRules rules;
    const std::string root = fs::absolute(args.out_dir + "/serve-state");
    fs::remove_all(root);
    fs::create_directories(root);
    res.state_fs = filesystemOf(root) + " (" + root + "), fsync none";
    std::vector<std::string> errors;
    std::uint64_t sent_total = 0;
    std::uint64_t failed_phases = 0;
    auto account = [&](const PhaseStats &ps) {
        sent_total += ps.sent;
        failed_phases += ps.failed;
    };

    if (!args.trace) {
        // Set-up, three times: program, workers, router, shard open and
        // the generator's connections. The last stack serves the run.
        std::vector<double> setup_s;
        std::unique_ptr<Stack> stack;
        std::unique_ptr<Templates> templates;
        std::unique_ptr<Load> load;
        for (int k = 0; k < 3; ++k) {
            load.reset();
            stack.reset();
            templates.reset();
            const std::string dir = root + "/setup-" + std::to_string(k);
            const auto t0 = Clock::now();
            auto program = generate();
            templates = std::make_unique<Templates>(*program);
            stack = makeCluster(program, dir, kWorkers, true, nullptr);
            load = std::make_unique<Load>(*stack, *templates, args.seed);
            setup_s.push_back(seconds(t0, Clock::now()));
        }
        res.metrics["setup_s"] = median(setup_s);

        PhaseStats nominal =
            load->phase(kNominalRps, 0.4 * args.seconds, errors);
        account(nominal);
        phaseNote(res, "nominal", nominal);
        std::vector<RungResult> rungs;
        for (double rate : kLadder) {
            PhaseStats ps = load->phase(rate, 0.075 * args.seconds, errors);
            account(ps);
            rungs.push_back(judgeRung(rate, ps, rules));
            res.notes.push_back(rungNote(rungs.back()));
            if (!rungs.back().passed)
                break;
        }
        const int best = highestPassingRung(rungs);

        stack->shutdown();
        verify(res, "router path", *stack, *templates, *load, true, false);

        Summary lat = summarize(nominal.latency_us);
        res.metrics["wme_changes_per_s"] =
            wallRate(static_cast<double>(nominal.wme_changes), nominal.elapsed);
        res.metrics["request_p50_us"] = lat.p50;
        res.metrics["request_p99_us"] = lat.p99;
        res.metrics["max_rate_rps"] = best >= 0 ? rungs[best].achieved_rps : 0;
        if (!lat.p99_valid)
            res.invalid = "too few requests for a p99 at the nominal rate";
        if (generatorBehind(nominal.late_us, rules))
            res.invalid = "the generator fell behind at the nominal rate";
    } else {
        Tracer tracer;
        Lane &setup_lane = tracer.addLane();
        std::shared_ptr<Program> program;
        {
            ScopedSpan s(&setup_lane, "generate", "workloads");
            const auto t0 = Clock::now();
            program = generate();
            res.metrics["workloads.generate_ms"] =
                1e3 * seconds(t0, Clock::now());
        }
        Templates templates(*program);
        const double rung_s = 0.15 * args.seconds;

        // Untraced baseline on the full path, for the tracing overhead.
        PhaseStats plain;
        {
            auto stack = makeCluster(program, root + "/plain", kWorkers, true,
                                     &setup_lane);
            Load load(*stack, templates, args.seed);
            plain = load.phase(kNominalRps, 0.2 * args.seconds, errors);
            account(plain);
            phaseNote(res, "untraced router path", plain);
            stack->shutdown();
            verify(res, "untraced router path", *stack, templates, load, true,
                   false);
        }

        struct RungSpec
        {
            const char *label;
            const char *submit_layer;
            const char *wait_layer;
        };
        const RungSpec specs[4] = {
            {"pool", "serve", "serve"},
            {"pool+durable", "serve", "durable"},
            {"direct worker", "cluster", "cluster"},
            {"router path", "cluster", "cluster"},
        };
        PhaseStats ps[4];
        std::unique_ptr<Stack> stacks[4];
        std::vector<double> recovery_ms;
        double requests_per_batch = 0, router_errors = 0;
        for (int k = 0; k < 4; ++k) {
            const std::string dir = root + "/rung-" + std::to_string(k + 1);
            stacks[k] = k < 2 ? makePools(program, dir, k == 1)
                              : makeCluster(program, dir, k == 2 ? 1 : kWorkers,
                                            k == 3, &setup_lane);
            Load load(*stacks[k], templates, args.seed);
            load.trace(tracer, specs[k].submit_layer, specs[k].wait_layer,
                       static_cast<std::uint64_t>(k + 1) << 40);
            ps[k] = load.phase(kNominalRps, rung_s, errors);
            account(ps[k]);
            phaseNote(res, specs[k].label, ps[k]);
            if (k == 3) {
                cl::Client ctl(kHost, stacks[k]->entryPort());
                double completed = 0, batches = 0;
                for (std::size_t w = 0; w < kWorkers; ++w) {
                    std::string js =
                        ctl.scrape(w, cl::ScrapeKind::StatsJson);
                    completed += sumField(js, "completed");
                    batches += sumField(js, "batches");
                }
                requests_per_batch = batches > 0 ? completed / batches : 0;
                router_errors = sumField(
                    ctl.scrape(cl::Client::kRouterScrape,
                               cl::ScrapeKind::StatsJson),
                    "errors");
            }
            if (k == 1) {
                // Durable-layer counters, read before the pools drain.
                using psm::telemetry::Counter;
                using psm::telemetry::Histogram;
                const Stack &s = *stacks[k];
                double changes = 0;
                res.metrics["durable.wal_append_us_p99"] =
                    mergedHistogram(s, Histogram::DurableWalAppendUs)
                        .percentile(99);
                res.metrics["durable.checkpoints"] =
                    counterSum(s, Counter::DurableSnapshots);
                res.metrics["durable.checkpoint_ms_p99"] =
                    mergedHistogram(s, Histogram::DurableCheckpointMs)
                        .percentile(99);
                res.metrics["durable.snapshot_bytes_mean"] =
                    mergedHistogram(s, Histogram::DurableSnapshotBytes).mean();
                const double wal_bytes = counterSum(s, Counter::DurableWalBytes);
                for (auto &p : stacks[k]->pools) {
                    p->drain();
                    changes += static_cast<double>(
                        p->engine(0).totals().wme_changes);
                }
                res.metrics["durable.wal_bytes_per_change"] =
                    changes > 0 ? wal_bytes / changes : 0;
            }
            if (k == 0) {
                res.metrics["serve.queue_depth_p99"] =
                    mergedHistogram(*stacks[k],
                                    psm::telemetry::Histogram::ServeQueueDepth)
                        .percentile(99);
            }
            stacks[k]->shutdown();
            std::vector<double> rec =
                verify(res, specs[k].label, *stacks[k], templates, load,
                       k > 0, k < 2);
            if (k == 3)
                recovery_ms = rec;
            load.hooks.clear();
        }

        // Per-request layer split from the rung differences. Means add
        // up; each latency is lateness (due -> send) plus round trip.
        double rtt[4];
        for (int k = 0; k < 4; ++k)
            rtt[k] = summarize(ps[k].rtt_us).mean;
        const double late4 = summarize(ps[3].late_us).mean;
        std::map<std::string, double> self = {
            {"loadgen", late4},
            {"serve", rtt[0]},
            {"durable", rtt[1] - rtt[0]},
            {"cluster", rtt[3] - rtt[1]},
        };
        double path = 0;
        for (const auto &[layer, us] : self)
            path += us;
        for (const auto &[layer, us] : self)
            res.metrics["self." + layer + "_frac"] = path > 0 ? us / path : 0;
        const double plain_mean = summarize(plain.latency_us).mean;
        res.metrics["trace.path_sum_frac"] =
            plain_mean > 0 ? path / plain_mean : 0;
        res.metrics["trace.overhead_frac"] =
            plain_mean > 0 ? summarize(ps[3].latency_us).mean / plain_mean - 1
                           : 0;

        auto p50 = [](const std::vector<double> &v) { return summarize(v).p50; };
        Summary submit;
        {
            // Lanes 1 and 2 are the pool rung's generator threads.
            std::vector<double> d;
            for (std::size_t lane = 1; lane <= kThreads; ++lane)
                for (const Span &s : tracer.lane(lane).spans())
                    if (std::string(s.name) == "submit")
                        d.push_back(
                            static_cast<double>(s.end_ns - s.start_ns) / 1e3);
            submit = summarize(d);
        }
        Summary pool = summarize(ps[0].rtt_us);
        std::vector<double> ingest =
            ps[0].kind_latency_us[static_cast<int>(OpKind::Assert)];
        ingest.insert(
            ingest.end(),
            ps[0].kind_latency_us[static_cast<int>(OpKind::Retract)].begin(),
            ps[0].kind_latency_us[static_cast<int>(OpKind::Retract)].end());
        res.metrics["serve.submit_p99_us"] = submit.p99;
        res.metrics["serve.pool_p50_us"] = pool.p50;
        res.metrics["serve.pool_p99_us"] = pool.p99;
        res.metrics["serve.requests_per_batch"] = requests_per_batch;
        res.metrics["serve.ingest_p99_us"] = summarize(ingest).p99;
        res.metrics["serve.run_p99_us"] =
            summarize(ps[0].kind_latency_us[static_cast<int>(OpKind::Run)]).p99;
        res.metrics["durable.cost_p50_us"] =
            p50(ps[1].latency_us) - p50(ps[0].latency_us);
        res.metrics["durable.recovery_ms"] = median(recovery_ms);
        Summary worker = summarize(ps[2].rtt_us);
        res.metrics["cluster.worker_rtt_p50_us"] = worker.p50;
        res.metrics["cluster.worker_rtt_p99_us"] = worker.p99;
        res.metrics["cluster.wire_p50_us"] =
            p50(ps[2].latency_us) - p50(ps[1].latency_us);
        res.metrics["cluster.router_hop_p50_us"] =
            p50(ps[3].latency_us) - p50(ps[2].latency_us);
        res.metrics["cluster.errors"] =
            router_errors + static_cast<double>(errors.size());
        Summary late = summarize(ps[3].late_us);
        res.metrics["loadgen.late_p50_us"] = late.p50;
        res.metrics["loadgen.late_p99_us"] = late.p99;
        res.metrics["loadgen.samples"] =
            static_cast<double>(ps[3].latency_us.size());

        const std::string path_file =
            args.out_dir + "/" + args.workload + ".trace.json";
        std::ofstream out(path_file);
        tracer.writeChromeJson(out);
        res.notes.push_back("trace file: " + path_file);
    }

    for (const std::string &e : errors)
        res.fail("transport: " + e);
    res.attempted += sent_total;
    if (failed_phases) {
        res.correct = false;
        res.failed += failed_phases;
        res.notes.push_back(std::to_string(failed_phases) +
                            " requests failed or went unanswered");
    }
    fs::remove_all(root);
    return res;
}

} // namespace perfbench
