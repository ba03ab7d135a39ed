/**
 * @file
 * Serve phase: a compile server process (rake_bench_serve, the
 * serve::Server of tools/rake_serve; see bench_server.cc) with 2
 * workers, a fresh copy of a cache directory and a rule table built in
 * set-up, and 2 closed-loop client connections with one request in
 * flight each — how a compiler calls the server.
 *
 * The seeded request stream mixes both backends: mostly repeats
 * (memory tier), first touches of the HVX suite (disk tier) and of
 * the NEON suite (rule tier: NEON rules are mined by exhaustive
 * evaluation, which is cheap enough for set-up; HVX rules need z3
 * proofs of about a second each), and a few percent of fresh
 * fuzz-generated expressions that run CEGIS and publish to memory
 * and disk.
 *
 * Every answer is compared byte for byte with an in-process selection
 * of the same expression.
 */
#include "phases.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "fuzz/generator.h"
#include "hir/printer.h"
#include "hir/simplify.h"
#include "pipeline/benchmarks.h"
#include "pipeline/dag.h"
#include "serve/protocol.h"
#include "support/rng.h"
#include "support/socket.h"
#include "synth/cache.h"
#include "synth/persist.h"
#include "synth/rules.h"

extern char **environ;

namespace rakebench {

namespace {

using namespace rake;
namespace fs = std::filesystem;

constexpr int kRequests = 4000;     ///< requests per pass
constexpr int kFreshPerMille = 30;  ///< fresh-expression share
constexpr int kConnections = 2;

/** Backends keep a reference to their machine model, so the models
 *  live as long as the process. */
const neon::Target kNeonTarget{};
const hvx::Target kHvxTarget{};

std::unique_ptr<backend::TargetISA>
make_isa(const std::string &backend)
{
    if (backend == "neon")
        return backend::make_neon_backend(kNeonTarget);
    return backend::make_hvx_backend(kHvxTarget);
}

/** One distinct query of the stream. */
struct Query {
    std::string backend;
    std::string expr;     ///< HIR sexpr as sent
    std::string expected; ///< in-process selection, filled after passes
    std::string pool;     ///< disk | rule | fresh
};

struct Setup {
    std::vector<Query> queries; ///< the suite, then pass 0's fresh ones
    size_t first_fresh = 0;
    std::string cache_dir, rules;
};

/**
 * Fresh expressions: one generated operation (depth 1) on NEON, at the
 * generator's default 16 lanes (one Q register). Generated HVX queries
 * are left out: the HVX grammar has no lowering for many generated
 * shapes (no_solution, which counts as a failure). At the suite's 128
 * lanes, or at depth 2, CEGIS time has a heavy tail and p99 depends on
 * which programs a seed draws. Each pass draws its own set, so a run
 * averages over many programs.
 */
void
draw_fresh(uint64_t seed, int pass, std::vector<Query> &queries,
           size_t first_fresh)
{
    fuzz::GenOptions gen;
    gen.max_depth = 1;
    const fuzz::Generator generator(gen);
    const int n = kRequests * kFreshPerMille / 1000;
    queries.resize(first_fresh + static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        queries[first_fresh + static_cast<size_t>(i)] = {
            "neon",
            hir::to_sexpr(
                generator.generate(fuzz::program_seed(seed, pass * n + i))),
            "", "fresh"};
}

/**
 * The request stream of pass `pass`, as indices into the queries: fresh
 * expressions at a fixed share, each sent once new and possibly again
 * later; the rest uniform over the suite. Where the fresh requests
 * fall (two CEGIS runs at once, a repeat waiting on its original in
 * flight) shapes the tail, so each pass draws its own order and a run
 * averages over as many orders as it makes passes.
 */
std::vector<int>
draw_stream(uint64_t seed, int pass, size_t first_fresh, size_t queries)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 17 +
            static_cast<uint64_t>(pass) * 0xbf58476d1ce4e5b9ull);
    std::vector<int> stream;
    size_t next_fresh = first_fresh;
    std::vector<int> sent_fresh;
    for (int k = 0; k < kRequests; ++k) {
        const int64_t roll = rng.range(0, 999);
        if (roll < kFreshPerMille && next_fresh < queries) {
            sent_fresh.push_back(static_cast<int>(next_fresh));
            stream.push_back(static_cast<int>(next_fresh++));
        } else if (roll < 2 * kFreshPerMille && !sent_fresh.empty()) {
            stream.push_back(sent_fresh[static_cast<size_t>(rng.range(
                0, static_cast<int64_t>(sent_fresh.size()) - 1))]);
        } else {
            stream.push_back(static_cast<int>(
                rng.range(0, static_cast<int64_t>(first_fresh) - 1)));
        }
    }
    return stream;
}

/** Set-up: cache directory, rule table, pass 0's fresh expressions. */
Setup
setup(const PhaseArgs &args, const std::string &dir)
{
    Setup s;
    fs::remove_all(dir);
    fs::create_directories(dir);
    s.cache_dir = dir + "/cache";
    s.rules = dir + "/rules.txt";

    std::map<std::string, std::map<int, std::string>> hvx_sel, neon_sel;
    for (const Selection &sel :
         read_selections(args.workdir + "/selections.txt")) {
        if (sel.kind == "hvx.rake")
            hvx_sel[sel.bench][sel.index] = sel.sexpr;
        else if (sel.kind == "neon.rake")
            neon_sel[sel.bench][sel.index] = sel.sexpr;
    }

    // Disk tier: the HVX suite's selections under the server's options
    // fingerprint. Rule tier: NEON rules mined from the NEON suite.
    synth::PersistentStore store(s.cache_dir);
    auto hvx_isa = make_isa("hvx");
    auto neon_isa = make_isa("neon");
    const uint64_t fp = synth::options_fingerprint(synth::RakeOptions{});
    std::vector<synth::MinedPair> pairs;
    auto add_bench = [&](const std::string &label,
                         const pipeline::Benchmark &b) {
        const pipeline::PipelineDag dag = pipeline::from_benchmark(b);
        for (size_t i = 0; i < dag.stages.size(); ++i) {
            const int idx = static_cast<int>(i);
            const hir::ExprPtr norm = hir::simplify(dag.stages[i].expr);
            if (auto it = hvx_sel[label].find(idx);
                it != hvx_sel[label].end()) {
                synth::BackendRakeResult r;
                r.instr = hvx_isa->instr_from_sexpr(it->second);
                store.store_backend(norm, fp, *hvx_isa, r);
                s.queries.push_back(
                    {"hvx", hir::to_sexpr(dag.stages[i].expr), it->second,
                     "disk"});
            }
            if (auto it = neon_sel[label].find(idx);
                it != neon_sel[label].end()) {
                const hir::ExprPtr &expr = b.exprs[i].expr;
                pairs.push_back({hir::to_sexpr(hir::simplify(expr)),
                                 it->second});
                s.queries.push_back(
                    {"neon", hir::to_sexpr(expr), "", "rule"});
            }
        }
    };
    for (const pipeline::Benchmark &b : pipeline::benchmark_suite())
        add_bench(b.name, b);
    for (const pipeline::Benchmark &b : pipeline::fused_suite())
        add_bench("dag." + b.name, b);
    synth::MineStats mined;
    synth::RuleTable::Section section = synth::mine_rules(
        *neon_isa, neon_isa->grammar_version(),
        neon_isa->cost_model_version(), pairs, synth::MineOptions{},
        &mined);
    if (!synth::write_rule_table(s.rules, {section}))
        throw std::runtime_error("cannot write " + s.rules);

    s.first_fresh = s.queries.size();
    draw_fresh(args.seed, 0, s.queries, s.first_fresh);
    return s;
}

/** One answered request, as the client saw it. */
struct Answer {
    double rtt_us = 0;
    std::string status, tier, instr;
    bool degraded = false;
};

/** A running rake_bench_serve; stop() reaps it and reports its peak
 *  RSS, which the server prints to its log as it exits. */
class ServerProcess
{
  public:
    ServerProcess(const PhaseArgs &args, const std::string &socket,
                  const std::string &cache_dir, const std::string &rules,
                  const std::string &log)
        : socket_(socket), log_(log)
    {
        std::vector<std::string> argv_s = {
            args.server, "--socket", socket, "--jobs", "2", "--cache-dir",
            cache_dir, "--rules", rules};
        std::vector<char *> argv;
        for (std::string &a : argv_s)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc = posix_spawn(&pid_, args.server.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start " + args.server);
        // Ready once a connection succeeds.
        for (int i = 0; i < 500; ++i) {
            try {
                UnixSocket probe = unix_connect(socket_);
                return;
            } catch (const std::exception &) {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
        }
        stop();
        throw std::runtime_error("the server did not come up");
    }

    ~ServerProcess() { stop(); }
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** SIGTERM, wait, return peak RSS in MiB (0 if already reaped or
     *  the server did not report it). */
    double
    stop()
    {
        if (pid_ <= 0)
            return 0;
        kill(pid_, SIGTERM);
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        const std::string text = read_file(log_);
        const size_t at = text.rfind("peak_rss_mb ");
        return at == std::string::npos ? 0.0
                                       : std::stod(text.substr(at + 12));
    }

  private:
    std::string socket_, log_;
    pid_t pid_ = -1;
};

/** Blocking request/response over one connection. */
class Connection
{
  public:
    explicit Connection(const std::string &socket)
        : sock_(unix_connect(socket))
    {
    }

    /** One round trip; with `tr` on, spans the protocol layer. */
    serve::Response
    call(const serve::Request &rq, Tracer &tr)
    {
        const std::string payload =
            tr.span("serve.encode", [&] { return serve::encode_request(rq); });
        if (!sock_.send_all(frame_encode(payload)))
            throw std::runtime_error("send failed");
        char buf[4096];
        for (;;) {
            std::string frame, error;
            const FrameReader::Status st = frames_.next(&frame, &error);
            if (st == FrameReader::Status::Frame)
                return tr.span("serve.parse", [&] {
                    return serve::parse_response(frame);
                });
            if (st == FrameReader::Status::Error)
                throw std::runtime_error("bad frame: " + error);
            const ssize_t n = sock_.recv_some(buf, sizeof(buf));
            if (n <= 0)
                throw std::runtime_error("server closed the connection");
            frames_.feed(buf, static_cast<size_t>(n));
        }
    }

  private:
    UnixSocket sock_;
    FrameReader frames_;
};

int64_t
json_int(const std::string &json, const std::string &key)
{
    const std::string k = "\"" + key + "\":";
    const size_t at = json.find(k);
    return at == std::string::npos ? -1
                                   : std::stoll(json.substr(at + k.size()));
}

struct Pass {
    std::vector<Query> queries;  ///< the setup's, with this pass's fresh
    std::vector<int> stream;     ///< this pass's request order
    std::vector<Answer> answers; ///< by request index
    double wall_s = 0, rss_mb = 0;
    /** Host-speed factors, medians over the pass's segments: ipc for
     *  the median round trip (a memory-tier hit), compute for the tail
     *  and for throughput, which the fresh share's CEGIS runs set
     *  (about two thirds of a pass's CPU time). */
    double ipc_factor = 1, compute_factor = 1;
    double encode_s = 0, parse_s = 0;
    int64_t inflight_dedup = 0, overloaded = 0;
    std::vector<std::string> errors;
};

/** The stream is sent in segments; before each, with `probe` on, the
 *  host-speed probes run while the connections are idle, so the
 *  probes sample the host across the whole pass. */
constexpr int kSegments = 8;

Pass
run_pass(const PhaseArgs &args, const Setup &s, int index, bool traced,
         bool probe)
{
    const std::string dir =
        args.workdir + "/serve/pass" + std::to_string(index);
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::copy(s.cache_dir, dir + "/cache", fs::copy_options::recursive);
    fs::copy_file(s.rules, dir + "/rules.txt");

    Pass p;
    p.queries = s.queries;
    draw_fresh(args.seed, index, p.queries, s.first_fresh);
    p.stream = draw_stream(args.seed, index, s.first_fresh, p.queries.size());
    p.answers.resize(p.stream.size());
    ServerProcess server(args, dir + "/s.sock", dir + "/cache",
                         dir + "/rules.txt", dir + "/server.log");
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::vector<std::unique_ptr<Connection>> conns;
    try {
        for (int c = 0; c < kConnections; ++c)
            conns.push_back(std::make_unique<Connection>(dir + "/s.sock"));
    } catch (const std::exception &e) {
        p.errors.push_back(e.what());
        conns.clear();
    }
    std::vector<Tracer> tracers(conns.size(), Tracer(traced));
    auto client = [&](size_t c, size_t end) {
        Connection &conn = *conns[c];
        Tracer &tr = tracers[c];
        try {
            for (;;) {
                size_t k = next.load();
                while (k < end && !next.compare_exchange_weak(k, k + 1)) {
                }
                if (k >= end)
                    break;
                const Query &q = p.queries[p.stream[k]];
                serve::Request rq;
                rq.op = serve::Op::Select;
                rq.id = static_cast<int64_t>(k) + 1;
                rq.backend = q.backend;
                rq.expr = q.expr;
                const double t0 = now_s();
                const serve::Response resp = conn.call(rq, tr);
                Answer &a = p.answers[k];
                a.rtt_us = (now_s() - t0) * 1e6;
                a.status = resp.status;
                a.tier = resp.tier;
                a.instr = resp.instr;
                a.degraded = resp.degraded;
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mu);
            p.errors.push_back(e.what());
            next.store(p.stream.size()); // the others stop too
        }
    };
    std::vector<double> ipc, compute;
    for (int seg = 0; seg < kSegments && !conns.empty(); ++seg) {
        const size_t end = p.stream.size() * static_cast<size_t>(seg + 1) /
                           static_cast<size_t>(kSegments);
        if (probe) {
            ipc.push_back(host_factor(Probe::Ipc, 1));
            compute.push_back(host_factor(Probe::Compute, 1));
        }
        const double t0 = now_s();
        std::vector<std::thread> clients;
        for (size_t c = 0; c < conns.size(); ++c)
            clients.emplace_back(client, c, end);
        for (std::thread &t : clients)
            t.join();
        p.wall_s += now_s() - t0;
    }
    if (probe && !ipc.empty()) {
        p.ipc_factor = median(ipc);
        p.compute_factor = median(compute);
    }
    for (const Tracer &tr : tracers) {
        p.encode_s += tr.seconds("serve.encode");
        p.parse_s += tr.seconds("serve.parse");
    }
    conns.clear();

    try {
        Connection conn(dir + "/s.sock");
        serve::Request rq;
        rq.op = serve::Op::Metrics;
        Tracer off(false);
        const serve::Response m = conn.call(rq, off);
        p.inflight_dedup = json_int(m.metrics_json, "inflight_dedup");
        p.overloaded = json_int(m.metrics_json, "overloaded");
    } catch (const std::exception &e) {
        p.errors.push_back(std::string("metrics: ") + e.what());
    }
    p.rss_mb = server.stop();
    fs::remove_all(dir);
    return p;
}

/** In-process selections: the reference every answer must match.
 *  Rule-tier queries consult the same rule table; fresh ones run CEGIS
 *  cold, as the server did. Disk-tier queries already carry the
 *  compile phase's selection. */
void
fill_expected(const Setup &s, std::vector<Pass> &passes)
{
    auto select = [&](Query &q) {
        synth::RakeOptions opts;
        opts.use_cache = false;
        if (q.pool == "rule")
            opts.rules_file = s.rules;
        auto isa = make_isa(q.backend);
        auto r = synth::select_instructions_for(hir::parse_expr(q.expr),
                                                *isa, opts);
        if (r && r->instr && !r->degraded)
            q.expected = isa->instr_to_sexpr(r->instr);
    };
    for (size_t i = 0; i < s.first_fresh; ++i)
        if (passes[0].queries[i].pool == "rule")
            select(passes[0].queries[i]);
    for (Pass &p : passes) {
        for (size_t i = 0; i < s.first_fresh; ++i)
            p.queries[i].expected = passes[0].queries[i].expected;
        for (size_t i = s.first_fresh; i < p.queries.size(); ++i)
            select(p.queries[i]);
    }
}

/** In-process timing of the tier lookups the server makes. */
void
time_tier_lookups(const Setup &s, PhaseReport &rep)
{
    Tracer tr(true);
    synth::PersistentStore store(s.cache_dir);
    const uint64_t fp = synth::options_fingerprint(synth::RakeOptions{});
    const synth::RuleTable table = synth::load_rule_table(s.rules);
    auto neon_isa = make_isa("neon");
    const auto *rules = table.rules_for("neon", neon_isa->grammar_version(),
                                        neon_isa->cost_model_version());
    for (const Query &q : s.queries) {
        const hir::ExprPtr norm = hir::simplify(hir::parse_expr(q.expr));
        if (q.pool == "disk") {
            auto isa = make_isa("hvx");
            tr.span("synth.persist.load", [&] {
                return store.load_backend(norm, fp, *isa);
            });
        } else if (q.pool == "rule" && rules) {
            int rejects = 0;
            tr.span("synth.rules.apply", [&] {
                return synth::apply_rules(*rules, norm, *neon_isa, 1,
                                          &rejects);
            });
        }
    }
    auto per_call_us = [&](const char *name) {
        const int64_t n = tr.calls(name);
        return n ? tr.seconds(name) * 1e6 / static_cast<double>(n) : 0.0;
    };
    rep.metric("synth.persist.load_us", per_call_us("synth.persist.load"),
               "us");
    rep.metric("synth.rules.apply_us", per_call_us("synth.rules.apply"),
               "us");
}

} // namespace

PhaseReport
run_serve_phase(const PhaseArgs &args)
{
    const bool focus = args.focus;
    PhaseReport rep;
    rep.phase = "serve";
    if (args.server.empty())
        throw std::runtime_error("--server is required");

    // The disk tier's durability fsyncs are off, here and in the
    // server (RAKE_CACHE_FSYNC=0, the knob persist.cc keeps for slow
    // filesystems): on a shared disk their latency set p99 and varied
    // by 2x between runs. Entries are still published by atomic rename.
    setenv("RAKE_CACHE_FSYNC", "0", 1);

    std::vector<double> setup_s, setup_raw;
    Setup s;
    for (int r = 0; r < 5; ++r) {
        const double f = host_factor(Probe::Compute);
        const double t0 = now_s();
        s = setup(args, args.workdir + "/serve/setup" + std::to_string(r));
        setup_raw.push_back(now_s() - t0);
        setup_s.push_back(setup_raw.back() * f);
    }

    // A traced run makes one untraced and one traced pass. Otherwise
    // every run makes at least ten passes (a pass is about half a
    // second, and the host's noise comes in bursts of seconds), and the
    // focus workload keeps going until the window is spent.
    constexpr size_t kMinPasses = 10;
    std::vector<Pass> passes;
    const double w0 = now_s();
    do {
        const int i = static_cast<int>(passes.size());
        passes.push_back(
            run_pass(args, s, i, args.trace && i == 1, !args.trace));
    } while (args.trace ? passes.size() < 2
                        : passes.size() < kMinPasses ||
                              (focus && now_s() - w0 < args.seconds));

    fill_expected(s, passes);
    std::map<std::string, std::vector<double>> rtt_by_tier;
    // Latency and throughput are per pass, then the median over
    // passes: the host's noise comes in bursts of seconds, and a median
    // of passes keeps one slow pass from setting the run's figure.
    std::vector<double> p50s, p99s, rss, rps, raw_p50s, raw_p99s, raw_rps;
    size_t samples = 0;
    std::map<std::string, int64_t> tiers;
    for (const Pass &p : passes) {
        for (const std::string &e : p.errors)
            rep.fail("serve: " + e);
        std::vector<double> rtt;
        std::map<std::string, int64_t> pass_tiers;
        for (size_t k = 0; k < p.answers.size(); ++k) {
            const Answer &a = p.answers[k];
            const Query &q = p.queries[p.stream[k]];
            ++rep.attempted;
            std::string why;
            if (a.status != "ok")
                why = "status " + (a.status.empty() ? "unanswered"
                                                    : a.status);
            else if (a.degraded)
                why = "degraded answer";
            else if (a.instr.empty() || q.expected.empty())
                why = "no selection";
            else if (a.instr != q.expected)
                why = "differs from the in-process selection";
            if (!why.empty()) {
                ++rep.failed;
                rep.fail("serve " + q.backend + " " + q.pool + " query: " +
                         why);
                continue;
            }
            rtt.push_back(a.rtt_us);
            rtt_by_tier[a.tier].push_back(a.rtt_us);
            ++pass_tiers[a.tier];
        }
        // Pass 0's stream is fixed by the seed, so its tier counts are
        // deterministic; later passes draw other fresh programs, which
        // may normalize to each other and so dedupe differently.
        if (&p == &passes.front())
            tiers = pass_tiers;
        if (p.rss_mb <= 0)
            rep.fail("serve: the server did not report its peak memory");
        rss.push_back(p.rss_mb);
        raw_rps.push_back(static_cast<double>(p.answers.size()) / p.wall_s);
        raw_p50s.push_back(quantile(rtt, 0.50));
        raw_p99s.push_back(quantile(rtt, 0.99));
        rps.push_back(raw_rps.back() / p.compute_factor);
        p50s.push_back(raw_p50s.back() * p.ipc_factor);
        p99s.push_back(raw_p99s.back() * p.compute_factor);
        samples += rtt.size();
        std::cout << "serve pass " << p50s.size() - 1 << ": p50 "
                  << fmt(raw_p50s.back(), 1) << " us, p99 "
                  << fmt(raw_p99s.back(), 1) << " us over " << rtt.size()
                  << " samples, " << fmt(raw_rps.back(), 1)
                  << " req/s, server peak " << fmt(p.rss_mb, 1)
                  << " MiB (as measured); host factors ipc "
                  << fmt(p.ipc_factor, 3) << ", compute "
                  << fmt(p.compute_factor, 3) << "\n";
    }
    for (const char *t : {"memory", "disk", "rule", "cegis"})
        rep.det[std::string("serve.tier_count.") + t] =
            std::to_string(tiers[t]);
    std::vector<std::string> stream_text;
    for (int qi : passes.front().stream) {
        const Query &q = passes.front().queries[qi];
        stream_text.push_back(q.backend + q.expr + q.expected);
    }
    rep.det["serve.selections"] = digest(stream_text);

    if (!args.trace) {
        rep.metric("serve_p50_us", median(p50s), "us");
        rep.metric("serve_p99_us", median(p99s), "us");
        rep.metric("serve_rps", median(rps), "1/s");
        rep.metric("raw.serve_p50_us", median(raw_p50s), "us");
        rep.metric("raw.serve_p99_us", median(raw_p99s), "us");
        rep.metric("raw.serve_rps", median(raw_rps), "1/s");
        rep.metric("serve_samples", static_cast<double>(samples), "count");
        rep.metric("setup_s", median(setup_s), "s");
        rep.metric("raw.setup_s", median(setup_raw), "s");
        rep.metric("probe.ipc", median(p50s) / median(raw_p50s), "x");
        rep.metric("probe.compute", median(p99s) / median(raw_p99s), "x");
        rep.metric("peak_rss_mb", median(rss), "MiB");
        return rep;
    }
    if (!focus)
        return rep;

    for (const char *t : {"memory", "disk", "rule", "cegis"}) {
        const std::string base = std::string("serve.rtt_us.") + t;
        rep.metric(base + ".p50", quantile(rtt_by_tier[t], 0.50), "us");
        rep.metric(base + ".p99", quantile(rtt_by_tier[t], 0.99), "us");
        rep.metric(std::string("serve.tier_count.") + t,
                   static_cast<double>(tiers[t]), "count");
    }
    const Pass &last = passes.back();
    rep.metric("serve.inflight_dedup",
               static_cast<double>(last.inflight_dedup), "count");
    rep.metric("serve.overloaded", static_cast<double>(last.overloaded),
               "count");
    rep.metric("serve.protocol.encode_us",
               last.encode_s * 1e6 / static_cast<double>(kRequests), "us");
    rep.metric("serve.protocol.parse_us",
               last.parse_s * 1e6 / static_cast<double>(kRequests), "us");
    time_tier_lookups(s, rep);
    rep.metric("trace.overhead_pct",
               100.0 * (last.wall_s - passes.front().wall_s) /
                   passes.front().wall_s,
               "%");
    return rep;
}

} // namespace rakebench
