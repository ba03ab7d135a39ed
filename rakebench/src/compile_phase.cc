/**
 * @file
 * Compile phase: the 21 flat and 4 fused benchmarks compiled cold on
 * HVX (pipeline::compile_benchmark: baseline, Rake, simulation,
 * layout negotiation) and on NEON (select_instructions_for with the
 * NEON backend), one job, memory tier cleared before each pass, no
 * cache directory and no rule table.
 *
 * Untraced passes time the public entry points. The traced pass
 * walks the same work layer by layer (simplify, lift_to_uir,
 * lower_with_backend, baseline selection, scheduling, negotiation)
 * with spans around each call, and must reach the same selections.
 */
#include "phases.h"

#include <algorithm>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/analysis.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hir/simplify.h"
#include "hvx/interp.h"
#include "hvx/sexpr.h"
#include "pipeline/benchmarks.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"
#include "sim/linearize.h"
#include "synth/cache.h"
#include "synth/swizzle.h"

namespace rakebench {

namespace {

using namespace rake;

/** One benchmark of the suite, labelled uniquely (fused ones share
 *  names with their flat Table 1 counterparts). */
struct SuiteEntry {
    std::string label;
    const pipeline::Benchmark *bench;
    bool fused;
};

std::vector<SuiteEntry>
suite()
{
    std::vector<SuiteEntry> out;
    for (const pipeline::Benchmark &b : pipeline::benchmark_suite())
        out.push_back({b.name, &b, false});
    for (const pipeline::Benchmark &b : pipeline::fused_suite())
        out.push_back({"dag." + b.name, &b, true});
    return out;
}

/** Backends keep a reference to their machine model, so the models
 *  live as long as the process. */
const neon::Target kNeonTarget{};
const hvx::Target kHvxTarget{};

synth::RakeOptions
neon_options()
{
    synth::RakeOptions o;
    o.lower.layouts = false; // NEON compute never reorders lanes
    return o;
}

/** Synthesis effort totals of one backend. */
struct Effort {
    int64_t lift_q = 0, sketch_q = 0, swizzle_q = 0, backtracks = 0;
    int64_t verify_q = 0, dedup_skips = 0, ref_cache_hits = 0;
    int64_t memo_hits = 0;
    double sketch_s = 0, swizzle_s = 0;

    void
    add(const synth::LiftStats &lift, const synth::LowerStats &lower)
    {
        lift_q += lift.total_queries();
        sketch_q += lower.sketch.queries;
        swizzle_q += lower.swizzle.queries;
        backtracks += lower.backtracks;
        memo_hits += lower.swizzle.memo_hits;
        sketch_s += lower.sketch.seconds;
        swizzle_s += lower.swizzle.seconds;
        for (const synth::QueryStats *q :
             {&lift.update, &lift.replace, &lift.extend, &lower.sketch}) {
            verify_q += q->queries;
            dedup_skips += q->dedup_skips;
            ref_cache_hits += q->ref_cache_hits;
        }
    }
};

struct HvxPass {
    std::vector<pipeline::BenchmarkResult> results; ///< suite order
    std::vector<double> seconds;                    ///< per benchmark
    double total_s = 0;
    /** Each benchmark's seconds times the mean of the host-speed
     *  factors probed just before and just after it (common.h). */
    double scaled_s = 0;
};

struct NeonSel {
    std::optional<synth::BackendRakeResult> rk;
    std::string sexpr;
};

struct NeonPass {
    std::vector<std::vector<NeonSel>> sels; ///< [benchmark][expr]
    std::vector<double> seconds;
    double total_s = 0;
    double scaled_s = 0;
};

HvxPass
hvx_pass(const std::vector<SuiteEntry> &entries)
{
    synth::synthesis_cache().clear();
    pipeline::CompileOptions opts;
    opts.jobs = 1;
    opts.validate = false; // validated after the timed passes
    HvxPass pass;
    double before = host_factor(Probe::Compute, 1);
    for (const SuiteEntry &e : entries) {
        const double b0 = now_s();
        pass.results.push_back(pipeline::compile_benchmark(*e.bench, opts));
        pass.seconds.push_back(now_s() - b0);
        const double after = host_factor(Probe::Compute, 1);
        pass.total_s += pass.seconds.back();
        pass.scaled_s += pass.seconds.back() * 0.5 * (before + after);
        before = after;
    }
    return pass;
}

NeonPass
neon_pass(const std::vector<SuiteEntry> &entries)
{
    synth::backend_synthesis_cache("neon").clear();
    const synth::RakeOptions opts = neon_options();
    NeonPass pass;
    double before = host_factor(Probe::Compute, 1);
    for (const SuiteEntry &e : entries) {
        const double b0 = now_s();
        std::vector<NeonSel> sels;
        for (const pipeline::KernelExpr &k : e.bench->exprs) {
            // Fresh backend per expression: it carries per-run search
            // state (the swizzle memo).
            auto isa = backend::make_neon_backend(kNeonTarget);
            NeonSel s;
            s.rk = synth::select_instructions_for(k.expr, *isa, opts);
            if (s.rk && s.rk->instr)
                s.sexpr = isa->instr_to_sexpr(s.rk->instr);
            sels.push_back(std::move(s));
        }
        pass.sels.push_back(std::move(sels));
        pass.seconds.push_back(now_s() - b0);
        const double after = host_factor(Probe::Compute, 1);
        pass.total_s += pass.seconds.back();
        pass.scaled_s += pass.seconds.back() * 0.5 * (before + after);
        before = after;
    }
    return pass;
}

/** Modeled NEON speedup of one benchmark: greedy over Rake cost,
 *  weighted by trip counts; nullopt when greedy cannot map it. */
std::optional<double>
neon_modeled(const pipeline::Benchmark &b, const std::vector<NeonSel> &sels)
{
    auto isa = backend::make_neon_backend(kNeonTarget);
    double greedy = 0, rake_cost = 0;
    for (size_t i = 0; i < b.exprs.size(); ++i) {
        auto g = isa->greedy_select(b.exprs[i].expr);
        if (!g || !sels[i].rk || !sels[i].rk->instr)
            return std::nullopt;
        const double it = static_cast<double>(b.exprs[i].iterations);
        greedy += isa->cost_of(*g).scalar * it;
        rake_cost += isa->cost_of(sels[i].rk->instr).scalar * it;
    }
    if (rake_cost <= 0)
        return std::nullopt;
    return greedy / rake_cost;
}

/** Deterministic columns + digests of one HVX pass. */
void
hvx_det(const std::vector<SuiteEntry> &entries, const HvxPass &pass,
        std::map<std::string, std::string> &det)
{
    Effort eff;
    std::vector<std::string> sexprs;
    int64_t rake_cycles = 0, base_cycles = 0;
    for (size_t b = 0; b < entries.size(); ++b) {
        const pipeline::BenchmarkResult &r = pass.results[b];
        for (const pipeline::ExprCompilation &ec : r.exprs) {
            if (ec.rake_result)
                eff.add(ec.rake_result->lift, ec.rake_result->lower);
            sexprs.push_back(ec.rake ? hvx::to_sexpr(ec.rake) : "-");
            sexprs.push_back(hvx::to_sexpr(ec.baseline));
        }
        rake_cycles += r.rake_cycles;
        base_cycles += r.baseline_cycles;
        det["hvx.cycles." + entries[b].label] =
            std::to_string(r.baseline_cycles) + "/" +
            std::to_string(r.rake_cycles);
    }
    det["hvx.queries"] = std::to_string(eff.lift_q) + "/" +
                         std::to_string(eff.sketch_q) + "/" +
                         std::to_string(eff.swizzle_q);
    det["hvx.cycles"] =
        std::to_string(base_cycles) + "/" + std::to_string(rake_cycles);
    det["hvx.selections"] = digest(sexprs);
}

void
neon_det(const NeonPass &pass, std::map<std::string, std::string> &det)
{
    Effort eff;
    std::vector<std::string> sexprs;
    for (const auto &bench : pass.sels)
        for (const NeonSel &s : bench) {
            if (s.rk)
                eff.add(s.rk->lift, s.rk->lower);
            sexprs.push_back(s.sexpr);
        }
    det["neon.queries"] = std::to_string(eff.lift_q) + "/" +
                          std::to_string(eff.sketch_q) + "/" +
                          std::to_string(eff.swizzle_q);
    det["neon.selections"] = digest(sexprs);
}

/** Example-pool check of one selection against the HIR interpreter. */
bool
matches_reference(const hir::ExprPtr &expr, backend::TargetISA &isa,
                  const backend::InstrHandle &impl)
{
    synth::Spec spec = synth::Spec::from_expr(expr);
    synth::ExamplePool pool(spec, 17);
    auto eval = isa.make_evaluator();
    for (int i = 0; i < synth::ExamplePool::kCornerExamples + 8; ++i) {
        const Env env = pool.at(i);
        const Value expected = hir::evaluate(expr, env);
        eval->reset(env);
        if (!(eval->eval(impl) == expected))
            return false;
    }
    return true;
}

/** Element type `expr` loads from buffer `slot` (UInt8 if none). */
ScalarType
slot_elem(const hir::ExprPtr &expr, int slot)
{
    if (expr->op() == hir::Op::Load && expr->load_ref().buffer == slot)
        return expr->type().elem;
    for (const hir::ExprPtr &a : expr->args())
        for (const hir::LoadRef &l : hir::collect_loads(a))
            if (l.buffer == slot)
                return slot_elem(a, slot);
    return ScalarType::UInt8;
}

/** DAG-level check: the negotiated programs over small images equal
 *  the composed per-stage HIR reference. Per-stage comparison would
 *  be wrong here: negotiation permutes producer layouts on purpose,
 *  and only the whole pipeline's output must agree. */
bool
dag_matches_reference(const pipeline::PipelineDag &dag,
                      const std::vector<hvx::InstrPtr> &programs)
{
    int lanes = 1;
    std::map<std::string, int64_t> scalars;
    for (const pipeline::DagStage &s : dag.stages) {
        lanes = std::max(lanes, s.expr->type().lanes);
        for (const std::string &v : hir::collect_vars(s.expr))
            scalars.emplace(v, 5);
    }
    std::map<int, pipeline::Image> inputs;
    for (const pipeline::DagStage &s : dag.stages)
        for (const pipeline::StageInput &in : s.inputs) {
            if (in.external < 0 || inputs.count(in.external))
                continue;
            inputs.emplace(in.external,
                           pipeline::Image::synthetic(
                               slot_elem(s.expr, in.slot), 2 * lanes, 8,
                               11 + static_cast<uint64_t>(in.external)));
        }
    const pipeline::Image want =
        pipeline::run_dag_reference(dag, inputs, scalars);
    const pipeline::Image got = pipeline::run_dag(dag, programs, inputs,
                                                  scalars);
    return pipeline::count_mismatches(want, got) == 0;
}

/** Validate every selection of the last pass; count failures. */
void
validate(const std::vector<SuiteEntry> &entries, const HvxPass &hp,
         const NeonPass *np, PhaseReport &rep)
{
    auto hvx_isa = backend::make_hvx_backend(kHvxTarget);
    for (size_t b = 0; b < entries.size(); ++b) {
        const SuiteEntry &e = entries[b];
        const pipeline::BenchmarkResult &r = hp.results[b];
        const pipeline::PipelineDag dag = pipeline::from_benchmark(*e.bench);
        std::vector<hvx::InstrPtr> finals;
        for (size_t i = 0; i < r.exprs.size(); ++i) {
            const pipeline::ExprCompilation &ec = r.exprs[i];
            const hir::ExprPtr &expr = dag.stages[i].expr;
            const std::string where = "hvx " + e.label + "#" +
                                      std::to_string(i);
            finals.push_back(ec.rake ? ec.rake : ec.baseline);
            if (!ec.rake_result || !ec.rake) {
                ++rep.failed;
                rep.fail(where + ": no selection");
                continue;
            }
            if (ec.rake_result->degraded) {
                ++rep.failed;
                rep.fail(where + ": degraded selection");
            }
            if (!matches_reference(expr, *hvx_isa,
                                   ec.rake_result->instr) ||
                !matches_reference(expr, *hvx_isa, ec.baseline)) {
                ++rep.failed;
                rep.fail(where + ": disagrees with the HIR interpreter");
            }
        }
        if (dag.has_edges() && !dag_matches_reference(dag, finals)) {
            ++rep.failed;
            rep.fail("hvx " + e.label +
                     ": fused programs disagree with the DAG reference");
        }
        if (!np)
            continue;
        auto neon_isa = backend::make_neon_backend(kNeonTarget);
        for (size_t i = 0; i < e.bench->exprs.size(); ++i) {
            const NeonSel &s = np->sels[b][i];
            const std::string where = "neon " + e.label + "#" +
                                      std::to_string(i);
            if (!s.rk || !s.rk->instr) {
                ++rep.failed;
                rep.fail(where + ": no selection");
                continue;
            }
            if (s.rk->degraded) {
                ++rep.failed;
                rep.fail(where + ": degraded selection");
            }
            if (!matches_reference(e.bench->exprs[i].expr, *neon_isa,
                                   s.rk->instr)) {
                ++rep.failed;
                rep.fail(where + ": disagrees with the HIR interpreter");
            }
        }
    }
}

/**
 * The traced pass: the same selections, reached layer by layer with a
 * span around each call. A local table keyed on the normalized
 * expression plays the memory tier's part, as in the untraced pass.
 */
struct TracedPass {
    Effort hvx, neon;
    /** Pre-negotiation selections, final programs, NEON selections. */
    std::vector<std::string> hvx_rake, hvx_final, neon_sexprs;
    int64_t rake_cycles = 0, base_cycles = 0, hashcons_hits = 0;
    int64_t swizzles_saved = 0;
    double interp_ms = 0;
    double total_s = 0;
};

backend::InstrHandle
traced_select(Tracer &tr, const hir::ExprPtr &expr, bool neon,
              Effort &eff, std::map<std::string, backend::InstrHandle> &memo)
{
    const synth::RakeOptions opts =
        neon ? neon_options() : synth::RakeOptions{};
    const hir::ExprPtr normalized =
        tr.span("hir.simplify", [&] { return hir::simplify(expr); });
    const std::string key = hir::to_sexpr(normalized);
    if (auto it = memo.find(key); it != memo.end())
        return it->second;
    synth::Spec spec = synth::Spec::from_expr(normalized);
    synth::ExamplePool pool(spec, opts.seed);
    synth::Verifier verifier(spec, pool, opts.verifier);
    auto isa = neon ? backend::make_neon_backend(kNeonTarget)
                    : backend::make_hvx_backend(opts.target);
    const synth::LiftResult lifted =
        tr.span(neon ? "synth.lift.neon" : "synth.lift.hvx",
                [&] { return synth::lift_to_uir(verifier); });
    backend::InstrHandle out;
    if (lifted.expr) {
        auto lowered =
            tr.span(neon ? "synth.lower.neon" : "synth.lower.hvx", [&] {
                return synth::lower_with_backend(verifier, lifted.expr,
                                                 *isa, opts.lower);
            });
        if (lowered) {
            eff.add(lifted.stats, lowered->stats);
            out = lowered->instr;
        }
    }
    memo[key] = out;
    return out;
}

TracedPass
traced_pass(Tracer &tr, const std::vector<SuiteEntry> &entries, bool neon)
{
    TracedPass tp;
    const hvx::Target target;
    const sim::MachineModel machine;
    std::map<std::string, backend::InstrHandle> hvx_memo, neon_memo;
    std::vector<hvx::InstrPtr> interp_programs;
    std::vector<hir::ExprPtr> interp_exprs;
    const double t0 = now_s();
    for (const SuiteEntry &e : entries) {
        const pipeline::PipelineDag dag =
            tr.span("pipeline.dag", [&] {
                return pipeline::from_benchmark(*e.bench);
            });
        tp.hashcons_hits += dag.hashcons_hits;
        const int n = static_cast<int>(dag.stages.size());
        std::vector<hvx::InstrPtr> rake(n), base(n);
        for (int i = 0; i < n; ++i) {
            const hir::ExprPtr &expr = dag.stages[i].expr;
            base[i] = tr.span("baseline.select", [&] {
                return baseline::select_instructions(expr, target);
            });
            rake[i] = std::static_pointer_cast<const hvx::Instr>(
                traced_select(tr, expr, false, tp.hvx, hvx_memo));
            tp.hvx_rake.push_back(rake[i] ? hvx::to_sexpr(rake[i]) : "-");
            interp_programs.push_back(rake[i] ? rake[i] : base[i]);
            interp_exprs.push_back(expr);
        }
        std::vector<hvx::InstrPtr> finals(n);
        for (int i = 0; i < n; ++i)
            finals[i] = rake[i] ? rake[i] : base[i];
        if (dag.has_edges()) {
            std::vector<int> topo_pos(n);
            for (int t = 0; t < n; ++t)
                topo_pos[dag.topo[t]] = t;
            std::vector<synth::StageProgram> sps(n);
            for (int t = 0; t < n; ++t) {
                const int i = dag.topo[t];
                sps[t].instr = finals[i];
                sps[t].iterations = e.bench->exprs[i].iterations;
                for (const pipeline::StageInput &in : dag.stages[i].inputs)
                    if (in.producer >= 0)
                        sps[t].producers.emplace(in.slot,
                                                 topo_pos[in.producer]);
            }
            const synth::NegotiationResult neg =
                tr.span("synth.negotiate", [&] {
                    return synth::negotiate_layouts(sps, target, machine);
                });
            tp.swizzles_saved += neg.boundary_swizzles_saved;
            for (int t = 0; t < n; ++t)
                finals[dag.topo[t]] = neg.programs[t];

            // Whole-DAG schedule: intermediate buffers get DAG-wide ids
            // so consumer reads wait on the producer's stores.
            int max_ext = -1;
            for (const pipeline::DagStage &s : dag.stages)
                for (const pipeline::StageInput &in : s.inputs)
                    max_ext = std::max(max_ext, in.external);
            std::vector<sim::DagScheduleInput> fused(n);
            for (int t = 0; t < n; ++t) {
                const int i = dag.topo[t];
                std::map<int, int> remap;
                for (const pipeline::StageInput &in : dag.stages[i].inputs) {
                    const int gid = in.external >= 0
                                        ? in.external
                                        : max_ext + 1 + in.producer;
                    remap[in.slot] = gid;
                    if (in.producer >= 0)
                        fused[t].producers.emplace(gid,
                                                   topo_pos[in.producer]);
                }
                fused[t].root =
                    sim::remap_read_buffers(neg.programs[t], remap);
                fused[t].iterations = e.bench->exprs[i].iterations;
            }
            tr.span("sim.schedule_dag", [&] {
                return sim::schedule_dag(fused, target, machine);
            });
        }
        for (int i = 0; i < n; ++i) {
            const int64_t it = e.bench->exprs[i].iterations;
            tp.base_cycles += tr.span("sim.schedule", [&] {
                                    return sim::schedule(base[i], target,
                                                         machine);
                                }).cycles(it);
            tp.rake_cycles += tr.span("sim.schedule", [&] {
                                    return sim::schedule(finals[i], target,
                                                         machine);
                                }).cycles(it);
            tp.hvx_final.push_back(hvx::to_sexpr(finals[i]));
        }
        if (!neon)
            continue;
        for (const pipeline::KernelExpr &k : e.bench->exprs) {
            backend::InstrHandle h =
                traced_select(tr, k.expr, true, tp.neon, neon_memo);
            auto isa = backend::make_neon_backend(kNeonTarget);
            tp.neon_sexprs.push_back(h ? isa->instr_to_sexpr(h) : "");
        }
    }
    tp.total_s = now_s() - t0;

    // The interpreter the CEGIS oracle runs: every HVX selection over
    // 64 environments of its example pool.
    const double i0 = now_s();
    hvx::Interpreter interp;
    for (size_t p = 0; p < interp_programs.size(); ++p) {
        synth::Spec spec = synth::Spec::from_expr(interp_exprs[p]);
        synth::ExamplePool pool(spec, 3);
        for (int i = 0; i < 64; ++i) {
            const Env env = pool.at(i);
            tr.span("hvx.interp", [&] {
                interp.reset(env);
                (void)interp.eval(interp_programs[p]);
            });
        }
    }
    tp.interp_ms = (now_s() - i0) * 1e3;
    return tp;
}

} // namespace

PhaseReport
run_compile_phase(const PhaseArgs &args)
{
    const bool focus = args.focus;
    PhaseReport rep;
    rep.phase = "compile";
    const bool want_neon = args.backends.find("neon") != std::string::npos;

    const double setup_factor = host_factor(Probe::Compute);
    const double s0 = now_s();
    const std::vector<SuiteEntry> entries = suite();
    const double setup_s = now_s() - s0;

    // Untraced rounds: at least one; the focus workload keeps going
    // until the measuring window is spent. An HVX pass is about a tenth
    // of a NEON one, so each round makes three and compile_s.hvx is
    // their median.
    constexpr int kHvxPassesPerRound = 3;
    std::vector<HvxPass> hvx_passes;
    std::vector<NeonPass> neon_passes;
    std::vector<std::map<std::string, std::string>> hvx_dets, neon_dets;
    const double w0 = now_s();
    do {
        for (int i = 0; i < kHvxPassesPerRound; ++i) {
            hvx_passes.push_back(hvx_pass(entries));
            hvx_det(entries, hvx_passes.back(), hvx_dets.emplace_back());
        }
        if (want_neon) {
            neon_passes.push_back(neon_pass(entries));
            neon_det(neon_passes.back(), neon_dets.emplace_back());
        }
    } while (focus && !args.trace && now_s() - w0 < args.seconds);

    for (const auto *dets : {&hvx_dets, &neon_dets})
        for (const auto &d : *dets)
            if (d != dets->front())
                rep.fail("compile passes disagree on deterministic columns");
    rep.det = hvx_dets.front();
    if (want_neon)
        rep.det.insert(neon_dets.front().begin(), neon_dets.front().end());
    int64_t exprs = 0;
    for (const SuiteEntry &e : entries)
        exprs += static_cast<int64_t>(e.bench->exprs.size());
    rep.attempted = exprs * static_cast<int64_t>(hvx_passes.size() +
                                                 neon_passes.size());

    const HvxPass &hp = hvx_passes.back();
    const NeonPass *np = want_neon ? &neon_passes.back() : nullptr;
    validate(entries, hp, np, rep);

    // Modeled speedups: geomean over the 21 flat benchmarks (Fig. 11).
    std::vector<double> hvx_speedups, neon_speedups;
    for (size_t b = 0; b < entries.size(); ++b) {
        const SuiteEntry &e = entries[b];
        auto &row = rep.rows[e.label];
        row["speedup_modeled.hvx"] = hp.results[b].speedup;
        std::vector<double> secs;
        for (const HvxPass &p : hvx_passes)
            secs.push_back(p.seconds[b]);
        row["compile_s.hvx"] = median(secs);
        if (!e.fused)
            hvx_speedups.push_back(hp.results[b].speedup);
        if (!np)
            continue;
        secs.clear();
        for (const NeonPass &p : neon_passes)
            secs.push_back(p.seconds[b]);
        row["compile_s.neon"] = median(secs);
        if (auto m = neon_modeled(*e.bench, np->sels[b])) {
            row["speedup_modeled.neon"] = *m;
            if (!e.fused)
                neon_speedups.push_back(*m);
        }
    }
    rep.det["speedup_modeled.hvx"] = fmt(geomean(hvx_speedups), 12);
    if (np)
        rep.det["speedup_modeled.neon"] =
            fmt(geomean(neon_speedups), 12) + "/" +
            std::to_string(neon_speedups.size());

    // Hand-off to the execute and serve phases.
    std::vector<Selection> sels;
    for (size_t b = 0; b < entries.size(); ++b) {
        const pipeline::BenchmarkResult &r = hp.results[b];
        for (size_t i = 0; i < r.exprs.size(); ++i) {
            const pipeline::ExprCompilation &ec = r.exprs[i];
            const std::string &l = entries[b].label;
            const int idx = static_cast<int>(i);
            if (ec.rake_result && ec.rake_result->instr)
                sels.push_back({"hvx.rake", l, idx,
                                hvx::to_sexpr(ec.rake_result->instr)});
            sels.push_back({"hvx.final", l, idx,
                            hvx::to_sexpr(ec.rake ? ec.rake
                                                  : ec.baseline)});
            sels.push_back({"hvx.base", l, idx,
                            hvx::to_sexpr(ec.baseline)});
            if (np && !np->sels[b][i].sexpr.empty())
                sels.push_back({"neon.rake", l, idx, np->sels[b][i].sexpr});
        }
    }
    write_selections(args.workdir + "/selections.txt", sels);

    std::vector<double> hvx_s, neon_s, hvx_raw, neon_raw;
    for (const HvxPass &p : hvx_passes) {
        hvx_s.push_back(p.scaled_s);
        hvx_raw.push_back(p.total_s);
    }
    for (const NeonPass &p : neon_passes) {
        neon_s.push_back(p.scaled_s);
        neon_raw.push_back(p.total_s);
    }

    if (!args.trace) {
        rep.metric("compile_s.hvx", median(hvx_s), "s");
        rep.metric("raw.compile_s.hvx", median(hvx_raw), "s");
        if (np) {
            rep.metric("compile_s.neon", median(neon_s), "s");
            rep.metric("raw.compile_s.neon", median(neon_raw), "s");
        }
        rep.metric("speedup_modeled.hvx", geomean(hvx_speedups), "x");
        if (np)
            rep.metric("speedup_modeled.neon", geomean(neon_speedups), "x");
        rep.metric("setup_s", setup_s * setup_factor, "s");
        rep.metric("raw.setup_s", setup_s, "s");
        rep.metric("probe.compute",
                   median(hvx_s) / median(hvx_raw), "x");
        rep.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
        return rep;
    }
    if (!focus)
        return rep;

    // Traced pass, compared against the untraced one just made.
    Tracer tr(true);
    const TracedPass tp = traced_pass(tr, entries, np != nullptr);
    write_file(args.workdir + "/trace-compile.json", tr.to_chrome_json());

    const double untraced_s =
        hp.total_s + (np ? neon_passes.back().total_s : 0.0);
    const Effort all = [&] {
        Effort a = tp.hvx;
        const Effort &b = tp.neon;
        a.lift_q += b.lift_q;
        a.sketch_q += b.sketch_q;
        a.swizzle_q += b.swizzle_q;
        a.backtracks += b.backtracks;
        a.verify_q += b.verify_q;
        a.dedup_skips += b.dedup_skips;
        a.ref_cache_hits += b.ref_cache_hits;
        a.memo_hits += b.memo_hits;
        a.sketch_s += b.sketch_s;
        a.swizzle_s += b.swizzle_s;
        return a;
    }();
    const double lift_hvx = tr.seconds("synth.lift.hvx");
    const double lift_neon = tr.seconds("synth.lift.neon");
    rep.metric("synth.lift.s", lift_hvx + lift_neon, "s");
    rep.metric("synth.lift.s.hvx", lift_hvx, "s");
    rep.metric("synth.lift.s.neon", lift_neon, "s");
    rep.metric("synth.lift.queries", static_cast<double>(all.lift_q),
               "count");
    rep.metric("synth.sketch.s", all.sketch_s, "s");
    rep.metric("synth.sketch.s.hvx", tp.hvx.sketch_s, "s");
    rep.metric("synth.sketch.s.neon", tp.neon.sketch_s, "s");
    rep.metric("synth.sketch.queries", static_cast<double>(all.sketch_q),
               "count");
    rep.metric("synth.lower.backtracks",
               static_cast<double>(all.backtracks), "count");
    rep.metric("synth.swizzle.s", all.swizzle_s, "s");
    rep.metric("synth.swizzle.s.hvx", tp.hvx.swizzle_s, "s");
    rep.metric("synth.swizzle.s.neon", tp.neon.swizzle_s, "s");
    rep.metric("synth.swizzle.queries",
               static_cast<double>(all.swizzle_q), "count");
    rep.metric("synth.swizzle.memo_hit_ratio",
               all.memo_hits + all.swizzle_q > 0
                   ? static_cast<double>(all.memo_hits) /
                         static_cast<double>(all.memo_hits + all.swizzle_q)
                   : 0.0,
               "ratio");
    rep.metric("synth.verify.queries", static_cast<double>(all.verify_q),
               "count");
    rep.metric("synth.verify.dedup_skips",
               static_cast<double>(all.dedup_skips), "count");
    rep.metric("synth.verify.ref_cache_hits",
               static_cast<double>(all.ref_cache_hits), "count");
    rep.metric("hvx.interp.ms", tp.interp_ms, "ms");
    rep.metric("synth.negotiate.s", tr.seconds("synth.negotiate"), "s");
    rep.metric("synth.negotiate.boundary_swizzles_saved",
               static_cast<double>(tp.swizzles_saved), "count");
    rep.metric("pipeline.hashcons_hits",
               static_cast<double>(tp.hashcons_hits), "count");
    rep.metric("sim.s",
               tr.seconds("sim.schedule") + tr.seconds("sim.schedule_dag"),
               "s");
    rep.metric("sim.cycles.rake", static_cast<double>(tp.rake_cycles),
               "cycles");
    rep.metric("sim.cycles.baseline", static_cast<double>(tp.base_cycles),
               "cycles");
    rep.metric("baseline.s", tr.seconds("baseline.select"), "s");
    rep.metric("trace.overhead_pct",
               100.0 * (tp.total_s - untraced_s) / untraced_s, "%");

    // The traced walk must reach the untraced pass's selections.
    std::vector<std::string> want_rake, want_final, want_neon_sels;
    int64_t want_rake_cycles = 0, want_base_cycles = 0;
    for (size_t b = 0; b < entries.size(); ++b) {
        const pipeline::BenchmarkResult &r = hp.results[b];
        for (const pipeline::ExprCompilation &ec : r.exprs) {
            want_rake.push_back(ec.rake_result && ec.rake_result->instr
                                    ? hvx::to_sexpr(ec.rake_result->instr)
                                    : "-");
            want_final.push_back(
                hvx::to_sexpr(ec.rake ? ec.rake : ec.baseline));
        }
        want_rake_cycles += r.rake_cycles;
        want_base_cycles += r.baseline_cycles;
        if (np)
            for (const NeonSel &s : np->sels[b])
                want_neon_sels.push_back(s.sexpr);
    }
    if (want_rake != tp.hvx_rake || want_final != tp.hvx_final ||
        want_neon_sels != tp.neon_sexprs ||
        want_rake_cycles != tp.rake_cycles ||
        want_base_cycles != tp.base_cycles)
        rep.fail("traced compile pass reached different selections or "
                 "cycles than the untraced pass");
    return rep;
}

} // namespace rakebench
