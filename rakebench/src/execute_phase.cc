/**
 * @file
 * Execute phase: the compile phase's HVX selections, Rake and
 * baseline, JIT-compiled (jit::Program::compile) and run over
 * 1920x1080 synthetic frames drawn from the seed. Single-stage
 * expressions run through run_tiles_jit_with; staged benchmarks (the
 * fused suite, and flat ones whose expressions feed each other) run
 * through run_dag_jit.
 *
 * Correctness is checked once per run on small frames against the
 * HIR reference (run_tiles_reference / run_dag_reference), never
 * against either selector; staged pipelines are compared only at DAG
 * level, because layout negotiation permutes producer stages on
 * purpose.
 */
#include "phases.h"

#include <iostream>
#include <memory>

#include "hir/analysis.h"
#include "hvx/interp.h"
#include "hvx/sexpr.h"
#include "jit/jit.h"
#include "pipeline/benchmarks.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"

namespace rakebench {

namespace {

using namespace rake;

constexpr int kWidth = 1920;
constexpr int kHeight = 1080;

/** One benchmark's programs, stage-indexed. */
struct Bench {
    std::string label;
    bool fused = false;  ///< from the fused suite (not one of the 21)
    bool staged = false; ///< has stage edges: runs and checks as a DAG
    pipeline::PipelineDag dag;
    std::vector<hvx::InstrPtr> rake, base;
    std::map<std::string, int64_t> scalars;
};

/** Inputs are shared between programs reading the same (buffer,
 *  element type), so a whole suite's frames fit in memory once. */
using FrameCache = std::map<std::pair<int, ScalarType>, pipeline::Image>;

/** Buffer id -> element type `prog` loads (read off 1x1 inputs). */
std::map<int, ScalarType>
loads_of(const hvx::InstrPtr &prog)
{
    std::map<int, ScalarType> out;
    for (const auto &[id, img] : pipeline::synthetic_inputs_for(prog, 1, 1))
        out.emplace(id, img.elem);
    return out;
}

std::map<int, pipeline::Image>
inputs_for(const hvx::InstrPtr &prog, const FrameCache &frames)
{
    std::map<int, pipeline::Image> in;
    for (const auto &[id, elem] : loads_of(prog))
        in.emplace(id, frames.at({id, elem}));
    return in;
}

/** Frames keyed the way synthetic_inputs_for seeds them, from the
 *  run's seed. */
void
add_frames(const hvx::InstrPtr &prog, int w, int h, uint64_t seed,
           FrameCache &frames)
{
    for (const auto &[id, elem] : loads_of(prog))
        if (!frames.count({id, elem}))
            frames.emplace(std::make_pair(id, elem),
                           pipeline::Image::synthetic(
                               elem, w, h,
                               seed * 1000003 + static_cast<uint64_t>(id)));
}

/** External DAG inputs, by pipeline input id. */
std::map<int, pipeline::Image>
dag_inputs(const Bench &b, const FrameCache &frames)
{
    std::map<int, pipeline::Image> in;
    for (size_t i = 0; i < b.dag.stages.size(); ++i) {
        const auto loads = loads_of(b.rake[i]);
        for (const pipeline::StageInput &s : b.dag.stages[i].inputs)
            if (s.external >= 0 && !in.count(s.external))
                in.emplace(s.external,
                           frames.at({s.external, loads.at(s.slot)}));
    }
    return in;
}

void
add_dag_frames(const Bench &b, int w, int h, uint64_t seed,
               FrameCache &frames)
{
    for (size_t i = 0; i < b.dag.stages.size(); ++i) {
        const auto loads = loads_of(b.rake[i]);
        for (const pipeline::StageInput &s : b.dag.stages[i].inputs) {
            if (s.external < 0)
                continue;
            const ScalarType elem = loads.at(s.slot);
            if (!frames.count({s.external, elem}))
                frames.emplace(
                    std::make_pair(s.external, elem),
                    pipeline::Image::synthetic(
                        elem, w, h,
                        seed * 1000003 +
                            static_cast<uint64_t>(s.external)));
        }
    }
}

std::vector<Bench>
load_benches(const std::string &workdir)
{
    std::map<std::string, const pipeline::Benchmark *> by_label;
    std::vector<std::string> order;
    for (const pipeline::Benchmark &b : pipeline::benchmark_suite()) {
        by_label[b.name] = &b;
        order.push_back(b.name);
    }
    for (const pipeline::Benchmark &b : pipeline::fused_suite()) {
        by_label["dag." + b.name] = &b;
        order.push_back("dag." + b.name);
    }
    std::map<std::string, Bench> benches;
    for (const std::string &l : order) {
        Bench &b = benches[l];
        b.label = l;
        b.fused = l.rfind("dag.", 0) == 0;
        b.dag = pipeline::from_benchmark(*by_label.at(l));
        b.staged = b.dag.has_edges();
        b.rake.resize(b.dag.stages.size());
        b.base.resize(b.dag.stages.size());
        for (const pipeline::DagStage &s : b.dag.stages)
            for (const std::string &v : hir::collect_vars(s.expr))
                b.scalars.emplace(v, 5);
    }
    for (const Selection &s : read_selections(workdir + "/selections.txt")) {
        if (s.kind != "hvx.final" && s.kind != "hvx.base")
            continue;
        Bench &b = benches.at(s.bench);
        (s.kind == "hvx.final" ? b.rake : b.base).at(s.index) =
            hvx::parse_instr(s.sexpr);
    }
    std::vector<Bench> out;
    for (const std::string &l : order) {
        for (size_t i = 0; i < benches[l].rake.size(); ++i)
            if (!benches[l].rake[i] || !benches[l].base[i])
                throw std::runtime_error("selections.txt lacks " + l);
        out.push_back(std::move(benches[l]));
    }
    return out;
}

struct Setup {
    std::vector<Bench> benches;
    FrameCache frames;
};

Setup
setup(const PhaseArgs &args, int w, int h)
{
    Setup s;
    s.benches = load_benches(args.workdir);
    for (const Bench &b : s.benches) {
        if (b.staged) {
            add_dag_frames(b, w, h, args.seed, s.frames);
            continue;
        }
        for (size_t i = 0; i < b.rake.size(); ++i) {
            add_frames(b.rake[i], w, h, args.seed, s.frames);
            add_frames(b.base[i], w, h, args.seed, s.frames);
        }
    }
    return s;
}

/** One execute pass: compile everything, then run every program. */
struct Pass {
    double compile_ms = 0;
    int64_t code_bytes = 0;
    double rake_ms = 0, base_ms = 0, dag_ms = 0;
    double wall_s = 0; ///< the whole pass, untimed copies included
    /** compile_ms and rake_ms with each timed piece scaled by the
     *  host-speed factor probed just before it (common.h): the pages
     *  probe for JIT compiles, which map and seal code buffers, the
     *  compute probe for runs. */
    double scaled_compile_ms = 0, scaled_rake_ms = 0;
    std::map<std::string, std::pair<double, double>> per_bench; ///< ms
    std::vector<std::string> output_digests;
    int64_t rake_vs_base_mismatches = 0;
};

std::string
image_digest(const pipeline::Image &img)
{
    std::string bytes(reinterpret_cast<const char *>(img.pixels.data()),
                      img.pixels.size() * sizeof(int64_t));
    return digest({bytes});
}

/** With `probe` on, each timed piece of the pass is preceded by one
 *  run of its probe (the traced pass runs without). */
Pass
run_pass(const Setup &s, Tracer &tr, bool probe)
{
    Pass p;
    const double w0 = now_s();
    // JIT-compiles every Rake and baseline program; returns the ms.
    std::vector<std::vector<std::unique_ptr<jit::Program>>> rake_jit, base_jit;
    auto compile_all = [&] {
        rake_jit.clear();
        base_jit.clear();
        const double c0 = now_s();
        for (const Bench &b : s.benches) {
            rake_jit.emplace_back();
            base_jit.emplace_back();
            for (size_t i = 0; i < b.rake.size(); ++i) {
                rake_jit.back().push_back(tr.span("jit.compile", [&] {
                    return jit::Program::compile(b.rake[i]);
                }));
                base_jit.back().push_back(tr.span("jit.compile", [&] {
                    return jit::Program::compile(b.base[i]);
                }));
            }
        }
        return (now_s() - c0) * 1e3;
    };
    // The whole set compiles in tens of milliseconds, short enough to
    // land in one burst of host noise, so it is compiled again before
    // each benchmark runs and jit_compile_ms is the median of those.
    std::vector<double> compile_ms, scaled_compile_ms;
    auto factor = [&](Probe kind) {
        return probe ? host_factor(kind, 1) : 1.0;
    };

    for (size_t bi = 0; bi < s.benches.size(); ++bi) {
        const Bench &b = s.benches[bi];
        double f = factor(Probe::Pages);
        compile_ms.push_back(compile_all());
        scaled_compile_ms.push_back(compile_ms.back() * f);
        double rake_ms = 0, base_ms = 0;
        if (b.staged) {
            const auto inputs = dag_inputs(b, s.frames);
            pipeline::JitRunOptions fast;
            fast.validate = false;
            f = factor(Probe::Compute);
            double t0 = now_s();
            const pipeline::Image r = tr.span("pipeline.dag_run", [&] {
                return pipeline::run_dag_jit(b.dag, b.rake, inputs,
                                             b.scalars, fast);
            });
            rake_ms = (now_s() - t0) * 1e3;
            p.scaled_rake_ms += rake_ms * f;
            p.dag_ms += rake_ms;
            t0 = now_s();
            const pipeline::Image q = tr.span("pipeline.dag_run", [&] {
                return pipeline::run_dag_jit(b.dag, b.base, inputs,
                                             b.scalars, fast);
            });
            base_ms = (now_s() - t0) * 1e3;
            p.output_digests.push_back(image_digest(r));
            p.rake_vs_base_mismatches += pipeline::count_mismatches(r, q);
        } else {
            for (size_t i = 0; i < b.rake.size(); ++i) {
                const auto rake_in = inputs_for(b.rake[i], s.frames);
                const auto base_in = inputs_for(b.base[i], s.frames);
                f = factor(Probe::Compute);
                double t0 = now_s();
                const pipeline::Image r = tr.span("jit.run", [&] {
                    return pipeline::run_tiles_jit_with(*rake_jit[bi][i],
                                                        rake_in, b.scalars);
                });
                const double ms = (now_s() - t0) * 1e3;
                rake_ms += ms;
                p.scaled_rake_ms += ms * f;
                t0 = now_s();
                const pipeline::Image q = tr.span("jit.run", [&] {
                    return pipeline::run_tiles_jit_with(*base_jit[bi][i],
                                                        base_in, b.scalars);
                });
                base_ms += (now_s() - t0) * 1e3;
                p.output_digests.push_back(image_digest(r));
                p.rake_vs_base_mismatches +=
                    pipeline::count_mismatches(r, q);
            }
        }
        p.rake_ms += rake_ms;
        p.base_ms += base_ms;
        p.per_bench[b.label] = {rake_ms, base_ms};
    }
    p.compile_ms = median(compile_ms);
    p.scaled_compile_ms = median(scaled_compile_ms);
    for (const auto &progs : {&rake_jit, &base_jit})
        for (const auto &bench : *progs)
            for (const auto &prog : bench)
                p.code_bytes += static_cast<int64_t>(prog->code_size());
    p.wall_s = now_s() - w0;
    return p;
}

/** Small-frame check of every program against the HIR reference. */
void
check_against_reference(const PhaseArgs &args, PhaseReport &rep)
{
    Setup s = setup(args, 256, 16);
    pipeline::JitRunOptions checked; // per-tile interpreter cross-check
    for (const Bench &b : s.benches) {
        ++rep.attempted;
        try {
            if (b.staged) {
                const auto inputs = dag_inputs(b, s.frames);
                const pipeline::Image want =
                    pipeline::run_dag_reference(b.dag, inputs, b.scalars);
                for (const auto *progs : {&b.rake, &b.base})
                    if (pipeline::count_mismatches(
                            want, pipeline::run_dag_jit(b.dag, *progs,
                                                        inputs, b.scalars,
                                                        checked)) != 0)
                        throw std::runtime_error("DAG output mismatch");
                continue;
            }
            for (size_t i = 0; i < b.rake.size(); ++i) {
                const hir::ExprPtr &expr = b.dag.stages[i].expr;
                for (const hvx::InstrPtr &prog : {b.rake[i], b.base[i]}) {
                    const auto inputs = inputs_for(prog, s.frames);
                    const pipeline::Image want =
                        pipeline::run_tiles_reference(expr, inputs,
                                                      b.scalars);
                    const pipeline::Image got = pipeline::run_tiles_jit(
                        prog, inputs, b.scalars, checked);
                    if (pipeline::count_mismatches(want, got) != 0)
                        throw std::runtime_error("output mismatch");
                }
            }
        } catch (const std::exception &e) {
            ++rep.failed;
            rep.fail("execute " + b.label + ": " + e.what());
        }
    }
}

} // namespace

PhaseReport
run_execute_phase(const PhaseArgs &args)
{
    const bool focus = args.focus;
    PhaseReport rep;
    rep.phase = "execute";
    if (!jit::available())
        throw std::runtime_error("the JIT needs an x86-64 host");

    // Set-up, five times: parse the selections, draw the frames.
    std::vector<double> setup_s, setup_raw;
    Setup s;
    for (int rep_i = 0; rep_i < 5; ++rep_i) {
        const double f = host_factor(Probe::Compute);
        const double t0 = now_s();
        s = setup(args, kWidth, kHeight);
        setup_raw.push_back(now_s() - t0);
        setup_s.push_back(setup_raw.back() * f);
    }

    check_against_reference(args, rep);

    // The focus workload fills the window; others make one pass.
    Tracer off(false);
    std::vector<Pass> passes;
    const double w0 = now_s();
    do {
        passes.push_back(run_pass(s, off, !args.trace));
        rep.attempted += static_cast<int64_t>(s.benches.size());
    } while (focus && !args.trace && now_s() - w0 < args.seconds);

    for (const Pass &p : passes) {
        if (p.rake_vs_base_mismatches != 0) {
            ++rep.failed;
            rep.fail("Rake and baseline 1080p outputs differ");
        }
        if (p.output_digests != passes[0].output_digests ||
            p.code_bytes != passes[0].code_bytes)
            rep.fail("execute passes disagree on outputs or code bytes");
    }
    rep.det["execute.code_bytes"] = std::to_string(passes[0].code_bytes);
    rep.det["execute.outputs"] = digest(passes[0].output_digests);

    // Per-benchmark medians; measured speedup over the 21 flat
    // benchmarks, the set speedup_modeled.hvx covers.
    std::vector<double> flat_speedups, run_ms, compile_ms, run_raw,
        compile_raw;
    for (const Bench &b : s.benches) {
        std::vector<double> r, q;
        for (const Pass &p : passes) {
            r.push_back(p.per_bench.at(b.label).first);
            q.push_back(p.per_bench.at(b.label).second);
        }
        auto &row = rep.rows[b.label];
        row["run_ms.rake"] = median(r);
        row["run_ms.baseline"] = median(q);
        row["speedup_measured"] = median(q) / median(r);
        if (!b.fused)
            flat_speedups.push_back(median(q) / median(r));
    }
    for (const Pass &p : passes) {
        run_ms.push_back(p.scaled_rake_ms);
        compile_ms.push_back(p.scaled_compile_ms);
        run_raw.push_back(p.rake_ms);
        compile_raw.push_back(p.compile_ms);
    }

    if (!args.trace) {
        rep.metric("run_ms", median(run_ms), "ms");
        rep.metric("raw.run_ms", median(run_raw), "ms");
        rep.metric("speedup_measured", geomean(flat_speedups), "x");
        rep.metric("jit_compile_ms", median(compile_ms), "ms");
        rep.metric("raw.jit_compile_ms", median(compile_raw), "ms");
        rep.metric("code_bytes", static_cast<double>(passes[0].code_bytes),
                   "bytes");
        rep.metric("setup_s", median(setup_s), "s");
        rep.metric("raw.setup_s", median(setup_raw), "s");
        rep.metric("probe.compute", median(run_ms) / median(run_raw), "x");
        rep.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
        return rep;
    }
    if (!focus)
        return rep;

    // Traced pass, then the interpreter on a strip of the same frames.
    Tracer tr(true);
    const Pass tp = run_pass(s, tr, false);
    const double untraced_s = passes.back().wall_s;

    Setup strip = setup(args, kWidth, 32);
    double interp_s = 0, jit_s = 0;
    for (const Bench &b : strip.benches) {
        if (b.staged)
            continue;
        for (size_t i = 0; i < b.rake.size(); ++i) {
            const auto inputs = inputs_for(b.rake[i], strip.frames);
            auto prog = jit::Program::compile(b.rake[i]);
            double c0 = now_s();
            tr.span("jit.run", [&] {
                return pipeline::run_tiles_jit_with(*prog, inputs, b.scalars);
            });
            jit_s += now_s() - c0;
            c0 = now_s();
            tr.span("hvx.interp", [&] {
                return pipeline::run_tiles(b.rake[i], inputs, b.scalars);
            });
            interp_s += now_s() - c0;
        }
    }
    write_file(args.workdir + "/trace-execute.json", tr.to_chrome_json());

    int64_t flat_programs = 0;
    for (const Bench &b : s.benches)
        if (!b.staged)
            flat_programs += static_cast<int64_t>(b.rake.size());
    rep.metric("jit.compile_ms", tp.compile_ms, "ms");
    rep.metric("jit.code_bytes", static_cast<double>(tp.code_bytes),
               "bytes");
    rep.metric("jit.run_ms.rake", tp.rake_ms, "ms");
    rep.metric("jit.run_ms.baseline", tp.base_ms, "ms");
    rep.metric("jit.ns_per_pixel",
               (tp.rake_ms - tp.dag_ms) * 1e6 /
                   (static_cast<double>(flat_programs) * kWidth * kHeight),
               "ns");
    rep.metric("pipeline.dag_run_ms", tp.dag_ms, "ms");
    rep.metric("jit.speedup_vs_interp", interp_s / jit_s, "x");
    rep.metric("trace.overhead_pct",
               100.0 * (tp.wall_s - untraced_s) / untraced_s, "%");
    return rep;
}

} // namespace rakebench
