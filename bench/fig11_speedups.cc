/**
 * @file
 * Figure 11: speedups of Rake over the Halide-style HVX baseline on
 * the 21-benchmark suite, measured in simulated cycles.
 *
 * Reproduces the paper's headline result: an average (geo-mean) gain
 * around 1.1-1.2x, the largest win on gaussian3x3 (paper: 2.1x), a
 * single regression on depthwise_conv (paper: 0.93x), and a block of
 * memory-bound benchmarks that tie.
 *
 * `--dag` swaps in the fused multi-stage suite: the same speedup table
 * plus one whole-pipeline line per benchmark (stage count, surviving
 * boundary swizzles, hash-cons hits, fused-schedule cycles).
 *
 * `--execute jit|interp` actually runs each selected program over a
 * whole synthetic image and reports wall-clock microseconds next to
 * the modeled cycles ("jit" = the native x86-64 tier, "interp" = the
 * HVX interpreter); `--json` carries the times as jit_us / interp_us
 * per benchmark, and a jit run adds jit_code_bytes (Rake plus
 * baseline programs, at the tier in jit_simd). Without the flag no
 * code is executed and the output is byte-identical to older drivers.
 */
#include <iostream>

#include "jit/jit.h"
#include "pipeline/benchmarks.h"
#include "pipeline/report.h"
#include "support/deadline.h"
#include "support/error.h"
#include "synth/persist.h"
#include "synth/rules.h"

int
main(int argc, char **argv)
{
    using namespace rake;
    using namespace rake::pipeline;

    const BenchArgs args = parse_bench_args(argc, argv);
    // Fail before compiling anything, not after ten minutes of
    // synthesis, when the native tier is requested on a host without
    // one.
    RAKE_USER_CHECK(args.execute != "jit" || jit::available(),
                    "--execute jit needs an x86-64 host (try "
                    "--execute interp)");
    CompileOptions opts;
    opts.jobs = args.jobs;
    opts.timeout_ms =
        resolve_timeout_ms(args.timeout_ms, "RAKE_TIMEOUT_MS");
    opts.run_timeout_ms =
        resolve_timeout_ms(args.run_timeout_ms, "RAKE_RUN_TIMEOUT_MS");
    opts.rake.cache_dir = synth::resolve_cache_dir(args.cache_dir);
    opts.rake.rules_file =
        synth::resolve_rules_file(args.rules, args.no_rules);
    std::vector<BenchmarkResult> results;
    std::vector<double> speedups;
    std::vector<double> exec_us; // per result; empty without --execute

    std::cout << "Figure 11: Rake vs Halide HVX backend (simulated "
                 "cycles)\n\n";

    Table table({"benchmark", "exprs", "baseline cycles", "rake cycles",
                 "speedup"});
    // --dag swaps in the fused multi-stage suite; each DAG benchmark
    // additionally reports its negotiated-boundary and fused-schedule
    // numbers after the table.
    for (const Benchmark &b :
         args.dag ? fused_suite() : benchmark_suite()) {
        if (!args.only.empty() && b.name != args.only)
            continue;
        std::cerr << "[fig11] compiling " << b.name << "...\n";
        BenchmarkResult r = compile_benchmark(b, opts);
        table.add_row({r.name, std::to_string(r.optimized_exprs),
                       std::to_string(r.baseline_cycles),
                       std::to_string(r.rake_cycles),
                       fmt(r.speedup) + "x"});
        speedups.push_back(r.speedup);
        if (!args.execute.empty())
            exec_us.push_back(execute_benchmark_us(r, args.execute));
        results.push_back(std::move(r));
    }
    std::cout << table.to_string() << "\n";

    // The --execute phase: wall-clock of actually running the
    // selected code over a whole synthetic image, next to the modeled
    // cycles above. Silent without the flag, keeping default output
    // byte-identical.
    if (!args.execute.empty()) {
        std::cout << "execution (" << args.execute << ", whole image";
        if (args.execute == "jit")
            std::cout << ", " << to_string(jit::simd_level());
        std::cout << "):\n";
        for (size_t i = 0; i < results.size(); ++i)
            std::cout << "  " << results[i].name << ": "
                      << fmt(exec_us[i], 1) << " us\n";
        std::cout << "\n";
    }

    double max_speedup = 0;
    for (double s : speedups)
        max_speedup = std::max(max_speedup, s);
    for (const BenchmarkResult &r : results)
        std::cout << speedup_bar(r, max_speedup) << "\n";

    int improved = 0, tied = 0, regressed = 0;
    for (double s : speedups) {
        if (s > 1.03)
            ++improved;
        else if (s < 0.97)
            ++regressed;
        else
            ++tied;
    }
    int timeouts = 0, degraded = 0;
    int64_t disk_hits = 0, disk_writes = 0, disk_invalid = 0;
    for (const BenchmarkResult &r : results) {
        timeouts += r.timeouts;
        degraded += r.degraded;
        disk_hits += r.disk_hits;
        disk_writes += r.disk_writes;
        disk_invalid += r.disk_invalid;
    }
    // Emitted only when a deadline fired, keeping no-timeout output
    // bit-identical.
    if (timeouts > 0 || degraded > 0)
        std::cout << "\ndeadlines: " << timeouts
                  << " expression(s) timed out, " << degraded
                  << " shipped the greedy fallback (marked degraded)\n";
    // Same rule for the persistent tier: silent without --cache-dir,
    // and cycle counts are identical either way — a warm run replays
    // the very same selections.
    if (disk_hits > 0 || disk_writes > 0 || disk_invalid > 0)
        std::cout << "\npersistent cache: " << disk_hits << " hits, "
                  << disk_writes << " writes, " << disk_invalid
                  << " invalidated\n";
    // Whole-pipeline lines: one per DAG benchmark (stages > 0), so
    // flat runs print nothing here and stay bit-identical.
    bool any_dag = false;
    for (const BenchmarkResult &r : results)
        any_dag = any_dag || r.stages > 0;
    if (any_dag) {
        std::cout << "\n";
        for (const BenchmarkResult &r : results) {
            if (r.stages == 0)
                continue;
            std::cout << "pipeline " << r.name << ": " << r.stages
                      << " stages, " << r.boundary_swizzles
                      << " boundary swizzles (" << r.boundary_swizzles_saved
                      << " negotiated away), " << r.hashcons_hits
                      << " hash-cons hits, fused schedule "
                      << r.dag_cycles << " cycles\n";
        }
    }
    if (!args.json.empty()) {
        std::string bench_json;
        for (size_t i = 0; i < results.size(); ++i) {
            const BenchmarkResult &r = results[i];
            Json bj;
            bj.put("name", r.name)
                .put("exprs", r.optimized_exprs)
                .put("baseline_cycles", r.baseline_cycles)
                .put("rake_cycles", r.rake_cycles)
                .put("speedup", r.speedup);
            // Wall-clock next to the modeled cycles, keyed by tier so
            // an interp run and a jit run merge cleanly downstream.
            if (!args.execute.empty())
                bj.put(args.execute + "_us", exec_us[i]);
            // Exact (tests/expected/jit_code_bytes.json gates it).
            if (args.execute == "jit")
                bj.put("jit_code_bytes", jit_code_bytes(r));
            if (r.stages > 0) {
                bj.put("stages", r.stages);
                bj.put("dag_cycles", r.dag_cycles);
            }
            if (!bench_json.empty())
                bench_json += ",";
            bench_json += bj.to_string();
        }
        Json j;
        j.put("driver", std::string("fig11_speedups"))
            .put("geomean_speedup", geomean(speedups));
        if (!args.execute.empty()) {
            j.put("execute", args.execute);
            if (args.execute == "jit")
                j.put("jit_simd", to_string(jit::simd_level()));
        }
        j.put_raw("benchmarks", "[" + bench_json + "]");
        write_text_file(args.json, j.to_string() + "\n");
        std::cout << "wrote " << args.json << "\n";
    }

    std::cout << "\nsummary: geo-mean speedup " << fmt(geomean(speedups))
              << "x over " << speedups.size() << " benchmarks; "
              << improved << " improved (>3%), " << tied
              << " within margin, " << regressed << " regressed\n";
    std::cout << "paper:   geo-mean 1.18x, max 2.1x (gaussian3x3), 10 "
                 "improved, 10 within margin, 1 regressed "
                 "(depthwise_conv 0.93x)\n";
    return 0;
}
