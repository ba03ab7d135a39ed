/**
 * @file
 * Plain-text table rendering helpers for the benchmark harnesses
 * (Fig. 11 bars, Table 1 rows, Fig. 4/12 codegen listings).
 */
#ifndef RAKE_PIPELINE_REPORT_H
#define RAKE_PIPELINE_REPORT_H

#include <string>
#include <vector>

#include "pipeline/compiler.h"

namespace rake::pipeline {

/** Fixed-width text table builder. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void add_row(std::vector<std::string> cells);

    /** Render with aligned columns and a separator under the header. */
    std::string to_string() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string fmt(double v, int precision = 2);

/** Geometric mean of a list of ratios. */
double geomean(const std::vector<double> &values);

/** One Fig.-11-style row: name, cycles, speedup, ASCII bar. */
std::string speedup_bar(const BenchmarkResult &r, double max_speedup);

/**
 * Command-line options shared by the bench drivers:
 * `[--target hvx|neon] [--jobs N] [--json PATH] [--profile] [--dag]
 * [--no-dedup] [--greedy] [--timeout-ms N] [--run-timeout-ms N]
 * [--execute jit|interp] [benchmark-name]`. jobs = 0 defers to the RAKE_JOBS environment
 * variable (see CompileOptions::jobs); the timeout knobs defer to
 * RAKE_TIMEOUT_MS / RAKE_RUN_TIMEOUT_MS (the drivers call
 * resolve_timeout_ms).
 */
struct BenchArgs {
    int jobs = 0;      ///< --jobs N / --jobs=N
    int iters = 0;     ///< --iters K (0 = driver default)
    std::string only;  ///< positional single-benchmark filter
    std::string json;  ///< --json PATH: machine-readable results
    std::string target = "hvx"; ///< --target hvx|neon: backend to run
    bool profile = false;  ///< --profile: synthesis breakdown
    bool dag = false;      ///< --dag: run the fused multi-stage suite
    bool no_dedup = false; ///< --no-dedup: fast-path ablation switch
    bool greedy = false;   ///< --greedy: Neon greedy-mapper ablation
    int timeout_ms = 0;    ///< --timeout-ms N: per-query budget
    int run_timeout_ms = 0;///< --run-timeout-ms N: whole-run budget

    /** --cache-dir PATH: persistent synthesis-cache directory. The
     *  drivers pass it through synth::resolve_cache_dir, so an empty
     *  value defers to RAKE_CACHE_DIR. */
    std::string cache_dir;

    /** --rules PATH / --no-rules: mined rewrite-rule table for the
     *  rule-first selection stage. The drivers pass both through
     *  synth::resolve_rules_file, so an empty value defers to
     *  RAKE_RULES and --no-rules forces the stage off. */
    std::string rules;
    bool no_rules = false;

    /** --selections PATH: dump every selected instruction DAG (one
     *  canonical sexpr per line) for bit-identity diffs in CI. */
    std::string selections;

    /** --execute jit|interp: actually run the selected code over a
     *  whole synthetic image and report wall-clock microseconds next
     *  to the modeled cycles ("jit" = native x86-64 tier, "interp" =
     *  the HVX interpreter). Empty (the default) skips the execution
     *  phase entirely, keeping output byte-identical to older
     *  drivers. hvx-target only; "jit" requires an x86-64 host. */
    std::string execute;
};

/** Parse driver flags; throws UserError on malformed input. */
BenchArgs parse_bench_args(int argc, char **argv);

/**
 * The drivers' `--execute` phase for one compiled benchmark: run each
 * selected program (Rake's, falling back to the baseline's when Rake
 * declined) over a whole width x height synthetic image and return
 * the summed wall-clock in microseconds. `mode` is "interp" (the HVX
 * interpreter) or "jit" (the native x86-64 tier; throws UserError on
 * hosts where jit::available() is false). Best-of-three per
 * expression with jit tile validation off — the differential test
 * suite owns correctness, this phase owns timing.
 */
double execute_benchmark_us(const BenchmarkResult &r,
                            const std::string &mode, int width = 256,
                            int height = 64);

/**
 * Bytes of native code the jit emits for a benchmark at the current
 * SIMD tier: every expression's Rake and baseline programs, each
 * compiled once (jit::Program::code_size()). Deterministic for fixed
 * selections and tier.
 */
int64_t jit_code_bytes(const BenchmarkResult &r);

/**
 * Minimal JSON object builder for the drivers' --json output (flat
 * key/value metrics, with put_raw for nested arrays the caller
 * assembles). No external JSON dependency.
 */
class Json
{
  public:
    Json &put(const std::string &key, double v);
    Json &put(const std::string &key, int64_t v);
    Json &put(const std::string &key, int v);
    Json &put(const std::string &key, const std::string &v);
    Json &put_raw(const std::string &key, const std::string &json);

    std::string to_string() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Write `text` to `path`; throws UserError when the file can't open. */
void write_text_file(const std::string &path, const std::string &text);

} // namespace rake::pipeline

#endif // RAKE_PIPELINE_REPORT_H
