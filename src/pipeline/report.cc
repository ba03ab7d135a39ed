#include "pipeline/report.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iomanip>
#include <set>
#include <sstream>

#include "hir/analysis.h"
#include "jit/jit.h"
#include "pipeline/executor.h"
#include "support/error.h"
#include "support/parse.h"

namespace rake::pipeline {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::add_row(std::vector<std::string> cells)
{
    RAKE_CHECK(cells.size() == headers_.size(),
               "row width " << cells.size() << " != header width "
                            << headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::to_string() const
{
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }
    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ") << std::left
               << std::setw(static_cast<int>(width[c])) << row[c];
        }
        os << "\n";
    };
    emit_row(headers_);
    std::string sep;
    for (size_t c = 0; c < headers_.size(); ++c)
        sep += std::string(width[c], '-') + (c + 1 < headers_.size()
                                                 ? "  "
                                                 : "");
    os << sep << "\n";
    for (const auto &row : rows_)
        emit_row(row);
    return os.str();
}

std::string
fmt(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
speedup_bar(const BenchmarkResult &r, double max_speedup)
{
    const int max_width = 40;
    const int bar = std::max(
        1, static_cast<int>(r.speedup / max_speedup * max_width));
    std::ostringstream os;
    os << std::left << std::setw(16) << r.name << " " << std::setw(6)
       << fmt(r.speedup) << "x  " << std::string(bar, '#');
    return os.str();
}

BenchArgs
parse_bench_args(int argc, char **argv)
{
    BenchArgs args;
    // One checked parser for every integer knob (support/parse.h):
    // "--jobs abc", "--iters 1e9" or an overflowing --timeout-ms is a
    // hard UserError, never atoi's silent 0.
    auto int_knob = [&](const char *text, const std::string &flag,
                        int64_t min, int64_t max) {
        return static_cast<int>(
            parse_int_knob(text, flag.c_str(), min, max));
    };
    constexpr int64_t kIntMax = std::numeric_limits<int>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--jobs" || a == "-j") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a value");
            args.jobs = int_knob(argv[++i], a, 1, 1 << 16);
        } else if (a.rfind("--jobs=", 0) == 0) {
            args.jobs = int_knob(a.c_str() + 7, "--jobs", 1, 1 << 16);
        } else if (a == "--iters") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a value");
            args.iters = int_knob(argv[++i], a, 1, kIntMax);
        } else if (a.rfind("--iters=", 0) == 0) {
            args.iters = int_knob(a.c_str() + 8, "--iters", 1, kIntMax);
        } else if (a == "--json") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a path");
            args.json = argv[++i];
        } else if (a.rfind("--json=", 0) == 0) {
            args.json = a.substr(7);
            RAKE_USER_CHECK(!args.json.empty(), a << " needs a path");
        } else if (a == "--target") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a value");
            args.target = argv[++i];
        } else if (a.rfind("--target=", 0) == 0) {
            args.target = a.substr(9);
        } else if (a == "--timeout-ms") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a value");
            args.timeout_ms = int_knob(argv[++i], a, 1, kIntMax);
        } else if (a.rfind("--timeout-ms=", 0) == 0) {
            args.timeout_ms =
                int_knob(a.c_str() + 13, "--timeout-ms", 1, kIntMax);
        } else if (a == "--run-timeout-ms") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a value");
            args.run_timeout_ms = int_knob(argv[++i], a, 1, kIntMax);
        } else if (a.rfind("--run-timeout-ms=", 0) == 0) {
            args.run_timeout_ms =
                int_knob(a.c_str() + 17, "--run-timeout-ms", 1, kIntMax);
        } else if (a == "--cache-dir") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a path");
            args.cache_dir = argv[++i];
        } else if (a.rfind("--cache-dir=", 0) == 0) {
            args.cache_dir = a.substr(12);
            RAKE_USER_CHECK(!args.cache_dir.empty(),
                            a << " needs a path");
        } else if (a == "--rules") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a path");
            args.rules = argv[++i];
        } else if (a.rfind("--rules=", 0) == 0) {
            args.rules = a.substr(8);
            RAKE_USER_CHECK(!args.rules.empty(), a << " needs a path");
        } else if (a == "--no-rules") {
            args.no_rules = true;
        } else if (a == "--selections") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a path");
            args.selections = argv[++i];
        } else if (a.rfind("--selections=", 0) == 0) {
            args.selections = a.substr(13);
            RAKE_USER_CHECK(!args.selections.empty(),
                            a << " needs a path");
        } else if (a == "--execute") {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs a value");
            args.execute = argv[++i];
        } else if (a.rfind("--execute=", 0) == 0) {
            args.execute = a.substr(10);
        } else if (a == "--profile") {
            args.profile = true;
        } else if (a == "--dag") {
            args.dag = true;
        } else if (a == "--no-dedup") {
            args.no_dedup = true;
        } else if (a == "--greedy") {
            args.greedy = true;
        } else {
            // A typo'd flag must not silently become a benchmark
            // filter (and then match nothing).
            RAKE_USER_CHECK(a.rfind("--", 0) != 0,
                            "unknown flag: " << a);
            RAKE_USER_CHECK(args.only.empty(),
                            "unexpected argument: " << a);
            args.only = a;
        }
    }
    RAKE_USER_CHECK(args.target == "hvx" || args.target == "neon",
                    "unknown target: " << args.target
                                       << " (expected hvx or neon)");
    RAKE_USER_CHECK(!args.greedy || args.target == "neon",
                    "--greedy is a neon-only ablation");
    RAKE_USER_CHECK(args.execute.empty() || args.execute == "jit" ||
                        args.execute == "interp",
                    "--execute must be jit or interp, got: "
                        << args.execute);
    RAKE_USER_CHECK(args.execute.empty() || args.target == "hvx",
                    "--execute runs selected HVX code; combine it "
                    "with --target hvx");
    return args;
}

namespace {

/** Free scalar variables reachable through the program's splats. */
void
collect_splat_vars(const hvx::InstrPtr &n,
                   std::map<std::string, int64_t> &scalars,
                   std::set<const hvx::Instr *> &visited)
{
    if (!n || !visited.insert(n.get()).second)
        return;
    if (n->op() == hvx::Opcode::VSplat)
        for (const std::string &v : hir::collect_vars(n->splat_value()))
            scalars.emplace(v, 7); // any fixed value works for timing
    for (const hvx::InstrPtr &a : n->args())
        collect_splat_vars(a, scalars, visited);
}

} // namespace

double
execute_benchmark_us(const BenchmarkResult &r, const std::string &mode,
                     int width, int height)
{
    RAKE_USER_CHECK(mode == "interp" || mode == "jit",
                    "execute mode must be interp or jit, got: "
                        << mode);
    using clock = std::chrono::steady_clock;
    double total_us = 0.0;
    for (const ExprCompilation &ec : r.exprs) {
        const hvx::InstrPtr &prog = ec.rake ? ec.rake : ec.baseline;
        if (!prog)
            continue;
        const std::map<int, Image> inputs =
            synthetic_inputs_for(prog, width, height);
        std::map<std::string, int64_t> scalars;
        std::set<const hvx::Instr *> visited;
        collect_splat_vars(prog, scalars, visited);
        // One-time jit compilation stays out of the timed region:
        // the measurement is steady-state whole-image execution, the
        // regime the tier exists for.
        std::unique_ptr<jit::Program> compiled;
        if (mode == "jit")
            compiled = jit::Program::compile(prog);
        double best_us = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = clock::now();
            if (mode == "jit")
                (void)run_tiles_jit_with(*compiled, inputs, scalars);
            else
                (void)run_tiles(prog, inputs, scalars);
            const double us =
                std::chrono::duration<double, std::micro>(clock::now() -
                                                          t0)
                    .count();
            best_us = std::min(best_us, us);
        }
        total_us += best_us;
    }
    return total_us;
}

int64_t
jit_code_bytes(const BenchmarkResult &r)
{
    int64_t total = 0;
    for (const ExprCompilation &ec : r.exprs)
        for (const hvx::InstrPtr &prog : {ec.rake, ec.baseline})
            if (prog)
                total += static_cast<int64_t>(
                    jit::Program::compile(prog)->code_size());
    return total;
}

namespace {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
json_number(double v)
{
    // JSON has no NaN/Inf literals; clamp to null.
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return os.str();
}

} // namespace

Json &
Json::put(const std::string &key, double v)
{
    fields_.emplace_back(key, json_number(v));
    return *this;
}

Json &
Json::put(const std::string &key, int64_t v)
{
    fields_.emplace_back(key, std::to_string(v));
    return *this;
}

Json &
Json::put(const std::string &key, int v)
{
    return put(key, static_cast<int64_t>(v));
}

Json &
Json::put(const std::string &key, const std::string &v)
{
    std::string quoted = "\"";
    quoted += json_escape(v);
    quoted += "\"";
    fields_.emplace_back(key, std::move(quoted));
    return *this;
}

Json &
Json::put_raw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
    return *this;
}

std::string
Json::to_string() const
{
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "\"";
        out += json_escape(fields_[i].first);
        out += "\":";
        out += fields_[i].second;
    }
    out += "}";
    return out;
}

void
write_text_file(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    RAKE_USER_CHECK(os.good(), "cannot open " << path << " for writing");
    os << text;
    RAKE_USER_CHECK(os.good(), "failed writing " << path);
}

} // namespace rake::pipeline
