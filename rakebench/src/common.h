/**
 * @file
 * Shared plumbing of the Rake benchmark phases: arguments, the span
 * tracer, the phase report every phase prints as its last stdout
 * line, and small statistics helpers.
 *
 * A benchmark run is a sequence of phase processes (compile, execute,
 * serve) driven by run.py; each phase prints one JSON report that
 * run.py merges into the run's result line.
 */
#ifndef RAKEBENCH_COMMON_H
#define RAKEBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rakebench {

/** Command line of one phase process. */
struct PhaseArgs {
    std::string phase;     ///< compile | execute | serve
    std::string workdir;   ///< per-run scratch directory (relative)
    uint64_t seed = 1;     ///< drives fuzz inputs, request order, frames
    double seconds = 0;    ///< measuring window; 0 = one fixed pass
    bool trace = false;    ///< traced run: per-layer metrics only
    bool focus = false;    ///< the phase is the workload's own
    std::string backends = "hvx,neon"; ///< compile phase targets
    std::string server;    ///< server binary the serve phase spawns
};

PhaseArgs parse_phase_args(int argc, char **argv);

/** Monotonic seconds. */
inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Span recorder for traced runs. Each span is a call into one layer,
 * timed from the benchmark's side of the boundary; spans nest by
 * time on one thread. Totals per name feed the per-layer metrics and
 * the spans themselves are written as Chrome trace events. When off,
 * span() runs the callable and records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    template <typename F>
    auto
    span(const char *name, F &&f)
    {
        if (!on_)
            return f();
        const double t0 = now_s();
        struct Close {
            Tracer *self;
            const char *name;
            double t0;
            ~Close() { self->record(name, t0, now_s()); }
        } close{this, name, t0};
        return f();
    }

    /** Total seconds and call count recorded under `name`. */
    double seconds(const std::string &name) const;
    int64_t calls(const std::string &name) const;

    /** Chrome trace-event JSON of every recorded span. */
    std::string to_chrome_json() const;

  private:
    void record(const char *name, double t0, double t1);

    struct Event {
        const char *name;
        double t0, t1;
    };
    bool on_;
    double origin_ = now_s();
    std::vector<Event> events_;
    std::map<std::string, std::pair<double, int64_t>> totals_;
};

/** What a phase prints as its final stdout line. */
struct PhaseReport {
    std::string phase;
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;

    /** Metric name -> (value, unit), in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Deterministic columns: must repeat exactly for one seed. */
    std::map<std::string, std::string> det;
    /** Per-benchmark rows: bench -> column -> value. */
    std::map<std::string, std::map<std::string, double>> rows;

    void metric(const std::string &name, double value,
                const std::string &unit);
    void fail(const std::string &what);
    std::string to_json() const;
};

/**
 * Host-speed probes: fixed computations written in this file, with no
 * Rake code in them, so no change to the program can move them. A
 * shared host's speed drifts (by up to 2x within minutes on the host
 * the bounds were set on, with little steal time to show for it, so
 * CPU time drifts with wall time). Every end-to-end timing is taken
 * as measured and then scaled by how fast the host ran the probe of
 * the same kind right next to it (before and after each benchmark of
 * a compile pass, before each JIT compile and run, before each eighth
 * of a serve pass):
 *
 *   reported = measured * probe reference seconds / probe seconds now
 *
 * A change that makes the program slower raises the reported figure
 * by the same share; a host that slows down raises the probe with it.
 *
 * The probes run in a helper process (this binary, started with
 * --probe-server on first use, on the same CPU), so neither the
 * phase's heap nor its peak memory and the probes touch each other.
 */
enum class Probe {
    Compute, ///< pointer trees, hashing, sorting: compiler-like work
    Ipc,     ///< round trips between two threads over a socket pair
    Pages,   ///< mapping, faulting in and sealing code-sized buffers:
             ///< the JIT's code buffers
};

/** Median seconds of `reps` runs of the probe, now, in the helper. */
double probe_s(Probe p, int reps = 5);

/** The helper's loop: one request per stdin line, `<probe> <reps>`,
 *  answered with the seconds on stdout; returns at end of input. */
int run_probe_server();

/** The probe's typical time inside a run on the host the bounds were
 *  set on (a shared 4-vCPU x86-64 VM), so scaled figures stay near
 *  what that host measured. Fixed: changing one rescales every run. */
double probe_ref_s(Probe p);

/** Reference over now for one probe: the factor a time measured now
 *  is multiplied by. */
inline double
host_factor(Probe p, int reps = 5)
{
    return probe_ref_s(p) / probe_s(p, reps);
}

double median(std::vector<double> v);
/** Nearest-rank quantile, q in [0, 1]. */
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double> &v);

/** FNV-1a 64 over a sequence of strings, as 16 hex digits. */
std::string digest(const std::vector<std::string> &parts);

/** Peak resident set of this process image in MiB. */
double self_peak_rss_mb();

std::string read_file(const std::string &path);
void write_file(const std::string &path, const std::string &text);

/**
 * The compile phase's hand-off to the other phases: one line per
 * selection, `kind <TAB> bench <TAB> index <TAB> sexpr`. Kinds:
 * hvx.rake (synthesized, pre-negotiation), hvx.final (the program
 * that runs; negotiated for fused stages), hvx.base (baseline),
 * neon.rake.
 */
struct Selection {
    std::string kind, bench;
    int index = 0;
    std::string sexpr;
};
std::vector<Selection> read_selections(const std::string &path);
void write_selections(const std::string &path,
                      const std::vector<Selection> &sels);

/** Rounded for display; JSON keeps every digit. */
std::string fmt(double v, int precision);

} // namespace rakebench

#endif // RAKEBENCH_COMMON_H
