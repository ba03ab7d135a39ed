#include "common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "support/parse.h"

namespace rakebench {

PhaseArgs
parse_phase_args(int argc, char **argv)
{
    PhaseArgs a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--phase")
            a.phase = value;
        else if (flag == "--workdir")
            a.workdir = value;
        else if (flag == "--seed")
            a.seed = static_cast<uint64_t>(
                rake::parse_int_knob(value.c_str(), "--seed", 0,
                                     int64_t{1} << 62));
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = value == "1";
        else if (flag == "--focus")
            a.focus = value == "1";
        else if (flag == "--backends")
            a.backends = value;
        else if (flag == "--server")
            a.server = value;
        else
            throw std::runtime_error("unknown flag: " + flag);
    }
    if (a.phase.empty() || a.workdir.empty())
        throw std::runtime_error("--phase and --workdir are required");
    return a;
}

void
Tracer::record(const char *name, double t0, double t1)
{
    events_.push_back({name, t0, t1});
    auto &[sum, n] = totals_[name];
    sum += t1 - t0;
    ++n;
}

double
Tracer::seconds(const std::string &name) const
{
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.first;
}

int64_t
Tracer::calls(const std::string &name) const
{
    auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.second;
}

std::string
Tracer::to_chrome_json() const
{
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                      i ? "," : "", e.name, (e.t0 - origin_) * 1e6,
                      (e.t1 - e.t0) * 1e6);
        os << buf;
    }
    os << "]}\n";
    return os.str();
}

void
PhaseReport::metric(const std::string &name, double value,
                    const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

void
PhaseReport::fail(const std::string &what)
{
    correct = false;
    if (errors.size() < 20)
        errors.push_back(what);
}

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
PhaseReport::to_json() const
{
    std::ostringstream os;
    os << "{\"phase\":" << quoted(phase)
       << ",\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"errors\":[";
    for (size_t i = 0; i < errors.size(); ++i)
        os << (i ? "," : "") << quoted(errors[i]);
    os << "],\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? "," : "") << quoted(metrics[i].first) << ":["
           << number(metrics[i].second.first) << ","
           << quoted(metrics[i].second.second) << "]";
    os << "},\"det\":{";
    bool first = true;
    for (const auto &[k, v] : det) {
        os << (first ? "" : ",") << quoted(k) << ":" << quoted(v);
        first = false;
    }
    os << "},\"rows\":{";
    first = true;
    for (const auto &[bench, cols] : rows) {
        os << (first ? "" : ",") << quoted(bench) << ":{";
        bool f2 = true;
        for (const auto &[k, v] : cols) {
            os << (f2 ? "" : ",") << quoted(k) << ":" << number(v);
            f2 = false;
        }
        os << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

namespace {

/** A node of the compute probe's expression-like tree. */
struct ProbeNode {
    int op = 0;
    uint64_t v = 0;
    std::unique_ptr<ProbeNode> l, r;
};

uint64_t
lcg(uint64_t &x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 17;
}

std::unique_ptr<ProbeNode>
probe_tree(uint64_t &x, int depth)
{
    auto n = std::make_unique<ProbeNode>();
    n->op = static_cast<int>(lcg(x) % 3);
    n->v = lcg(x);
    if (depth > 0) {
        n->l = probe_tree(x, depth - 1);
        n->r = probe_tree(x, depth - 1);
    }
    return n;
}

uint64_t
probe_walk(const ProbeNode &n, std::unordered_map<uint64_t, int> &seen)
{
    if (!n.l)
        return n.v;
    const uint64_t a = probe_walk(*n.l, seen);
    const uint64_t b = probe_walk(*n.r, seen);
    uint64_t h = n.op == 0 ? a + b : n.op == 1 ? (a * 31) ^ b : (a << 7) - b;
    h = (h * 0x9e3779b97f4a7c15ull) ^ (h >> 29);
    ++seen[h & 0x3ffff];
    return h;
}

/** Allocation, pointer chasing, hashing, sorting and string keys: the
 *  kinds of work synthesis and the JIT's code generation do. */
uint64_t
compute_probe()
{
    uint64_t x = 12345;
    const std::unique_ptr<ProbeNode> tree = probe_tree(x, 14);
    std::unordered_map<uint64_t, int> seen;
    uint64_t sum = probe_walk(*tree, seen);
    std::vector<uint64_t> keys(1 << 16);
    for (uint64_t &k : keys)
        k = lcg(x);
    std::sort(keys.begin(), keys.end());
    std::map<std::string, int> names;
    for (int i = 0; i < 8192; ++i)
        ++names["(vadd " + std::to_string(keys[static_cast<size_t>(i) * 8] %
                                          4096) + ")"];
    return sum + keys[keys.size() / 2] + names.size() + seen.size();
}

/** Map, fill, seal and unmap 256 KiB buffers, as the JIT maps each
 *  program's code: page faults, page-table changes and syscalls. */
uint64_t
pages_probe()
{
    constexpr size_t kLen = 256 * 1024;
    uint64_t sum = 0;
    for (int i = 0; i < 100; ++i) {
        void *mem = mmap(nullptr, kLen, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            throw std::runtime_error("pages probe: mmap failed");
        auto *bytes = static_cast<unsigned char *>(mem);
        for (size_t at = 0; at < kLen; at += 4096)
            bytes[at] = static_cast<unsigned char>(at >> 12);
        mprotect(mem, kLen, PROT_READ | PROT_EXEC);
        sum += bytes[kLen / 2];
        munmap(mem, kLen);
    }
    return sum;
}

/** Round trips of a 64-byte message between this thread and an echo
 *  thread over a Unix socket pair, as a client and the server do. */
uint64_t
ipc_probe()
{
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("socketpair failed");
    constexpr int kTrips = 1000;
    std::thread echo([fd = fds[1]] {
        char buf[64];
        for (int i = 0; i < kTrips; ++i) {
            size_t got = 0;
            while (got < sizeof(buf)) {
                const ssize_t n = read(fd, buf + got, sizeof(buf) - got);
                if (n <= 0)
                    return;
                got += static_cast<size_t>(n);
            }
            if (write(fd, buf, sizeof(buf)) != sizeof(buf))
                return;
        }
    });
    char buf[64] = {1};
    uint64_t sum = 0;
    for (int i = 0; i < kTrips; ++i) {
        if (write(fds[0], buf, sizeof(buf)) != sizeof(buf))
            break;
        size_t got = 0;
        while (got < sizeof(buf)) {
            const ssize_t n = read(fds[0], buf + got, sizeof(buf) - got);
            if (n <= 0)
                break;
            got += static_cast<size_t>(n);
        }
        sum += static_cast<unsigned char>(buf[0]);
    }
    close(fds[0]);
    echo.join();
    close(fds[1]);
    return sum;
}

volatile uint64_t g_probe_sink = 0;

double
probe_here(Probe p, int reps)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const double t0 = now_s();
        g_probe_sink = g_probe_sink + (p == Probe::Compute ? compute_probe()
                                       : p == Probe::Pages ? pages_probe()
                                                           : ipc_probe());
        t.push_back(now_s() - t0);
    }
    return median(t);
}

extern "C" char **environ;

/** The probe helper: started on first use, stopped (end of input,
 *  then reaped) when the process exits. */
class ProbeHelper
{
  public:
    ProbeHelper()
    {
        int down[2], up[2];
        // Close-on-exec, so servers spawned later do not hold them.
        if (pipe2(down, O_CLOEXEC) != 0 || pipe2(up, O_CLOEXEC) != 0)
            throw std::runtime_error("probe helper: pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, down[0], 0);
        posix_spawn_file_actions_adddup2(&fa, up[1], 1);
        for (int fd : {down[0], down[1], up[0], up[1]})
            posix_spawn_file_actions_addclose(&fa, fd);
        char exe[] = "/proc/self/exe", flag[] = "--probe-server";
        char *argv[] = {exe, flag, nullptr};
        const int rc = posix_spawn(&pid_, exe, &fa, nullptr, argv, environ);
        posix_spawn_file_actions_destroy(&fa);
        close(down[0]);
        close(up[1]);
        to_ = fdopen(down[1], "w");
        from_ = fdopen(up[0], "r");
        if (rc != 0 || !to_ || !from_)
            throw std::runtime_error("probe helper: cannot start");
    }

    ~ProbeHelper()
    {
        std::fclose(to_);
        std::fclose(from_);
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }

    double
    ask(Probe p, int reps)
    {
        double s = 0;
        if (std::fprintf(to_, "%d %d\n", static_cast<int>(p), reps) < 0 ||
            std::fflush(to_) != 0 || std::fscanf(from_, "%lf", &s) != 1)
            throw std::runtime_error("probe helper: no answer");
        return s;
    }

  private:
    pid_t pid_ = -1;
    FILE *to_ = nullptr, *from_ = nullptr;
};

} // namespace

double
probe_s(Probe p, int reps)
{
    static ProbeHelper helper;
    return helper.ask(p, reps);
}

int
run_probe_server()
{
    int p = 0, reps = 0;
    while (std::cin >> p >> reps)
        std::cout << fmt(probe_here(static_cast<Probe>(p), reps), 9)
                  << std::endl;
    return 0;
}

double
probe_ref_s(Probe p)
{
    switch (p) {
    case Probe::Compute:
        return 0.0114;
    case Probe::Ipc:
        return 0.0055;
    case Probe::Pages:
        return 0.0091;
    }
    return 1.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

std::string
digest(const std::vector<std::string> &parts)
{
    uint64_t h = 1469598103934665603ull;
    for (const std::string &p : parts) {
        for (unsigned char c : p) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0xff; // part separator
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
self_peak_rss_mb()
{
    // VmHWM is this process image's own high-water mark. getrusage's
    // ru_maxrss is not: exec carries over the high-water mark of the
    // image it replaced, which for a spawned child is its parent's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
read_file(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
write_file(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    if (!os.good())
        throw std::runtime_error("cannot write " + path);
}

std::vector<Selection>
read_selections(const std::string &path)
{
    std::vector<Selection> out;
    std::istringstream is(read_file(path));
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        Selection s;
        std::istringstream ls(line);
        std::string index;
        if (!std::getline(ls, s.kind, '\t') ||
            !std::getline(ls, s.bench, '\t') ||
            !std::getline(ls, index, '\t') || !std::getline(ls, s.sexpr))
            throw std::runtime_error("malformed selection line: " + line);
        s.index = std::stoi(index);
        out.push_back(std::move(s));
    }
    return out;
}

void
write_selections(const std::string &path,
                 const std::vector<Selection> &sels)
{
    std::string text;
    for (const Selection &s : sels)
        text += s.kind + "\t" + s.bench + "\t" + std::to_string(s.index) +
                "\t" + s.sexpr + "\n";
    write_file(path, text);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace rakebench
