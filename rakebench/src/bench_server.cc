/**
 * @file
 * rake_bench_serve: the compile server (serve::Server) as the serve
 * phase runs it.
 *
 *   rake_bench_serve --socket PATH --jobs N --cache-dir DIR --rules FILE
 *
 * The same Server, SelectService and tier stack as tools/rake_serve,
 * with one difference: the backend registry. The default registry
 * (serve/backends.cc) hands each backend a temporary machine model,
 * and the backends keep a reference to it, so every query reads a
 * dead object. This registry gives the backends models that live as
 * long as the process. Until that is fixed in serve/backends.cc the
 * benchmark measures the server through this registry; NOTES.md has
 * the details.
 *
 * Exits 0 after SIGTERM once the server has drained, printing its peak
 * resident set as `peak_rss_mb N` for the serve phase to read.
 */
#include <atomic>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "backend/hvx_backend.h"
#include "common.h"
#include "backend/neon_backend.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_stop{false};

void
on_signal(int)
{
    g_stop.store(true);
}

const rake::hvx::Target kHvxTarget{};
const rake::neon::Target kNeonTarget{};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rake;
    serve::ServeOptions opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--socket")
            opts.socket_path = value;
        else if (flag == "--jobs")
            opts.jobs = std::stoi(value);
        else if (flag == "--cache-dir")
            opts.rake.cache_dir = value;
        else if (flag == "--rules")
            opts.rake.rules_file = value;
        else {
            std::cerr << "rake_bench_serve: unknown flag " << flag << "\n";
            return 2;
        }
    }
    opts.backends["hvx"] = [] {
        return backend::make_hvx_backend(kHvxTarget);
    };
    opts.backends["neon"] = [] {
        return backend::make_neon_backend(kNeonTarget);
    };

    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);

    try {
        serve::Server server(opts);
        while (!g_stop.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const bool clean = server.stop();
        std::cout << "peak_rss_mb "
                  << rakebench::fmt(rakebench::self_peak_rss_mb(), 4)
                  << std::endl;
        return clean ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "rake_bench_serve: " << e.what() << "\n";
        return 2;
    }
}
