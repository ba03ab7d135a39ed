/**
 * @file
 * rake_bench: one phase of a Rake benchmark run.
 *
 *   rake_bench --phase compile|execute|serve --workdir DIR --seed N
 *              --seconds S --trace 0|1 [--focus 0|1]
 *              [--backends hvx,neon] [--server PATH]
 *   rake_bench --probe-server    (the host-speed probe helper; common.h)
 *
 * Prints human-readable progress, then one JSON report as the last
 * line of stdout. Exits 0 when the phase ran (correctness is in the
 * report), 2 on a usage error, 1 when the phase itself crashed.
 */
#include <exception>
#include <iostream>
#include <string>

#include "phases.h"

int
main(int argc, char **argv)
{
    using namespace rakebench;
    if (argc == 2 && std::string(argv[1]) == "--probe-server")
        return run_probe_server();
    PhaseArgs args;
    try {
        args = parse_phase_args(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "rake_bench: " << e.what() << "\n";
        return 2;
    }
    try {
        PhaseReport rep;
        if (args.phase == "compile")
            rep = run_compile_phase(args);
        else if (args.phase == "execute")
            rep = run_execute_phase(args);
        else if (args.phase == "serve")
            rep = run_serve_phase(args);
        else {
            std::cerr << "rake_bench: unknown phase " << args.phase << "\n";
            return 2;
        }
        std::cout << rep.to_json() << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "rake_bench: " << args.phase << " phase failed: "
                  << e.what() << "\n";
        return 1;
    }
}
