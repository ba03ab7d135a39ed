/**
 * @file
 * The three benchmark phases. Each runs in its own process (so peak
 * memory is per phase) and returns the report main() prints.
 *
 * `args.focus` is true when the phase is the workload's own: it then
 * fills the measuring window (args.seconds) with passes and, in a
 * traced run, records the per-layer spans. Otherwise it makes a fixed
 * amount of work so the run still reports every end-to-end metric.
 */
#ifndef RAKEBENCH_PHASES_H
#define RAKEBENCH_PHASES_H

#include "common.h"

namespace rakebench {

PhaseReport run_compile_phase(const PhaseArgs &args);
PhaseReport run_execute_phase(const PhaseArgs &args);
PhaseReport run_serve_phase(const PhaseArgs &args);

} // namespace rakebench

#endif // RAKEBENCH_PHASES_H
