/**
 * @file
 * The HVX port of the TargetISA interface.
 *
 * The sketch grammar, swizzle solver, interpreter, and cost model are
 * the originals this repo grew with — the backend only adapts them to
 * the type-erased interface, so lowering through it is bit-identical
 * to the pre-refactor HVX-only stack (same sketches in the same
 * order, same query counts, same selections).
 */
#ifndef RAKE_BACKEND_HVX_BACKEND_H
#define RAKE_BACKEND_HVX_BACKEND_H

#include <memory>

#include "backend/target_isa.h"
#include "hvx/cost.h"

namespace rake::backend {

/**
 * Fresh HVX backend for one lowering run. The backend keeps its own
 * copy of `target`, so a temporary is fine.
 */
std::unique_ptr<TargetISA> make_hvx_backend(const hvx::Target &target);

} // namespace rake::backend

#endif // RAKE_BACKEND_HVX_BACKEND_H
