/**
 * @file
 * Tile executor: runs generated HVX code (or the HIR reference) over
 * whole 2-D images, tile by tile, the way the Halide schedule in the
 * paper's Fig. 2 does (vectorized x, looped y).
 *
 * This is what makes the generated code *runnable* end to end: given
 * input images, it produces the output image a real deployment would,
 * and the included PSNR/equality helpers let examples and tests
 * confirm that both selectors compute the same picture.
 */
#ifndef RAKE_PIPELINE_EXECUTOR_H
#define RAKE_PIPELINE_EXECUTOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/value.h"
#include "hir/expr.h"
#include "hvx/instr.h"
#include "pipeline/dag.h"

namespace rake::jit {
class Program;
}

namespace rake::pipeline {

/** A whole 2-D image with typed pixels. */
struct Image {
    ScalarType elem = ScalarType::UInt8;
    int width = 0;
    int height = 0;
    std::vector<int64_t> pixels;

    Image() = default;
    Image(ScalarType e, int w, int h)
        : elem(e), width(w), height(h),
          pixels(static_cast<size_t>(w) * h, 0)
    {
    }

    int64_t &
    at(int x, int y)
    {
        return pixels[static_cast<size_t>(y) * width + x];
    }
    int64_t
    at(int x, int y) const
    {
        return pixels[static_cast<size_t>(y) * width + x];
    }

    /** Deterministic synthetic test image (smooth + texture). */
    static Image synthetic(ScalarType elem, int w, int h,
                           uint64_t seed = 1);
};

/**
 * Execute a compiled vector expression over an image set.
 *
 * The expression's loads refer to buffer ids; `inputs[id]` supplies
 * the image for each id. The expression is evaluated at every
 * (x, y) with x stepping by the vector lane count, writing its lanes
 * to the output image (which is sized like inputs[0]). Borders are
 * edge-clamped, as Halide's boundary condition would.
 */
Image run_tiles(const hvx::InstrPtr &code,
                const std::map<int, Image> &inputs,
                const std::map<std::string, int64_t> &scalars = {});

/** Same, interpreting the HIR reference expression directly. */
Image run_tiles_reference(const hir::ExprPtr &expr,
                          const std::map<int, Image> &inputs,
                          const std::map<std::string, int64_t> &scalars
                          = {});

/** Options for the native (jit) execution paths. */
struct JitRunOptions {
    /**
     * Cross-check every tile against the HVX interpreter and throw
     * UserError on the first divergence. On by default — this is the
     * correctness harness; timing paths turn it off.
     */
    bool validate = true;
};

/**
 * Execute a compiled vector expression natively: the program is
 * jit-compiled to host x86-64 once, then run per tile. Semantics are
 * identical to run_tiles (bit-for-bit; validated per tile when
 * opts.validate). Throws UserError on non-x86-64 hosts — gate with
 * jit::available().
 */
Image run_tiles_jit(const hvx::InstrPtr &code,
                    const std::map<int, Image> &inputs,
                    const std::map<std::string, int64_t> &scalars = {},
                    const JitRunOptions &opts = {});

/**
 * Same, over an already-compiled program (no validation): the timing
 * paths use this to keep one-time jit compilation out of the
 * steady-state measurement. The program is bound to the input images'
 * pixels in place, so a call copies no frame.
 */
Image run_tiles_jit_with(jit::Program &program,
                         const std::map<int, Image> &inputs,
                         const std::map<std::string, int64_t> &scalars
                         = {});

/**
 * Executable code for one DAG stage, backend-agnostic: the staged
 * executor only needs the stage's output type, which element type it
 * loads from each slot, and a per-tile evaluator. Both interpreters
 * (and the NEON backend's type-erased evaluator) fit this shape.
 */
struct StageCode {
    VecType out_type;
    std::map<int, ScalarType> load_elems; ///< slot -> element type read
    std::function<Value(const Env &)> eval;
};

/**
 * Execute a staged program over an image set, materializing each
 * intermediate buffer. Stages run in the DAG's topological order;
 * each stage's slots are bound per its StageInput table (externals
 * from `inputs`, intermediates from the producing stage's output),
 * and every stage boundary is validated — the produced image's
 * element type must match what the consumer loads, and all of a
 * stage's inputs must share one size — throwing UserError otherwise.
 * Returns the last declared stage's image (the pipeline output, by
 * the same convention as the flat path's final expression).
 */
Image run_dag_with(const PipelineDag &dag,
                   const std::vector<StageCode> &stages,
                   const std::map<int, Image> &inputs,
                   const std::map<std::string, int64_t> &scalars = {});

/** Staged execution of per-stage HVX programs (slot space). */
Image run_dag(const PipelineDag &dag,
              const std::vector<hvx::InstrPtr> &programs,
              const std::map<int, Image> &inputs,
              const std::map<std::string, int64_t> &scalars = {});

/**
 * Staged execution of jit-compiled per-stage programs. Each stage is
 * lowered to native code once, bound straight to its input images
 * (externals and intermediates alike; no frame is copied) and run per
 * tile. Stage boundaries are validated as in run_dag_with, and each
 * tile is additionally cross-checked against the interpreter when
 * opts.validate.
 */
Image run_dag_jit(const PipelineDag &dag,
                  const std::vector<hvx::InstrPtr> &programs,
                  const std::map<int, Image> &inputs,
                  const std::map<std::string, int64_t> &scalars = {},
                  const JitRunOptions &opts = {});

/** Staged execution composing the stages' HIR reference interpreters. */
Image run_dag_reference(const PipelineDag &dag,
                        const std::map<int, Image> &inputs,
                        const std::map<std::string, int64_t> &scalars
                        = {});

/**
 * Deterministic synthetic input images for every buffer `code` loads:
 * one w x h image per buffer id, of the element type the program
 * reads from it. The drivers' `--execute` phase uses this to run
 * selected code over whole images without external data.
 */
std::map<int, Image> synthetic_inputs_for(const hvx::InstrPtr &code,
                                          int w, int h,
                                          uint64_t seed = 1);

/** Count of pixels where the two images differ. */
int64_t count_mismatches(const Image &a, const Image &b);

/** Peak signal-to-noise ratio between two u8 images (dB; inf if equal). */
double psnr(const Image &a, const Image &b);

} // namespace rake::pipeline

#endif // RAKE_PIPELINE_EXECUTOR_H
