#include "pipeline/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "hir/analysis.h"
#include "hir/interp.h"
#include "hvx/interp.h"
#include "jit/jit.h"
#include "support/error.h"
#include "support/rng.h"

namespace rake::pipeline {

Image
Image::synthetic(ScalarType elem, int w, int h, uint64_t seed)
{
    Image img(elem, w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            // A smooth gradient plus deterministic texture noise.
            const int64_t smooth = (x * 5 + y * 3) % 200;
            const int64_t noise = rng.range(0, 55);
            img.at(x, y) = wrap(elem, smooth + noise);
        }
    }
    return img;
}

namespace {

/** Input images by buffer id, borrowed: no pixel is copied. */
using ImageRefs = std::map<int, const Image *>;

ImageRefs
refs_of(const std::map<int, Image> &inputs)
{
    ImageRefs refs;
    for (const auto &[id, img] : inputs)
        refs.emplace(id, &img);
    return refs;
}

/** Build an Env whose buffers hold copies of whole input images. */
Env
env_for(const ImageRefs &inputs,
        const std::map<std::string, int64_t> &scalars)
{
    Env env;
    for (const auto &[id, img] : inputs) {
        Buffer buf(img->elem, img->width, img->height, 0, 0);
        buf.data = img->pixels;
        env.buffers.emplace(id, std::move(buf));
    }
    for (const auto &[name, v] : scalars)
        env.scalars.emplace(name, v);
    return env;
}

/** Buffer id -> element type the code loads from it. */
using LoadElems = std::map<int, ScalarType>;

void
collect_load_elems(const hir::ExprPtr &e, LoadElems &out)
{
    if (!e)
        return;
    if (e->op() == hir::Op::Load)
        out.emplace(e->load_ref().buffer, e->type().elem);
    for (const hir::ExprPtr &a : e->args())
        collect_load_elems(a, out);
}

void
collect_load_elems(const hvx::InstrPtr &n, LoadElems &out,
                   std::set<const hvx::Instr *> &visited)
{
    if (!n || !visited.insert(n.get()).second)
        return;
    if (n->op() == hvx::Opcode::VRead)
        out.emplace(n->load_ref().buffer, n->type().elem);
    if (n->op() == hvx::Opcode::VSplat)
        collect_load_elems(n->splat_value(), out);
    for (const hvx::InstrPtr &a : n->args())
        collect_load_elems(a, out, visited);
}

/**
 * Every input shares the primary's (x, y) grid, so a size mismatch
 * would silently edge-clamp a secondary input instead of failing, and
 * an element-type mismatch would surface as an InternalError from deep
 * inside the interpreter. Reject both up front, per input, and require
 * the width to be a whole number of tiles. Returns the primary image.
 */
const Image &
validate_inputs(VecType out_type, const ImageRefs &inputs,
                const LoadElems &loads)
{
    RAKE_USER_CHECK(!inputs.empty(), "no input images");
    const auto &[primary_id, primary] = *inputs.begin();
    for (const auto &[id, img] : inputs) {
        RAKE_USER_CHECK(
            img->width == primary->width &&
                img->height == primary->height,
            "input " << id << " is " << img->width << "x" << img->height
                     << " but input " << primary_id << " is "
                     << primary->width << "x" << primary->height
                     << "; all inputs must share one size");
    }
    for (const auto &[buffer, elem] : loads) {
        auto it = inputs.find(buffer);
        RAKE_USER_CHECK(it != inputs.end(),
                        "the code loads from buffer "
                            << buffer
                            << " but no such input image was supplied");
        RAKE_USER_CHECK(it->second->elem == elem,
                        "input " << buffer << " holds "
                                 << to_string(it->second->elem)
                                 << " pixels but the code loads "
                                 << to_string(elem) << " from it");
    }
    RAKE_USER_CHECK(primary->width % out_type.lanes == 0,
                    "image width " << primary->width
                                   << " must be a multiple of the "
                                      "vector lane count "
                                   << out_type.lanes);
    return *primary;
}

/** The interpreters' tile loop: one Env walked across the image. */
template <typename EvalFn>
Image
run_impl(VecType out_type, const LoadElems &loads,
         const ImageRefs &inputs,
         const std::map<std::string, int64_t> &scalars, EvalFn &&eval)
{
    const Image &primary = validate_inputs(out_type, inputs, loads);
    Image out(out_type.elem, primary.width, primary.height);
    Env env = env_for(inputs, scalars);
    for (int y = 0; y < primary.height; ++y) {
        for (int x = 0; x < primary.width; x += out_type.lanes) {
            env.x = x;
            env.y = y;
            const Value &v = eval(env);
            for (int i = 0; i < out_type.lanes; ++i)
                out.at(x + i, y) = v[i];
        }
    }
    return out;
}

/**
 * The native tile loop. The program is bound straight to the images'
 * pixels and writes each tile into the output row. With `check` set,
 * every tile is also compared against the HVX interpreter (over an
 * Env copy of the inputs: the correctness harness, not the timing
 * path), and a divergence throws UserError prefixed by `where`.
 */
Image
run_jit(jit::Program &program, const ImageRefs &inputs,
        const std::map<std::string, int64_t> &scalars,
        const hvx::InstrPtr *check = nullptr,
        const std::string &where = "")
{
    const VecType out_type = program.out_type();
    const Image &primary =
        validate_inputs(out_type, inputs, program.load_elems());
    // Rebind on every pass, even when the program was bound by an
    // earlier call: the previous pass's images may be gone, and a
    // fresh image can reuse their address.
    std::map<int, jit::BufferView> views;
    for (const auto &[id, img] : inputs) {
        jit::BufferView &v = views[id];
        v.elem = img->elem;
        v.desc.data = img->pixels.data();
        v.desc.width = img->width;
        v.desc.height = img->height;
    }
    program.bind(views, scalars);

    Env env;
    hvx::Interpreter interp;
    if (check != nullptr)
        env = env_for(inputs, scalars);
    Image out(out_type.elem, primary.width, primary.height);
    for (int y = 0; y < primary.height; ++y) {
        for (int x = 0; x < primary.width; x += out_type.lanes) {
            int64_t *tile = &out.at(x, y);
            program.run_into(x, y, tile);
            if (check == nullptr)
                continue;
            env.x = x;
            env.y = y;
            interp.reset(env);
            const Value &ref = interp.eval(*check);
            if (ref.type == out_type &&
                std::equal(tile, tile + out_type.lanes, ref.lanes.begin()))
                continue;
            const Value got(out_type,
                            std::vector<int64_t>(tile,
                                                 tile + out_type.lanes));
            RAKE_USER_CHECK(false,
                            where << "jit/interpreter divergence at ("
                                  << x << ", " << y << "): jit "
                                  << to_string(got) << " vs interpreter "
                                  << to_string(ref));
        }
    }
    return out;
}

/**
 * Run a staged program: stages in the DAG's topological order, each
 * produced by `run_stage(idx, its inputs)` from borrowed images
 * (externals from `inputs`, intermediates from the producing stage's
 * output). `loads[idx]` is what stage idx reads from each slot; an
 * intermediate of another element type fails here, naming both
 * stages. Returns the last declared stage's image.
 */
template <typename RunStage>
Image
walk_dag(const PipelineDag &dag, const std::vector<const LoadElems *> &loads,
         const std::map<int, Image> &inputs, RunStage &&run_stage)
{
    RAKE_USER_CHECK(!dag.stages.empty(), "empty pipeline DAG");
    std::vector<Image> produced(dag.stages.size());
    std::vector<bool> have(dag.stages.size(), false);
    for (int idx : dag.topo) {
        const DagStage &stage = dag.stages[idx];
        ImageRefs stage_inputs;
        for (const StageInput &in : stage.inputs) {
            if (in.producer >= 0) {
                RAKE_CHECK(have[in.producer],
                           "stage executed before its producer");
                const Image &img = produced[in.producer];
                auto eit = loads[idx]->find(in.slot);
                if (eit != loads[idx]->end())
                    RAKE_USER_CHECK(
                        img.elem == eit->second,
                        "stage '" << stage.name << "' loads "
                                  << to_string(eit->second)
                                  << " from stage '"
                                  << dag.stages[in.producer].name
                                  << "' but it produced "
                                  << to_string(img.elem));
                stage_inputs.emplace(in.slot, &img);
            } else {
                auto iit = inputs.find(in.external);
                RAKE_USER_CHECK(iit != inputs.end(),
                                "pipeline input " << in.external
                                                  << " (stage '"
                                                  << stage.name
                                                  << "') was not "
                                                     "supplied");
                stage_inputs.emplace(in.slot, &iit->second);
            }
        }
        // Each stage's runner validates its inputs, so an intermediate
        // and an external image of different sizes fail here, per
        // stage.
        produced[idx] = run_stage(idx, stage_inputs);
        have[idx] = true;
    }
    return std::move(produced.back());
}

void
check_program_count(const PipelineDag &dag,
                    const std::vector<hvx::InstrPtr> &programs)
{
    RAKE_USER_CHECK(programs.size() == dag.stages.size(),
                    "pipeline '" << dag.name << "' has "
                                 << dag.stages.size() << " stages but "
                                 << programs.size()
                                 << " programs were supplied");
    for (size_t i = 0; i < programs.size(); ++i)
        RAKE_USER_CHECK(programs[i] != nullptr,
                        "null program for stage '"
                            << dag.stages[i].name << "'");
}

} // namespace

Image
run_tiles(const hvx::InstrPtr &code, const std::map<int, Image> &inputs,
          const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(code != nullptr, "null code");
    LoadElems loads;
    std::set<const hvx::Instr *> visited;
    collect_load_elems(code, loads, visited);
    // One interpreter context for the whole image: tile evaluation
    // reuses its value slots instead of reallocating per tile.
    hvx::Interpreter interp;
    return run_impl(code->type(), loads, refs_of(inputs), scalars,
                    [&](const Env &env) -> const Value & {
                        interp.reset(env);
                        return interp.eval(code);
                    });
}

Image
run_tiles_reference(const hir::ExprPtr &expr,
                    const std::map<int, Image> &inputs,
                    const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(expr != nullptr, "null expression");
    LoadElems loads;
    collect_load_elems(expr, loads);
    hir::Interpreter interp;
    return run_impl(expr->type(), loads, refs_of(inputs), scalars,
                    [&](const Env &env) -> const Value & {
                        interp.reset(env);
                        return interp.eval(expr);
                    });
}

Image
run_tiles_jit(const hvx::InstrPtr &code,
              const std::map<int, Image> &inputs,
              const std::map<std::string, int64_t> &scalars,
              const JitRunOptions &opts)
{
    RAKE_USER_CHECK(code != nullptr, "null code");
    std::unique_ptr<jit::Program> program = jit::Program::compile(code);
    return run_jit(*program, refs_of(inputs), scalars,
                   opts.validate ? &code : nullptr);
}

Image
run_tiles_jit_with(jit::Program &program,
                   const std::map<int, Image> &inputs,
                   const std::map<std::string, int64_t> &scalars)
{
    return run_jit(program, refs_of(inputs), scalars);
}

Image
run_dag_with(const PipelineDag &dag, const std::vector<StageCode> &stages,
             const std::map<int, Image> &inputs,
             const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(stages.size() == dag.stages.size(),
                    "pipeline '" << dag.name << "' has "
                                 << dag.stages.size() << " stages but "
                                 << stages.size()
                                 << " stage programs were supplied");
    std::vector<const LoadElems *> loads;
    for (size_t i = 0; i < stages.size(); ++i) {
        RAKE_USER_CHECK(stages[i].eval != nullptr,
                        "stage '" << dag.stages[i].name
                                  << "' has no evaluator");
        loads.push_back(&stages[i].load_elems);
    }
    return walk_dag(dag, loads, inputs,
                    [&](int idx, const ImageRefs &stage_inputs) {
                        const StageCode &code = stages[idx];
                        return run_impl(code.out_type, code.load_elems,
                                        stage_inputs, scalars, code.eval);
                    });
}

Image
run_dag(const PipelineDag &dag,
        const std::vector<hvx::InstrPtr> &programs,
        const std::map<int, Image> &inputs,
        const std::map<std::string, int64_t> &scalars)
{
    check_program_count(dag, programs);
    // One interpreter context per stage, alive for the whole run.
    std::vector<std::unique_ptr<hvx::Interpreter>> interps;
    std::vector<StageCode> codes;
    for (const hvx::InstrPtr &prog : programs) {
        StageCode code;
        code.out_type = prog->type();
        std::set<const hvx::Instr *> visited;
        collect_load_elems(prog, code.load_elems, visited);
        interps.push_back(std::make_unique<hvx::Interpreter>());
        hvx::Interpreter *interp = interps.back().get();
        code.eval = [interp, prog](const Env &env) {
            interp->reset(env);
            return interp->eval(prog);
        };
        codes.push_back(std::move(code));
    }
    return run_dag_with(dag, codes, inputs, scalars);
}

Image
run_dag_jit(const PipelineDag &dag,
            const std::vector<hvx::InstrPtr> &programs,
            const std::map<int, Image> &inputs,
            const std::map<std::string, int64_t> &scalars,
            const JitRunOptions &opts)
{
    check_program_count(dag, programs);
    std::vector<std::unique_ptr<jit::Program>> compiled;
    std::vector<const LoadElems *> loads;
    for (const hvx::InstrPtr &prog : programs) {
        compiled.push_back(jit::Program::compile(prog));
        loads.push_back(&compiled.back()->load_elems());
    }
    return walk_dag(
        dag, loads, inputs, [&](int idx, const ImageRefs &stage_inputs) {
            return run_jit(*compiled[idx], stage_inputs, scalars,
                           opts.validate ? &programs[idx] : nullptr,
                           "stage '" + dag.stages[idx].name + "': ");
        });
}

Image
run_dag_reference(const PipelineDag &dag,
                  const std::map<int, Image> &inputs,
                  const std::map<std::string, int64_t> &scalars)
{
    std::vector<std::unique_ptr<hir::Interpreter>> interps;
    std::vector<StageCode> codes;
    for (const DagStage &stage : dag.stages) {
        StageCode code;
        code.out_type = stage.expr->type();
        collect_load_elems(stage.expr, code.load_elems);
        interps.push_back(std::make_unique<hir::Interpreter>());
        hir::Interpreter *interp = interps.back().get();
        code.eval = [interp, expr = stage.expr](const Env &env) {
            interp->reset(env);
            return interp->eval(expr);
        };
        codes.push_back(std::move(code));
    }
    return run_dag_with(dag, codes, inputs, scalars);
}

std::map<int, Image>
synthetic_inputs_for(const hvx::InstrPtr &code, int w, int h,
                     uint64_t seed)
{
    LoadElems loads;
    std::set<const hvx::Instr *> visited;
    collect_load_elems(code, loads, visited);
    std::map<int, Image> inputs;
    for (const auto &[id, elem] : loads)
        inputs.emplace(id,
                       Image::synthetic(elem, w, h,
                                        seed +
                                            static_cast<uint64_t>(id)));
    return inputs;
}

int64_t
count_mismatches(const Image &a, const Image &b)
{
    RAKE_USER_CHECK(a.width == b.width && a.height == b.height,
                    "image sizes differ");
    int64_t n = 0;
    for (size_t i = 0; i < a.pixels.size(); ++i)
        n += a.pixels[i] != b.pixels[i];
    return n;
}

double
psnr(const Image &a, const Image &b)
{
    RAKE_USER_CHECK(a.width == b.width && a.height == b.height,
                    "image sizes differ");
    double mse = 0.0;
    for (size_t i = 0; i < a.pixels.size(); ++i) {
        const double d =
            static_cast<double>(a.pixels[i] - b.pixels[i]);
        mse += d * d;
    }
    mse /= static_cast<double>(a.pixels.size());
    if (mse == 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(255.0 * 255.0 / mse);
}

} // namespace rake::pipeline
