/**
 * @file
 * Tests for the native x86-64 JIT execution tier: per-opcode
 * differential checks against the HVX interpreter, whole-image
 * execution over every flat benchmark and the fused DAG suite, SIMD
 * tier coverage via the RAKE_JIT_SIMD knob, and failure-mode gating.
 *
 * Everything is gated on jit::available(): on non-x86-64 hosts the
 * suite skips (and one test pins that compile() refuses cleanly).
 */
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/halide_optimizer.h"
#include "hir/analysis.h"
#include "hir/builder.h"
#include "hvx/interp.h"
#include "jit/encoder.h"
#include "jit/exec_buffer.h"
#include "jit/jit.h"
#include "pipeline/benchmarks.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"
#include "support/rng.h"
#include "synth/rake.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::pipeline;
using hvx::InstrPtr;
using hvx::Opcode;

constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType i8 = ScalarType::Int8;
constexpr ScalarType u16 = ScalarType::UInt16;
constexpr ScalarType i16 = ScalarType::Int16;
constexpr ScalarType i32 = ScalarType::Int32;
constexpr ScalarType u32 = ScalarType::UInt32;

#define SKIP_IF_NO_JIT()                                                   \
    do {                                                                   \
        if (!jit::available())                                             \
            GTEST_SKIP() << "jit unavailable on this host";                \
    } while (0)

/** Set (or clear, with nullptr) an env var for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::string old_;
    bool had_ = false;
};

InstrPtr
vread(int buf, ScalarType t, int lanes, int dx = 0, int dy = 0)
{
    return hvx::Instr::make_read(hir::LoadRef{buf, dx, dy},
                                 VecType(t, lanes));
}

void
collect_hvx_loads(const hir::ExprPtr &e, std::map<int, ScalarType> &out)
{
    if (!e)
        return;
    if (e->op() == hir::Op::Load)
        out.emplace(e->load_ref().buffer, e->type().elem);
    for (const hir::ExprPtr &a : e->args())
        collect_hvx_loads(a, out);
}

void
collect_hvx_loads(const InstrPtr &n, std::map<int, ScalarType> &out,
                  std::set<const hvx::Instr *> &seen)
{
    if (!n || !seen.insert(n.get()).second)
        return;
    if (n->op() == Opcode::VRead)
        out.emplace(n->load_ref().buffer, n->type().elem);
    if (n->op() == Opcode::VSplat)
        collect_hvx_loads(n->splat_value(), out);
    for (const InstrPtr &a : n->args())
        collect_hvx_loads(a, out, seen);
}

/** Full-range random image (negative lanes too, unlike synthetic). */
Image
random_image(ScalarType elem, int w, int h, uint64_t seed)
{
    Image img(elem, w, h);
    Rng rng(seed);
    for (int64_t &p : img.pixels)
        p = wrap(elem, static_cast<int64_t>(rng.next()));
    return img;
}

/**
 * Run `prog` over random full-range images via the interpreter and
 * via the JIT (per-tile validation armed) and require bit-identical
 * output images.
 */
void
expect_jit_matches_interp(const InstrPtr &prog,
                          const std::map<std::string, int64_t> &scalars
                          = {},
                          uint64_t seed = 11, int width = 16)
{
    std::map<int, ScalarType> loads;
    std::set<const hvx::Instr *> seen;
    collect_hvx_loads(prog, loads, seen);
    std::map<int, Image> inputs;
    for (const auto &[id, elem] : loads)
        inputs.emplace(id, random_image(elem, width, 3, seed + id));
    const Image want = run_tiles(prog, inputs, scalars);
    const Image got = run_tiles_jit(prog, inputs, scalars);
    EXPECT_EQ(count_mismatches(want, got), 0);
}

TEST(Jit, AvailabilityAndSimdLevel)
{
    SKIP_IF_NO_JIT();
#if defined(__x86_64__)
    EXPECT_TRUE(jit::available());
#endif
    // SSE2 is architectural on x86-64: the resolved tier can never be
    // below it unless explicitly forced.
    ScopedEnv clear("RAKE_JIT_SIMD", nullptr);
    EXPECT_NE(jit::simd_level(), jit::SimdLevel::Scalar);
    EXPECT_FALSE(to_string(jit::simd_level()).empty());
    ScopedEnv force("RAKE_JIT_SIMD", "scalar");
    EXPECT_EQ(jit::simd_level(), jit::SimdLevel::Scalar);
}

TEST(Jit, RejectsBadSimdKnob)
{
    SKIP_IF_NO_JIT();
    ScopedEnv force("RAKE_JIT_SIMD", "sse9");
    EXPECT_THROW(jit::simd_level(), UserError);
    InstrPtr prog = vread(0, u8, 8);
    EXPECT_THROW(jit::Program::compile(prog), UserError);
}

TEST(Jit, RejectsSketchHoles)
{
    SKIP_IF_NO_JIT();
    InstrPtr hole = hvx::Instr::make_hole(0, VecType(u8, 8));
    EXPECT_THROW(jit::Program::compile(hole), UserError);
    EXPECT_THROW(jit::Program::compile(nullptr), UserError);
}

TEST(Jit, CompileProducesCodeAndRunsAfterBind)
{
    SKIP_IF_NO_JIT();
    InstrPtr prog =
        hvx::Instr::make(Opcode::VAdd,
                         {vread(0, u8, 8), vread(0, u8, 8, 1)});
    auto compiled = jit::Program::compile(prog);
    EXPECT_GT(compiled->code_size(), 0u);
    EXPECT_EQ(compiled->out_type(), prog->type());
    ASSERT_EQ(compiled->load_elems().size(), 1u);
    EXPECT_EQ(compiled->load_elems().at(0), u8);

    Env env;
    env.buffers.emplace(0, Buffer(u8, 16, 2));
    compiled->bind(env);
    const Value &v = compiled->run(0, 0);
    EXPECT_EQ(v.type, prog->type());
}

TEST(Jit, RepeatedWholeImagePassesRebindCleanly)
{
    // The regression this pins: run_tiles_jit_with used pointer
    // identity to skip rebinding, and the per-pass Env is a stack
    // local — the second pass's Env reused the first one's address,
    // the rebind was skipped, and the program ran over the dead
    // pass's freed buffer descriptors (a segfault in the benchmark
    // drivers' best-of-3 timing loop). Every pass must rebind and
    // see its own buffers.
    SKIP_IF_NO_JIT();
    InstrPtr prog =
        hvx::Instr::make(Opcode::VAdd,
                         {vread(0, u8, 8), vread(0, u8, 8, 1)});
    auto compiled = jit::Program::compile(prog);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const std::map<int, Image> inputs =
            synthetic_inputs_for(prog, 64, 8, seed);
        const Image native = run_tiles_jit_with(*compiled, inputs);
        const Image expected = run_tiles(prog, inputs);
        EXPECT_EQ(count_mismatches(expected, native), 0)
            << "pass with seed " << seed;
    }
}

TEST(Jit, BindRejectsMistypedBuffer)
{
    SKIP_IF_NO_JIT();
    auto compiled = jit::Program::compile(vread(0, u8, 8));
    Env env;
    env.buffers.emplace(0, Buffer(u16, 16, 2)); // wrong element type
    EXPECT_THROW(compiled->bind(env), UserError);
}

/**
 * One program per opcode family, labelled, over `lanes`-lane operands
 * (even; a few cases read half or twice as many).
 */
std::vector<std::pair<std::string, InstrPtr>>
opcode_cases(int lanes = 8)
{
    using hvx::Instr;
    const int n = lanes;
    const InstrPtr a8 = vread(0, u8, n);
    const InstrPtr b8 = vread(1, u8, n, 1);
    const InstrPtr a8s = vread(0, i8, n);
    const InstrPtr b8s = vread(1, i8, n, -1);
    const InstrPtr a16 = vread(0, u16, n);
    const InstrPtr b16 = vread(1, u16, n, 2, 1);
    const InstrPtr a16s = vread(0, i16, n);
    const InstrPtr b16s = vread(1, i16, n, -2, -1);
    const InstrPtr a32s = vread(0, i32, n / 2);

    std::vector<std::pair<std::string, InstrPtr>> cases;
    auto add = [&](const std::string &label, InstrPtr p) {
        cases.emplace_back(label, std::move(p));
    };

    add("vread-offsets", vread(0, u8, n, -3, 2));
    add("bitcast-narrow", Instr::make(Opcode::VBitcast, {a16}, {}, u8));
    add("bitcast-narrow-signed",
        Instr::make(Opcode::VBitcast, {a16s}, {}, i8));
    add("bitcast-widen",
        Instr::make(Opcode::VBitcast, {vread(0, u8, 2 * n)}, {}, u16));
    add("bitcast-reinterpret",
        Instr::make(Opcode::VBitcast, {a16s}, {}, u16));
    const InstrPtr pair = Instr::make(Opcode::VCombine, {a8, b8});
    add("combine", pair);
    add("lo", Instr::make(Opcode::VLo, {pair}));
    add("hi", Instr::make(Opcode::VHi, {pair}));
    add("align", Instr::make(Opcode::VAlign, {a8, b8}, {std::min(3, n)}));
    add("ror", Instr::make(Opcode::VRor, {a8}, {std::min(5, n - 1)}));
    add("shuff-vdd", Instr::make(Opcode::VShuffVdd, {pair}));
    add("deal-vdd", Instr::make(Opcode::VDealVdd, {pair}));
    const InstrPtr pred = Instr::make(Opcode::VCmpGt, {a8s, b8s});
    add("cmp-gt", pred);
    add("cmp-eq", Instr::make(Opcode::VCmpEq, {a8, b8}));
    add("mux", Instr::make(Opcode::VMux, {pred, a8s, b8s}));
    add("pack-e", Instr::make(Opcode::VPackE, {a16, b16}));
    add("pack-o", Instr::make(Opcode::VPackO, {a16s, b16s}));
    add("sat", Instr::make(Opcode::VSat, {a16s, b16s}, {}, i8));
    add("pack-sat", Instr::make(Opcode::VPackSat, {a16s, b16s}, {}, u8));
    add("zxt", Instr::make(Opcode::VZxt, {a8}));
    add("sxt", Instr::make(Opcode::VSxt, {a8s}));
    add("add", Instr::make(Opcode::VAdd, {a16, b16}));
    add("add-signed", Instr::make(Opcode::VAdd, {a16s, b16s}));
    add("add-sat", Instr::make(Opcode::VAddSat, {a16s, b16s}));
    add("sub", Instr::make(Opcode::VSub, {a8, b8}));
    add("sub-sat", Instr::make(Opcode::VSubSat, {a8, b8}));
    add("avg", Instr::make(Opcode::VAvg, {a16s, b16s}));
    add("avg-rnd", Instr::make(Opcode::VAvgRnd, {a8, b8}));
    add("navg", Instr::make(Opcode::VNavg, {a16s, b16s}));
    add("abs-diff", Instr::make(Opcode::VAbsDiff, {a16s, b16s}));
    add("max", Instr::make(Opcode::VMax, {a16s, b16s}));
    add("min", Instr::make(Opcode::VMin, {a8, b8}));
    add("and", Instr::make(Opcode::VAnd, {a16s, b16s}));
    add("or", Instr::make(Opcode::VOr, {a16, b16}));
    add("xor", Instr::make(Opcode::VXor, {a16s, b16s}));
    add("not", Instr::make(Opcode::VNot, {a16s}));
    add("asl", Instr::make(Opcode::VAsl, {a16s}, {3}));
    add("asr", Instr::make(Opcode::VAsr, {a16s}, {3}));
    add("asr-rnd", Instr::make(Opcode::VAsrRnd, {a16s}, {4}));
    add("asr-zero", Instr::make(Opcode::VAsr, {a16s}, {0}));
    add("lsr", Instr::make(Opcode::VLsr, {a16s}, {5}));
    add("asr-narrow", Instr::make(Opcode::VAsrNarrow, {a16s, b16s}, {3}));
    add("asr-narrow-sat",
        Instr::make(Opcode::VAsrNarrowSat, {a16s, b16s}, {2}, i8));
    add("asr-narrow-rnd-sat",
        Instr::make(Opcode::VAsrNarrowRndSat, {a16s, b16s}, {2}, u8));
    add("round-sat", Instr::make(Opcode::VRoundSat, {a16s, b16s}, {}, i8));
    const InstrPtr mpy = Instr::make(Opcode::VMpy, {a8, b8});
    add("mpy", mpy);
    add("mpy-signed", Instr::make(Opcode::VMpy, {a8s, b8s}));
    add("mpy-acc", Instr::make(Opcode::VMpyAcc, {vread(2, u16, n), a8, b8}));
    add("mpyi", Instr::make(Opcode::VMpyi, {a16s, b16s}));
    add("mpyi-acc", Instr::make(Opcode::VMpyiAcc, {a16s, a16s, b16s}));
    add("mpa", Instr::make(Opcode::VMpa, {a8, b8}, {3, -2}));
    add("mpa-acc",
        Instr::make(Opcode::VMpaAcc, {vread(2, i16, n), a8, b8},
                    {3, -2}));
    add("dmpy", Instr::make(Opcode::VDmpy, {a8, b8}, {2, -3}));
    add("dmpy-acc",
        Instr::make(Opcode::VDmpyAcc, {vread(2, i16, n), a8, b8},
                    {2, -3}));
    add("tmpy", Instr::make(Opcode::VTmpy, {a8, b8}, {2, -1}));
    add("tmpy-acc",
        Instr::make(Opcode::VTmpyAcc, {vread(2, i16, n), a8, b8},
                    {2, -1}));
    // The second half of the window lives apart from the first in the
    // arena (its slots follow its own operands'), so a chunk whose taps
    // cross from a8 into it cannot be one load.
    const InstrPtr apart =
        Instr::make(Opcode::VAdd, {b8, vread(2, u8, n, 3)});
    add("dmpy-seam", Instr::make(Opcode::VDmpy, {a8, apart}, {-5, 7}));
    add("tmpy-seam", Instr::make(Opcode::VTmpy, {a8, apart}, {3, -4}));
    add("tmpy-acc-seam",
        Instr::make(Opcode::VTmpyAcc, {vread(3, i16, n), a8, apart},
                    {-2, 6}));
    if (n >= 4) { // vrmpy's window reaches lane deint(i) + 3 of the pair
        add("rmpy", Instr::make(Opcode::VRmpy, {a8, b8}, {1, -2, 3, -4}));
        add("rmpy-acc",
            Instr::make(Opcode::VRmpyAcc, {vread(2, i32, n), a8, b8},
                        {1, -2, 3, -4}));
    }
    add("dot-rmpy", Instr::make(Opcode::VDotRmpy,
                                {vread(0, u8, 2 * n), vread(1, u8, 2 * n)}));
    add("dot-rmpy-signed",
        Instr::make(Opcode::VDotRmpy,
                    {vread(0, i8, 2 * n), vread(1, i8, 2 * n)}));
    add("dot-rmpy-acc",
        Instr::make(Opcode::VDotRmpyAcc,
                    {vread(2, i32, n / 2), vread(0, i8, 2 * n),
                     vread(1, i8, 2 * n)}));
    add("mpy-ie",
        Instr::make(Opcode::VMpyIE, {a32s, vread(1, u16, n)}));
    add("mpy-io",
        Instr::make(Opcode::VMpyIO, {a32s, vread(1, i16, n)}));
    // A shared-subtree DAG: the jit must evaluate `mpy` once.
    add("shared-subtree",
        Instr::make(Opcode::VAdd,
                    {Instr::make(Opcode::VLo, {mpy}),
                     Instr::make(Opcode::VHi, {mpy})}));

    return cases;
}

/** Every packed tier this CPU can run, "scalar" first. */
std::vector<const char *>
simd_tiers()
{
    std::vector<const char *> tiers = {"scalar", "sse2"};
    ScopedEnv clear("RAKE_JIT_SIMD", nullptr);
    if (jit::simd_level() == jit::SimdLevel::Avx2)
        tiers.push_back("avx2");
    return tiers;
}

// One differential check per opcode family, over full-range random
// images (negative values, saturation boundaries, wrap-around). The
// emitted code must match the interpreter bit for bit.
TEST(Jit, EveryOpcodeMatchesInterpreter)
{
    SKIP_IF_NO_JIT();
    for (const auto &[label, prog] : opcode_cases()) {
        SCOPED_TRACE(label);
        for (uint64_t seed : {11u, 77u})
            expect_jit_matches_interp(prog, {}, seed);
    }
}

// The same cases on frames wide enough that most tiles lie wholly
// inside the row (the loads' packed interior path) while the first
// and last tiles clamp at either edge (the loads' edge loop), at every
// SIMD tier, plus each element type read at every dx in [-3, 3].
TEST(Jit, EveryOpcodeMatchesInterpreterOnWideFramesAtEveryTier)
{
    SKIP_IF_NO_JIT();
    std::vector<std::pair<std::string, InstrPtr>> cases = opcode_cases();
    for (ScalarType t : {u8, i8, u16, i16, i32, u32})
        for (int dx = -3; dx <= 3; ++dx)
            cases.emplace_back(to_string(t) + " dx " + std::to_string(dx),
                               hvx::Instr::make(
                                   Opcode::VAdd,
                                   {vread(0, t, 8, dx), vread(1, t, 8, -dx, 1)}));
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        for (const auto &[label, prog] : cases) {
            SCOPED_TRACE(label);
            expect_jit_matches_interp(prog, {}, 23, /*width=*/64);
        }
    }
}

// The opcode cases at the suite's widths (64 and 128 lanes: many
// chunks, so a chunk offset taken from the wrong half shows) and at
// lane counts below two AVX2 chunks (2 and 6: chunks fall back to
// scalar lanes or leave a scalar tail), at every SIMD tier.
TEST(Jit, EveryOpcodeMatchesInterpreterAtEveryLaneCountAndTier)
{
    SKIP_IF_NO_JIT();
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        for (int lanes : {2, 6, 64, 128}) {
            SCOPED_TRACE(std::to_string(lanes) + " lanes");
            for (const auto &[label, prog] : opcode_cases(lanes)) {
                SCOPED_TRACE(label);
                expect_jit_matches_interp(prog, {}, 29, 4 * lanes);
            }
        }
    }
}

TEST(Jit, SplatsRebindPerEnvironment)
{
    SKIP_IF_NO_JIT();
    using namespace rake::hir;
    InstrPtr splat =
        hvx::Instr::make_splat((var("bias", i16) * 2).ptr(), 8);
    InstrPtr prog = hvx::Instr::make(
        Opcode::VAdd, {vread(0, i16, 8), splat});
    expect_jit_matches_interp(prog, {{"bias", 100}});
    expect_jit_matches_interp(prog, {{"bias", -3000}});
    // Same compiled program across two binds (run_tiles_jit compiles
    // fresh, so exercise the rebind path directly).
    auto compiled = jit::Program::compile(prog);
    Env env1, env2;
    Buffer buf(i16, 8, 1);
    for (int i = 0; i < 8; ++i)
        buf.data[i] = i;
    env1.buffers.emplace(0, buf);
    env1.scalars.emplace("bias", int64_t{10});
    env2.buffers.emplace(0, buf);
    env2.scalars.emplace("bias", int64_t{20});
    compiled->bind(env1);
    const int64_t lane0_env1 = compiled->run(0, 0)[0];
    compiled->bind(env2);
    const int64_t lane0_env2 = compiled->run(0, 0)[0];
    EXPECT_EQ(lane0_env1, 0 + 20);
    EXPECT_EQ(lane0_env2, 0 + 40);
}

TEST(Jit, RejectsSplatThatLoadsFromABuffer)
{
    SKIP_IF_NO_JIT();
    // bind() evaluates splats once per image, from the scalars alone,
    // so a splat of a pixel would freeze one tile's value everywhere.
    // No benchmark or fuzz program broadcasts anything but a variable
    // or a constant; hand-written HIR can, and the interpreter runs it.
    hir::LoadRef ref;
    ref.buffer = 0;
    InstrPtr splat = hvx::Instr::make_splat(
        hir::Expr::make_load(ref, VecType(i16, 1)), 8);
    InstrPtr prog =
        hvx::Instr::make(Opcode::VAdd, {vread(0, i16, 8), splat});
    EXPECT_THROW(jit::Program::compile(prog), UserError);

    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(i16, 16, 2, 7));
    EXPECT_THROW(run_tiles_jit(prog, inputs), UserError);
    EXPECT_NO_THROW(run_tiles(prog, inputs));
}

TEST(Jit, AllSimdTiersAgree)
{
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    // Ops with a packed fast path, at widths that leave a scalar tail.
    std::vector<InstrPtr> progs = {
        Instr::make(Opcode::VAdd, {vread(0, i16, 6), vread(1, i16, 6)}),
        Instr::make(Opcode::VSub, {vread(0, u8, 6), vread(1, u8, 6)}),
        Instr::make(Opcode::VXor, {vread(0, i32, 6), vread(1, i32, 6)}),
        Instr::make(Opcode::VNot, {vread(0, i16, 6)}),
        Instr::make(Opcode::VAnd, {vread(0, u16, 6), vread(1, u16, 6)}),
        Instr::make(Opcode::VOr, {vread(0, u16, 6), vread(1, u16, 6)}),
    };
    const std::vector<const char *> tiers = simd_tiers();
    for (const InstrPtr &prog : progs) {
        std::map<int, ScalarType> loads;
        std::set<const hvx::Instr *> seen;
        collect_hvx_loads(prog, loads, seen);
        std::map<int, Image> inputs;
        for (const auto &[id, elem] : loads)
            inputs.emplace(id, random_image(elem, 12, 3, 5 + id));
        const Image want = run_tiles(prog, inputs);
        for (const char *tier : tiers) {
            SCOPED_TRACE(tier);
            ScopedEnv force("RAKE_JIT_SIMD", tier);
            auto compiled = jit::Program::compile(prog);
            EXPECT_EQ(to_string(compiled->simd()), tier);
            const Image got = run_tiles_jit(prog, inputs);
            EXPECT_EQ(count_mismatches(want, got), 0);
        }
    }
}

TEST(Jit, RandomBaselineProgramsMatchInterpreter)
{
    SKIP_IF_NO_JIT();
    hvx::Target target;
    int checked = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        test::ExprGen gen(seed, 16);
        hir::ExprPtr e = gen.gen(4);
        InstrPtr code = baseline::select_instructions(e, target);
        ASSERT_NE(code, nullptr);
        std::map<int, ScalarType> loads;
        collect_hvx_loads(e, loads);
        std::map<int, Image> inputs;
        for (const auto &[id, elem] : loads)
            inputs.emplace(id, random_image(elem, 32, 3, seed * 7 + id));
        if (inputs.empty())
            continue; // constant expression; no image grid to run on
        std::map<std::string, int64_t> scalars;
        for (const std::string &v : hir::collect_vars(e))
            scalars.emplace(v, static_cast<int64_t>(seed) * 3 - 5);
        const Image want = run_tiles(code, inputs, scalars);
        const Image got = run_tiles_jit(code, inputs, scalars);
        EXPECT_EQ(count_mismatches(want, got), 0) << "seed " << seed;
        ++checked;
    }
    EXPECT_GT(checked, 20);
}

TEST(Jit, EveryFlatBenchmarkMatchesInterpreter)
{
    SKIP_IF_NO_JIT();
    hvx::Target target;
    for (const Benchmark &b : benchmark_suite()) {
        SCOPED_TRACE(b.name);
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(k.name);
            InstrPtr code = baseline::select_instructions(k.expr, target);
            ASSERT_NE(code, nullptr);
            std::map<int, ScalarType> loads;
            collect_hvx_loads(k.expr, loads);
            const int lanes = code->type().lanes;
            std::map<int, Image> inputs;
            uint64_t seed = 31;
            for (const auto &[id, elem] : loads)
                inputs.emplace(id,
                               random_image(elem, lanes * 2, 3, seed++));
            std::map<std::string, int64_t> scalars;
            for (const std::string &v : hir::collect_vars(k.expr))
                scalars.emplace(v, 5);
            const Image want = run_tiles(code, inputs, scalars);
            const Image got = run_tiles_jit(code, inputs, scalars);
            EXPECT_EQ(count_mismatches(want, got), 0);
        }
    }
}

TEST(Jit, RakeSelectedProgramMatchesInterpreter)
{
    SKIP_IF_NO_JIT();
    hir::ExprPtr sobel = sobel_expr();
    auto rk = synth::select_instructions(sobel);
    ASSERT_TRUE(rk.has_value());
    std::map<int, ScalarType> loads;
    collect_hvx_loads(sobel, loads);
    std::map<int, Image> inputs;
    for (const auto &[id, elem] : loads)
        inputs.emplace(id, Image::synthetic(elem, 256, 8, 21));
    const Image want = run_tiles(rk->instr, inputs);
    const Image got = run_tiles_jit(rk->instr, inputs);
    EXPECT_EQ(count_mismatches(want, got), 0);
}

TEST(Jit, FusedDagSuiteMatchesReference)
{
    SKIP_IF_NO_JIT();
    hvx::Target target;
    for (const Benchmark &b : fused_suite()) {
        SCOPED_TRACE(b.name);
        const PipelineDag dag = from_benchmark(b);
        std::vector<InstrPtr> programs;
        int lanes = 1;
        for (const DagStage &s : dag.stages) {
            programs.push_back(
                baseline::select_instructions(s.expr, target));
            ASSERT_NE(programs.back(), nullptr) << s.name;
            lanes = std::max(lanes, s.expr->type().lanes);
        }
        std::map<std::string, int64_t> scalars;
        std::map<int, Image> inputs;
        uint64_t seed = 7;
        for (const DagStage &s : dag.stages) {
            for (const std::string &v : hir::collect_vars(s.expr))
                scalars.emplace(v, 5);
            std::map<int, ScalarType> loads;
            collect_hvx_loads(s.expr, loads);
            for (const StageInput &in : s.inputs) {
                if (in.external < 0 || inputs.count(in.external))
                    continue;
                inputs.emplace(in.external,
                               Image::synthetic(loads.at(in.slot),
                                                lanes, 4, seed++));
            }
        }
        const Image expected = run_dag(dag, programs, inputs, scalars);
        const Image actual = run_dag_jit(dag, programs, inputs, scalars);
        EXPECT_EQ(count_mismatches(expected, actual), 0);
        // The unvalidated (timing) path computes the same pixels.
        JitRunOptions fast;
        fast.validate = false;
        const Image timed =
            run_dag_jit(dag, programs, inputs, scalars, fast);
        EXPECT_EQ(count_mismatches(expected, timed), 0);
    }
}

/**
 * Run `prog` through Program::bind(Env) at every tile origin of a
 * `w` x `h` grid stepped by its lane count, offset by the buffers'
 * own origins, and compare each tile with the HVX interpreter, at
 * every SIMD tier.
 */
void
expect_tiles_match_interp(const InstrPtr &prog, const Env &env, int x0,
                          int y0, int w, int h)
{
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        auto compiled = jit::Program::compile(prog);
        compiled->bind(env);
        hvx::Interpreter interp;
        Env at = env;
        for (int y = y0 - 1; y <= y0 + h; ++y) {
            for (int x = x0 - prog->type().lanes; x <= x0 + w;
                 x += prog->type().lanes) {
                at.x = x;
                at.y = y;
                interp.reset(at);
                ASSERT_EQ(compiled->run(x, y), interp.eval(prog))
                    << "tile (" << x << ", " << y << ")";
            }
        }
    }
}

TEST(Jit, BufferOriginsMatchInterpreter)
{
    // Buffers whose data[0] is not at (0, 0): the interior test and
    // both clamps must work in buffer coordinates, x - x0 and y - y0.
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    constexpr int x0 = 37, y0 = -5, w = 64, h = 4;
    Env env;
    for (int id : {0, 1}) {
        const ScalarType t = id == 0 ? u8 : u16;
        Buffer buf(t, w, h, x0, y0);
        const Image img = random_image(t, w, h, 41 + id);
        buf.data = img.pixels;
        env.buffers.emplace(id, std::move(buf));
    }
    const InstrPtr prog = Instr::make(
        Opcode::VAdd,
        {Instr::make(Opcode::VZxt, {vread(0, u8, 16, -3, 1)}),
         Instr::make(Opcode::VCombine,
                     {vread(1, u16, 8, 2), vread(1, u16, 8, -1, -1)})});
    ASSERT_EQ(prog->type(), VecType(u16, 16));
    expect_tiles_match_interp(prog, env, x0, y0, w, h);
}

TEST(Jit, OutOfRangeStoredValuesWrapLikeInterpreter)
{
    // Buffer lanes hold raw int64 carriers; a value outside the
    // element's range must wrap on load exactly as the interpreter
    // wraps it, on the packed interior path as on the edge loop.
    SKIP_IF_NO_JIT();
    Env env;
    int id = 0;
    std::vector<InstrPtr> reads;
    for (ScalarType t : {u8, i8, u16, i16, u32, i32}) {
        Buffer buf(t, 48, 2);
        Rng rng(static_cast<uint64_t>(id) + 5);
        for (int64_t &v : buf.data)
            v = static_cast<int64_t>(rng.next()) >> rng.range(0, 40);
        env.buffers.emplace(id, std::move(buf));
        reads.push_back(vread(id, t, 8, id % 3 - 1));
        ++id;
    }
    for (const InstrPtr &read : reads) {
        SCOPED_TRACE(to_string(read->type()));
        expect_tiles_match_interp(read, env, 0, 0, 48, 2);
    }
}

TEST(Jit, PackedMultipliesMatchInterpreterOnWideCarriers)
{
    // The packed multiply body multiplies the low 32 bits of each
    // factor (pmuludq), which is exact only because every result type
    // it runs for is at most 32 bits wide. Feed it factors whose int64
    // carriers have bits above bit 31 set (negative values, raw
    // out-of-range buffer lanes wrapped on load), negative immediates,
    // and multiplies with 64-bit results, which must keep the scalar
    // body; every tier must match the interpreter.
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    constexpr int kLanes = 16;
    constexpr ScalarType i64 = ScalarType::Int64;
    Env env;
    std::map<ScalarType, int> id_of;
    for (ScalarType t : {u8, i8, u16, i16, u32, i32}) {
        const int id = static_cast<int>(id_of.size());
        Buffer buf(t, 64, 2);
        Rng rng(static_cast<uint64_t>(id) + 17);
        for (int64_t &v : buf.data)
            v = static_cast<int64_t>(rng.next()) >> rng.range(0, 40);
        env.buffers.emplace(id, std::move(buf));
        id_of[t] = id;
    }
    auto rd_lanes = [&](ScalarType t, int dx, int lanes) {
        return vread(id_of.at(t), t, lanes, dx);
    };
    auto rd = [&](ScalarType t, int dx) {
        return rd_lanes(t, dx, kLanes);
    };
    const InstrPtr w32 = Instr::make(Opcode::VMpy, {rd(i32, 0), rd(i32, 1)});
    ASSERT_EQ(w32->type().elem, i64);
    auto wide = [&](int dx) {
        return Instr::make(Opcode::VSxt, {rd(i32, dx)});
    };
    const std::vector<std::pair<std::string, InstrPtr>> cases = {
        {"mpyi-i32", Instr::make(Opcode::VMpyi, {rd(i32, 0), rd(i32, -1)})},
        {"mpyi-acc-i32", Instr::make(Opcode::VMpyiAcc,
                                     {rd(i32, 1), rd(i32, 0), rd(i32, -2)})},
        {"mpy-i16", Instr::make(Opcode::VMpy, {rd(i16, 0), rd(i16, 1)})},
        {"mpy-acc-i16",
         Instr::make(Opcode::VMpyAcc,
                     {Instr::make(Opcode::VMpy, {rd(i16, 2), rd(i16, 3)}),
                      rd(i16, 0), rd(i16, -1)})},
        {"mpy-ie", Instr::make(Opcode::VMpyIE,
                               {rd_lanes(i32, 0, kLanes / 2), rd(u16, 1)})},
        {"mpy-io", Instr::make(Opcode::VMpyIO,
                               {rd_lanes(i32, 0, kLanes / 2), rd(i16, -1)})},
        {"mpa-i16", Instr::make(Opcode::VMpa, {rd(i16, 0), rd(i16, 1)},
                                {-32768, 32767})},
        {"mpa-u8", Instr::make(Opcode::VMpa, {rd(u8, 0), rd(u8, 1)},
                               {-3, -128})},
        {"mpa-acc-i8",
         Instr::make(Opcode::VMpaAcc,
                     {Instr::make(Opcode::VSxt, {rd(i8, 2)}), rd(i8, 0),
                      rd(i8, 1)},
                     {-1, -100})},
        {"dmpy-i16", Instr::make(Opcode::VDmpy, {rd(i16, 0), rd(i16, 3)},
                                 {-7, -9})},
        {"tmpy-acc-u8",
         Instr::make(Opcode::VTmpyAcc,
                     {Instr::make(Opcode::VMpa, {rd(u8, 2), rd(u8, 3)},
                                  {1, 1}),
                      rd(u8, 0), rd(u8, 1)},
                     {-2, -3})},
        {"rmpy-i8", Instr::make(Opcode::VRmpy, {rd(i8, 0), rd(i8, 1)},
                                {-1, -128, 127, -2})},
        {"rmpy-acc-u8",
         Instr::make(Opcode::VRmpyAcc,
                     {rd(i32, 0), rd(u8, 0), rd(u8, 1)},
                     {-128, -1, -64, 5})},
        // 64-bit results: products past 2^32 (but inside int64, where
        // the interpreter's arithmetic is defined), scalar bodies.
        {"mpy-i32-to-i64", w32},
        {"mpa-i32-to-i64", Instr::make(Opcode::VMpa,
                                       {rd(i32, 0), rd(i32, 2)},
                                       {-70000, 90001})},
        {"mpy-acc-i64", Instr::make(Opcode::VMpyAcc,
                                    {wide(1), rd(i32, -1), rd(i32, 3)})},
        {"mpyi-i64", Instr::make(Opcode::VMpyi, {wide(0), wide(2)})},
    };
    for (const auto &[label, prog] : cases) {
        SCOPED_TRACE(label);
        expect_tiles_match_interp(prog, env, 0, 0, 64, 2);
    }
}

TEST(Jit, OddLaneCountNodesRunAtEveryTier)
{
    // Three-lane nodes put later nodes' slots and the constant pool at
    // odd arena slots; no packed access may then assume 16-byte
    // alignment (legacy SSE memory operands fault on it).
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    auto dot = [](int dx) {
        return Instr::make(Opcode::VDotRmpy,
                           {vread(0, u8, 12, dx), vread(1, u8, 12, dx)});
    };
    const InstrPtr sum = Instr::make(Opcode::VAdd, {dot(0), dot(1)});
    ASSERT_EQ(sum->type().lanes, 3);
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        expect_jit_matches_interp(sum, {}, 3, 24);
        expect_jit_matches_interp(
            Instr::make(Opcode::VNot,
                        {Instr::make(Opcode::VSub, {sum, dot(2)})}),
            {}, 5, 24);
    }
}

TEST(JitEncoder, EncodesPackedMultiplyAndQwordShuffles)
{
    using jit::Vreg;
    using jit::VecOp;
    // Legacy SSE: 66 0F op /r.
    {
        jit::Assembler a;
        a.sse_op(VecOp::pmuludq, Vreg::xmm4, Vreg::xmm7);
        a.sse_op(VecOp::pmuludq, Vreg::xmm6, Vreg::xmm5);
        a.sse_op(VecOp::punpcklqdq, Vreg::xmm5, Vreg::xmm6);
        a.sse_op(VecOp::punpcklqdq, Vreg::xmm7, Vreg::xmm4);
        a.sse_op(VecOp::punpckhqdq, Vreg::xmm7, Vreg::xmm4);
        a.sse_op(VecOp::punpckhqdq, Vreg::xmm4, Vreg::xmm6);
        a.sse_op_mem(VecOp::pmuludq, Vreg::xmm6, jit::Reg::rbx, 0x40);
        const std::vector<uint8_t> want = {
            0x66, 0x0F, 0xF4, 0xE7, // pmuludq xmm4, xmm7
            0x66, 0x0F, 0xF4, 0xF5, // pmuludq xmm6, xmm5
            0x66, 0x0F, 0x6C, 0xEE, // punpcklqdq xmm5, xmm6
            0x66, 0x0F, 0x6C, 0xFC, // punpcklqdq xmm7, xmm4
            0x66, 0x0F, 0x6D, 0xFC, // punpckhqdq xmm7, xmm4
            0x66, 0x0F, 0x6D, 0xE6, // punpckhqdq xmm4, xmm6
            0x66, 0x0F, 0xF4, 0xB3, 0x40, 0x00, 0x00, 0x00,
        };
        EXPECT_EQ(a.code(), want);
    }
    // VEX.256: the two-byte prefix where it can express the operands,
    // the three-byte one for an extended base and for the 0F3A map.
    {
        jit::Assembler a;
        a.avx_op(VecOp::pmuludq, Vreg::xmm4, Vreg::xmm5, Vreg::xmm7);
        a.avx_op(VecOp::punpcklqdq, Vreg::xmm6, Vreg::xmm4, Vreg::xmm5);
        a.avx_op(VecOp::punpckhqdq, Vreg::xmm7, Vreg::xmm6, Vreg::xmm4);
        a.avx_op_mem(VecOp::pmuludq, Vreg::xmm5, Vreg::xmm6,
                     jit::Reg::rbx, 0x40);
        a.vpermq(Vreg::xmm5, Vreg::xmm6, 0xD8);
        a.vpermq(Vreg::xmm7, Vreg::xmm4, 0x4E);
        a.vmovdqu_load(Vreg::xmm6, jit::Reg::r9, 0x10);
        const std::vector<uint8_t> want = {
            0xC5, 0xD5, 0xF4, 0xE7,       // vpmuludq ymm4, ymm5, ymm7
            0xC5, 0xDD, 0x6C, 0xF5,       // vpunpcklqdq ymm6, ymm4, ymm5
            0xC5, 0xCD, 0x6D, 0xFC,       // vpunpckhqdq ymm7, ymm6, ymm4
            0xC5, 0xCD, 0xF4, 0xAB, 0x40, 0x00, 0x00, 0x00,
            0xC4, 0xE3, 0xFD, 0x00, 0xEE, 0xD8, // vpermq ymm5, ymm6, 0xD8
            0xC4, 0xE3, 0xFD, 0x00, 0xFC, 0x4E, // vpermq ymm7, ymm4, 0x4E
            0xC4, 0xC1, 0x7E, 0x6F, 0xB1, 0x10, 0x00, 0x00, 0x00,
        };
        EXPECT_EQ(a.code(), want);
    }
}

TEST(JitEncoder, PatchesForwardAndBackwardBranches)
{
    SKIP_IF_NO_JIT();
    // A forward jmp to an adjacent label and a backward jcc to itself
    // encode to known bytes.
    {
        jit::Assembler a;
        jit::Label next, self;
        a.jmp(next);
        a.bind(next);
        a.bind(self);
        a.jcc(jit::Cond::l, self);
        const std::vector<uint8_t> want = {0xE9, 0x00, 0x00, 0x00, 0x00,
                                           0x0F, 0x8C, 0xFA, 0xFF, 0xFF,
                                           0xFF};
        EXPECT_EQ(a.code(), want);
    }
    // sum(n) = 0 + 1 + ... + (n - 1): a forward jump into the loop
    // test and a backward branch to the loop body, run natively.
    jit::Assembler a;
    jit::Label body, test;
    a.xor_(jit::Reg::rax, jit::Reg::rax);
    a.xor_(jit::Reg::rcx, jit::Reg::rcx);
    a.jmp(test);
    a.bind(body);
    a.add(jit::Reg::rax, jit::Reg::rcx);
    a.add_imm32(jit::Reg::rcx, 1);
    a.bind(test);
    a.cmp(jit::Reg::rcx, jit::Reg::rdi);
    a.jcc(jit::Cond::l, body);
    a.ret();
    jit::ExecBuffer buf;
    buf.seal(a.code());
    auto sum = reinterpret_cast<int64_t (*)(int64_t)>(
        const_cast<void *>(buf.entry()));
    EXPECT_EQ(sum(0), 0);
    EXPECT_EQ(sum(1), 0);
    EXPECT_EQ(sum(10), 45);
    EXPECT_EQ(sum(1000), 499500);

    // A jump to a label that is never bound leaves code unfinished.
    jit::Assembler dangling;
    jit::Label nowhere;
    dangling.jmp(nowhere);
    EXPECT_THROW(dangling.code(), InternalError);
}

#if !defined(__x86_64__)
TEST(Jit, UnavailableHostsRefuseCleanly)
{
    EXPECT_FALSE(jit::available());
    EXPECT_THROW(jit::Program::compile(vread(0, u8, 8)), UserError);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 16, 2, 1));
    EXPECT_THROW(run_tiles_jit(vread(0, u8, 8), inputs), UserError);
}
#endif

} // namespace
} // namespace rake
