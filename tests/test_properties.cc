/**
 * @file
 * Property-based sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
 *
 *  - every lane-wise HVX ALU opcode agrees with the base/arith.h
 *    definition across element types;
 *  - random compositions of data-movement instructions are recovered
 *    by the swizzle solver (solve-what-you-scrambled fuzzing);
 *  - narrowing packs and widening moves are mutual inverses for every
 *    16/32-bit element type;
 *  - the scheduler's initiation interval is monotone in added work;
 *  - the three interpreters agree on lifted/lowered artifacts across
 *    seeds (full-stack differential).
 */
#include <cctype>

#include <gtest/gtest.h>

#include "base/arith.h"
#include "hir/builder.h"
#include "hir/interp.h"
#include "hvx/interp.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "synth/rake.h"
#include "synth/swizzle.h"
#include "test_util.h"
#include "uir/interp.h"

namespace rake {
namespace {

using hvx::Instr;
using hvx::InstrPtr;
using hvx::Opcode;

constexpr int L = 16;

Env
fuzz_env(uint64_t seed, ScalarType elem)
{
    Env env;
    Buffer b(elem, 64, 3, -16, -1);
    Rng rng(seed);
    for (auto &v : b.data)
        v = wrap(elem, rng.range(min_value(elem), max_value(elem)));
    env.buffers.emplace(0, std::move(b));
    return env;
}

// ---------------------------------------------------------------
// Lane-wise ALU semantics sweep.
// ---------------------------------------------------------------

struct AluCase {
    Opcode op;
    int64_t (*ref)(ScalarType, int64_t, int64_t);
};

int64_t ref_add(ScalarType t, int64_t a, int64_t b)
{
    return wrap(t, a + b);
}
int64_t ref_add_sat(ScalarType t, int64_t a, int64_t b)
{
    return add_sat(t, a, b);
}
int64_t ref_sub(ScalarType t, int64_t a, int64_t b)
{
    return wrap(t, a - b);
}
int64_t ref_sub_sat(ScalarType t, int64_t a, int64_t b)
{
    return sub_sat(t, a, b);
}
int64_t ref_min(ScalarType, int64_t a, int64_t b)
{
    return std::min(a, b);
}
int64_t ref_max(ScalarType, int64_t a, int64_t b)
{
    return std::max(a, b);
}
int64_t ref_absd(ScalarType t, int64_t a, int64_t b)
{
    return wrap(t, abs_diff(a, b));
}
int64_t ref_avg(ScalarType t, int64_t a, int64_t b)
{
    return average(t, a, b, false);
}
int64_t ref_avg_rnd(ScalarType t, int64_t a, int64_t b)
{
    return average(t, a, b, true);
}
int64_t ref_navg(ScalarType t, int64_t a, int64_t b)
{
    return neg_average(t, a, b, false);
}
int64_t ref_and(ScalarType t, int64_t a, int64_t b)
{
    return wrap(t, a & b);
}
int64_t ref_or(ScalarType t, int64_t a, int64_t b)
{
    return wrap(t, a | b);
}
int64_t ref_xor(ScalarType t, int64_t a, int64_t b)
{
    return wrap(t, a ^ b);
}

using AluParam = std::tuple<AluCase, ScalarType>;

class HvxAluSemantics : public ::testing::TestWithParam<AluParam>
{
};

TEST_P(HvxAluSemantics, MatchesArithDefinition)
{
    const auto [c, elem] = GetParam();
    Env env = fuzz_env(static_cast<uint64_t>(c.op) * 31 +
                           static_cast<uint64_t>(elem),
                       elem);
    InstrPtr a = Instr::make_read(hir::LoadRef{0, 0, 0},
                                  VecType(elem, L));
    InstrPtr b = Instr::make_read(hir::LoadRef{0, 3, 1},
                                  VecType(elem, L));
    Value va = hvx::evaluate(a, env);
    Value vb = hvx::evaluate(b, env);
    Value out = hvx::evaluate(Instr::make(c.op, {a, b}), env);
    for (int i = 0; i < L; ++i) {
        EXPECT_EQ(out[i], c.ref(elem, va[i], vb[i]))
            << to_string(c.op) << " " << to_string(elem) << " lane "
            << i;
    }
}

const AluCase kAluCases[] = {
    {Opcode::VAdd, ref_add},     {Opcode::VAddSat, ref_add_sat},
    {Opcode::VSub, ref_sub},     {Opcode::VSubSat, ref_sub_sat},
    {Opcode::VMin, ref_min},     {Opcode::VMax, ref_max},
    {Opcode::VAbsDiff, ref_absd}, {Opcode::VAvg, ref_avg},
    {Opcode::VAvgRnd, ref_avg_rnd}, {Opcode::VNavg, ref_navg},
    {Opcode::VAnd, ref_and},     {Opcode::VOr, ref_or},
    {Opcode::VXor, ref_xor},
};

INSTANTIATE_TEST_SUITE_P(
    OpsByType, HvxAluSemantics,
    ::testing::Combine(::testing::ValuesIn(kAluCases),
                       ::testing::Values(ScalarType::Int8,
                                         ScalarType::UInt8,
                                         ScalarType::Int16,
                                         ScalarType::UInt16,
                                         ScalarType::Int32,
                                         ScalarType::UInt32)),
    [](const auto &info) {
        std::string name =
            hvx::to_string(std::get<0>(info.param).op) + "_" +
            to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------
// Solve-what-you-scrambled swizzle fuzzing.
// ---------------------------------------------------------------

class SwizzleFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(SwizzleFuzz, SolverRecoversRandomMoveCompositions)
{
    Rng rng(GetParam() * 6151 + 7);
    for (int trial = 0; trial < 6; ++trial) {
        // Scramble a window with up to two random structured moves —
        // the depth the budget-bounded solver guarantees (deeper
        // stacks may legitimately return unsat within the budget).
        synth::Arrangement arr =
            synth::window_cells(0, 0,
                                static_cast<int>(rng.range(-3, 3)), L);
        const int moves = static_cast<int>(rng.range(0, 2));
        for (int m = 0; m < moves; ++m) {
            switch (rng.range(0, 2)) {
              case 0:
                arr = synth::deinterleave(arr);
                break;
              case 1:
                arr = synth::interleave(arr);
                break;
              default:
                arr = synth::rotate(arr,
                                    static_cast<int>(rng.range(1, 7)));
                break;
            }
        }
        synth::Hole hole{VecType(ScalarType::UInt8, L), arr, {}};
        synth::SwizzleStats stats;
        synth::SwizzleSearch solver(synth::hvx_swizzle_rules(hvx::Target{}),
                                    stats);
        InstrPtr sol = std::static_pointer_cast<const Instr>(
            solver.solve(hole, moves + 2));
        ASSERT_NE(sol, nullptr) << "trial " << trial;
        Env env = fuzz_env(trial + 100, ScalarType::UInt8);
        EXPECT_EQ(hvx::evaluate(sol, env),
                  synth::arrangement_value(hole, env));
        // And the solution respects the budget.
        EXPECT_LE(sol->instruction_count(), moves + 2);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwizzleFuzz, ::testing::Range(0, 8));

// ---------------------------------------------------------------
// Widen/narrow inverses per type.
// ---------------------------------------------------------------

class PackUnpackInverse : public ::testing::TestWithParam<ScalarType>
{
};

TEST_P(PackUnpackInverse, PackOfWidenIsIdentity)
{
    const ScalarType elem = GetParam();
    Env env = fuzz_env(static_cast<uint64_t>(elem) + 40, elem);
    InstrPtr x = Instr::make_read(hir::LoadRef{0, 0, 0},
                                  VecType(elem, L));
    InstrPtr w = Instr::make(
        is_signed(elem) ? Opcode::VSxt : Opcode::VZxt, {x});
    InstrPtr packed = Instr::make(
        Opcode::VPackE, {Instr::make(Opcode::VLo, {w}),
                         Instr::make(Opcode::VHi, {w})});
    Value out = hvx::evaluate(packed, env);
    Value orig = hvx::evaluate(x, env);
    EXPECT_EQ(out.lanes, orig.lanes) << to_string(elem);
}

INSTANTIATE_TEST_SUITE_P(Types, PackUnpackInverse,
                         ::testing::Values(ScalarType::Int8,
                                           ScalarType::UInt8,
                                           ScalarType::Int16,
                                           ScalarType::UInt16),
                         [](const auto &info) {
                             return to_string(info.param);
                         });

// ---------------------------------------------------------------
// Scheduler monotonicity.
// ---------------------------------------------------------------

TEST(SchedulerProperty, AddingWorkNeverLowersII)
{
    hvx::Target target;
    sim::MachineModel machine;
    InstrPtr v = Instr::make_read(hir::LoadRef{0, 0, 0},
                                  VecType(ScalarType::UInt8, 128));
    int last_ii = 0;
    for (int i = 0; i < 12; ++i) {
        auto st = sim::schedule(v, target, machine);
        EXPECT_GE(st.initiation_interval, last_ii);
        EXPECT_GE(st.schedule_length, st.initiation_interval);
        last_ii = st.initiation_interval;
        v = Instr::make(Opcode::VAbsDiff,
                        {v, Instr::make_read(
                                hir::LoadRef{0, 0, i % 3},
                                VecType(ScalarType::UInt8, 128))});
    }
    EXPECT_GT(last_ii, 1);
}

// ---------------------------------------------------------------
// Full-stack differential: HIR == UIR == HVX across seeds.
// ---------------------------------------------------------------

class FullStackDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(FullStackDifferential, AllThreeLevelsAgree)
{
    test::ExprGen gen(GetParam() * 2654435761u + 9, /*lanes=*/16);
    for (int i = 0; i < 2; ++i) {
        hir::ExprPtr e = gen.gen(3);
        auto r = synth::select_instructions(e);
        if (!r)
            continue;
        for (const Env &env : test::environments_for(e, 5, 1234)) {
            const Value ref = hir::evaluate(e, env);
            EXPECT_EQ(uir::evaluate(r->lifted, env), ref);
            EXPECT_EQ(hvx::evaluate(r->instr, env), ref);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullStackDifferential,
                         ::testing::Range(0, 8));

} // namespace
} // namespace rake
