/**
 * @file
 * Tests for the swizzle synthesizer (§5): goal-directed search over
 * the data-movement grammar, budget behaviour, memoization across
 * holes with different sources, query accounting, and the interned
 * memo itself (ids, derivations, cell packing, per-backend goldens).
 */
#include <gtest/gtest.h>

#include <functional>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hvx/interp.h"
#include "neon/instr.h"
#include "synth/cache.h"
#include "synth/swizzle.h"

namespace rake {
namespace {

using namespace rake::synth;
constexpr ScalarType u8 = ScalarType::UInt8;

Env
ramp_env()
{
    Env env;
    Buffer b(u8, 64, 3, -16, -1);
    for (size_t i = 0; i < b.data.size(); ++i)
        b.data[i] = static_cast<int64_t>(i % 251);
    env.buffers.emplace(0, std::move(b));
    return env;
}

/** Solve and functionally check the solution against the oracle. */
hvx::InstrPtr
solve_checked(const Hole &hole, int budget, SwizzleStats &stats)
{
    hvx::Target target;
    SwizzleSolver solver(target, stats);
    hvx::InstrPtr sol = solver.solve(hole, budget);
    if (sol) {
        Env env = ramp_env();
        EXPECT_EQ(hvx::evaluate(sol, env), arrangement_value(hole, env));
    }
    return sol;
}

TEST(Swizzle, WindowIsOneRead)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), window_cells(0, 0, -2, 8), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VRead);
    EXPECT_EQ(sol->load_ref().dx, -2);
    EXPECT_EQ(stats.solved, 1);
}

TEST(Swizzle, DeinterleavedWindowNeedsDeal)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), deinterleave(window_cells(0, 0, 0, 8)), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VDealVdd);
    EXPECT_EQ(sol->arg(0)->op(), hvx::Opcode::VRead);
}

TEST(Swizzle, InterleaveGoalUsesShuff)
{
    // Goal: interleave of a window — the inverse direction.
    SwizzleStats stats;
    Hole h{VecType(u8, 8), interleave(window_cells(0, 0, 0, 8)), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VShuffVdd);
}

TEST(Swizzle, TwoRowsCombine)
{
    SwizzleStats stats;
    Arrangement a = concat(window_cells(0, -1, 0, 4),
                           window_cells(0, 1, 0, 4));
    Hole h{VecType(u8, 8), a, {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VCombine);
}

TEST(Swizzle, RotatedWindowUsesRor)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), rotate(window_cells(0, 0, 0, 8), 3), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VRor);
    EXPECT_EQ(sol->imm(0), 3);
}

TEST(Swizzle, SourcePassThroughIsFree)
{
    SwizzleStats stats;
    hvx::InstrPtr src = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                              VecType(u8, 8));
    Hole h{VecType(u8, 8), source_cells(0, 8), {src}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    EXPECT_EQ(sol, src);
}

TEST(Swizzle, SourceHalvesAreFreeRenames)
{
    SwizzleStats stats;
    hvx::InstrPtr src = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                              VecType(u8, 16));
    Arrangement hi;
    for (int i = 8; i < 16; ++i)
        hi.push_back(Cell::src(0, i));
    Hole h{VecType(u8, 8), hi, {src}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VHi);
}

TEST(Swizzle, ZeroFillIsASplat)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), Arrangement(8, Cell::zero()), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VSplat);
}

TEST(Swizzle, BudgetZeroRejectsNonFreeGoals)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), deinterleave(window_cells(0, 0, 0, 8)), {}};
    hvx::Target target;
    SwizzleSolver solver(target, stats);
    EXPECT_EQ(solver.solve(h, 0), nullptr);
    EXPECT_EQ(stats.unsat, 1);
    // And succeeds once the budget allows the read + deal.
    EXPECT_NE(solver.solve(h, 3), nullptr);
}

TEST(Swizzle, UnsatisfiableArrangementWithinBudget)
{
    // A pseudo-random permutation of a window is not expressible in
    // a couple of structured moves.
    SwizzleStats stats;
    Arrangement a = window_cells(0, 0, 0, 8);
    std::swap(a[0], a[5]);
    std::swap(a[2], a[7]);
    std::swap(a[1], a[6]);
    Hole h{VecType(u8, 8), a, {}};
    hvx::Target target;
    SwizzleSolver solver(target, stats);
    EXPECT_EQ(solver.solve(h, 3), nullptr);
    EXPECT_GT(stats.queries, 0);
}

TEST(Swizzle, MemoKeysIncludeSources)
{
    // The same arrangement over two different sources must not share
    // solutions (regression test for the cross-hole memo bug).
    SwizzleStats stats;
    hvx::Target target;
    SwizzleSolver solver(target, stats);
    hvx::InstrPtr s1 = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                             VecType(u8, 8));
    hvx::InstrPtr s2 = hvx::Instr::make_read(hir::LoadRef{0, 0, 1},
                                             VecType(u8, 8));
    Hole h1{VecType(u8, 8), source_cells(0, 8), {s1}};
    Hole h2{VecType(u8, 8), source_cells(0, 8), {s2}};
    EXPECT_EQ(solver.solve(h1, 2), s1);
    EXPECT_EQ(solver.solve(h2, 2), s2);
}

TEST(Swizzle, TightBudgetRequeryKeepsMemoizedSolution)
{
    // Regression: Algorithm 2's backtracking re-queries a solved goal
    // at a *tighter* budget once a best implementation exists. The
    // failed re-search used to overwrite the memoized positive entry
    // with an infeasibility record, so the next higher-budget query
    // had to redo the whole search (observable as extra candidate
    // queries) instead of returning the known solution.
    SwizzleStats stats;
    hvx::Target target;
    SwizzleSolver solver(target, stats);
    Hole h{VecType(u8, 8), deinterleave(window_cells(0, 0, 0, 8)), {}};

    hvx::InstrPtr first = solver.solve(h, 8);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->op(), hvx::Opcode::VDealVdd);

    // Tighter budget than the solution's cost: correctly unsat.
    EXPECT_EQ(solver.solve(h, 1), nullptr);
    const int queries_after_tight = stats.queries;

    // Back at the original budget: the memo must still hold the
    // solution — no new candidate programs may be examined.
    hvx::InstrPtr again = solver.solve(h, 8);
    ASSERT_NE(again, nullptr);
    EXPECT_TRUE(hvx::equal(again, first));
    EXPECT_EQ(stats.queries, queries_after_tight);
    EXPECT_EQ(stats.solved, 2);
    EXPECT_EQ(stats.unsat, 1);
}

TEST(Swizzle, MemoIsNotConsultedAcrossBudgets)
{
    // Companion to the PR 1 memo-clobbering fix, from the memo-hit
    // side: a memoized *solution* may only answer a re-query whose
    // budget covers its cost, and a memoized *failure* only one at or
    // below the budget that failed. A tighter-budget re-query
    // therefore must not be served from the memo — it has to search.
    SwizzleStats stats;
    hvx::Target target;
    SwizzleSolver solver(target, stats);
    Hole h{VecType(u8, 8), deinterleave(window_cells(0, 0, 0, 8)), {}};

    hvx::InstrPtr first = solver.solve(h, 8);
    ASSERT_NE(first, nullptr);
    const int hits_after_solve = stats.memo_hits;

    // Budget 0 is below the solution's cost and below any recorded
    // failure: the goal must not be answered from the memo (a hit
    // would increment memo_hits) — the solver re-searches and
    // correctly reports unsat.
    EXPECT_EQ(solver.solve(h, 0), nullptr);
    EXPECT_EQ(stats.memo_hits, hits_after_solve);
    EXPECT_EQ(stats.unsat, 1);

    // Re-querying at the original budget is answered from the memo:
    // same instruction, no new candidate programs examined.
    const int queries_after_tight = stats.queries;
    hvx::InstrPtr again = solver.solve(h, 8);
    ASSERT_NE(again, nullptr);
    EXPECT_TRUE(hvx::equal(again, first));
    EXPECT_GT(stats.memo_hits, hits_after_solve);
    EXPECT_EQ(stats.queries, queries_after_tight);

    // And the budget-0 failure is itself memoized: repeating it is
    // now a memo hit instead of a search.
    const int hits_before_refail = stats.memo_hits;
    EXPECT_EQ(solver.solve(h, 0), nullptr);
    EXPECT_GT(stats.memo_hits, hits_before_refail);
    EXPECT_EQ(stats.queries, queries_after_tight);
}

TEST(Swizzle, SynthesisCacheKeySeparatesSwizzleBudgets)
{
    // The cross-expression synthesis cache must never serve a result
    // computed under one swizzle budget to a query made under
    // another — the budget changes which programs are reachable.
    synth::RakeOptions a, b;
    b.lower.swizzle_budget = a.lower.swizzle_budget + 1;
    EXPECT_NE(synth::options_fingerprint(a),
              synth::options_fingerprint(b));
}

TEST(Swizzle, TimedOutQueryIsNotCachedAsNegative)
{
    // A deadline-aborted synthesis says nothing about the goal: the
    // owner must retract its in-flight cache entry, not publish a
    // failure, or a hurried query would poison every later unhurried
    // one with a phantom "no solution".
    using namespace rake::hir;
    synthesis_cache().clear();
    HExpr e = cast(u8, (cast(ScalarType::UInt16, load(0, u8, 64)) +
                        cast(ScalarType::UInt16, load(0, u8, 64, 1)) +
                        1) >>
                           1);

    RakeOptions hurried;
    hurried.deadline = Deadline::after_ms(0);
    auto first = select_instructions(e.ptr(), hurried);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->status, SynthStatus::TimedOut);
    EXPECT_TRUE(first->degraded);
    EXPECT_FALSE(first->cache_hit);
    ASSERT_NE(first->instr, nullptr); // greedy baseline program

    // The unhurried re-query synthesizes afresh — cache_hit false
    // proves the timed-out entry was retracted — and succeeds.
    auto second = select_instructions(e.ptr());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->status, SynthStatus::Ok);
    EXPECT_FALSE(second->degraded);
    EXPECT_FALSE(second->cache_hit);
    ASSERT_NE(second->instr, nullptr);

    // The completed run is then cached like any other.
    auto third = select_instructions(e.ptr());
    ASSERT_TRUE(third.has_value());
    EXPECT_TRUE(third->cache_hit);
    EXPECT_TRUE(hvx::equal(third->instr, second->instr));
}

TEST(Swizzle, QueriesAreCounted)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8),
           interleave(concat(window_cells(0, -1, 0, 4),
                             window_cells(0, 1, 0, 4))),
           {}};
    solve_checked(h, 5, stats);
    EXPECT_GT(stats.queries, 3);
    EXPECT_GT(stats.seconds, 0.0);
}

TEST(SwizzleMemo, EqualArrangementsInternToOneId)
{
    SwizzleMemo memo;
    const SwizzleMemo::Id a = memo.intern(window_cells(0, 0, 0, 8));
    EXPECT_EQ(memo.intern(window_cells(0, 0, 0, 8)), a);
    EXPECT_NE(memo.intern(window_cells(0, 0, 1, 8)), a);
    EXPECT_NE(memo.intern(window_cells(0, 0, 0, 4)), a);
    EXPECT_NE(memo.intern(source_cells(0, 8)), a);
    EXPECT_EQ(memo.lanes(a), 8);
    EXPECT_TRUE(memo.cell(a, 3) == Cell::buf(0, 0, 3));

    // A goal is (arrangement, sources, element type): each part
    // separates goals, and asking again finds the same entry.
    hvx::InstrPtr s1 = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                             VecType(u8, 8));
    hvx::InstrPtr s2 = hvx::Instr::make_read(hir::LoadRef{0, 1, 0},
                                             VecType(u8, 8));
    const int32_t none = memo.intern_sources({});
    const int32_t one = memo.intern_sources({s1});
    EXPECT_EQ(memo.intern_sources({s1}), one);
    EXPECT_NE(memo.intern_sources({s2}), one);
    EXPECT_NE(one, none);
    const int32_t g = memo.goal(a, none, u8);
    EXPECT_EQ(memo.goal(a, none, u8), g);
    EXPECT_NE(memo.goal(a, one, u8), g);
    EXPECT_NE(memo.goal(a, none, ScalarType::UInt16), g);
    EXPECT_NE(memo.goal(memo.intern(source_cells(0, 8)), none, u8), g);
}

TEST(SwizzleMemo, DerivationsMatchTheArrangementAlgebra)
{
    SwizzleMemo memo;
    using D = SwizzleMemo::Derivation;
    const Arrangement w = concat(window_cells(0, -1, 0, 4),
                                 window_cells(1, 2, 7, 4));
    const SwizzleMemo::Id id = memo.intern(w);
    const SwizzleMemo::Id deint = memo.derived(id, D::Deinterleave);
    EXPECT_EQ(deint, memo.intern(deinterleave(w)));
    EXPECT_EQ(memo.derived(deint, D::Interleave), id);
    EXPECT_EQ(memo.derived(memo.derived(id, D::Interleave),
                           D::Deinterleave),
              id);
    EXPECT_EQ(memo.derived(id, D::Lo),
              memo.intern(window_cells(0, -1, 0, 4)));
    EXPECT_EQ(memo.derived(id, D::Hi),
              memo.intern(window_cells(1, 2, 7, 4)));
    const Arrangement rev(w.rbegin(), w.rend());
    EXPECT_EQ(memo.derived(id, D::Reverse), memo.intern(rev));
    EXPECT_EQ(memo.derived(memo.derived(id, D::Reverse), D::Reverse), id);
    EXPECT_EQ(memo.rotated(id, 3), memo.intern(rotate(w, 3)));
    // Cached: asking again answers the same id.
    EXPECT_EQ(memo.derived(id, D::Deinterleave), deint);
}

TEST(SwizzleMemo, PackingRoundTripsAtFieldEdges)
{
    auto round_trip = [](const Cell &c) {
        return SwizzleMemo::unpack(SwizzleMemo::pack(c)) == c;
    };
    EXPECT_TRUE(round_trip(Cell::zero()));
    for (int buffer : {0, 1023})
        for (int dy : {-512, 0, 511})
            for (int x : {-32768, -1, 0, 32767})
                EXPECT_TRUE(round_trip(Cell::buf(buffer, dy, x)))
                    << buffer << " " << dy << " " << x;
    for (int source : {0, 1023})
        for (int lane : {0, 65535})
            EXPECT_TRUE(round_trip(Cell::src(source, lane)))
                << source << " " << lane;
    // Every field at once, so no field's bits leak into another's.
    Cell all = Cell::buf(1023, -512, 32767);
    all.kind = Cell::Kind::Src;
    all.source = 1023;
    all.lane = 65535;
    EXPECT_TRUE(round_trip(all));
}

TEST(SwizzleMemo, OutOfRangeCellFailsCheck)
{
    // One past each field's range must fail the check, not wrap into
    // a different (equal-looking) cell.
    for (const Cell &c :
         {Cell::buf(1024, 0, 0), Cell::buf(-1, 0, 0),
          Cell::buf(0, 512, 0), Cell::buf(0, -513, 0),
          Cell::buf(0, 0, 32768), Cell::buf(0, 0, -32769),
          Cell::src(1024, 0), Cell::src(-1, 0), Cell::src(0, 65536),
          Cell::src(0, -1)}) {
        EXPECT_THROW(SwizzleMemo::pack(c), InternalError);
        SwizzleMemo memo;
        EXPECT_THROW(memo.intern({c}), InternalError);
    }
}

/**
 * A fixed hole set solved in order by one backend's solver, so later
 * holes hit goals memoized by earlier ones: windows, (de)interleaves,
 * halves, rotations, reversals, funnel extracts over two sources, a
 * gather and a zero fill, at a tight and then a loose budget, then
 * the loose pass again (answered from the memo).
 */
struct GoldenRun {
    SwizzleStats stats;
    std::vector<std::string> sexprs; ///< the first two passes
};

GoldenRun
golden_run(backend::TargetISA &isa,
           const std::function<backend::InstrHandle(int, VecType)> &read)
{
    const VecType v16(u8, 16), v32(u8, 32), w16(ScalarType::UInt16, 16);
    const std::vector<backend::InstrHandle> two = {read(0, v16),
                                                   read(16, v16)};
    Arrangement ext, gather;
    for (int i = 0; i < 16; ++i) {
        ext.push_back(i + 5 < 16 ? Cell::src(0, i + 5)
                                 : Cell::src(1, i + 5 - 16));
        gather.push_back(Cell::src(0, (7 * i + 3) % 16));
    }
    const Arrangement w = window_cells(0, 0, 0, 16);
    const std::vector<Hole> holes = {
        {v16, window_cells(0, 0, -2, 16), {}},
        {v16, deinterleave(w), {}},
        {v16, interleave(window_cells(0, 1, 0, 16)), {}},
        {v16, concat(window_cells(0, -1, 0, 8), window_cells(0, 1, 0, 8)),
         {}},
        {v16, rotate(w, 5), {}},
        {v16,
         interleave(concat(window_cells(0, -1, 0, 8),
                           window_cells(0, 1, 3, 8))),
         {}},
        {v16, Arrangement(w.rbegin(), w.rend()), {}},
        {v16, ext, two},
        {v16, rotate(source_cells(1, 16), 9), two},
        {v32, deinterleave(concat(source_cells(0, 16), source_cells(1, 16))),
         two},
        {v16, gather, two},
        {v16, Arrangement(16, Cell::zero()), {}},
        {w16, deinterleave(window_cells(1, 2, 4, 16)), {}},
        {w16, rotate(interleave(window_cells(1, 0, -3, 16)), 2), {}},
    };
    GoldenRun run;
    std::vector<std::string> third;
    for (int pass = 0; pass < 3; ++pass) {
        for (const Hole &h : holes) {
            auto sol = isa.solve_hole(h, pass == 0 ? 1 : 4, run.stats);
            std::string text = sol ? isa.instr_to_sexpr(*sol) : "unsat";
            (pass < 2 ? run.sexprs : third).push_back(std::move(text));
        }
    }
    EXPECT_EQ(third, std::vector<std::string>(run.sexprs.begin() + 14,
                                              run.sexprs.end()));
    return run;
}

/** Checks golden_run against pinned stats and selections. */
void
expect_golden(const GoldenRun &run, int queries, int memo_hits, int solved,
              int unsat, const std::vector<std::string> &sexprs)
{
    EXPECT_EQ(run.stats.queries, queries);
    EXPECT_EQ(run.stats.memo_hits, memo_hits);
    EXPECT_EQ(run.stats.solved, solved);
    EXPECT_EQ(run.stats.unsat, unsat);
    EXPECT_EQ(run.sexprs, sexprs);
}

TEST(Swizzle, GoldenHvxStatsAndSelections)
{
    auto isa = backend::make_hvx_backend(hvx::Target{});
    GoldenRun run = golden_run(*isa, [](int dx, VecType t) {
        return hvx::Instr::make_read(hir::LoadRef{0, dx, 0}, t);
    });
    expect_golden(run, 76, 201, 25, 17, {
        // budget 1
        "(vmem u8x16 0 -2 0)",
        "unsat",
        "unsat",
        "unsat",
        "unsat",
        "unsat",
        "unsat",
        "unsat",
        "(vror u8x16 (vmem u8x16 0 16 0) #9)",
        "unsat",
        "unsat",
        "(vsplat u8x16 (const u8 0))",
        "unsat",
        "unsat",
        // budget 4
        "(vmem u8x16 0 -2 0)",
        "(vdealvdd u8x16 (vmem u8x16 0 0 0))",
        "(vshuffvdd u8x16 (vmem u8x16 0 0 1))",
        "(vcombine u8x16 (vmem u8x8 0 0 -1) (vmem u8x8 0 0 1))",
        "(vror u8x16 (vmem u8x16 0 0 0) #5)",
        "(vshuffvdd u8x16 (vcombine u8x16 (vmem u8x8 0 0 -1) (vmem"
        " u8x8 0 3 1)))",
        "unsat",
        "unsat",
        "(vror u8x16 (vmem u8x16 0 16 0) #9)",
        "(vdealvdd u8x32 (vcombine u8x32 (vmem u8x16 0 0 0) (vmem"
        " u8x16 0 16 0)))",
        "unsat",
        "(vsplat u8x16 (const u8 0))",
        "(vdealvdd u16x16 (vmem u16x16 1 4 2))",
        "(vror u16x16 (vshuffvdd u16x16 (vmem u16x16 1 -3 0)) #2)",
    });
}

TEST(Swizzle, GoldenNeonStatsAndSelections)
{
    auto isa = backend::make_neon_backend(neon::Target{});
    GoldenRun run = golden_run(*isa, [](int dx, VecType t) {
        return neon::NInstr::make_load(hir::LoadRef{0, dx, 0}, t);
    });
    expect_golden(run, 1428, 7122, 28, 14, {
        // budget 1
        "(vld1 u8x16 0 -2 0)",
        "unsat",
        "unsat",
        "unsat",
        "unsat",
        "unsat",
        "unsat",
        "(vext u8x16 (vld1 u8x16 0 0 0) (vld1 u8x16 0 16 0) #5)",
        "(vext u8x16 (vld1 u8x16 0 16 0) (vld1 u8x16 0 16 0) #9)",
        "unsat",
        "unsat",
        "(vdup u8x16 (const u8 0))",
        "unsat",
        "unsat",
        // budget 4
        "(vld1 u8x16 0 -2 0)",
        "(vuzp u8x16 (vld1 u8x16 0 0 0))",
        "(vzip u8x16 (vld1 u8x16 0 0 1))",
        "(vcombine u8x16 (vld1 u8x8 0 0 -1) (vld1 u8x8 0 0 1))",
        "unsat",
        "(vzip u8x16 (vcombine u8x16 (vld1 u8x8 0 0 -1) (vld1 u8x8 0 3 1)))",
        "(vrev u8x16 (vld1 u8x16 0 0 0))",
        "(vext u8x16 (vld1 u8x16 0 0 0) (vld1 u8x16 0 16 0) #5)",
        "(vext u8x16 (vld1 u8x16 0 16 0) (vld1 u8x16 0 16 0) #9)",
        "(vuzp u8x32 (vcombine u8x32 (vld1 u8x16 0 0 0) (vld1 u8x16 0 16 0)))",
        "(vtbl u8x16 (vld1 u8x16 0 0 0) #3 #10 #1 #8 #15 #6 #13 #4"
        " #11 #2 #9 #0 #7 #14 #5 #12)",
        "(vdup u8x16 (const u8 0))",
        "(vuzp u16x16 (vld1 u16x16 1 4 2))",
        "unsat",
    });
}

} // namespace
} // namespace rake
