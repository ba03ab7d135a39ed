/**
 * @file
 * Tests for the swizzle synthesizer (§5): goal-directed search over
 * the data-movement grammar, budget behaviour, memoization across
 * holes with different sources, query accounting, and the interned
 * memo itself (ids, derivations, cell packing, per-backend goldens).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hvx/interp.h"
#include "hvx/cost.h"
#include "neon/cost.h"
#include "neon/instr.h"
#include "synth/cache.h"
#include "support/rng.h"
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

/** The shared search over the HVX rules, returning typed programs. */
struct HvxSolver {
    explicit HvxSolver(SwizzleStats &stats)
        : search(hvx_swizzle_rules(hvx::Target{}), stats)
    {
    }

    hvx::InstrPtr
    solve(const Hole &hole, int budget)
    {
        return std::static_pointer_cast<const hvx::Instr>(
            search.solve(hole, budget));
    }

    SwizzleSearch search;
};

/** Solve and functionally check the solution against the oracle. */
hvx::InstrPtr
solve_checked(const Hole &hole, int budget, SwizzleStats &stats)
{
    HvxSolver solver(stats);
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
    HvxSolver solver(stats);
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
    HvxSolver solver(stats);
    EXPECT_EQ(solver.solve(h, 3), nullptr);
    EXPECT_GT(stats.queries, 0);
}

TEST(Swizzle, MemoKeysIncludeSources)
{
    // The same arrangement over two different sources must not share
    // solutions (regression test for the cross-hole memo bug).
    SwizzleStats stats;
    HvxSolver solver(stats);
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
    HvxSolver solver(stats);
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
    HvxSolver solver(stats);
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
    expect_golden(run, 46, 131, 25, 17, {
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
    expect_golden(run, 417, 2577, 29, 13, {
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
        // A u8x32 hole scales budget 1 to 2 issues: vuzp (2) over a
        // free vcombine of the two sources, tried at budget 0 too.
        "(vuzp u8x32 (vcombine u8x32 (vld1 u8x16 0 0 0) (vld1 u8x16 0"
        " 16 0)))",
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

/**
 * Brute-force reference for one ISA's swizzle grammar: every rule
 * tree within the budget, enumerated with no cycle cut and no failure
 * records. Rules, guards and costs restate the ISA's rule table
 * independently of the search: HVX steps cost 1; Neon permutes cost
 * regs_for(type), vcombine 0 and vtbl twice regs_for(type). cost() is
 * a pure function of (arrangement, budget), so it caches its answers;
 * that only skips recomputing them.
 */
class BruteForce
{
  public:
    BruteForce(bool neon, std::vector<VecType> source_types)
        : neon_(neon), types_(std::move(source_types))
    {
    }

    /** Cheapest tree realizing `a` within `budget`, or nullopt. */
    std::optional<int>
    cost(const Arrangement &a, ScalarType elem, int budget) const
    {
        if (budget < 0)
            return std::nullopt;
        std::string key = std::to_string(budget);
        for (const Cell &c : a)
            key += " " + std::to_string(static_cast<int>(c.kind)) + "," +
                   std::to_string(c.buffer) + "," + std::to_string(c.dy) +
                   "," + std::to_string(c.x) + "," +
                   std::to_string(c.source) + "," + std::to_string(c.lane);
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_.emplace(key, enumerate(a, elem, budget)).first;
        return it->second;
    }

  private:
    std::optional<int>
    enumerate(const Arrangement &a, ScalarType elem, int budget) const
    {
        const int n = static_cast<int>(a.size());
        const int ns = static_cast<int>(types_.size());
        const VecType type(elem, n);
        std::optional<int> best;
        auto take = [&](std::optional<int> c, int extra) {
            if (c && *c + extra <= budget && (!best || *c + extra < *best))
                best = *c + extra;
        };

        if (std::all_of(a.begin(), a.end(), [](const Cell &c) {
                return c.kind == Cell::Kind::Zero;
            }))
            take(0, 0);
        if (is_window(a))
            take(read_cost(type), 0);
        for (int s = 0; s < ns; ++s) {
            if (a == source_cells(s, n) && types_[s] == type)
                take(0, 0);
            if (types_[s].lanes == 2 * n && types_[s].elem == elem &&
                (a == slice(s, 0, n) || a == slice(s, n, n)))
                take(0, 0);
        }
        const int step = neon_ ? neon::Target{}.regs_for(type) : 1;
        if (n % 2 == 0) {
            take(cost(deinterleave(a), elem, budget - step), step);
            take(cost(interleave(a), elem, budget - step), step);
            const int combine = neon_ ? 0 : 1;
            const Arrangement lo(a.begin(), a.begin() + n / 2),
                hi(a.begin() + n / 2, a.end());
            if (auto l = cost(lo, elem, budget - combine))
                take(cost(hi, elem, budget - combine - *l), *l + combine);
        }
        if (!neon_) {
            for (int r = 1; r < n; ++r) {
                const Arrangement u = rotate(a, n - r);
                if (structured(u))
                    take(cost(u, elem, budget - 1), 1);
            }
            return best;
        }
        for (int s = 0; s < ns; ++s)
            for (int t = 0; t < ns; ++t)
                for (int r = 1; r < n; ++r)
                    if (types_[s] == type && types_[t] == type &&
                        a == concat(slice(s, r, n - r), slice(t, 0, r)))
                        take(0, step);
        take(cost(Arrangement(a.rbegin(), a.rend()), elem, budget - step),
             step);
        for (int s = 0; s < ns; ++s) {
            bool gather = types_[s].elem == elem;
            bool any = false;
            for (const Cell &c : a) {
                gather &= c.kind == Cell::Kind::Zero ||
                          (c.kind == Cell::Kind::Src && c.source == s);
                any |= c.kind == Cell::Kind::Src;
            }
            if (gather && any)
                take(0, 2 * step);
        }
        return best;
    }

    static bool
    is_window(const Arrangement &a)
    {
        return a[0].kind == Cell::Kind::Buf &&
               a == window_cells(a[0].buffer, a[0].dy, a[0].x,
                                 static_cast<int>(a.size()));
    }

    /** vror's operand: a window, a source from lane 0, or one deal or
     *  shuffle away from a window. */
    static bool
    structured(const Arrangement &u)
    {
        const int n = static_cast<int>(u.size());
        if (is_window(u) ||
            (u[0].kind == Cell::Kind::Src && u == slice(u[0].source, 0, n)))
            return true;
        return n % 2 == 0 &&
               (is_window(interleave(u)) || is_window(deinterleave(u)));
    }

    /** Lanes first .. first + n - 1 of source s. */
    static Arrangement
    slice(int s, int first, int n)
    {
        Arrangement out;
        for (int i = 0; i < n; ++i)
            out.push_back(Cell::src(s, first + i));
        return out;
    }

    int
    read_cost(VecType type) const
    {
        const hir::LoadRef ref{0, 0, 0};
        return neon_ ? neon::issue_count(*neon::NInstr::make_load(ref, type),
                                         neon::Target{})
                     : hvx::issue_count(*hvx::Instr::make_read(ref, type),
                                        hvx::Target{});
    }

    bool neon_;
    std::vector<VecType> types_;
    mutable std::map<std::string, std::optional<int>> cache_;
};

/** What the search charged for `instr`: its tree cost, sources free. */
int
tree_cost(bool neon, const backend::InstrHandle &instr,
          const std::vector<backend::InstrHandle> &sources)
{
    if (std::find(sources.begin(), sources.end(), instr) != sources.end())
        return 0;
    int own = 0;
    std::vector<backend::InstrHandle> args;
    if (neon) {
        const auto n = std::static_pointer_cast<const neon::NInstr>(instr);
        const int regs = neon::Target{}.regs_for(n->type());
        switch (n->op()) {
          case neon::NOp::Ld1:
            own = neon::issue_count(*n, neon::Target{});
            break;
          case neon::NOp::Dup:
          case neon::NOp::Lo:
          case neon::NOp::Hi:
          case neon::NOp::Combine:
            break;
          case neon::NOp::Tbl:
            own = 2 * regs;
            break;
          default:
            own = regs;
            break;
        }
        args.assign(n->args().begin(), n->args().end());
    } else {
        const auto h = std::static_pointer_cast<const hvx::Instr>(instr);
        switch (h->op()) {
          case hvx::Opcode::VRead:
            own = hvx::issue_count(*h, hvx::Target{});
            break;
          case hvx::Opcode::VSplat:
          case hvx::Opcode::VLo:
          case hvx::Opcode::VHi:
            break;
          default:
            own = 1;
            break;
        }
        args.assign(h->args().begin(), h->args().end());
    }
    for (const auto &a : args)
        own += tree_cost(neon, a, sources);
    return own;
}

/** A random arrangement of `n` lanes over windows, sources and zeros. */
Arrangement
random_arrangement(Rng &rng, int n, const std::vector<VecType> &types)
{
    const int ns = static_cast<int>(types.size());
    Arrangement a;
    switch (rng.range(0, 4)) {
      case 0:
        a = window_cells(0, static_cast<int>(rng.range(-1, 1)),
                         static_cast<int>(rng.range(-2, 2)), n);
        break;
      case 1:
        a.assign(n, Cell::zero());
        break;
      case 2:
        if (n % 2 == 0 && n >= 2) {
            a = concat(random_arrangement(rng, n / 2, types),
                       random_arrangement(rng, n / 2, types));
            break;
        }
        [[fallthrough]];
      case 3:
        if (ns > 0) {
            // A run of one source's lanes, wrapping into a second
            // source past its end (a vext funnel when r > 0).
            const int s = static_cast<int>(rng.range(0, ns - 1));
            const int t = static_cast<int>(rng.range(0, ns - 1));
            const int r = static_cast<int>(rng.range(0, n - 1));
            const int first = types[s].lanes == 2 * n && rng.chance(1, 2)
                                  ? n
                                  : 0;
            for (int i = 0; i < n; ++i)
                a.push_back(i + r < n ? Cell::src(s, first + i + r)
                                      : Cell::src(t, i + r - n));
            break;
        }
        [[fallthrough]];
      default:
        for (int i = 0; i < n; ++i) {
            const int k = static_cast<int>(rng.range(0, ns > 0 ? 2 : 1));
            a.push_back(k == 0   ? Cell::zero()
                        : k == 1 ? Cell::buf(0, 0,
                                             static_cast<int>(rng.range(0, 7)))
                                 : Cell::src(static_cast<int>(rng.range(
                                                 0, ns - 1)),
                                             static_cast<int>(
                                                 rng.range(0, n - 1))));
        }
        break;
    }
    for (int k = static_cast<int>(rng.range(0, 2)); k > 0; --k) {
        switch (rng.range(0, 3)) {
          case 0:
            if (n % 2 == 0)
                a = deinterleave(a);
            break;
          case 1:
            if (n % 2 == 0)
                a = interleave(a);
            break;
          case 2:
            a = rotate(a, static_cast<int>(rng.range(1, n)) % n);
            break;
          default:
            std::reverse(a.begin(), a.end());
            break;
        }
    }
    return a;
}

/**
 * The search against BruteForce over random small holes (<= 8 lanes),
 * each solved on one backend at budgets 0..4 in random order, so the
 * memo carries results across budgets as backtracking does: a program
 * exactly when the reference has one, at the reference's cost.
 */
void
expect_brute_force_costs(bool neon, uint64_t seed, int trials)
{
    Rng rng(seed);
    const ScalarType elems[] = {u8, ScalarType::UInt16, ScalarType::UInt32};
    for (int trial = 0; trial < trials; ++trial) {
        const int n = std::array<int, 4>{2, 4, 6, 8}[rng.range(0, 3)];
        const ScalarType elem = elems[rng.range(0, 2)];
        std::vector<VecType> types;
        std::vector<backend::InstrHandle> sources;
        for (int s = static_cast<int>(rng.range(0, 2)); s > 0; --s) {
            const VecType t(elem, rng.chance(1, 3) ? 2 * n : n);
            const hir::LoadRef ref{7, static_cast<int>(types.size()), 0};
            types.push_back(t);
            sources.push_back(
                neon ? backend::InstrHandle(neon::NInstr::make_load(ref, t))
                     : backend::InstrHandle(hvx::Instr::make_read(ref, t)));
        }
        const Hole hole{VecType(elem, n),
                        random_arrangement(rng, n, types), sources};
        const BruteForce reference(neon, types);
        const int scale =
            neon ? std::max(1, neon::Target{}.regs_for(hole.type)) : 1;

        auto make_isa = [neon] {
            return neon ? backend::make_neon_backend(neon::Target{})
                        : backend::make_hvx_backend(hvx::Target{});
        };
        auto warm = make_isa();
        SwizzleStats warm_stats;
        std::array<int, 5> budgets = {0, 1, 2, 3, 4};
        for (int i = 4; i > 0; --i)
            std::swap(budgets[i], budgets[rng.range(0, i)]);
        for (const int budget : budgets) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " budget " +
                         std::to_string(budget) + " lanes " +
                         std::to_string(n));
            const auto want =
                reference.cost(hole.cells, elem, budget * scale);
            SwizzleStats stats;
            const auto got = make_isa()->solve_hole(hole, budget, stats);
            ASSERT_EQ(got.has_value(), want.has_value())
                << (got ? warm->instr_to_sexpr(*got) : "unsat");
            if (got) {
                EXPECT_EQ(tree_cost(neon, *got, sources), *want)
                    << warm->instr_to_sexpr(*got);
            }
            const auto again = warm->solve_hole(hole, budget, warm_stats);
            if (!neon) {
                ASSERT_EQ(again.has_value(), want.has_value());
                if (again) {
                    EXPECT_EQ(tree_cost(neon, *again, sources), *want)
                        << warm->instr_to_sexpr(*again);
                }
            } else if (want) {
                ASSERT_TRUE(again.has_value());
                EXPECT_LE(tree_cost(neon, *again, sources), *want)
                    << warm->instr_to_sexpr(*again);
            }
        }
    }
}

TEST(Swizzle, HvxSearchMatchesBruteForce)
{
    expect_brute_force_costs(false, 11, 1000);
}

TEST(Swizzle, NeonSearchMatchesBruteForce)
{
    expect_brute_force_costs(true, 13, 1000);
}

} // namespace
} // namespace rake
