/**
 * @file
 * Tests for the synthesis substrate: specs, example-pool geometry,
 * the CEGIS verifier (acceptance, rejection, counter-example
 * persistence), and the symbolic-vector / arrangement machinery.
 */
#include <gtest/gtest.h>

#include "hir/builder.h"
#include "hir/interp.h"
#include "hvx/interp.h"
#include "synth/spec.h"
#include "synth/swizzle.h"
#include "synth/symbolic_vector.h"
#include "synth/verify.h"

namespace rake {
namespace {

using namespace rake::hir;
using namespace rake::synth;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;

TEST(Spec, CollectsLoadsVarsAndBufferTypes)
{
    HExpr e = cast(u16, load(0, u8, 16, -1)) +
              load(1, u16, 16, 2) * broadcast(var("k", u16), 16);
    Spec s = Spec::from_expr(e.ptr());
    EXPECT_EQ(s.loads.size(), 2u);
    EXPECT_EQ(s.vars.size(), 1u);
    EXPECT_EQ(s.buffer_elem.at(0), u8);
    EXPECT_EQ(s.buffer_elem.at(1), u16);
    EXPECT_THROW(Spec::from_expr(nullptr), UserError);
}

TEST(Spec, GeometryCoversFootprintWithMargin)
{
    HExpr e = cast(u16, load(0, u8, 16, -3, -1)) +
              cast(u16, load(0, u8, 16, 4, 2));
    Spec s = Spec::from_expr(e.ptr());
    auto geo = buffer_geometry(s);
    const BufferGeometry &g = geo.at(0);
    EXPECT_EQ(g.min_dx, -3);
    EXPECT_EQ(g.max_dx, 4);
    EXPECT_EQ(g.min_dy, -1);
    EXPECT_EQ(g.max_dy, 2);
    EXPECT_EQ(g.lanes, 16);
    EXPECT_GT(g.margin, 0);
    EXPECT_LE(g.x0(), -3 - g.margin);
    EXPECT_GE(g.width(), 8 + 16);
    EXPECT_EQ(g.height(), 4);
}

TEST(ExamplePool, DeterministicAndCovering)
{
    HExpr e = cast(u16, load(0, u8, 8, -1)) + 1;
    Spec s = Spec::from_expr(e.ptr());
    ExamplePool p1(s, 42), p2(s, 42), p3(s, 43);
    // Same seed, same data.
    EXPECT_EQ(p1.at(6).buffers.at(0).data, p2.at(6).buffers.at(0).data);
    // Different seeds diverge on random patterns.
    EXPECT_NE(p1.at(6).buffers.at(0).data, p3.at(6).buffers.at(0).data);
    // Corner patterns: all-max exists among the first examples.
    bool has_max = false;
    for (int i = 0; i < 5; ++i) {
        const Buffer &b = p1.at(i).buffers.at(0);
        bool all_max = true;
        for (int64_t v : b.data)
            all_max &= v == 255;
        has_max |= all_max;
    }
    EXPECT_TRUE(has_max);
    // Evaluation works on every example.
    for (int i = 0; i < 8; ++i)
        EXPECT_NO_THROW(evaluate(e.ptr(), p1.at(i)));
}

TEST(Verifier, AcceptsEquivalentRejectsWrong)
{
    HExpr a = cast(u16, load(0, u8, 8, 0));
    HExpr b = cast(u16, load(0, u8, 8, 1));
    HExpr e = a + b;
    Spec s = Spec::from_expr(e.ptr());
    ExamplePool pool(s, 7);
    Verifier v(s, pool);
    QueryStats qs;

    // An equivalent candidate (commuted).
    HExpr good = b + a;
    EXPECT_TRUE(v.equivalent(
        [&](const Env &env) { return evaluate(good.ptr(), env); }, qs));
    EXPECT_EQ(qs.accepted, 1);

    // A subtly wrong candidate (saturating add).
    Evaluator bad = [&](const Env &env) {
        Value va = evaluate(a.ptr(), env);
        Value vb = evaluate(b.ptr(), env);
        Value out = Value::zero(va.type);
        for (int i = 0; i < va.type.lanes; ++i)
            out[i] = saturate(u16, va[i] + vb[i]);
        return out;
    };
    // u16 + u16 of widened u8 never overflows, so saturation IS
    // equivalent here; build a genuinely wrong one instead: drop b.
    Evaluator wrong = [&](const Env &env) {
        return evaluate(a.ptr(), env);
    };
    EXPECT_TRUE(v.equivalent(bad, qs));
    EXPECT_FALSE(v.equivalent(wrong, qs));
    EXPECT_GE(qs.queries, 3);
}

TEST(Verifier, CounterexamplePersists)
{
    // A candidate wrong only on large inputs is caught by the corner
    // examples or the randomized search, and the counter-example then
    // rejects it instantly on retry.
    HExpr x = load(0, u8, 8);
    HExpr e = x + 1; // wraps at 255
    Spec s = Spec::from_expr(e.ptr());
    ExamplePool pool(s, 7);
    Verifier v(s, pool);
    QueryStats qs;
    Evaluator saturating = [&](const Env &env) {
        Value vx = evaluate(x.ptr(), env);
        Value out = Value::zero(vx.type);
        for (int i = 0; i < vx.type.lanes; ++i)
            out[i] = saturate(u8, vx[i] + 1);
        return out;
    };
    EXPECT_FALSE(v.equivalent(saturating, qs));
    const int size_after = pool.size();
    EXPECT_FALSE(v.equivalent(saturating, qs));
    // No growth: the persistent counter-example did the job.
    EXPECT_EQ(pool.size(), size_after);
}

TEST(SymbolicVector, LayoutPermutations)
{
    Value lin(VecType(u8, 8), {0, 1, 2, 3, 4, 5, 6, 7});
    Value deint = apply_layout(lin, Layout::Deinterleaved);
    EXPECT_EQ(deint.lanes,
              (std::vector<int64_t>{0, 2, 4, 6, 1, 3, 5, 7}));
    EXPECT_EQ(apply_layout(lin, Layout::Linear), lin);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(deint[i],
                  lin[layout_source_lane(Layout::Deinterleaved, 8, i)]);
}

TEST(SymbolicVector, ArrangementAlgebra)
{
    SwizzleMemo memo;
    Arrangement w = window_cells(0, 0, -1, 8);
    int buffer = 0, dy = 0, x0 = 0;
    EXPECT_TRUE(memo.is_window(memo.intern(w), &buffer, &dy, &x0));
    EXPECT_EQ(x0, -1);

    Arrangement d = deinterleave(w);
    EXPECT_FALSE(memo.is_window(memo.intern(d), &buffer, &dy, &x0));
    EXPECT_TRUE(interleave(d) == w);
    EXPECT_TRUE(deinterleave(interleave(w)) == w);
    EXPECT_TRUE(rotate(rotate(w, 3), 5) == w);

    Arrangement s = source_cells(0, 8);
    int src = -1, first = -1;
    EXPECT_TRUE(memo.is_source_run(memo.intern(s), &src, &first));
    EXPECT_EQ(src, 0);
    EXPECT_EQ(first, 0);
    EXPECT_FALSE(memo.is_source_run(memo.intern(rotate(s, 1)), &src,
                                    &first));
}

TEST(SymbolicVector, OracleReadsBufferAndSources)
{
    Env env;
    Buffer b(u8, 16, 1, 0, 0);
    for (int i = 0; i < 16; ++i)
        b.data[i] = i * 3;
    env.buffers.emplace(0, std::move(b));

    // Buffer cells.
    Hole h1{VecType(u8, 4), window_cells(0, 0, 2, 4), {}};
    Value v1 = arrangement_value(h1, env);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v1[i], (2 + i) * 3);

    // Source cells with a permutation.
    hvx::InstrPtr src = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                              VecType(u8, 4));
    Hole h2{VecType(u8, 4), rotate(source_cells(0, 4), 1), {src}};
    Value v2 = arrangement_value(h2, env);
    Value sv = hvx::evaluate(src, env);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v2[i], sv[(i + 1) % 4]);

    // Zero cells.
    Hole h3{VecType(u8, 2), {Cell::zero(), Cell::zero()}, {}};
    Value v3 = arrangement_value(h3, env);
    EXPECT_EQ(v3[0], 0);
    EXPECT_EQ(v3[1], 0);
}

} // namespace
} // namespace rake
