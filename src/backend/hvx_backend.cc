#include "backend/hvx_backend.h"

#include <algorithm>

#include "backend/leaf_util.h"
#include "baseline/halide_optimizer.h"
#include "hvx/interp.h"
#include "hvx/sexpr.h"
#include "support/error.h"
#include "synth/sketch.h"
#include "synth/swizzle.h"
#include "synth/symbolic_vector.h"

namespace rake::backend {

namespace {

using hvx::Instr;
using hvx::InstrPtr;
using hvx::Opcode;
using uir::UExpr;
using uir::UExprPtr;
using uir::UOp;
using uir::UParams;

using synth::Arrangement;
using synth::Cell;
using synth::Layout;
using synth::SketchBuilder;
using synth::layout_source_lane;
using synth::window_cells;

/** Permutation cells converting a value between layouts. */
Arrangement
relayout_cells(int lanes, Layout from, Layout to)
{
    // stored_from[i] = lin[sigma_from(i)]; we need out[i] =
    // lin[sigma_to(i)] = stored_from[sigma_from^-1(sigma_to(i))].
    auto sigma = [&](Layout l, int i) {
        return layout_source_lane(l, lanes, i);
    };
    auto sigma_inv = [&](Layout l, int j) {
        if (l == Layout::Linear || lanes % 2 != 0)
            return j;
        const int h = lanes / 2;
        return j % 2 == 0 ? j / 2 : h + j / 2;
    };
    Arrangement cells;
    cells.reserve(lanes);
    for (int i = 0; i < lanes; ++i)
        cells.push_back(Cell::src(0, sigma_inv(from, sigma(to, i))));
    return cells;
}

/**
 * The HVX sketch grammar (the specialized per-uber-instruction
 * templates of §3.1 / §4), recursing into the shared lowering core
 * through the LowerDriver. One instance per candidates() call.
 */
class HvxGrammar
{
  public:
    explicit HvxGrammar(LowerDriver &driver) : driver_(driver) {}

    void
    candidates(const UExprPtr &u, Layout layout,
               std::vector<Sketch> &out)
    {
        try {
            switch (u->op()) {
              case UOp::HirLeaf:
                leaf_templates(u, layout, out);
                break;
              case UOp::Widen:
                widen_templates(u, layout, out);
                break;
              case UOp::Narrow:
                narrow_templates(u, layout, out);
                break;
              case UOp::VsMpyAdd:
                vs_mpy_add_templates(u, layout, out);
                break;
              case UOp::VvMpyAdd:
                vv_mpy_add_templates(u, layout, out);
                break;
              default:
                lanewise_templates(u, layout, out);
                break;
            }
        } catch (const UserError &) {
            // A template built an ill-typed instruction; whatever was
            // emitted before the failure is still usable.
        }
    }

  private:
    /** A lowered sub-expression, as the grammar templates see it. */
    struct Impl {
        InstrPtr instr;
    };

    /** Recursive lowering through the core (the memoized search). */
    std::optional<Impl>
    lower(const UExprPtr &c, Layout l)
    {
        auto h = driver_.lowered(c, l);
        if (!h)
            return std::nullopt;
        return Impl{std::static_pointer_cast<const Instr>(*h)};
    }

    /** Lowered child in the requested layout (or nullopt). */
    std::optional<Impl>
    child(const UExprPtr &c, Layout l)
    {
        if (!driver_.layouts_enabled() && l != Layout::Linear)
            return std::nullopt;
        return lower(c, l);
    }

    UExprPtr
    pin(UExprPtr u)
    {
        return driver_.pin(std::move(u));
    }

    // ---------------------------------------------------------------
    // Template helpers
    // ---------------------------------------------------------------

    std::vector<Layout>
    layout_choices() const
    {
        if (!driver_.layouts_enabled())
            return {Layout::Linear};
        return {Layout::Deinterleaved, Layout::Linear};
    }

    /** Convert a built value between layouts via a ??swizzle hole. */
    InstrPtr
    convert(SketchBuilder &b, const InstrPtr &v, Layout from, Layout to)
    {
        if (from == to || v->type().lanes % 2 != 0)
            return v;
        if (v->op() == Opcode::VSplat)
            return v; // splats are permutation-invariant
        return b.permute_hole(
            v, relayout_cells(v->type().lanes, from, to));
    }

    /** Splat of a scalar HIR expression at a given lane count. */
    InstrPtr
    splat(const hir::ExprPtr &scalar, int lanes)
    {
        return Instr::make_splat(scalar, lanes);
    }

    InstrPtr
    splat_const(int64_t v, ScalarType t, int lanes)
    {
        return splat(hir::Expr::make_const(v, VecType(t, 1)), lanes);
    }

    /** Insert a free bitcast when widths match but the type differs. */
    InstrPtr
    coerce(InstrPtr v, const VecType &want)
    {
        if (!v || v->type() == want)
            return v;
        if (v->type().total_bytes() == want.total_bytes())
            return Instr::make(Opcode::VBitcast, {v}, {}, want.elem);
        return nullptr;
    }

    /** Append one finished template (with the final layout fix). */
    void
    emit(std::vector<Sketch> &out, SketchBuilder &b, InstrPtr root,
         Layout natural, Layout requested, const VecType &want,
         const char *note)
    {
        root = coerce(std::move(root), want);
        if (!root)
            return;
        root = convert(b, root, natural, requested);
        Sketch sk;
        sk.root = std::move(root);
        sk.holes = b.take();
        sk.note = note;
        out.push_back(std::move(sk));
    }

    /**
     * Widening move of a lowered (linear) value: vzxt / vsxt, which
     * produces a deinterleaved pair.
     */
    InstrPtr
    widen_move(const InstrPtr &v, ScalarType out_elem)
    {
        const ScalarType in = v->type().elem;
        if (bits(out_elem) != 2 * bits(in))
            return nullptr;
        InstrPtr w = Instr::make(is_signed(in) ? Opcode::VSxt
                                               : Opcode::VZxt,
                                 {v});
        return coerce(w, v->type().with_elem(out_elem));
    }

    // ---------------------------------------------------------------
    // Per-uber-instruction sketch enumeration
    // ---------------------------------------------------------------

    void
    leaf_templates(const UExprPtr &u, Layout layout,
                   std::vector<Sketch> &out)
    {
        const VecType t = u->type();
        hir::LoadRef ref;
        if (is_load_leaf(u, &ref)) {
            // A ??load hole: the solver will realize it as a vmem
            // read (plus a deal when a deinterleaved layout is asked
            // for).
            SketchBuilder b;
            Arrangement cells;
            cells.reserve(t.lanes);
            for (int i = 0; i < t.lanes; ++i) {
                cells.push_back(Cell::buf(
                    ref.buffer, ref.dy,
                    ref.dx + layout_source_lane(layout, t.lanes, i)));
            }
            InstrPtr h = b.hole(t, std::move(cells));
            emit(out, b, h, layout, layout, t, "load");
            return;
        }
        // Splat: layout-invariant.
        SketchBuilder b;
        emit(out, b, splat(splat_scalar(u), t.lanes), layout, layout, t,
             "splat");
    }

    void
    widen_templates(const UExprPtr &u, Layout layout,
                    std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UExprPtr &x = u->arg(0);
        const int ratio = bits(want.elem) / bits(x->type().elem);

        if (ratio == 1) {
            // Same-width widen: free register reinterpretation.
            for (Layout lc : layout_choices()) {
                auto cx = child(x, lc);
                if (!cx)
                    continue;
                SketchBuilder b;
                emit(out, b, cx->instr, lc, layout, want, "widen.bitcast");
            }
            return;
        }
        if (ratio == 2) {
            auto cx = child(x, Layout::Linear);
            if (cx) {
                SketchBuilder b;
                InstrPtr w = widen_move(cx->instr, want.elem);
                if (w)
                    emit(out, b, w, Layout::Deinterleaved, layout, want,
                         "widen.vzxt");
            }
            return;
        }
        if (ratio == 4) {
            // Two widening moves with an explicit relayout between.
            auto cx = child(x, Layout::Linear);
            if (cx) {
                SketchBuilder b;
                InstrPtr w1 =
                    widen_move(cx->instr, widen(x->type().elem));
                if (w1) {
                    InstrPtr lin = convert(b, w1, Layout::Deinterleaved,
                                           Layout::Linear);
                    InstrPtr w2 = widen_move(lin, want.elem);
                    if (w2)
                        emit(out, b, w2, Layout::Deinterleaved, layout,
                             want, "widen.vzxt2");
                }
            }
            return;
        }
    }

    void
    narrow_templates(const UExprPtr &u, Layout layout,
                     std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UExprPtr &x = u->arg(0);
        const UParams &p = u->params();
        const ScalarType in_elem = x->type().elem;
        const int ratio = bits(in_elem) / bits(want.elem);

        if (ratio == 1) {
            same_width_narrow_templates(u, layout, out);
            return;
        }
        if (ratio == 4) {
            // Narrow in two hops via a synthetic middle-width UIR
            // node (shift+round+sat in the first hop, final clamp in
            // the second); the verifier rejects unsound compositions.
            ScalarType mid = narrow(in_elem);
            UParams p1;
            p1.out_elem = mid;
            p1.shift = p.shift;
            p1.round = p.round;
            p1.saturate = p.saturate;
            UParams p2;
            p2.out_elem = want.elem;
            p2.saturate = p.saturate;
            const UExprPtr two = pin(UExpr::make(
                UOp::Narrow,
                {pin(UExpr::make(UOp::Narrow, {x}, p1))}, p2));
            auto impl = lower(two, layout);
            if (impl) {
                Sketch sk;
                sk.root = impl->instr;
                sk.note = "narrow.twohop";
                out.push_back(std::move(sk));
            }
            return;
        }
        if (ratio != 2)
            return;

        for (Layout lc : layout_choices()) {
            auto cx = child(x, lc);
            if (!cx)
                continue;
            // The pack instructions interleave their two operands, so
            // the operands must be the deinterleaved halves. A linear
            // child needs an explicit ??swizzle (vdealvdd) first —
            // exactly the shuffle Halide inserts.
            SketchBuilder b;
            InstrPtr pair =
                convert(b, cx->instr, lc, Layout::Deinterleaved);
            InstrPtr lo = Instr::make(Opcode::VLo, {pair});
            InstrPtr hi = Instr::make(Opcode::VHi, {pair});

            auto emit_pack = [&](InstrPtr root, const char *note) {
                if (!root)
                    return;
                SketchBuilder b2;
                // Transfer holes from b (pair conversion) to b2.
                b2 = std::move(b);
                emit(out, b2, std::move(root), Layout::Linear, layout,
                     want, note);
                // Rebuild b for the next variant.
                b = SketchBuilder();
                pair = convert(b, cx->instr, lc, Layout::Deinterleaved);
                lo = Instr::make(Opcode::VLo, {pair});
                hi = Instr::make(Opcode::VHi, {pair});
            };

            if (p.saturate && p.shift == 0) {
                emit_pack(Instr::make(Opcode::VSat, {lo, hi}, {},
                                      want.elem),
                          "narrow.vsat");
                emit_pack(Instr::make(Opcode::VPackSat, {lo, hi}, {},
                                      want.elem),
                          "narrow.vpack.sat");
            }
            if (p.saturate && p.shift > 0) {
                emit_pack(Instr::make(p.round
                                          ? Opcode::VAsrNarrowRndSat
                                          : Opcode::VAsrNarrowSat,
                                      {lo, hi}, {p.shift}, want.elem),
                          p.round ? "narrow.vasr.rnd.sat"
                                  : "narrow.vasr.sat");
            }
            if (!p.saturate && p.shift == 0) {
                emit_pack(Instr::make(Opcode::VPackE, {lo, hi}),
                          "narrow.vpacke");
            }
            if (!p.saturate && p.shift > 0 && !p.round) {
                emit_pack(Instr::make(Opcode::VAsrNarrow, {lo, hi},
                                      {p.shift}),
                          "narrow.vasr.n");
            }
            // Composite fallback: shift each half, then pack — the
            // two-instruction sequence Halide's rules produce.
            {
                InstrPtr sl = lo, sh = hi;
                if (p.shift > 0) {
                    const Opcode shop =
                        p.round ? Opcode::VAsrRnd : Opcode::VAsr;
                    sl = Instr::make(shop, {lo}, {p.shift});
                    sh = Instr::make(shop, {hi}, {p.shift});
                }
                InstrPtr root =
                    p.saturate ? Instr::make(Opcode::VSat, {sl, sh}, {},
                                             want.elem)
                               : Instr::make(Opcode::VPackE, {sl, sh});
                emit_pack(std::move(root), "narrow.composite");
            }
        }
    }

    void
    same_width_narrow_templates(const UExprPtr &u, Layout layout,
                                std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UExprPtr &x = u->arg(0);
        const UParams &p = u->params();
        const ScalarType in_elem = x->type().elem;

        for (Layout lc : layout_choices()) {
            auto cx = child(x, lc);
            if (!cx)
                continue;
            SketchBuilder b;
            InstrPtr v = cx->instr;
            if (p.shift > 0) {
                const Opcode shop = p.round ? Opcode::VAsrRnd
                                   : is_signed(in_elem) ? Opcode::VAsr
                                                        : Opcode::VLsr;
                v = Instr::make(shop, {v}, {p.shift});
            }
            if (p.saturate) {
                if (is_signed(in_elem) && !is_signed(want.elem)) {
                    v = Instr::make(Opcode::VMax,
                                    {v, splat_const(0, in_elem,
                                                    want.lanes)});
                } else if (!is_signed(in_elem) &&
                           is_signed(want.elem)) {
                    v = Instr::make(
                        Opcode::VMin,
                        {v, splat_const(max_value(want.elem), in_elem,
                                        want.lanes)});
                }
            }
            emit(out, b, v, lc, layout, want, "narrow.samewidth");
        }
    }

    // ----- vs-mpy-add -----------------------------------------------

    /** One term of the multiply-add: UIR node + weight. */
    struct MTerm {
        UExprPtr node;
        int64_t weight;
        bool wide; ///< element width equals the output width
    };

    void
    vs_mpy_add_templates(const UExprPtr &u, Layout layout,
                         std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();
        const int k = u->num_args();

        std::vector<MTerm> terms;
        bool ok = true;
        for (int i = 0; i < k; ++i) {
            const UExprPtr &a = u->arg(i);
            const int ab = bits(a->type().elem);
            const int ob = bits(want.elem);
            if (ab == ob) {
                terms.push_back({a, p.kernel[i], true});
            } else if (2 * ab == ob) {
                terms.push_back({a, p.kernel[i], false});
            } else if (4 * ab == ob) {
                // 4x-widening term (e.g. u8 into an i32 accumulator):
                // pre-widen to the middle width so the multiply
                // templates see a regular 2x term.
                UParams wp;
                ScalarType mid = widen(a->type().elem);
                if (is_signed(want.elem))
                    mid = to_signed(mid);
                wp.out_elem = mid;
                terms.push_back({pin(UExpr::make(UOp::Widen, {a}, wp)),
                                 p.kernel[i], false});
            } else {
                ok = false;
            }
        }
        if (!ok)
            return;

        if (p.saturate) {
            // Only the 2-term wide saturating add maps directly.
            if (k == 2 && terms[0].wide && terms[1].wide &&
                terms[0].weight == 1 && terms[1].weight == 1) {
                for (Layout lc : layout_choices()) {
                    auto c0 = child(terms[0].node, lc);
                    auto c1 = child(terms[1].node, lc);
                    if (!c0 || !c1)
                        continue;
                    SketchBuilder b;
                    emit(out, b,
                         Instr::make(Opcode::VAddSat,
                                     {coerce(c0->instr, want),
                                      coerce(c1->instr, want)}),
                         lc, layout, want, "vadd.sat");
                }
            }
            return;
        }

        // Single-term templates.
        if (k == 1)
            single_term_templates(u, terms[0], layout, out);

        // Two wide terms, unit/neg-unit weights: plain vadd / vsub.
        if (k == 2 && terms[0].wide && terms[1].wide) {
            for (Layout lc : layout_choices()) {
                auto c0 = child(terms[0].node, lc);
                auto c1 = child(terms[1].node, lc);
                if (!c0 || !c1)
                    continue;
                InstrPtr a = coerce(c0->instr, want);
                InstrPtr bb = coerce(c1->instr, want);
                if (!a || !bb)
                    continue;
                if (terms[0].weight == 1 && terms[1].weight == 1) {
                    SketchBuilder b;
                    emit(out, b, Instr::make(Opcode::VAdd, {a, bb}), lc,
                         layout, want, "vadd");
                }
                if (terms[0].weight == 1 && terms[1].weight == -1) {
                    SketchBuilder b;
                    emit(out, b, Instr::make(Opcode::VSub, {a, bb}), lc,
                         layout, want, "vsub");
                }
            }
        }

        // Wide + narrow with unit weights: widening multiply-
        // accumulate with weight 1 (the average_pool trick). Two
        // forms: accumulate in deinterleaved space, or keep the
        // accumulator linear and shuffle the narrow operand instead
        // (cheaper when the accumulator comes straight from memory).
        if (k == 2) {
            for (int wi = 0; wi < 2; ++wi) {
                const MTerm &w = terms[wi];
                const MTerm &n = terms[1 - wi];
                if (!w.wide || n.wide || w.weight != 1)
                    continue;
                if (auto cw = child(w.node, Layout::Deinterleaved)) {
                    auto cn = child(n.node, Layout::Linear);
                    if (cn) {
                        SketchBuilder b;
                        InstrPtr acc = coerce(cw->instr, want);
                        if (acc) {
                            InstrPtr root = Instr::make(
                                Opcode::VMpyAcc,
                                {acc, cn->instr,
                                 splat_const(n.weight,
                                             n.node->type().elem,
                                             n.node->type().lanes)});
                            emit(out, b, root, Layout::Deinterleaved,
                                 layout, want, "vmpy.acc");
                        }
                    }
                }
                if (auto cw = child(w.node, Layout::Linear)) {
                    auto cn = child(n.node, Layout::Linear);
                    if (cn) {
                        SketchBuilder b;
                        InstrPtr acc = coerce(cw->instr, want);
                        if (acc) {
                            // Pre-shuffle the narrow operand so the
                            // deinterleaving product lines up with
                            // the linear accumulator.
                            const int nl = cn->instr->type().lanes;
                            Arrangement cells;
                            cells.reserve(nl);
                            for (int i = 0; i < nl; ++i) {
                                cells.push_back(Cell::src(
                                    0, i % 2 == 0 ? i / 2
                                                  : nl / 2 + i / 2));
                            }
                            InstrPtr shuffled =
                                b.permute_hole(cn->instr, cells);
                            InstrPtr root = Instr::make(
                                Opcode::VMpyAcc,
                                {acc, shuffled,
                                 splat_const(n.weight,
                                             n.node->type().elem,
                                             n.node->type().lanes)});
                            emit(out, b, root, Layout::Linear, layout,
                                 want, "vmpy.acc.linear");
                        }
                    }
                }
            }
        }

        // Sliding-window templates over consecutive load leaves.
        window_templates(u, terms, layout, out);
        window_chain_templates(u, terms, layout, out);

        // General accumulator chains (two orderings).
        chain_templates(u, terms, layout, out, /*widen_first=*/false);
        chain_templates(u, terms, layout, out, /*widen_first=*/true);
    }

    void
    single_term_templates(const UExprPtr &u, const MTerm &t,
                          Layout layout, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        if (t.wide) {
            for (Layout lc : layout_choices()) {
                auto c = child(t.node, lc);
                if (!c)
                    continue;
                InstrPtr v = coerce(c->instr, want);
                if (!v)
                    continue;
                if (t.weight == 1) {
                    SketchBuilder b;
                    emit(out, b, v, lc, layout, want, "move");
                } else if (t.weight > 0 &&
                           (t.weight & (t.weight - 1)) == 0) {
                    SketchBuilder b;
                    int n = 0;
                    while ((int64_t{1} << n) < t.weight)
                        ++n;
                    emit(out, b, Instr::make(Opcode::VAsl, {v}, {n}), lc,
                         layout, want, "vasl");
                } else {
                    SketchBuilder b;
                    emit(out, b,
                         Instr::make(Opcode::VMpyi,
                                     {v, splat_const(t.weight, want.elem,
                                                     want.lanes)}),
                         lc, layout, want, "vmpyi");
                }
            }
            return;
        }
        // Narrow term: widening multiply by a splat weight.
        auto c = child(t.node, Layout::Linear);
        if (!c)
            return;
        if (t.weight == 1) {
            SketchBuilder b;
            InstrPtr w = widen_move(c->instr, want.elem);
            if (w)
                emit(out, b, w, Layout::Deinterleaved, layout, want,
                     "widen.move");
        }
        SketchBuilder b;
        InstrPtr root = Instr::make(
            Opcode::VMpy,
            {c->instr, splat_const(t.weight, t.node->type().elem,
                                   t.node->type().lanes)});
        emit(out, b, root, Layout::Deinterleaved, layout, want, "vmpy");
    }

    /**
     * Find a run of `len` consecutive-load terms (same buffer / row,
     * dx increasing by one) starting the run at any term order.
     * Returns term indices or empty.
     */
    std::vector<int>
    find_window_run(const std::vector<MTerm> &terms, size_t len)
    {
        // Collect load terms.
        struct L {
            int term;
            hir::LoadRef ref;
        };
        std::vector<L> loads;
        for (size_t i = 0; i < terms.size(); ++i) {
            hir::LoadRef ref;
            if (!terms[i].wide && is_load_leaf(terms[i].node, &ref))
                loads.push_back({static_cast<int>(i), ref});
        }
        for (const L &start : loads) {
            std::vector<int> run = {start.term};
            hir::LoadRef cur = start.ref;
            while (run.size() < len) {
                bool found = false;
                for (const L &next : loads) {
                    if (next.ref.buffer == cur.buffer &&
                        next.ref.dy == cur.dy &&
                        next.ref.dx == cur.dx + 1) {
                        run.push_back(next.term);
                        cur = next.ref;
                        found = true;
                        break;
                    }
                }
                if (!found)
                    break;
            }
            if (run.size() == len)
                return run;
        }
        return {};
    }

    void
    window_templates(const UExprPtr &u, const std::vector<MTerm> &terms,
                     Layout layout, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const int L = want.lanes;

        // vtmpy: 3-tap with implicit trailing weight 1.
        auto try_window = [&](size_t len, Opcode op, Opcode acc_op) {
            std::vector<int> run = find_window_run(terms, len);
            if (run.empty())
                return;
            // The window taps must be every narrow term except those
            // we can chain afterward; here we require the run plus
            // arbitrary leftover terms.
            if (op == Opcode::VTmpy && terms[run[2]].weight != 1)
                return;
            if (op == Opcode::VRmpy &&
                bits(terms[run[0]].node->type().elem) != 8)
                return;

            hir::LoadRef ref;
            is_load_leaf(terms[run[0]].node, &ref);

            SketchBuilder b;
            // ??load holes: two consecutive windows covering the taps.
            const ScalarType le = terms[run[0]].node->type().elem;
            InstrPtr h0 = b.hole(VecType(le, L),
                                 window_cells(ref.buffer, ref.dy,
                                              ref.dx, L));
            InstrPtr h1 = b.hole(VecType(le, L),
                                 window_cells(ref.buffer, ref.dy,
                                              ref.dx + L, L));
            std::vector<int64_t> ws;
            for (size_t j = 0; j < len; ++j)
                ws.push_back(terms[run[j]].weight);
            if (op == Opcode::VTmpy)
                ws.pop_back(); // trailing weight is implicit 1

            // Remaining terms accumulate on top.
            std::vector<MTerm> rest;
            for (size_t i = 0; i < terms.size(); ++i) {
                if (std::find(run.begin(), run.end(),
                              static_cast<int>(i)) == run.end())
                    rest.push_back(terms[i]);
            }

            InstrPtr root;
            if (rest.empty()) {
                root = Instr::make(op, {h0, h1}, ws);
            } else {
                // Start from the accumulated rest, then window-acc.
                InstrPtr acc = chain_value(b, rest, want, true);
                const ScalarType acc_elem =
                    op == Opcode::VRmpy ? ScalarType::Int32
                                        : to_signed(widen(le));
                acc = coerce(acc, VecType(acc_elem, L));
                if (!acc)
                    return;
                root = Instr::make(acc_op, {acc, h0, h1}, ws);
            }
            root = coerce(root, want);
            if (!root)
                return;
            emit(out, b, root, Layout::Deinterleaved, layout, want,
                 hvx::info(op).mnemonic);
        };

        try_window(3, Opcode::VTmpy, Opcode::VTmpyAcc);
        try_window(2, Opcode::VDmpy, Opcode::VDmpyAcc);
        try_window(4, Opcode::VRmpy, Opcode::VRmpyAcc);
    }

    /**
     * Multi-window chain: greedily peel off as many sliding-window
     * runs as possible (vtmpy / vdmpy with their accumulating forms),
     * then fold the leftover terms into the accumulator. This is what
     * turns a 3x3 stencil into vtmpy + vtmpy.acc chains.
     */
    void
    window_chain_templates(const UExprPtr &u,
                           const std::vector<MTerm> &all_terms,
                           Layout layout, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const int L = want.lanes;

        std::vector<MTerm> terms = all_terms;
        SketchBuilder b;
        InstrPtr acc;
        int windows = 0;

        auto peel = [&](size_t len, Opcode op, Opcode acc_op) -> bool {
            std::vector<int> run = find_window_run(terms, len);
            if (run.empty())
                return false;
            if (op == Opcode::VTmpy &&
                terms[run[2]].weight != 1)
                return false;
            if (op == Opcode::VRmpy &&
                bits(terms[run[0]].node->type().elem) != 8)
                return false;
            hir::LoadRef ref;
            is_load_leaf(terms[run[0]].node, &ref);
            const ScalarType le = terms[run[0]].node->type().elem;
            InstrPtr h0 = b.hole(VecType(le, L),
                                 window_cells(ref.buffer, ref.dy,
                                              ref.dx, L));
            InstrPtr h1 = b.hole(VecType(le, L),
                                 window_cells(ref.buffer, ref.dy,
                                              ref.dx + L, L));
            std::vector<int64_t> ws;
            for (size_t j = 0; j < len; ++j)
                ws.push_back(terms[run[j]].weight);
            if (op == Opcode::VTmpy)
                ws.pop_back();
            InstrPtr v;
            if (acc) {
                const ScalarType acc_elem =
                    op == Opcode::VRmpy ? ScalarType::Int32
                                        : to_signed(widen(le));
                InstrPtr a = coerce(acc, VecType(acc_elem, L));
                if (!a)
                    return false;
                v = Instr::make(acc_op, {a, h0, h1}, ws);
            } else {
                v = Instr::make(op, {h0, h1}, ws);
            }
            v = coerce(v, want);
            if (!v)
                return false;
            acc = v;
            // Remove the consumed terms.
            std::vector<MTerm> rest;
            for (size_t i = 0; i < terms.size(); ++i) {
                if (std::find(run.begin(), run.end(),
                              static_cast<int>(i)) == run.end())
                    rest.push_back(terms[i]);
            }
            terms = std::move(rest);
            ++windows;
            return true;
        };

        while (peel(3, Opcode::VTmpy, Opcode::VTmpyAcc)) {
        }
        while (peel(2, Opcode::VDmpy, Opcode::VDmpyAcc)) {
        }
        if (windows < 2)
            return; // single-window case handled by window_templates

        if (!terms.empty()) {
            // Fold the leftovers into the accumulator one by one.
            for (const MTerm &t : terms) {
                if (t.wide) {
                    auto c = child(t.node, Layout::Deinterleaved);
                    if (!c)
                        return;
                    InstrPtr v = coerce(c->instr, want);
                    if (!v)
                        return;
                    if (t.weight == 1) {
                        acc = Instr::make(Opcode::VAdd, {acc, v});
                    } else {
                        acc = Instr::make(
                            Opcode::VMpyiAcc,
                            {acc, v,
                             splat_const(t.weight, want.elem,
                                         want.lanes)});
                    }
                } else {
                    auto c = child(t.node, Layout::Linear);
                    if (!c)
                        return;
                    InstrPtr v = Instr::make(
                        Opcode::VMpyAcc,
                        {acc, c->instr,
                         splat_const(t.weight, t.node->type().elem,
                                     t.node->type().lanes)});
                    acc = coerce(v, want);
                    if (!acc)
                        return;
                }
            }
        }
        emit(out, b, acc, Layout::Deinterleaved, layout, want,
             "windows.chain");
    }

    /**
     * Build a deinterleaved accumulator-chain value for a term list;
     * returns null if some child fails to lower.
     */
    InstrPtr
    chain_value(SketchBuilder &b, const std::vector<MTerm> &terms,
                const VecType &want, bool widen_first)
    {
        (void)b; // chains need no holes today; kept for symmetry
        // Partition: wide terms and narrow terms.
        std::vector<const MTerm *> wide, narrow;
        for (const MTerm &t : terms)
            (t.wide ? wide : narrow).push_back(&t);

        InstrPtr acc;

        auto add_wide = [&](const MTerm &t) -> bool {
            Layout lc = Layout::Deinterleaved;
            auto c = child(t.node, lc);
            if (!c)
                return false;
            InstrPtr v = coerce(c->instr, want);
            if (!v)
                return false;
            if (t.weight != 1) {
                if (!acc) {
                    acc = Instr::make(
                        Opcode::VMpyi,
                        {v, splat_const(t.weight, want.elem,
                                        want.lanes)});
                    return true;
                }
                acc = Instr::make(
                    Opcode::VMpyiAcc,
                    {acc, v,
                     splat_const(t.weight, want.elem, want.lanes)});
                return true;
            }
            acc = acc ? Instr::make(Opcode::VAdd, {acc, v}) : v;
            return true;
        };

        auto add_narrow_pair = [&](const MTerm &a,
                                   const MTerm &bt) -> bool {
            if (a.node->type().elem != bt.node->type().elem)
                return false;
            auto ca = child(a.node, Layout::Linear);
            auto cb = child(bt.node, Layout::Linear);
            if (!ca || !cb)
                return false;
            InstrPtr v;
            if (!acc) {
                v = Instr::make(Opcode::VMpa, {ca->instr, cb->instr},
                                {a.weight, bt.weight});
            } else {
                const ScalarType acc_elem =
                    to_signed(widen(a.node->type().elem));
                InstrPtr ai =
                    coerce(acc, VecType(acc_elem, want.lanes));
                if (!ai)
                    return false;
                v = Instr::make(Opcode::VMpaAcc,
                                {ai, ca->instr, cb->instr},
                                {a.weight, bt.weight});
            }
            acc = coerce(v, want);
            return acc != nullptr;
        };

        auto add_narrow_single = [&](const MTerm &t) -> bool {
            auto c = child(t.node, Layout::Linear);
            if (!c)
                return false;
            InstrPtr v;
            if (!acc) {
                if (t.weight == 1) {
                    v = widen_move(c->instr, want.elem);
                } else {
                    v = Instr::make(
                        Opcode::VMpy,
                        {c->instr,
                         splat_const(t.weight, t.node->type().elem,
                                     t.node->type().lanes)});
                }
            } else {
                InstrPtr ai = coerce(
                    acc, VecType(widen(t.node->type().elem),
                                 want.lanes));
                if (!ai)
                    return false;
                v = Instr::make(
                    Opcode::VMpyAcc,
                    {ai, c->instr,
                     splat_const(t.weight, t.node->type().elem,
                                 t.node->type().lanes)});
            }
            acc = coerce(v, want);
            return acc != nullptr;
        };

        if (widen_first) {
            // Seed the accumulator with a widened unit-weight narrow
            // term (vzxt), then vmpa.acc pairs — the Fig. 4(b) shape.
            const MTerm *seed = nullptr;
            for (const MTerm *t : narrow) {
                if (t->weight == 1) {
                    seed = t;
                    break;
                }
            }
            if (seed) {
                auto c = child(seed->node, Layout::Linear);
                if (!c)
                    return nullptr;
                InstrPtr w = widen_move(c->instr, want.elem);
                if (!w)
                    return nullptr;
                acc = w;
                std::vector<const MTerm *> rest;
                for (const MTerm *t : narrow) {
                    if (t != seed)
                        rest.push_back(t);
                }
                narrow = rest;
            }
        }

        for (const MTerm *t : wide) {
            if (!add_wide(*t))
                return nullptr;
        }
        size_t i = 0;
        while (i + 1 < narrow.size()) {
            if (add_narrow_pair(*narrow[i], *narrow[i + 1])) {
                i += 2;
            } else if (add_narrow_single(*narrow[i])) {
                i += 1;
            } else {
                return nullptr;
            }
        }
        if (i < narrow.size()) {
            if (!add_narrow_single(*narrow[i]))
                return nullptr;
        }
        return acc;
    }

    void
    chain_templates(const UExprPtr &u, const std::vector<MTerm> &terms,
                    Layout layout, std::vector<Sketch> &out,
                    bool widen_first)
    {
        if (terms.size() < 2)
            return;
        const VecType want = u->type();
        SketchBuilder b;
        InstrPtr root = chain_value(b, terms, want, widen_first);
        if (!root)
            return;
        emit(out, b, root, Layout::Deinterleaved, layout, want,
             widen_first ? "chain.widen-first" : "chain.mpy-first");
    }

    // ----- vv-mpy-add ------------------------------------------------

    void
    vv_mpy_add_templates(const UExprPtr &u, Layout layout,
                         std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const int k = u->num_args();
        RAKE_CHECK(k % 2 == 0, "vv-mpy-add arity");

        // Special case: splat(word) * widen(halfword) — the l2norm
        // pattern. Two implementations: vmpyie/vmpyio (needs the
        // unsigned-evens proof) and Halide's vmpyio + vaslw + vmpyio.
        if (k == 2)
            word_by_half_templates(u, layout, out);

        // General chains over the multiply pairs. Each pair lowers by
        // its shape — widening both-narrow multiply, flat same-width
        // multiply, or the mixed splat-word-by-halfword family — and
        // the partial products accumulate in deinterleaved space.
        for (bool prefer_vmpyie : {true, false}) {
            InstrPtr acc;
            SketchBuilder b;
            bool ok = true;
            bool used_mixed = false;
            for (int i = 0; i + 1 < k && ok; i += 2) {
                InstrPtr v = lower_mpy_pair(b, u->arg(i), u->arg(i + 1),
                                            want, acc, prefer_vmpyie,
                                            &used_mixed);
                if (!v) {
                    ok = false;
                    break;
                }
                acc = v;
            }
            if (ok && acc)
                emit(out, b, acc, Layout::Deinterleaved, layout, want,
                     prefer_vmpyie ? "vvmpy.chain.ie" : "vvmpy.chain");
            // Without mixed pairs the two variants are identical.
            if (!used_mixed)
                break;
        }
    }

    /**
     * Lower one multiply pair (a * c) and fold it into `acc`
     * (deinterleaved layout). Returns the new accumulator or null.
     */
    InstrPtr
    lower_mpy_pair(SketchBuilder &b, const UExprPtr &a,
                   const UExprPtr &c, const VecType &want, InstrPtr acc,
                   bool prefer_vmpyie, bool *used_mixed)
    {
        const bool widening =
            2 * bits(a->type().elem) == bits(want.elem) &&
            a->type().elem == c->type().elem;
        const bool flat = bits(a->type().elem) == bits(want.elem) &&
                          bits(c->type().elem) == bits(want.elem);
        if (widening) {
            auto ca = child(a, Layout::Linear);
            auto cc = child(c, Layout::Linear);
            if (!ca || !cc)
                return nullptr;
            InstrPtr v;
            if (acc) {
                InstrPtr ai = coerce(
                    acc, VecType(widen(a->type().elem), want.lanes));
                if (!ai)
                    return nullptr;
                v = Instr::make(Opcode::VMpyAcc,
                                {ai, ca->instr, cc->instr});
            } else {
                v = Instr::make(Opcode::VMpy, {ca->instr, cc->instr});
            }
            return coerce(v, want);
        }
        if (flat) {
            Layout lc = acc ? Layout::Deinterleaved : Layout::Linear;
            auto ca = child(a, lc);
            auto cc = child(c, lc);
            if (!ca || !cc)
                return nullptr;
            InstrPtr va = coerce(ca->instr, want);
            InstrPtr vc = coerce(cc->instr, want);
            if (!va || !vc)
                return nullptr;
            return acc ? Instr::make(Opcode::VMpyiAcc, {acc, va, vc})
                       : Instr::make(Opcode::VMpyi, {va, vc});
        }
        // Mixed: a 32-bit splat times a 16-bit vector (either order).
        if (bits(want.elem) == 32) {
            for (int si = 0; si < 2; ++si) {
                const UExprPtr &sp = si == 0 ? a : c;
                const UExprPtr &yv = si == 0 ? c : a;
                if (!is_splat_leaf(sp) || bits(sp->type().elem) != 32)
                    continue;
                UExprPtr y;
                if (yv->op() == UOp::Widen &&
                    bits(yv->arg(0)->type().elem) == 16)
                    y = yv->arg(0);
                else if (bits(yv->type().elem) == 16)
                    y = yv;
                else
                    continue;
                if (used_mixed)
                    *used_mixed = true;
                InstrPtr v = word_by_half_value(b, sp, y, want,
                                                prefer_vmpyie);
                if (!v)
                    return nullptr;
                if (!acc)
                    return v;
                return Instr::make(Opcode::VAdd,
                                   {coerce(acc, want), v});
            }
        }
        return nullptr;
    }

    /**
     * splat(word) * halfwords as a deinterleaved i32 pair. The
     * vmpyie variant needs the even halfwords to be non-negative;
     * the vmpyio + vaslw variant (Halide's) is always safe.
     */
    InstrPtr
    word_by_half_value(SketchBuilder &b, const UExprPtr &sp,
                       const UExprPtr &y, const VecType &want,
                       bool prefer_vmpyie)
    {
        (void)b;
        auto cy = child(y, Layout::Linear);
        if (!cy)
            return nullptr;
        const int L = want.lanes / 2;
        if (L < 1 || want.lanes % 2 != 0)
            return nullptr;
        InstrPtr half_splat = splat(splat_scalar(sp), L);
        InstrPtr odds =
            Instr::make(Opcode::VMpyIO, {half_splat, cy->instr});
        InstrPtr evens;
        if (prefer_vmpyie) {
            InstrPtr yu = coerce(
                cy->instr, y->type().with_elem(ScalarType::UInt16));
            if (!yu)
                return nullptr;
            evens = Instr::make(Opcode::VMpyIE, {half_splat, yu});
        } else {
            InstrPtr as_words =
                coerce(cy->instr, VecType(ScalarType::Int32, L));
            if (!as_words)
                return nullptr;
            InstrPtr shifted =
                Instr::make(Opcode::VAsl, {as_words}, {16});
            InstrPtr back = coerce(shifted, cy->instr->type());
            evens = Instr::make(Opcode::VMpyIO, {half_splat, back});
        }
        return coerce(Instr::make(Opcode::VCombine, {evens, odds}),
                      want);
    }

    void
    word_by_half_templates(const UExprPtr &u, Layout layout,
                           std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        if (bits(want.elem) != 32 || want.lanes % 2 != 0)
            return;
        // Identify (splat word, widen-from-16 y).
        for (int si = 0; si < 2; ++si) {
            const UExprPtr &sp = u->arg(si);
            const UExprPtr &wv = u->arg(1 - si);
            if (!is_splat_leaf(sp))
                continue;
            // The halfword operand may appear widened or raw (the
            // lifter strips value-preserving widens).
            UExprPtr y;
            if (wv->op() == UOp::Widen &&
                bits(wv->arg(0)->type().elem) == 16)
                y = wv->arg(0);
            else if (bits(wv->type().elem) == 16)
                y = wv;
            else
                continue;
            auto cy = child(y, Layout::Linear);
            if (!cy)
                continue;
            RAKE_CHECK(cy->instr->type().lanes == 2 * (want.lanes / 2),
                       "halfword operand lane mismatch");
            const int L = want.lanes / 2;
            InstrPtr half_splat = splat(splat_scalar(sp), L);

            // Rake's preferred form: vmpyie on the (proven unsigned)
            // even halfwords + vmpyio on the odd halfwords. The
            // verifier kills this candidate whenever y can be
            // negative — semantic reasoning via search.
            {
                SketchBuilder b;
                InstrPtr yu = coerce(
                    cy->instr, y->type().with_elem(ScalarType::UInt16));
                if (yu) {
                    InstrPtr evens = Instr::make(Opcode::VMpyIE,
                                                 {half_splat, yu});
                    InstrPtr odds = Instr::make(Opcode::VMpyIO,
                                                {half_splat, cy->instr});
                    InstrPtr root =
                        Instr::make(Opcode::VCombine, {evens, odds});
                    emit(out, b, root, Layout::Deinterleaved, layout,
                         want, "vmpyie+vmpyio");
                }
            }
            // Halide's form: shift even halfwords into the odd slots
            // (vaslw on the word view), then a second vmpyio. Safe
            // for signed y.
            {
                SketchBuilder b;
                InstrPtr as_words =
                    coerce(cy->instr,
                           VecType(ScalarType::Int32, L));
                if (as_words) {
                    InstrPtr shifted = Instr::make(Opcode::VAsl,
                                                   {as_words}, {16});
                    InstrPtr back = coerce(shifted, cy->instr->type());
                    InstrPtr evens = Instr::make(Opcode::VMpyIO,
                                                 {half_splat, back});
                    InstrPtr odds = Instr::make(Opcode::VMpyIO,
                                                {half_splat, cy->instr});
                    InstrPtr root =
                        Instr::make(Opcode::VCombine, {evens, odds});
                    emit(out, b, root, Layout::Deinterleaved, layout,
                         want, "vmpyio+vaslw");
                }
            }
        }
    }

    // ----- lane-wise ops ---------------------------------------------

    void
    lanewise_templates(const UExprPtr &u, Layout layout,
                       std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();

        for (Layout lc : layout_choices()) {
            std::vector<InstrPtr> cs;
            bool ok = true;
            for (const auto &a : u->args()) {
                auto c = child(a, lc);
                if (!c) {
                    ok = false;
                    break;
                }
                cs.push_back(c->instr);
            }
            if (!ok)
                continue;
            SketchBuilder b;
            InstrPtr root;
            switch (u->op()) {
              case UOp::AbsDiff:
                root = Instr::make(Opcode::VAbsDiff, {cs[0], cs[1]});
                break;
              case UOp::Min:
                root = Instr::make(Opcode::VMin, {cs[0], cs[1]});
                break;
              case UOp::Max:
                root = Instr::make(Opcode::VMax, {cs[0], cs[1]});
                break;
              case UOp::Average:
                root = Instr::make(p.round ? Opcode::VAvgRnd
                                           : Opcode::VAvg,
                                   {cs[0], cs[1]});
                break;
              case UOp::And:
                root = Instr::make(Opcode::VAnd, {cs[0], cs[1]});
                break;
              case UOp::Or:
                root = Instr::make(Opcode::VOr, {cs[0], cs[1]});
                break;
              case UOp::Xor:
                root = Instr::make(Opcode::VXor, {cs[0], cs[1]});
                break;
              case UOp::Not:
                root = Instr::make(Opcode::VNot, {cs[0]});
                break;
              case UOp::Lt:
                root = Instr::make(Opcode::VCmpGt, {cs[1], cs[0]});
                break;
              case UOp::Le:
                root = Instr::make(
                    Opcode::VOr,
                    {Instr::make(Opcode::VCmpGt, {cs[1], cs[0]}),
                     Instr::make(Opcode::VCmpEq, {cs[0], cs[1]})});
                break;
              case UOp::Eq:
                root = Instr::make(Opcode::VCmpEq, {cs[0], cs[1]});
                break;
              case UOp::Select:
                root = Instr::make(Opcode::VMux, {cs[0], cs[1], cs[2]});
                break;
              case UOp::ShiftLeft:
              case UOp::ShiftRight: {
                int64_t n = 0;
                if (!as_shift_amount(u->arg(1), &n))
                    return;
                Opcode shop;
                if (u->op() == UOp::ShiftLeft)
                    shop = Opcode::VAsl;
                else if (p.round)
                    shop = Opcode::VAsrRnd;
                else if (is_signed(want.elem))
                    shop = Opcode::VAsr;
                else
                    shop = Opcode::VLsr;
                root = Instr::make(shop, {cs[0]},
                                   {static_cast<int64_t>(n)});
                break;
              }
              default:
                return;
            }
            emit(out, b, root, lc, layout, want, "lanewise");
        }
    }

    static bool
    as_shift_amount(const UExprPtr &u, int64_t *n)
    {
        if (u->op() != UOp::HirLeaf)
            return false;
        return hir::as_const(u->leaf(), n);
    }

    LowerDriver &driver_;
};

/** The hvx::Interpreter behind the Evaluator protocol. */
class HvxEvaluator final : public Evaluator
{
  public:
    void
    set_oracle(HoleOracle oracle) override
    {
        interp_.set_oracle(std::move(oracle));
    }

    void
    reset(const Env &env) override
    {
        interp_.reset(env);
    }

    const Value &
    eval(const InstrHandle &instr) override
    {
        return interp_.eval(
            std::static_pointer_cast<const Instr>(instr));
    }

  private:
    hvx::Interpreter interp_;
};

class HvxBackend final : public TargetISA
{
  public:
    explicit HvxBackend(const hvx::Target &target) : target_(target) {}

    std::string name() const override { return "hvx"; }

    void
    candidates(const UExprPtr &u, Layout layout, LowerDriver &driver,
               std::vector<Sketch> &out) override
    {
        HvxGrammar grammar(driver);
        grammar.candidates(u, layout, out);
    }

    int
    instruction_count(const InstrHandle &instr) const override
    {
        return hvx_cast(instr)->instruction_count();
    }

    InstrHandle
    substitute_holes(
        const InstrHandle &root,
        const std::vector<InstrHandle> &solutions) const override
    {
        return synth::substitute_holes(hvx_cast(root),
                                       handles_as<Instr>(solutions));
    }

    std::optional<InstrHandle>
    solve_hole(const synth::Hole &hole, int budget,
               synth::SwizzleStats &stats) override
    {
        // The search binds the stats sink at construction; lazily
        // build it against the run's LowerStats on first use (one run
        // per backend instance, so the memo lifetime matches the
        // original per-Lowerer solver).
        if (!solver_ || solver_stats_ != &stats) {
            solver_ = std::make_unique<synth::SwizzleSearch>(
                synth::hvx_swizzle_rules(target_), stats);
            solver_stats_ = &stats;
        }
        solver_->set_deadline(deadline_);
        InstrHandle r = solver_->solve(hole, budget);
        if (!r)
            return std::nullopt;
        return r;
    }

    Cost
    cost_of(const InstrHandle &instr) const override
    {
        const hvx::Cost c = hvx::cost_of(hvx_cast(instr), target_);
        return Cost{c.scalar(), c.total_instructions, c.total_latency};
    }

    std::unique_ptr<Evaluator>
    make_evaluator() const override
    {
        return std::make_unique<HvxEvaluator>();
    }

    Value
    hole_value(const synth::Hole &hole, const Env &env,
               const HoleOracle &oracle) const override
    {
        return synth::arrangement_value(hole, env, oracle);
    }

    void
    set_deadline(const Deadline &deadline) override
    {
        deadline_ = deadline;
    }

    std::optional<InstrHandle>
    greedy_select(const hir::ExprPtr &expr) const override
    {
        // The pattern-matching baseline always succeeds and never
        // searches, so it runs deadline-free by design.
        return InstrHandle(
            baseline::select_instructions(expr, target_));
    }

    std::string
    instr_to_sexpr(const InstrHandle &instr) const override
    {
        return hvx::to_sexpr(hvx_cast(instr));
    }

    InstrHandle
    instr_from_sexpr(const std::string &text) const override
    {
        return hvx::parse_instr(text);
    }

  private:
    static InstrPtr
    hvx_cast(const InstrHandle &h)
    {
        return std::static_pointer_cast<const Instr>(h);
    }

    hvx::Target target_;
    std::unique_ptr<synth::SwizzleSearch> solver_;
    const synth::SwizzleStats *solver_stats_ = nullptr;
    Deadline deadline_;
};

} // namespace

std::unique_ptr<TargetISA>
make_hvx_backend(const hvx::Target &target)
{
    return std::make_unique<HvxBackend>(target);
}

} // namespace rake::backend
