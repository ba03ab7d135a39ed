#include "backend/neon_backend.h"

#include <algorithm>
#include <unordered_map>

#include "backend/leaf_util.h"
#include "neon/interp.h"
#include "neon/select.h"
#include "neon/sexpr.h"
#include "support/error.h"
#include "synth/swizzle.h"

namespace rake::backend {

namespace {

using neon::NInstr;
using neon::NInstrPtr;
using neon::NOp;
using uir::UExpr;
using uir::UExprPtr;
using uir::UOp;
using uir::UParams;

using synth::Arrangement;
using synth::Layout;
using synth::window_cells;

NInstrPtr
ncast(const InstrHandle &h)
{
    return std::static_pointer_cast<const NInstr>(h);
}

/**
 * The Neon swizzle repertoire over the shared synth::SwizzleSearch:
 * vld1 for windows, free vget_low/high/vcombine renames, vzip/vuzp for
 * (de)interleaves, vext for funnel shifts and rotations, vrev for
 * reversals, and vtbl as the static-index fallback. Costs are in
 * issue slots: a 64-lane logical vector spans several Q registers, so
 * one permute issues regs_for(type) times.
 */
class NeonSwizzleRules final : public synth::SwizzleRules
{
  public:
    explicit NeonSwizzleRules(const neon::Target &target) : target_(target)
    {
    }

    const std::vector<Rule> &
    rules() const override
    {
        static const std::vector<Rule> table = {
            Rule::Shuffle, Rule::Deal,    Rule::Combine,
            Rule::Extract, Rule::Reverse, Rule::Table};
        return table;
    }

    int
    step(Rule rule, VecType type) const override
    {
        switch (rule) {
          case Rule::Combine:
            return 0;
          case Rule::Table:
            // Index materialization + lookup per result register.
            return 2 * target_.regs_for(type);
          default:
            return target_.regs_for(type);
        }
    }

    InstrHandle
    make(Rule rule, std::vector<InstrHandle> args,
         std::vector<int64_t> imms) const override
    {
        return NInstr::make(opcode(rule), handles_as<NInstr>(args),
                            std::move(imms));
    }

    InstrHandle
    zero(VecType type) const override
    {
        return NInstr::make_dup(
            hir::Expr::make_const(0, VecType(type.elem, 1)), type.lanes);
    }

    InstrHandle
    read(hir::LoadRef ref, VecType type) const override
    {
        return NInstr::make_load(ref, type);
    }

    int
    read_cost(const InstrHandle &read) const override
    {
        return neon::issue_count(*ncast(read), target_);
    }

    InstrHandle
    half(const InstrHandle &src, bool hi) const override
    {
        return NInstr::make(hi ? NOp::Hi : NOp::Lo, {ncast(src)});
    }

    VecType
    type_of(const InstrHandle &instr) const override
    {
        return ncast(instr)->type();
    }

  private:
    static NOp
    opcode(Rule rule)
    {
        switch (rule) {
          case Rule::Shuffle:
            return NOp::Zip;
          case Rule::Deal:
            return NOp::Uzp;
          case Rule::Combine:
            return NOp::Combine;
          case Rule::Extract:
            return NOp::Ext;
          case Rule::Reverse:
            return NOp::Rev;
          case Rule::Table:
            return NOp::Tbl;
          default:
            RAKE_UNREACHABLE("no Neon swizzle rule "
                             << static_cast<int>(rule));
        }
    }

    neon::Target target_;
};

/** Allocates ??-holes while a Neon template builds its tree. */
class NeonSketchBuilder
{
  public:
    NInstrPtr
    hole(VecType type, Arrangement cells,
         std::vector<InstrHandle> sources = {})
    {
        RAKE_CHECK(static_cast<int>(cells.size()) == type.lanes,
                   "hole arrangement size mismatch");
        const int id = static_cast<int>(holes_.size());
        holes_.push_back(
            synth::Hole{type, std::move(cells), std::move(sources)});
        return NInstr::make_hole(id, type);
    }

    std::vector<synth::Hole>
    take()
    {
        return std::move(holes_);
    }

  private:
    std::vector<synth::Hole> holes_;
};

/**
 * The Neon sketch grammar. Alternative templates per uber-op compete
 * on cost under CEGIS, replacing the old single greedy mapping; the
 * greedy chain shape survives as one template among several, so
 * everything the preliminary port could select is still reachable.
 */
class NeonGrammar
{
  public:
    explicit NeonGrammar(LowerDriver &driver) : driver_(driver) {}

    void
    candidates(const UExprPtr &u, Layout layout,
               std::vector<Sketch> &out)
    {
        // Neon compute instructions never reorder lanes; only the
        // linear layout exists for this target (§5.1 degenerates).
        if (layout != Layout::Linear)
            return;
        try {
            switch (u->op()) {
              case UOp::HirLeaf:
                leaf_templates(u, out);
                break;
              case UOp::Widen:
                widen_templates(u, out);
                break;
              case UOp::Narrow:
                narrow_templates(u, out);
                break;
              case UOp::VsMpyAdd:
                vs_mpy_add_templates(u, out);
                break;
              case UOp::VvMpyAdd:
                vv_mpy_add_templates(u, out);
                break;
              default:
                lanewise_templates(u, out);
                break;
            }
        } catch (const UserError &) {
            // A template built an ill-typed instruction; whatever was
            // emitted before the failure is still usable.
        }
    }

  private:
    /** Recursive lowering through the core (the memoized search). */
    NInstrPtr
    child(const UExprPtr &c)
    {
        auto h = driver_.lowered(c, Layout::Linear);
        if (!h)
            return nullptr;
        return ncast(*h);
    }

    UExprPtr
    pin(UExprPtr u)
    {
        return driver_.pin(std::move(u));
    }

    static NInstrPtr
    dup_const(int64_t v, ScalarType t, int lanes)
    {
        return NInstr::make_dup(
            hir::Expr::make_const(v, VecType(t, 1)), lanes);
    }

    /** Same-width signedness adjustment (free vreinterpret). */
    static NInstrPtr
    coerce(NInstrPtr v, ScalarType want)
    {
        if (!v || v->type().elem == want)
            return v;
        if (bits(v->type().elem) != bits(want))
            return nullptr;
        return NInstr::make(NOp::Bitcast, {v}, {}, want);
    }

    /** Widen by one or two vmovl hops to the target width. */
    static NInstrPtr
    widen_to(NInstrPtr v, ScalarType want)
    {
        while (v && bits(v->type().elem) < bits(want))
            v = NInstr::make(NOp::Movl, {v});
        return coerce(v, want);
    }

    void
    emit(std::vector<Sketch> &out, NeonSketchBuilder &b, NInstrPtr root,
         const VecType &want, const char *note)
    {
        root = coerce(std::move(root), want.elem);
        if (!root || !(root->type() == want))
            return;
        Sketch sk;
        sk.root = std::move(root);
        sk.holes = b.take();
        sk.note = note;
        out.push_back(std::move(sk));
    }

    /** A fully-lowered candidate coming back out of the driver. */
    void
    emit_lowered(std::vector<Sketch> &out, const UExprPtr &u,
                 const char *note)
    {
        auto h = driver_.lowered(u, Layout::Linear);
        if (!h)
            return;
        Sketch sk;
        sk.root = *h;
        sk.note = note;
        out.push_back(std::move(sk));
    }

    void
    leaf_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType t = u->type();
        hir::LoadRef ref;
        if (is_load_leaf(u, &ref)) {
            NeonSketchBuilder b;
            NInstrPtr h = b.hole(
                t, window_cells(ref.buffer, ref.dy, ref.dx, t.lanes));
            emit(out, b, h, t, "load");
            return;
        }
        if (is_splat_leaf(u)) {
            NeonSketchBuilder b;
            emit(out, b, NInstr::make_dup(splat_scalar(u), t.lanes), t,
                 "splat");
        }
    }

    void
    widen_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        NInstrPtr cx = child(u->arg(0));
        if (!cx)
            return;
        NeonSketchBuilder b;
        emit(out, b, widen_to(cx, want.elem), want, "widen.vmovl");
    }

    void
    narrow_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UExprPtr &x = u->arg(0);
        const UParams &p = u->params();
        const ScalarType in_elem = x->type().elem;
        const int ratio = bits(in_elem) / bits(want.elem);

        if (ratio == 1) {
            same_width_narrow_templates(u, out);
            return;
        }
        if (ratio == 4) {
            // Narrow in two hops via a synthetic middle-width UIR
            // node (shift+round+sat in the first hop, final clamp in
            // the second); the verifier rejects unsound compositions.
            UParams p1;
            p1.out_elem = narrow(in_elem);
            p1.shift = p.shift;
            p1.round = p.round;
            p1.saturate = p.saturate;
            UParams p2;
            p2.out_elem = want.elem;
            p2.saturate = p.saturate;
            const UExprPtr two = pin(UExpr::make(
                UOp::Narrow,
                {pin(UExpr::make(UOp::Narrow, {x}, p1))}, p2));
            emit_lowered(out, two, "narrow.twohop");
            return;
        }
        if (ratio != 2)
            return;

        NInstrPtr cx = child(x);
        if (!cx)
            return;

        // Fused families first (the shapes the greedy port picked).
        if (p.shift > 0 && p.round && p.saturate) {
            NeonSketchBuilder b;
            emit(out, b,
                 NInstr::make(NOp::Qrshrn, {cx}, {p.shift}, want.elem),
                 want, "narrow.vqrshrn");
        }
        if (p.shift > 0 && !p.round && !p.saturate) {
            NeonSketchBuilder b;
            emit(out, b, NInstr::make(NOp::Shrn, {cx}, {p.shift}), want,
                 "narrow.vshrn");
        }
        // Decomposed: optional shift, then a (saturating) narrow.
        {
            NeonSketchBuilder b;
            NInstrPtr v = cx;
            if (p.shift > 0)
                v = NInstr::make(p.round            ? NOp::Rshr
                                 : is_signed(in_elem) ? NOp::Sshr
                                                      : NOp::Ushr,
                                 {v}, {p.shift});
            v = p.saturate
                    ? NInstr::make(NOp::Qxtn, {v}, {}, want.elem)
                    : NInstr::make(NOp::Xtn, {v});
            emit(out, b, v, want, "narrow.decomposed");
        }
    }

    void
    same_width_narrow_templates(const UExprPtr &u,
                                std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();
        const ScalarType in_elem = u->arg(0)->type().elem;
        NInstrPtr cx = child(u->arg(0));
        if (!cx)
            return;
        NeonSketchBuilder b;
        NInstrPtr v = cx;
        if (p.shift > 0)
            v = NInstr::make(p.round            ? NOp::Rshr
                             : is_signed(in_elem) ? NOp::Sshr
                                                  : NOp::Ushr,
                             {v}, {p.shift});
        if (p.saturate) {
            // Same-width saturation only changes signedness; clamp to
            // the overlapping range with vmax/vmin (previously
            // unmapped in the greedy port).
            if (is_signed(in_elem) && !is_signed(want.elem)) {
                v = NInstr::make(NOp::Max,
                                 {v, dup_const(0, in_elem, want.lanes)});
            } else if (!is_signed(in_elem) && is_signed(want.elem)) {
                v = NInstr::make(NOp::Min,
                                 {v, dup_const(max_value(want.elem),
                                               in_elem, want.lanes)});
            }
        }
        emit(out, b, v, want, "narrow.samewidth");
    }

    /**
     * The widening multiply-accumulate chain (vmull + vmlal for
     * half-width terms, flat vmla for full-width ones) — exactly the
     * shape the greedy port built, kept as the leading template so
     * its selections are reproduced whenever it is sound.
     */
    NInstrPtr
    mull_chain_value(const UExprPtr &u)
    {
        const VecType t = u->type();
        const UParams &p = u->params();
        NInstrPtr acc;
        for (int i = 0; i < u->num_args(); ++i) {
            NInstrPtr x = child(u->arg(i));
            if (!x)
                return nullptr;
            const int64_t w = p.kernel[i];
            const bool narrow_term =
                bits(x->type().elem) * 2 == bits(t.elem);
            if (narrow_term) {
                NInstrPtr ws =
                    dup_const(w, x->type().elem, x->type().lanes);
                NInstrPtr v =
                    acc ? NInstr::make(
                              NOp::Mlal,
                              {coerce(acc, widen(x->type().elem)), x,
                               ws})
                        : NInstr::make(NOp::Mull, {x, ws});
                acc = coerce(v, t.elem);
            } else {
                NInstrPtr xw = widen_to(x, t.elem);
                if (!xw)
                    return nullptr;
                if (w == 1 && acc) {
                    acc = NInstr::make(NOp::Add, {acc, xw});
                } else if (w == 1) {
                    acc = xw;
                } else {
                    NInstrPtr ws = dup_const(w, t.elem, t.lanes);
                    acc = acc ? NInstr::make(NOp::Mla, {acc, xw, ws})
                              : NInstr::make(NOp::Mul, {xw, ws});
                }
            }
            if (!acc)
                return nullptr;
        }
        return acc;
    }

    /** Everything widened to the output width, multiplied flat. */
    NInstrPtr
    flat_chain_value(const UExprPtr &u)
    {
        const VecType t = u->type();
        const UParams &p = u->params();
        NInstrPtr acc;
        for (int i = 0; i < u->num_args(); ++i) {
            NInstrPtr x = child(u->arg(i));
            if (!x)
                return nullptr;
            NInstrPtr xw = widen_to(x, t.elem);
            if (!xw)
                return nullptr;
            const int64_t w = p.kernel[i];
            if (w == 1 && acc) {
                acc = NInstr::make(NOp::Add, {acc, xw});
            } else if (w == 1) {
                acc = xw;
            } else {
                NInstrPtr ws = dup_const(w, t.elem, t.lanes);
                acc = acc ? NInstr::make(NOp::Mla, {acc, xw, ws})
                          : NInstr::make(NOp::Mul, {xw, ws});
            }
        }
        return acc;
    }

    void
    vs_mpy_add_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();

        if (p.saturate) {
            // (a) Products saturating-accumulated with vqadd.
            {
                NeonSketchBuilder b;
                NInstrPtr acc;
                for (int i = 0; i < u->num_args(); ++i) {
                    NInstrPtr x = child(u->arg(i));
                    if (!x) {
                        acc = nullptr;
                        break;
                    }
                    const int64_t w = p.kernel[i];
                    NInstrPtr term;
                    if (bits(x->type().elem) * 2 == bits(want.elem)) {
                        term = coerce(
                            NInstr::make(
                                NOp::Mull,
                                {x, dup_const(w, x->type().elem,
                                              x->type().lanes)}),
                            want.elem);
                    } else {
                        NInstrPtr xw = widen_to(x, want.elem);
                        if (!xw)
                            break;
                        term = w == 1
                                   ? xw
                                   : NInstr::make(
                                         NOp::Mul,
                                         {xw, dup_const(w, want.elem,
                                                        want.lanes)});
                    }
                    if (!term) {
                        acc = nullptr;
                        break;
                    }
                    acc = acc ? NInstr::make(NOp::Qadd, {acc, term})
                              : term;
                }
                if (acc)
                    emit(out, b, acc, want, "vsmpy.qadd");
            }
            // (b) Compute exactly at double width, then saturating-
            // narrow back; CEGIS kills whichever shape mismatches the
            // uber-instruction's saturation semantics.
            const ScalarType wide_elem = widen(want.elem);
            if (wide_elem != want.elem) {
                UParams wp = p;
                wp.saturate = false;
                wp.out_elem = wide_elem;
                UParams np;
                np.out_elem = want.elem;
                np.saturate = true;
                const UExprPtr two = pin(UExpr::make(
                    UOp::Narrow,
                    {pin(UExpr::make(UOp::VsMpyAdd, u->args(), wp))},
                    np));
                emit_lowered(out, two, "vsmpy.sat.widen");
            }
            return;
        }

        {
            NeonSketchBuilder b;
            NInstrPtr acc = mull_chain_value(u);
            if (acc)
                emit(out, b, acc, want, "vsmpy.mull.chain");
        }
        {
            NeonSketchBuilder b;
            NInstrPtr acc = flat_chain_value(u);
            if (acc)
                emit(out, b, acc, want, "vsmpy.flat");
        }
    }

    void
    vv_mpy_add_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();
        const int k = u->num_args();

        if (p.saturate) {
            const ScalarType wide_elem = widen(want.elem);
            if (wide_elem == want.elem)
                return;
            UParams wp = p;
            wp.saturate = false;
            wp.out_elem = wide_elem;
            UParams np;
            np.out_elem = want.elem;
            np.saturate = true;
            const UExprPtr two = pin(UExpr::make(
                UOp::Narrow,
                {pin(UExpr::make(UOp::VvMpyAdd, u->args(), wp))}, np));
            emit_lowered(out, two, "vvmpy.sat.widen");
            return;
        }

        // (i) Flat: widen both operands, multiply at output width.
        {
            NeonSketchBuilder b;
            NInstrPtr acc;
            bool ok = true;
            for (int i = 0; i + 1 < k && ok; i += 2) {
                NInstrPtr a = child(u->arg(i));
                NInstrPtr c = child(u->arg(i + 1));
                if (!a || !c) {
                    ok = false;
                    break;
                }
                NInstrPtr aw = widen_to(a, want.elem);
                NInstrPtr cw = widen_to(c, want.elem);
                if (!aw || !cw) {
                    ok = false;
                    break;
                }
                acc = acc ? NInstr::make(NOp::Mla, {acc, aw, cw})
                          : NInstr::make(NOp::Mul, {aw, cw});
            }
            if (ok && acc)
                emit(out, b, acc, want, "vvmpy.flat");
        }
        // (ii) Widening multiplies when both pair operands sit at
        // half the output width (vmull / vmlal).
        {
            NeonSketchBuilder b;
            NInstrPtr acc;
            bool ok = true;
            for (int i = 0; i + 1 < k && ok; i += 2) {
                NInstrPtr a = child(u->arg(i));
                NInstrPtr c = child(u->arg(i + 1));
                if (!a || !c ||
                    bits(a->type().elem) * 2 != bits(want.elem) ||
                    a->type().elem != c->type().elem) {
                    ok = false;
                    break;
                }
                NInstrPtr v =
                    acc ? NInstr::make(
                              NOp::Mlal,
                              {coerce(acc, widen(a->type().elem)), a,
                               c})
                        : NInstr::make(NOp::Mull, {a, c});
                acc = coerce(v, want.elem);
                if (!acc)
                    ok = false;
            }
            if (ok && acc)
                emit(out, b, acc, want, "vvmpy.mull.chain");
        }
    }

    void
    lanewise_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();
        std::vector<NInstrPtr> cs;
        for (int i = 0; i < u->num_args(); ++i) {
            NInstrPtr c = child(u->arg(i));
            if (!c)
                return;
            cs.push_back(std::move(c));
        }
        NeonSketchBuilder b;
        NInstrPtr root;
        switch (u->op()) {
          case UOp::AbsDiff:
            root = NInstr::make(NOp::Abd, {cs[0], cs[1]});
            break;
          case UOp::Min:
            root = NInstr::make(NOp::Min, {cs[0], cs[1]});
            break;
          case UOp::Max:
            root = NInstr::make(NOp::Max, {cs[0], cs[1]});
            break;
          case UOp::Average:
            root = NInstr::make(p.round ? NOp::Rhadd : NOp::Hadd,
                                {cs[0], cs[1]});
            break;
          case UOp::And:
            root = NInstr::make(NOp::And, {cs[0], cs[1]});
            break;
          case UOp::Or:
            root = NInstr::make(NOp::Orr, {cs[0], cs[1]});
            break;
          case UOp::Xor:
            root = NInstr::make(NOp::Eor, {cs[0], cs[1]});
            break;
          case UOp::Not:
            root = NInstr::make(NOp::Not, {cs[0]});
            break;
          case UOp::Lt:
            root = NInstr::make(NOp::Cmgt, {cs[1], cs[0]});
            break;
          case UOp::Le:
            root = NInstr::make(
                NOp::Orr, {NInstr::make(NOp::Cmgt, {cs[1], cs[0]}),
                           NInstr::make(NOp::Cmeq, {cs[0], cs[1]})});
            break;
          case UOp::Eq:
            root = NInstr::make(NOp::Cmeq, {cs[0], cs[1]});
            break;
          case UOp::Select:
            root = NInstr::make(NOp::Bsl, {cs[0], cs[1], cs[2]});
            break;
          case UOp::ShiftLeft:
          case UOp::ShiftRight: {
            int64_t sh = 0;
            if (u->arg(1)->op() != UOp::HirLeaf ||
                !hir::as_const(u->arg(1)->leaf(), &sh))
                return;
            if (u->op() == UOp::ShiftLeft)
                root = NInstr::make(NOp::Shl, {cs[0]}, {sh});
            else if (p.round)
                root = NInstr::make(NOp::Rshr, {cs[0]}, {sh});
            else
                root = NInstr::make(is_signed(want.elem) ? NOp::Sshr
                                                         : NOp::Ushr,
                                    {cs[0]}, {sh});
            break;
          }
          default:
            return;
        }
        emit(out, b, root, want, "lanewise");
    }

    LowerDriver &driver_;
};

/** The neon::Interpreter behind the Evaluator protocol. */
class NeonEvaluator final : public Evaluator
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
        return interp_.eval(ncast(instr));
    }

  private:
    neon::Interpreter interp_;
};

NInstrPtr
substitute(const NInstrPtr &n, const std::vector<NInstrPtr> &solutions,
           std::unordered_map<const NInstr *, NInstrPtr> &memo)
{
    if (n->op() == NOp::Hole) {
        const int id = n->hole_id();
        RAKE_CHECK(id >= 0 && id < static_cast<int>(solutions.size()) &&
                       solutions[id] != nullptr,
                   "unsolved hole " << id);
        return solutions[id];
    }
    auto it = memo.find(n.get());
    if (it != memo.end())
        return it->second;
    std::vector<NInstrPtr> args;
    args.reserve(n->num_args());
    bool changed = false;
    for (int i = 0; i < n->num_args(); ++i) {
        NInstrPtr a = substitute(n->arg(i), solutions, memo);
        changed |= a != n->arg(i);
        args.push_back(std::move(a));
    }
    NInstrPtr result =
        changed ? NInstr::make(n->op(), std::move(args), n->imms(),
                               n->type().elem)
                : n;
    memo.emplace(n.get(), result);
    return result;
}

class NeonBackend final : public TargetISA
{
  public:
    explicit NeonBackend(const neon::Target &target) : target_(target) {}

    std::string name() const override { return "neon"; }

    void
    candidates(const UExprPtr &u, Layout layout, LowerDriver &driver,
               std::vector<Sketch> &out) override
    {
        NeonGrammar grammar(driver);
        grammar.candidates(u, layout, out);
    }

    int
    instruction_count(const InstrHandle &instr) const override
    {
        return ncast(instr)->instruction_count();
    }

    InstrHandle
    substitute_holes(
        const InstrHandle &root,
        const std::vector<InstrHandle> &solutions) const override
    {
        std::unordered_map<const NInstr *, NInstrPtr> memo;
        return substitute(ncast(root), handles_as<NInstr>(solutions), memo);
    }

    std::optional<InstrHandle>
    solve_hole(const synth::Hole &hole, int budget,
               synth::SwizzleStats &stats) override
    {
        // Same per-run lazy construction as the HVX backend: the memo
        // lifetime matches the lowering run binding `stats`.
        if (!solver_ || solver_stats_ != &stats) {
            solver_ = std::make_unique<synth::SwizzleSearch>(
                std::make_unique<NeonSwizzleRules>(target_), stats);
            solver_stats_ = &stats;
        }
        solver_->set_deadline(deadline_);
        // The core hands out budgets in whole-logical-vector movement
        // ops (on HVX one instruction each). A Neon logical vector
        // spans several Q registers, so one movement op is regs_for()
        // issues: scale the bound into issue units.
        InstrHandle r = solver_->solve(
            hole, budget * std::max(1, target_.regs_for(hole.type)));
        if (!r)
            return std::nullopt;
        return r;
    }

    Cost
    cost_of(const InstrHandle &instr) const override
    {
        const neon::Cost c = neon::cost_of(ncast(instr), target_);
        return Cost{c.scalar(), c.total_instructions, c.total_latency};
    }

    std::unique_ptr<Evaluator>
    make_evaluator() const override
    {
        return std::make_unique<NeonEvaluator>();
    }

    Value
    hole_value(const synth::Hole &hole, const Env &env,
               const HoleOracle &oracle) const override
    {
        neon::Interpreter interp;
        if (oracle)
            interp.set_oracle(oracle);
        interp.reset(env);
        std::vector<Value> src_values;
        src_values.reserve(hole.sources.size());
        for (const auto &s : hole.sources)
            src_values.push_back(interp.eval(ncast(s)));
        return synth::arrangement_value_from(hole, env, src_values);
    }

    void
    set_deadline(const Deadline &deadline) override
    {
        deadline_ = deadline;
    }

    std::optional<InstrHandle>
    greedy_select(const hir::ExprPtr &expr) const override
    {
        // The PR 3 greedy one-template mapping, run deadline-free (it
        // is bounded: one template per uber-op, no search). It can
        // still return nullopt for uber-ops outside the greedy
        // repertoire, in which case degradation yields no program.
        neon::SelectOptions opts;
        opts.greedy = true;
        auto r = neon::select_instructions(expr, opts);
        if (!r)
            return std::nullopt;
        return InstrHandle(std::move(*r));
    }

    std::string
    instr_to_sexpr(const InstrHandle &instr) const override
    {
        return neon::to_sexpr(ncast(instr));
    }

    InstrHandle
    instr_from_sexpr(const std::string &text) const override
    {
        return neon::parse_instr(text);
    }

  private:
    neon::Target target_;
    std::unique_ptr<synth::SwizzleSearch> solver_;
    const synth::SwizzleStats *solver_stats_ = nullptr;
    Deadline deadline_;
};

} // namespace

std::unique_ptr<TargetISA>
make_neon_backend(const neon::Target &target)
{
    return std::make_unique<NeonBackend>(target);
}

} // namespace rake::backend
