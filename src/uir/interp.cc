#include "uir/interp.h"

#include "base/arith.h"
#include "support/error.h"

namespace rake::uir {

Value &
Interpreter::slot(VecType t)
{
    if (used_ == slots_.size())
        slots_.emplace_back();
    Value &v = slots_[used_++];
    v.reset(t);
    return v;
}

const Value &
Interpreter::eval(const UExprPtr &e)
{
    RAKE_CHECK(e != nullptr, "eval of null UIR expression");
    RAKE_CHECK(env_ != nullptr, "eval before reset()");
    auto it = memo_.find(e.get());
    if (it != memo_.end())
        return *it->second;
    const Value &v = eval_impl(*e);
    memo_.emplace(e.get(), &v);
    return v;
}

const Value &
Interpreter::eval_impl(const UExpr &e)
{
    const VecType t = e.type();
    const ScalarType s = t.elem;

    if (e.op() == UOp::HirLeaf)
        return hir_.eval(e.leaf());

    // Evaluate arguments first (pointers stay valid: slots live in a
    // deque and are only rewound at reset()). Stack storage, not a
    // member: eval() recurses through this frame.
    constexpr size_t kMaxArgs = 32;
    const size_t nargs = e.args().size();
    RAKE_CHECK(nargs <= kMaxArgs, "UIR node with " << nargs << " args");
    const Value *argp[kMaxArgs];
    for (size_t k = 0; k < nargs; ++k)
        argp[k] = &eval(e.args()[k]);
    auto arg = [&argp](size_t k) -> const Value & { return *argp[k]; };

    const UParams &p = e.params();
    Value &v = slot(t);

    switch (e.op()) {
      case UOp::Widen:
        // Lane carriers already hold the exact value; widening is
        // value-preserving by construction.
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, arg(0)[i]);
        break;
      case UOp::Narrow:
        for (int i = 0; i < t.lanes; ++i) {
            int64_t x = arg(0)[i];
            x = shift_right(x, p.shift, p.round);
            v[i] = p.saturate ? saturate(s, x) : wrap(s, x);
        }
        break;
      case UOp::VsMpyAdd:
        for (int i = 0; i < t.lanes; ++i) {
            int64_t acc = 0;
            for (size_t k = 0; k < nargs; ++k)
                acc += mul_wrap(arg(k)[i], p.kernel[k]);
            v[i] = p.saturate ? saturate(s, acc) : wrap(s, acc);
        }
        break;
      case UOp::VvMpyAdd:
        for (int i = 0; i < t.lanes; ++i) {
            int64_t acc = 0;
            for (size_t k = 0; k + 1 < nargs; k += 2)
                acc = add_wrap(acc, mul_wrap(arg(k)[i], arg(k + 1)[i]));
            v[i] = p.saturate ? saturate(s, acc) : wrap(s, acc);
        }
        break;
      case UOp::AbsDiff:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, abs_diff(arg(0)[i], arg(1)[i]));
        break;
      case UOp::Min:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = std::min(arg(0)[i], arg(1)[i]);
        break;
      case UOp::Max:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = std::max(arg(0)[i], arg(1)[i]);
        break;
      case UOp::Average:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = average(s, arg(0)[i], arg(1)[i], p.round);
        break;
      case UOp::ShiftLeft:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = shift_left(s, arg(0)[i],
                              static_cast<int>(arg(1)[i]));
        break;
      case UOp::ShiftRight:
        for (int i = 0; i < t.lanes; ++i) {
            if (is_signed(s)) {
                v[i] = wrap(s, shift_right(arg(0)[i],
                                           static_cast<int>(arg(1)[i]),
                                           p.round));
            } else {
                int64_t x = arg(0)[i];
                const int n = static_cast<int>(arg(1)[i]);
                if (p.round)
                    x = shift_right(x, n, true);
                else
                    x = logical_shift_right(s, x, n);
                v[i] = wrap(s, x);
            }
        }
        break;
      case UOp::And:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, arg(0)[i] & arg(1)[i]);
        break;
      case UOp::Or:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, arg(0)[i] | arg(1)[i]);
        break;
      case UOp::Xor:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, arg(0)[i] ^ arg(1)[i]);
        break;
      case UOp::Not:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, ~arg(0)[i]);
        break;
      case UOp::Lt:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = arg(0)[i] < arg(1)[i] ? 1 : 0;
        break;
      case UOp::Le:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = arg(0)[i] <= arg(1)[i] ? 1 : 0;
        break;
      case UOp::Eq:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = arg(0)[i] == arg(1)[i] ? 1 : 0;
        break;
      case UOp::Select:
        for (int i = 0; i < t.lanes; ++i)
            v[i] = arg(0)[i] != 0 ? arg(1)[i] : arg(2)[i];
        break;
      case UOp::HirLeaf:
        RAKE_UNREACHABLE("handled above");
    }
    return v;
}

Value
evaluate(const UExprPtr &e, const Env &env)
{
    Interpreter interp;
    interp.reset(env);
    return interp.eval(e);
}

} // namespace rake::uir
