#include "hir/interp.h"

#include "base/arith.h"
#include "support/error.h"

namespace rake::hir {

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
Interpreter::eval(const ExprPtr &e)
{
    RAKE_CHECK(e != nullptr, "eval of null expression");
    RAKE_CHECK(env_ != nullptr, "eval before reset()");
    auto it = memo_.find(e.get());
    if (it != memo_.end())
        return *it->second;
    const Value &v = eval_impl(*e);
    memo_.emplace(e.get(), &v);
    return v;
}

const Value &
Interpreter::eval_impl(const Expr &e)
{
    const VecType t = e.type();
    const ScalarType s = t.elem;
    const Env &env = *env_;

    switch (e.op()) {
      case Op::Load: {
        const LoadRef &r = e.load_ref();
        const Buffer &buf = env.buffer(r.buffer);
        RAKE_CHECK(buf.elem == s, "load type " << to_string(s)
                                               << " != buffer elem "
                                               << to_string(buf.elem));
        Value &v = slot(t);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, buf.at(env.x + r.dx + i, env.y + r.dy));
        return v;
      }
      case Op::Const: {
        Value &v = slot(t);
        const int64_t c = wrap(s, e.const_value());
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c;
        return v;
      }
      case Op::Var: {
        Value &v = slot(t);
        v[0] = wrap(s, env.scalar(e.var_name()));
        return v;
      }
      case Op::Broadcast: {
        const int64_t x = eval(e.arg(0)).as_scalar();
        Value &v = slot(t);
        const int64_t c = wrap(s, x);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c;
        return v;
      }
      case Op::Cast: {
        const Value &a = eval(e.arg(0));
        Value &v = slot(t);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, a[i]);
        return v;
      }
      case Op::Not: {
        const Value &a = eval(e.arg(0));
        Value &v = slot(t);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, ~a[i]);
        return v;
      }
      case Op::Select: {
        const Value &c = eval(e.arg(0));
        const Value &a = eval(e.arg(1));
        const Value &b = eval(e.arg(2));
        Value &v = slot(t);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c[i] != 0 ? a[i] : b[i];
        return v;
      }
      default:
        break;
    }

    // Remaining ops are lane-wise binaries.
    const Value &a = eval(e.arg(0));
    const Value &b = eval(e.arg(1));
    Value &v = slot(t);
    for (int i = 0; i < t.lanes; ++i) {
        const int64_t x = a[i];
        const int64_t y = b[i];
        int64_t r = 0;
        switch (e.op()) {
          case Op::Add:
            r = wrap(s, x + y);
            break;
          case Op::Sub:
            r = wrap(s, x - y);
            break;
          case Op::Mul:
            r = wrap(s, mul_wrap(x, y));
            break;
          case Op::Min:
            r = std::min(x, y);
            break;
          case Op::Max:
            r = std::max(x, y);
            break;
          case Op::AbsDiff:
            r = wrap(s, abs_diff(x, y));
            break;
          case Op::ShiftLeft:
            r = shift_left(s, x, static_cast<int>(y));
            break;
          case Op::ShiftRight:
            r = is_signed(s) ? wrap(s, shift_right(x, static_cast<int>(y)))
                             : logical_shift_right(s, x,
                                                   static_cast<int>(y));
            break;
          case Op::And:
            r = wrap(s, x & y);
            break;
          case Op::Or:
            r = wrap(s, x | y);
            break;
          case Op::Xor:
            r = wrap(s, x ^ y);
            break;
          case Op::Lt:
            r = x < y ? 1 : 0;
            break;
          case Op::Le:
            r = x <= y ? 1 : 0;
            break;
          case Op::Eq:
            r = x == y ? 1 : 0;
            break;
          default:
            RAKE_UNREACHABLE("unhandled binary op " << to_string(e.op()));
        }
        v[i] = r;
    }
    return v;
}

Value
evaluate(const ExprPtr &e, const Env &env)
{
    Interpreter interp(env);
    return interp.eval(e);
}

} // namespace rake::hir
