#include "hir/simplify.h"

#include <unordered_map>

#include "base/arith.h"
#include "hir/analysis.h"
#include "support/error.h"

namespace rake::hir {

namespace {

class Simplifier
{
  public:
    ExprPtr
    mutate(const ExprPtr &e)
    {
        auto it = memo_.find(e.get());
        if (it != memo_.end())
            return it->second;
        ExprPtr r = mutate_impl(e);
        memo_.emplace(e.get(), r);
        return r;
    }

  private:
    ExprPtr
    mutate_impl(const ExprPtr &e)
    {
        // Leaves are already minimal.
        if (e->num_args() == 0)
            return e;

        std::vector<ExprPtr> args;
        args.reserve(e->num_args());
        bool changed = false;
        for (const auto &a : e->args()) {
            args.push_back(mutate(a));
            changed |= args.back() != a;
        }

        const ScalarType s = e->type().elem;

        // Full constant folding when every child is constant.
        bool all_const = true;
        std::vector<int64_t> cvals(args.size());
        for (size_t i = 0; i < args.size(); ++i) {
            if (!as_const(args[i], &cvals[i])) {
                all_const = false;
                break;
            }
        }
        if (all_const && e->op() != Op::Broadcast) {
            int64_t r = 0;
            bool folded = true;
            switch (e->op()) {
              case Op::Cast:
                r = wrap(s, cvals[0]);
                break;
              case Op::Add:
                r = wrap(s, cvals[0] + cvals[1]);
                break;
              case Op::Sub:
                r = wrap(s, cvals[0] - cvals[1]);
                break;
              case Op::Mul:
                r = wrap(s, mul_wrap(cvals[0], cvals[1]));
                break;
              case Op::Min:
                r = std::min(cvals[0], cvals[1]);
                break;
              case Op::Max:
                r = std::max(cvals[0], cvals[1]);
                break;
              case Op::AbsDiff:
                r = wrap(s, abs_diff(cvals[0], cvals[1]));
                break;
              case Op::ShiftLeft:
                r = shift_left(s, cvals[0], static_cast<int>(cvals[1]));
                break;
              case Op::ShiftRight:
                r = is_signed(s)
                        ? wrap(s, shift_right(cvals[0],
                                              static_cast<int>(cvals[1])))
                        : logical_shift_right(
                              s, cvals[0], static_cast<int>(cvals[1]));
                break;
              default:
                folded = false;
                break;
            }
            if (folded)
                return Expr::make_const(r, e->type());
        }

        switch (e->op()) {
          case Op::Cast: {
            const ExprPtr &a = args[0];
            // cast<T>(x) where x : T is the identity. Deliberately no
            // range-based cast-of-cast collapsing: Halide's simplifier
            // keeps the staged casts, and they mark the narrow
            // element widths the synthesizer wants to target.
            if (a->type().elem == s)
                return a;
            break;
          }
          case Op::Add: {
            int64_t c = 0;
            if (as_const(args[1], &c) && c == 0)
                return args[0];
            if (as_const(args[0], &c) && c == 0)
                return args[1];
            break;
          }
          case Op::Sub: {
            int64_t c = 0;
            if (as_const(args[1], &c) && c == 0)
                return args[0];
            break;
          }
          case Op::Mul: {
            int64_t c = 0;
            if (as_const(args[1], &c)) {
                if (c == 1)
                    return args[0];
                if (c == 0)
                    return Expr::make_const(0, e->type());
            }
            if (as_const(args[0], &c)) {
                if (c == 1)
                    return args[1];
                if (c == 0)
                    return Expr::make_const(0, e->type());
            }
            break;
          }
          case Op::ShiftLeft:
          case Op::ShiftRight: {
            int64_t c = 0;
            if (as_const(args[1], &c) && c == 0)
                return args[0];
            break;
          }
          case Op::Min: {
            // min(x, c) == x when range(x).max <= c, == c when
            // c <= range(x).min.
            int64_t c = 0;
            for (int i = 0; i < 2; ++i) {
                if (as_const(args[i], &c)) {
                    const Interval r = range_of(args[1 - i]);
                    if (r.max <= c)
                        return args[1 - i];
                    if (c <= r.min)
                        return args[i];
                }
            }
            if (equal(args[0], args[1]))
                return args[0];
            break;
          }
          case Op::Max: {
            int64_t c = 0;
            for (int i = 0; i < 2; ++i) {
                if (as_const(args[i], &c)) {
                    const Interval r = range_of(args[1 - i]);
                    if (r.min >= c)
                        return args[1 - i];
                    if (c >= r.max)
                        return args[i];
                }
            }
            if (equal(args[0], args[1]))
                return args[0];
            break;
          }
          case Op::Select: {
            int64_t c = 0;
            if (as_const(args[0], &c))
                return c != 0 ? args[1] : args[2];
            if (equal(args[1], args[2]))
                return args[1];
            break;
          }
          default:
            break;
        }

        if (!changed)
            return e;
        // Rebuild the node with the simplified children.
        switch (e->op()) {
          case Op::Cast:
            return Expr::make_cast(s, args[0]);
          case Op::Broadcast:
            return Expr::make_broadcast(args[0], e->type().lanes);
          default:
            return Expr::make(e->op(), std::move(args));
        }
    }

    std::unordered_map<const Expr *, ExprPtr> memo_;
};

} // namespace

ExprPtr
simplify(const ExprPtr &e)
{
    RAKE_CHECK(e != nullptr, "simplify of null expression");
    Simplifier s;
    return s.mutate(e);
}

} // namespace rake::hir
