#include "neon/interp.h"

#include <algorithm>

#include "base/arith.h"
#include "hir/interp.h"
#include "support/error.h"

namespace rake::neon {

const Value &
Interpreter::eval(const NInstrPtr &n)
{
    RAKE_CHECK(n != nullptr, "evaluate of null instruction");
    RAKE_CHECK(env_ != nullptr, "eval before reset");
    return eval_node(*n);
}

const Value &
Interpreter::eval_node(const NInstr &n)
{
    auto it = memo_.find(&n);
    if (it != memo_.end())
        return it->second;

    const Env &env = *env_;
    const VecType t = n.type();
    const ScalarType s = t.elem;
    const int L = t.lanes;

    // Evaluate operands first: recursive inserts may rehash the memo,
    // but unordered_map guarantees element references stay valid.
    const Value *a[3] = {nullptr, nullptr, nullptr};
    for (int i = 0; i < n.num_args() && i < 3; ++i)
        a[i] = &eval_node(*n.arg(i));
    const std::vector<int64_t> &im = n.imms();

    Value v = Value::zero(t);
    switch (n.op()) {
      case NOp::Ld1: {
        const Buffer &buf = env.buffer(n.load_ref().buffer);
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, buf.at(env.x + n.load_ref().dx + i,
                                  env.y + n.load_ref().dy));
        break;
      }
      case NOp::Dup: {
        const Value sv = hir::evaluate(n.dup_value(), env);
        v = Value::splat(s, L, sv.as_scalar());
        break;
      }
      case NOp::Hole:
        RAKE_CHECK(oracle_ != nullptr,
                   "?? hole evaluated without an oracle");
        v = oracle_(n.hole_id(), env);
        break;
      case NOp::Bitcast:
      case NOp::Movl:
      case NOp::Xtn:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, (*a[0])[i]);
        break;
      case NOp::Qxtn:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(s, (*a[0])[i]);
        break;
      case NOp::Shrn:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, shift_right((*a[0])[i],
                                       static_cast<int>(im[0])));
        break;
      case NOp::Qrshrn:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(s, shift_right((*a[0])[i],
                                           static_cast<int>(im[0]),
                                           true));
        break;
      case NOp::Add:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, (*a[0])[i] + (*a[1])[i]);
        break;
      case NOp::Qadd:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(s, (*a[0])[i] + (*a[1])[i]);
        break;
      case NOp::Sub:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, (*a[0])[i] - (*a[1])[i]);
        break;
      case NOp::Mul:
      case NOp::Mull:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, mul_wrap((*a[0])[i], (*a[1])[i]));
        break;
      case NOp::Mla:
      case NOp::Mlal:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, add_wrap((*a[0])[i],
                                    mul_wrap((*a[1])[i], (*a[2])[i])));
        break;
      case NOp::Abd:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, abs_diff((*a[0])[i], (*a[1])[i]));
        break;
      case NOp::Min:
        for (int i = 0; i < L; ++i)
            v[i] = std::min((*a[0])[i], (*a[1])[i]);
        break;
      case NOp::Max:
        for (int i = 0; i < L; ++i)
            v[i] = std::max((*a[0])[i], (*a[1])[i]);
        break;
      case NOp::Hadd:
        for (int i = 0; i < L; ++i)
            v[i] = average(s, (*a[0])[i], (*a[1])[i], false);
        break;
      case NOp::Rhadd:
        for (int i = 0; i < L; ++i)
            v[i] = average(s, (*a[0])[i], (*a[1])[i], true);
        break;
      case NOp::Shl:
        for (int i = 0; i < L; ++i)
            v[i] = shift_left(s, (*a[0])[i], static_cast<int>(im[0]));
        break;
      case NOp::Sshr:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, shift_right((*a[0])[i],
                                       static_cast<int>(im[0])));
        break;
      case NOp::Ushr:
        for (int i = 0; i < L; ++i)
            v[i] = logical_shift_right(s, (*a[0])[i],
                                       static_cast<int>(im[0]));
        break;
      case NOp::Rshr:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, shift_right((*a[0])[i],
                                       static_cast<int>(im[0]), true));
        break;
      case NOp::Cmgt:
        for (int i = 0; i < L; ++i)
            v[i] = (*a[0])[i] > (*a[1])[i] ? 1 : 0;
        break;
      case NOp::Cmeq:
        for (int i = 0; i < L; ++i)
            v[i] = (*a[0])[i] == (*a[1])[i] ? 1 : 0;
        break;
      case NOp::Bsl:
        for (int i = 0; i < L; ++i)
            v[i] = (*a[0])[i] != 0 ? (*a[1])[i] : (*a[2])[i];
        break;
      case NOp::And:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, (*a[0])[i] & (*a[1])[i]);
        break;
      case NOp::Orr:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, (*a[0])[i] | (*a[1])[i]);
        break;
      case NOp::Eor:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, (*a[0])[i] ^ (*a[1])[i]);
        break;
      case NOp::Not:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, ~(*a[0])[i]);
        break;
      case NOp::Lo:
        for (int i = 0; i < L; ++i)
            v[i] = (*a[0])[i];
        break;
      case NOp::Hi:
        for (int i = 0; i < L; ++i)
            v[i] = (*a[0])[i + L];
        break;
      case NOp::Combine: {
        const int la = n.arg(0)->type().lanes;
        for (int i = 0; i < L; ++i)
            v[i] = i < la ? (*a[0])[i] : (*a[1])[i - la];
        break;
      }
      case NOp::Ext: {
        const int r = static_cast<int>(im[0]);
        for (int i = 0; i < L; ++i)
            v[i] = i + r < L ? (*a[0])[i + r] : (*a[1])[i + r - L];
        break;
      }
      case NOp::Zip: {
        const int h = L / 2;
        for (int i = 0; i < h; ++i) {
            v[2 * i] = (*a[0])[i];
            v[2 * i + 1] = (*a[0])[h + i];
        }
        break;
      }
      case NOp::Uzp: {
        const int h = L / 2;
        for (int j = 0; j < h; ++j) {
            v[j] = (*a[0])[2 * j];
            v[h + j] = (*a[0])[2 * j + 1];
        }
        break;
      }
      case NOp::Rev:
        for (int i = 0; i < L; ++i)
            v[i] = (*a[0])[L - 1 - i];
        break;
      case NOp::Tbl: {
        const int tl = n.arg(0)->type().lanes;
        for (int i = 0; i < L; ++i) {
            const int64_t idx = im[i];
            // Out-of-range indices read as zero (vtbl semantics).
            v[i] = idx >= 0 && idx < tl ? (*a[0])[idx] : 0;
        }
        break;
      }
    }
    return memo_.emplace(&n, std::move(v)).first->second;
}

Value
evaluate(const NInstrPtr &n, const Env &env)
{
    Interpreter interp;
    interp.reset(env);
    return interp.eval(n);
}

} // namespace rake::neon
