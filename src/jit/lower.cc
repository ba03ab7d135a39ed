/**
 * @file
 * HVX DAG -> x86-64 lowering.
 *
 * The machine-IR layer of the JIT: walks the selected instruction DAG
 * in topological order, gives every node a run of int64 arena slots
 * (one per lane, the interpreters' carrier representation), and emits
 * code computing each node's lanes from its operands' slots. Lane
 * counts and immediates are compile-time constants, so every HVX
 * index map (deint/ileave/cat/align/ror) reduces to a constant
 * displacement — no tables, no relocations — and node bodies are
 * unrolled over their lanes.
 *
 * Loads are the exception. A vmem tests at run time, once per tile,
 * whether its lanes lie inside the buffer row: an interior tile
 * copies the row in SSE2/AVX2 chunks and wraps them packed; an edge
 * tile runs Buffer::at's clamp lane by lane in a small loop, so the
 * rare path costs a few dozen bytes rather than an unrolled copy per
 * lane. At SimdLevel::Scalar the interior copy is scalar too.
 *
 * Scalar lowering mirrors base/arith.h operation by operation (the
 * bit-identity contract the differential tests and the fuzz oracle
 * pin down). Element-wise wrap ops additionally take an SSE2/AVX2
 * packed path over 2/4 int64 lanes per instruction, with a scalar
 * tail; width masking uses the ((v & mask) ^ sign) - sign identity.
 */
#include <cstddef>
#include <map>
#include <unordered_map>
#include <vector>

#include "base/arith.h"
#include "hir/analysis.h"
#include "jit/encoder.h"
#include "jit/jit.h"
#include "support/error.h"

namespace rake::jit {

static_assert(offsetof(Frame, x) == 0, "Frame layout");
static_assert(offsetof(Frame, y) == 8, "Frame layout");
static_assert(offsetof(Frame, bufs) == 16, "Frame layout");
static_assert(offsetof(Frame, arena) == 24, "Frame layout");
static_assert(offsetof(BufferDesc, data) == 0, "BufferDesc layout");
static_assert(offsetof(BufferDesc, width) == 8, "BufferDesc layout");
static_assert(offsetof(BufferDesc, height) == 16, "BufferDesc layout");
static_assert(offsetof(BufferDesc, x0) == 24, "BufferDesc layout");
static_assert(offsetof(BufferDesc, y0) == 32, "BufferDesc layout");
static_assert(sizeof(BufferDesc) == 40, "BufferDesc layout");

namespace {

// Pinned registers for the whole function body.
constexpr Reg kArena = Reg::rbx;
constexpr Reg kBufs = Reg::r12;
constexpr Reg kX = Reg::r14;
constexpr Reg kY = Reg::r15;

/** Output lane -> input lane of a deinterleaved register pair. */
int
deint(int i, int L)
{
    if (L % 2 != 0)
        return i; // degenerate width; no pair structure
    const int h = L / 2;
    return i < h ? 2 * i : 2 * (i - h) + 1;
}

} // namespace

class Lowerer
{
  public:
    explicit Lowerer(SimdLevel simd) : simd_(simd) {}

    std::unique_ptr<Program> lower(const hvx::InstrPtr &root);

  private:
    using Instr = hvx::Instr;

    void collect(const hvx::InstrPtr &n);
    void emit_node(const Instr &n);
    void emit_vread(const Instr &n);
    void emit_vbitcast(const Instr &n);

    // --- slot addressing ---
    int32_t
    disp(const Instr *node, int lane)
    {
        auto it = slot_.find(node);
        RAKE_CHECK(it != slot_.end(), "operand emitted after use");
        RAKE_CHECK(lane >= 0 && lane < node->type().lanes,
                   "jit: lane " << lane << " out of range for "
                                << to_string(node->type()));
        return slot_disp(it->second + lane);
    }
    int32_t
    slot_disp(int64_t slot) const
    {
        const int64_t d = slot * 8;
        RAKE_CHECK(d >= 0 && d <= INT32_MAX, "arena exceeds disp32");
        return static_cast<int32_t>(d);
    }
    int32_t
    adisp(const Instr &n, int ai, int lane)
    {
        return disp(n.arg(ai).get(), lane);
    }
    /** Lane j of concat(arg a0, arg a1). */
    int32_t
    cat_disp(const Instr &n, int a0, int a1, int j)
    {
        const int l0 = n.arg(a0)->type().lanes;
        if (j < l0)
            return adisp(n, a0, j);
        return adisp(n, a1, j - l0);
    }
    /** Lane i of interleave(arg 0, arg 1). */
    int32_t
    ileave_disp(const Instr &n, int i)
    {
        return adisp(n, i % 2 == 0 ? 0 : 1, i / 2);
    }
    void
    ld(Reg r, const Instr &n, int ai, int lane)
    {
        a_.load(r, kArena, adisp(n, ai, lane));
    }
    void
    st(const Instr &n, int lane, Reg r)
    {
        a_.store(kArena, disp(&n, lane), r);
    }

    /** Arena slot of a broadcast constant (deduplicated). */
    int64_t
    const_slot(int64_t value, int lanes)
    {
        auto key = std::make_pair(value, lanes);
        auto it = const_map_.find(key);
        if (it != const_map_.end())
            return it->second;
        const int64_t slot =
            num_slots_ + static_cast<int64_t>(pool_.size());
        for (int i = 0; i < lanes; ++i)
            pool_.push_back(value);
        const_map_.emplace(key, slot);
        return slot;
    }

    // --- arith.h helpers, emitted ---
    void
    wrap_reg(Reg r, ScalarType s)
    {
        const int b = bits(s);
        if (b == 64)
            return;
        a_.shl_imm(r, 64 - b);
        if (is_signed(s))
            a_.sar_imm(r, 64 - b);
        else
            a_.shr_imm(r, 64 - b);
    }
    void
    saturate_reg(Reg r, ScalarType s, Reg tmp)
    {
        a_.mov_imm64(tmp, min_value(s));
        a_.cmp(r, tmp);
        a_.cmov(Cond::l, r, tmp);
        a_.mov_imm64(tmp, max_value(s));
        a_.cmp(r, tmp);
        a_.cmov(Cond::g, r, tmp);
    }
    void
    shift_right_reg(Reg r, int n, bool round, Reg tmp)
    {
        if (n <= 0)
            return;
        if (n >= 63) {
            a_.sar_imm(r, 63); // collapses to the sign, as arith.h
            return;
        }
        if (round) {
            // The rounding add wraps like the uint64_t carrier trick.
            a_.mov_imm64(tmp,
                         static_cast<int64_t>(uint64_t{1} << (n - 1)));
            a_.add(r, tmp);
        }
        a_.sar_imm(r, n);
    }
    void
    shift_left_reg(Reg r, ScalarType s, int n)
    {
        if (n <= 0) {
            wrap_reg(r, s);
            return;
        }
        if (n >= 64) {
            a_.xor_(r, r);
            return;
        }
        a_.shl_imm(r, n);
        wrap_reg(r, s);
    }
    void
    lsr_reg(Reg r, ScalarType s, int n)
    {
        if (n <= 0) {
            wrap_reg(r, s);
            return;
        }
        const int b = bits(s);
        if (n >= b) {
            a_.xor_(r, r);
            return;
        }
        if (b < 64) { // zero-fill down to the type's width first
            a_.shl_imm(r, 64 - b);
            a_.shr_imm(r, 64 - b);
        }
        a_.shr_imm(r, n);
        wrap_reg(r, s);
    }
    void
    mul_imm(Reg r, int64_t imm, Reg tmp)
    {
        a_.mov_imm64(tmp, imm);
        a_.imul(r, tmp);
    }

    // --- packed fast path ---
    int simd_chunk() const { return simd_ == SimdLevel::Avx2 ? 4 : 2; }
    /** xmm0 (ymm0 at AVX2) = one chunk at [base + d]. */
    void
    vec_load(Reg base, int32_t d)
    {
        if (simd_ == SimdLevel::Avx2) {
            used_avx_ = true;
            a_.vmovdqu_load(Vreg::xmm0, base, d);
        } else {
            a_.movdqu_load(Vreg::xmm0, base, d);
        }
    }
    /** xmm0 (ymm0) op= one chunk at [kArena + d]. */
    void
    vec_op_mem(VecOp op, int32_t d)
    {
        if (simd_ == SimdLevel::Avx2)
            a_.avx_op_mem(op, Vreg::xmm0, Vreg::xmm0, kArena, d);
        else
            a_.sse_op_mem(op, Vreg::xmm0, kArena, d);
    }
    /** Lanes [lane, lane + chunk) of node n = xmm0 (ymm0). */
    void
    vec_store(const Instr &n, int lane)
    {
        if (simd_ == SimdLevel::Avx2)
            a_.vmovdqu_store(kArena, disp(&n, lane), Vreg::xmm0);
        else
            a_.movdqu_store(kArena, disp(&n, lane), Vreg::xmm0);
    }
    /**
     * Packed `vop` over identity-indexed lanes of args 0 and 1, with
     * the wrap-to-elem fixup. Covers lanes [0, r); the caller emits
     * the scalar tail from r. Returns 0 (nothing emitted) at
     * SimdLevel::Scalar.
     */
    int emit_simd_bin(const Instr &n, VecOp vop);
    /** Same for VNot (pxor with all-ones, then wrap). */
    int emit_simd_not(const Instr &n);
    void emit_simd_wrap(ScalarType s, int chunk);

    Assembler a_;
    SimdLevel simd_;
    bool used_avx_ = false;

    std::unordered_map<const Instr *, int64_t> slot_;
    std::vector<const Instr *> order_;
    int64_t num_slots_ = 0;
    std::vector<int64_t> pool_;
    std::map<std::pair<int64_t, int>, int64_t> const_map_;

    std::map<int, int> buf_index_;           ///< buffer id -> desc index
    std::vector<int> buf_ids_;
    std::map<int, ScalarType> load_elems_;
    std::vector<Program::SplatSite> splats_;
};

void
Lowerer::collect(const hvx::InstrPtr &n)
{
    if (!n || slot_.count(n.get()))
        return;
    for (const hvx::InstrPtr &arg : n->args())
        collect(arg);
    RAKE_USER_CHECK(n->op() != hvx::Opcode::Hole,
                    "jit: sketch holes cannot be compiled");
    slot_.emplace(n.get(), num_slots_);
    num_slots_ += n->type().lanes;
    order_.push_back(n.get());
    if (n->op() == hvx::Opcode::VRead) {
        const hir::LoadRef &r = n->load_ref();
        const ScalarType s = n->type().elem;
        auto it = load_elems_.find(r.buffer);
        if (it == load_elems_.end()) {
            load_elems_.emplace(r.buffer, s);
            buf_index_.emplace(r.buffer,
                               static_cast<int>(buf_ids_.size()));
            buf_ids_.push_back(r.buffer);
        } else {
            RAKE_USER_CHECK(it->second == s,
                            "jit: buffer " << r.buffer
                                           << " read at two element "
                                              "types");
        }
    }
    if (n->op() == hvx::Opcode::VSplat) {
        // bind() evaluates splats once per image, from the scalars
        // alone; a splat that loaded pixels would vary per tile.
        RAKE_USER_CHECK(hir::collect_loads(n->splat_value()).empty(),
                        "jit: a splat value that loads from a buffer "
                        "is not loop-invariant");
        Program::SplatSite sp;
        sp.expr = n->splat_value();
        sp.slot = slot_.at(n.get());
        sp.lanes = n->type().lanes;
        sp.elem = n->type().elem;
        splats_.push_back(std::move(sp));
    }
}

void
Lowerer::emit_simd_wrap(ScalarType s, int chunk)
{
    const int b = bits(s);
    if (b == 64)
        return;
    const int64_t mask =
        static_cast<int64_t>((uint64_t{1} << b) - 1);
    vec_op_mem(VecOp::pand, slot_disp(const_slot(mask, chunk)));
    if (is_signed(s)) {
        const int64_t sign = static_cast<int64_t>(uint64_t{1} << (b - 1));
        const int32_t sign_d = slot_disp(const_slot(sign, chunk));
        vec_op_mem(VecOp::pxor, sign_d);
        vec_op_mem(VecOp::psubq, sign_d);
    }
}

int
Lowerer::emit_simd_bin(const Instr &n, VecOp vop)
{
    if (simd_ == SimdLevel::Scalar)
        return 0;
    const int L = n.type().lanes;
    const int chunk = simd_chunk();
    int i = 0;
    for (; i + chunk <= L; i += chunk) {
        vec_load(kArena, adisp(n, 0, i));
        vec_op_mem(vop, adisp(n, 1, i));
        emit_simd_wrap(n.type().elem, chunk);
        vec_store(n, i);
    }
    return i;
}

int
Lowerer::emit_simd_not(const Instr &n)
{
    if (simd_ == SimdLevel::Scalar)
        return 0;
    const int L = n.type().lanes;
    const int chunk = simd_chunk();
    const int32_t ones_d = slot_disp(const_slot(-1, chunk));
    int i = 0;
    for (; i + chunk <= L; i += chunk) {
        vec_load(kArena, adisp(n, 0, i));
        vec_op_mem(VecOp::pxor, ones_d);
        emit_simd_wrap(n.type().elem, chunk);
        vec_store(n, i);
    }
    return i;
}

void
Lowerer::emit_vread(const Instr &n)
{
    const hir::LoadRef &r = n.load_ref();
    const ScalarType s = n.type().elem;
    const int L = n.type().lanes;
    const int32_t dbase =
        buf_index_.at(r.buffer) * static_cast<int32_t>(sizeof(BufferDesc));

    a_.load(Reg::rsi, kBufs, dbase + 8);  // width
    a_.load(Reg::rdx, kBufs, dbase + 16); // height
    // iy = clamp(y + dy - y0, 0, height - 1)
    a_.mov(Reg::rax, kY);
    if (r.dy != 0)
        a_.add_imm32(Reg::rax, r.dy);
    a_.load(Reg::rcx, kBufs, dbase + 32); // y0
    a_.sub(Reg::rax, Reg::rcx);
    a_.xor_(Reg::rcx, Reg::rcx);
    a_.cmp(Reg::rax, Reg::rcx);
    a_.cmov(Cond::l, Reg::rax, Reg::rcx);
    a_.lea(Reg::rcx, Reg::rdx, -1);
    a_.cmp(Reg::rax, Reg::rcx);
    a_.cmov(Cond::g, Reg::rax, Reg::rcx);
    // r9 = data + iy * width * 8
    a_.imul(Reg::rax, Reg::rsi);
    a_.load(Reg::r9, kBufs, dbase + 0);
    a_.lea_index8(Reg::r9, Reg::r9, Reg::rax);
    // r10 = x + dx - x0; r8 = width - 1; rcx stays 0 for the clamps.
    a_.mov(Reg::r10, kX);
    if (r.dx != 0)
        a_.add_imm32(Reg::r10, r.dx);
    a_.load(Reg::rcx, kBufs, dbase + 24); // x0
    a_.sub(Reg::r10, Reg::rcx);
    a_.lea(Reg::r8, Reg::rsi, -1);
    a_.xor_(Reg::rcx, Reg::rcx);
    // rax = wrap(row[clamp(rax, 0, width - 1)]), as Buffer::at.
    auto clamped_load = [&] {
        a_.cmp(Reg::rax, Reg::rcx);
        a_.cmov(Cond::l, Reg::rax, Reg::rcx);
        a_.cmp(Reg::rax, Reg::r8);
        a_.cmov(Cond::g, Reg::rax, Reg::r8);
        a_.load_index8(Reg::rax, Reg::r9, Reg::rax);
        wrap_reg(Reg::rax, s);
    };

    // Interior tile (0 <= ix and ix + L - 1 <= width - 1): no lane
    // clamps, so the row is copied in packed chunks (lane by lane at
    // SimdLevel::Scalar).
    Label edge, done;
    a_.test(Reg::r10, Reg::r10);
    a_.jcc(Cond::l, edge);
    a_.lea(Reg::rax, Reg::r10, L);
    a_.cmp(Reg::rax, Reg::rsi);
    a_.jcc(Cond::g, edge);
    a_.lea_index8(Reg::r9, Reg::r9, Reg::r10); // r9 = &row[ix]
    int i = 0;
    if (simd_ != SimdLevel::Scalar) {
        const int chunk = simd_chunk();
        for (; i + chunk <= L; i += chunk) {
            vec_load(Reg::r9, 8 * i);
            emit_simd_wrap(s, chunk);
            vec_store(n, i);
        }
    }
    for (; i < L; ++i) {
        a_.load(Reg::rax, Reg::r9, 8 * i);
        wrap_reg(Reg::rax, s);
        st(n, i, Reg::rax);
    }
    a_.jmp(done);

    // Edge tile: Buffer::at's clamp, one lane per trip of a runtime
    // loop. r11 = ix walks [r10, r10 + L); rdx = the lane's slot.
    a_.bind(edge);
    a_.mov(Reg::r11, Reg::r10);
    a_.lea(Reg::rsi, Reg::r10, L);
    a_.lea(Reg::rdx, kArena, disp(&n, 0));
    Label lane;
    a_.bind(lane);
    a_.mov(Reg::rax, Reg::r11);
    clamped_load();
    a_.store(Reg::rdx, 0, Reg::rax);
    a_.add_imm32(Reg::rdx, 8);
    a_.add_imm32(Reg::r11, 1);
    a_.cmp(Reg::r11, Reg::rsi);
    a_.jcc(Cond::l, lane);
    a_.bind(done);
}

void
Lowerer::emit_vbitcast(const Instr &n)
{
    const ScalarType s = n.type().elem;
    const int in_w = bytes(n.arg(0)->type().elem);
    const int out_w = bytes(s);
    const int L = n.type().lanes;
    for (int i = 0; i < L; ++i) {
        if (out_w == in_w) {
            ld(Reg::rax, n, 0, i);
        } else if (out_w < in_w) {
            // One input lane supplies this output lane's bytes.
            const int j = (i * out_w) / in_w;
            const int off = (i * out_w) % in_w;
            ld(Reg::rax, n, 0, j);
            if (off > 0)
                a_.shr_imm(Reg::rax, 8 * off);
        } else {
            // out_w / in_w input lanes assemble this output lane,
            // little-endian (interp.cc's byte serialization).
            const int k = out_w / in_w;
            for (int m = 0; m < k; ++m) {
                ld(Reg::rsi, n, 0, i * k + m);
                if (in_w < 8) { // zero-extend to the input width
                    a_.shl_imm(Reg::rsi, 64 - 8 * in_w);
                    a_.shr_imm(Reg::rsi, 64 - 8 * in_w);
                }
                if (m > 0)
                    a_.shl_imm(Reg::rsi, 8 * in_w * m);
                if (m == 0)
                    a_.mov(Reg::rax, Reg::rsi);
                else
                    a_.or_(Reg::rax, Reg::rsi);
            }
        }
        wrap_reg(Reg::rax, s);
        st(n, i, Reg::rax);
    }
}

void
Lowerer::emit_node(const Instr &n)
{
    using hvx::Opcode;
    const VecType t = n.type();
    const ScalarType s = t.elem;
    const int L = t.lanes;
    const std::vector<int64_t> &im = n.imms();

    // Shared emit shapes over constant lane maps.
    auto copy_lanes = [&](auto src_disp) {
        for (int i = 0; i < L; ++i) {
            a_.load(Reg::rax, kArena, src_disp(i));
            st(n, i, Reg::rax);
        }
    };
    auto bin_lanes = [&](void (Assembler::*op)(Reg, Reg), bool sat) {
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            (a_.*op)(Reg::rax, Reg::rsi);
            if (sat)
                saturate_reg(Reg::rax, s, Reg::rsi);
            else
                wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
    };
    auto cmp_lanes = [&](Cond cc) {
        for (int i = 0; i < L; ++i) {
            ld(Reg::rcx, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.xor_(Reg::rax, Reg::rax);
            a_.cmp(Reg::rcx, Reg::rsi);
            a_.setcc_al(cc);
            st(n, i, Reg::rax);
        }
    };
    auto minmax_lanes = [&](Cond move_if) {
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.cmp(Reg::rax, Reg::rsi);
            a_.cmov(move_if, Reg::rax, Reg::rsi);
            st(n, i, Reg::rax);
        }
    };
    auto avg_lanes = [&](bool negate, bool round) {
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            if (negate)
                a_.sub(Reg::rax, Reg::rsi);
            else
                a_.add(Reg::rax, Reg::rsi);
            if (round)
                a_.add_imm32(Reg::rax, 1);
            a_.sar_imm(Reg::rax, 1);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
    };
    // acc(i) = base + sum of taps; taps at constant displacements.
    auto mac_lanes = [&](auto emit_base, auto emit_taps) {
        for (int i = 0; i < L; ++i) {
            emit_base(i); // leaves the accumulator in rax
            emit_taps(i); // adds products into rax (rcx/rdx free)
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
    };

    switch (n.op()) {
      case Opcode::VRead:
        emit_vread(n);
        return;
      case Opcode::VSplat:
        return; // host-filled at bind(): loop-invariant
      case Opcode::Hole:
        RAKE_UNREACHABLE("holes rejected in collect()");
      case Opcode::VBitcast:
        emit_vbitcast(n);
        return;
      case Opcode::VCombine:
        copy_lanes([&](int i) { return cat_disp(n, 0, 1, i); });
        return;
      case Opcode::VLo:
        copy_lanes([&](int i) { return adisp(n, 0, i); });
        return;
      case Opcode::VHi:
        copy_lanes([&](int i) { return adisp(n, 0, L + i); });
        return;
      case Opcode::VAlign:
        copy_lanes([&](int i) {
            const int j = i + static_cast<int>(im[0]);
            return j < L ? adisp(n, 0, j) : adisp(n, 1, j - L);
        });
        return;
      case Opcode::VRor:
        copy_lanes([&](int i) {
            return adisp(n, 0, (i + static_cast<int>(im[0])) % L);
        });
        return;
      case Opcode::VShuffVdd:
        copy_lanes([&](int i) {
            const int h = L / 2;
            return adisp(n, 0, i % 2 == 0 ? i / 2 : h + i / 2);
        });
        return;
      case Opcode::VDealVdd:
        copy_lanes([&](int i) {
            const int h = L / 2;
            return adisp(n, 0, i < h ? 2 * i : 2 * (i - h) + 1);
        });
        return;
      case Opcode::VMux:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rcx, n, 0, i);
            ld(Reg::rax, n, 2, i);
            ld(Reg::rsi, n, 1, i);
            a_.test(Reg::rcx, Reg::rcx);
            a_.cmov(Cond::ne, Reg::rax, Reg::rsi);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VPackE:
        for (int i = 0; i < L; ++i) {
            a_.load(Reg::rax, kArena, ileave_disp(n, i));
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VPackO: {
        const ScalarType src = n.arg(0)->type().elem;
        const int half = bits(src) / 2;
        for (int i = 0; i < L; ++i) {
            a_.load(Reg::rax, kArena, ileave_disp(n, i));
            lsr_reg(Reg::rax, src, half);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VSat:
      case Opcode::VPackSat:
        for (int i = 0; i < L; ++i) {
            a_.load(Reg::rax, kArena, ileave_disp(n, i));
            saturate_reg(Reg::rax, s, Reg::rsi);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VZxt:
      case Opcode::VSxt:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, deint(i, L));
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VAdd: {
        const int done = emit_simd_bin(n, VecOp::paddq);
        for (int i = done; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.add(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VSub: {
        const int done = emit_simd_bin(n, VecOp::psubq);
        for (int i = done; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.sub(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VAnd: {
        const int done = emit_simd_bin(n, VecOp::pand);
        for (int i = done; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.and_(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VOr: {
        const int done = emit_simd_bin(n, VecOp::por);
        for (int i = done; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.or_(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VXor: {
        const int done = emit_simd_bin(n, VecOp::pxor);
        for (int i = done; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.xor_(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VNot: {
        const int done = emit_simd_not(n);
        for (int i = done; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            a_.not_(Reg::rax);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VAddSat:
        bin_lanes(&Assembler::add, /*sat=*/true);
        return;
      case Opcode::VSubSat:
        bin_lanes(&Assembler::sub, /*sat=*/true);
        return;
      case Opcode::VAvg:
        avg_lanes(/*negate=*/false, /*round=*/false);
        return;
      case Opcode::VAvgRnd:
        avg_lanes(/*negate=*/false, /*round=*/true);
        return;
      case Opcode::VNavg:
        avg_lanes(/*negate=*/true, /*round=*/false);
        return;
      case Opcode::VAbsDiff:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.mov(Reg::rdx, Reg::rax);
            a_.sub(Reg::rdx, Reg::rsi); // a - b
            a_.mov(Reg::rcx, Reg::rsi);
            a_.sub(Reg::rcx, Reg::rax); // b - a
            a_.cmp(Reg::rax, Reg::rsi);
            a_.mov(Reg::rax, Reg::rcx);
            a_.cmov(Cond::g, Reg::rax, Reg::rdx);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VMax:
        minmax_lanes(Cond::l);
        return;
      case Opcode::VMin:
        minmax_lanes(Cond::g);
        return;
      case Opcode::VCmpGt:
        cmp_lanes(Cond::g);
        return;
      case Opcode::VCmpEq:
        cmp_lanes(Cond::e);
        return;
      case Opcode::VAsl:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            shift_left_reg(Reg::rax, s, static_cast<int>(im[0]));
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VAsr:
      case Opcode::VAsrRnd:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            shift_right_reg(Reg::rax, static_cast<int>(im[0]),
                            n.op() == Opcode::VAsrRnd, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VLsr:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            lsr_reg(Reg::rax, s, static_cast<int>(im[0]));
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VAsrNarrow:
        for (int i = 0; i < L; ++i) {
            a_.load(Reg::rax, kArena, ileave_disp(n, i));
            shift_right_reg(Reg::rax, static_cast<int>(im[0]), false,
                            Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VAsrNarrowSat:
      case Opcode::VAsrNarrowRndSat:
        for (int i = 0; i < L; ++i) {
            a_.load(Reg::rax, kArena, ileave_disp(n, i));
            shift_right_reg(Reg::rax, static_cast<int>(im[0]),
                            n.op() == Opcode::VAsrNarrowRndSat,
                            Reg::rsi);
            saturate_reg(Reg::rax, s, Reg::rsi);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VRoundSat: {
        const int half = bits(n.arg(0)->type().elem) / 2;
        for (int i = 0; i < L; ++i) {
            a_.load(Reg::rax, kArena, ileave_disp(n, i));
            shift_right_reg(Reg::rax, half, /*round=*/true, Reg::rsi);
            saturate_reg(Reg::rax, s, Reg::rsi);
            st(n, i, Reg::rax);
        }
        return;
      }
      case Opcode::VMpy:
        for (int i = 0; i < L; ++i) {
            const int j = deint(i, L);
            ld(Reg::rax, n, 0, j);
            ld(Reg::rsi, n, 1, j);
            a_.imul(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VMpyAcc:
        for (int i = 0; i < L; ++i) {
            const int j = deint(i, L);
            ld(Reg::rax, n, 1, j);
            ld(Reg::rsi, n, 2, j);
            a_.imul(Reg::rax, Reg::rsi);
            ld(Reg::rsi, n, 0, i);
            a_.add(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VMpyi:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            a_.imul(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VMpyiAcc:
        for (int i = 0; i < L; ++i) {
            ld(Reg::rax, n, 1, i);
            ld(Reg::rsi, n, 2, i);
            a_.imul(Reg::rax, Reg::rsi);
            ld(Reg::rsi, n, 0, i);
            a_.add(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
      case Opcode::VMpa:
        mac_lanes(
            [&](int i) {
                const int j = deint(i, L);
                ld(Reg::rax, n, 0, j);
                mul_imm(Reg::rax, im[0], Reg::rsi);
            },
            [&](int i) {
                const int j = deint(i, L);
                ld(Reg::rdx, n, 1, j);
                mul_imm(Reg::rdx, im[1], Reg::rsi);
                a_.add(Reg::rax, Reg::rdx);
            });
        return;
      case Opcode::VMpaAcc:
        mac_lanes([&](int i) { ld(Reg::rax, n, 0, i); },
                  [&](int i) {
                      const int j = deint(i, L);
                      ld(Reg::rdx, n, 1, j);
                      mul_imm(Reg::rdx, im[0], Reg::rsi);
                      a_.add(Reg::rax, Reg::rdx);
                      ld(Reg::rdx, n, 2, j);
                      mul_imm(Reg::rdx, im[1], Reg::rsi);
                      a_.add(Reg::rax, Reg::rdx);
                  });
        return;
      case Opcode::VDmpy:
        mac_lanes(
            [&](int i) {
                const int j = deint(i, L);
                a_.load(Reg::rax, kArena, cat_disp(n, 0, 1, j));
                mul_imm(Reg::rax, im[0], Reg::rsi);
            },
            [&](int i) {
                const int j = deint(i, L);
                a_.load(Reg::rdx, kArena, cat_disp(n, 0, 1, j + 1));
                mul_imm(Reg::rdx, im[1], Reg::rsi);
                a_.add(Reg::rax, Reg::rdx);
            });
        return;
      case Opcode::VDmpyAcc:
        mac_lanes([&](int i) { ld(Reg::rax, n, 0, i); },
                  [&](int i) {
                      const int j = deint(i, L);
                      a_.load(Reg::rdx, kArena, cat_disp(n, 1, 2, j));
                      mul_imm(Reg::rdx, im[0], Reg::rsi);
                      a_.add(Reg::rax, Reg::rdx);
                      a_.load(Reg::rdx, kArena,
                              cat_disp(n, 1, 2, j + 1));
                      mul_imm(Reg::rdx, im[1], Reg::rsi);
                      a_.add(Reg::rax, Reg::rdx);
                  });
        return;
      case Opcode::VTmpy:
        mac_lanes(
            [&](int i) {
                const int j = deint(i, L);
                a_.load(Reg::rax, kArena, cat_disp(n, 0, 1, j));
                mul_imm(Reg::rax, im[0], Reg::rsi);
            },
            [&](int i) {
                const int j = deint(i, L);
                a_.load(Reg::rdx, kArena, cat_disp(n, 0, 1, j + 1));
                mul_imm(Reg::rdx, im[1], Reg::rsi);
                a_.add(Reg::rax, Reg::rdx);
                a_.load(Reg::rdx, kArena, cat_disp(n, 0, 1, j + 2));
                a_.add(Reg::rax, Reg::rdx);
            });
        return;
      case Opcode::VTmpyAcc:
        mac_lanes([&](int i) { ld(Reg::rax, n, 0, i); },
                  [&](int i) {
                      const int j = deint(i, L);
                      a_.load(Reg::rdx, kArena, cat_disp(n, 1, 2, j));
                      mul_imm(Reg::rdx, im[0], Reg::rsi);
                      a_.add(Reg::rax, Reg::rdx);
                      a_.load(Reg::rdx, kArena,
                              cat_disp(n, 1, 2, j + 1));
                      mul_imm(Reg::rdx, im[1], Reg::rsi);
                      a_.add(Reg::rax, Reg::rdx);
                      a_.load(Reg::rdx, kArena,
                              cat_disp(n, 1, 2, j + 2));
                      a_.add(Reg::rax, Reg::rdx);
                  });
        return;
      case Opcode::VRmpy:
        mac_lanes([&](int) { a_.xor_(Reg::rax, Reg::rax); },
                  [&](int i) {
                      const int j = deint(i, L);
                      for (int k = 0; k < 4; ++k) {
                          a_.load(Reg::rdx, kArena,
                                  cat_disp(n, 0, 1, j + k));
                          mul_imm(Reg::rdx, im[k], Reg::rsi);
                          a_.add(Reg::rax, Reg::rdx);
                      }
                  });
        return;
      case Opcode::VRmpyAcc:
        mac_lanes([&](int i) { ld(Reg::rax, n, 0, i); },
                  [&](int i) {
                      const int j = deint(i, L);
                      for (int k = 0; k < 4; ++k) {
                          a_.load(Reg::rdx, kArena,
                                  cat_disp(n, 1, 2, j + k));
                          mul_imm(Reg::rdx, im[k], Reg::rsi);
                          a_.add(Reg::rax, Reg::rdx);
                      }
                  });
        return;
      case Opcode::VDotRmpy:
        mac_lanes([&](int) { a_.xor_(Reg::rax, Reg::rax); },
                  [&](int i) {
                      for (int k = 0; k < 4; ++k) {
                          ld(Reg::rdx, n, 0, 4 * i + k);
                          ld(Reg::rsi, n, 1, 4 * i + k);
                          a_.imul(Reg::rdx, Reg::rsi);
                          a_.add(Reg::rax, Reg::rdx);
                      }
                  });
        return;
      case Opcode::VDotRmpyAcc:
        mac_lanes([&](int i) { ld(Reg::rax, n, 0, i); },
                  [&](int i) {
                      for (int k = 0; k < 4; ++k) {
                          ld(Reg::rdx, n, 1, 4 * i + k);
                          ld(Reg::rsi, n, 2, 4 * i + k);
                          a_.imul(Reg::rdx, Reg::rsi);
                          a_.add(Reg::rax, Reg::rdx);
                      }
                  });
        return;
      case Opcode::VMpyIE:
      case Opcode::VMpyIO:
        for (int i = 0; i < L; ++i) {
            const int j = n.op() == Opcode::VMpyIE ? 2 * i : 2 * i + 1;
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, j);
            a_.imul(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        }
        return;
    }
    RAKE_UNREACHABLE("unhandled opcode in jit lowering");
}

std::unique_ptr<Program>
Lowerer::lower(const hvx::InstrPtr &root)
{
    collect(root);

    // Prologue: pin arena/bufs/x/y in callee-saved registers. No
    // calls are made, so stack alignment past the pushes is moot.
    a_.push(Reg::rbx);
    a_.push(Reg::r12);
    a_.push(Reg::r14);
    a_.push(Reg::r15);
    a_.load(kArena, Reg::rdi, offsetof(Frame, arena));
    a_.load(kBufs, Reg::rdi, offsetof(Frame, bufs));
    a_.load(kX, Reg::rdi, offsetof(Frame, x));
    a_.load(kY, Reg::rdi, offsetof(Frame, y));

    for (const Instr *n : order_)
        emit_node(*n);

    if (used_avx_)
        a_.vzeroupper();
    a_.pop(Reg::r15);
    a_.pop(Reg::r14);
    a_.pop(Reg::r12);
    a_.pop(Reg::rbx);
    a_.ret();

    auto p = std::unique_ptr<Program>(new Program());
    p->arena_.assign(static_cast<size_t>(num_slots_) + pool_.size(), 0);
    std::copy(pool_.begin(), pool_.end(),
              p->arena_.begin() + num_slots_);
    p->bufs_.resize(buf_ids_.size());
    p->buf_ids_ = std::move(buf_ids_);
    p->splats_ = std::move(splats_);
    p->load_elems_ = std::move(load_elems_);
    p->out_type_ = root->type();
    p->out_slot_ = slot_.at(root.get());
    p->simd_ = simd_;
    p->out_value_.reset(p->out_type_);
    p->code_.seal(a_.code());
    p->fn_ = reinterpret_cast<void (*)(Frame *)>(
        const_cast<void *>(p->code_.entry()));
    return p;
}

std::unique_ptr<Program>
Program::compile(const hvx::InstrPtr &code)
{
    RAKE_USER_CHECK(code != nullptr, "jit: null program");
    RAKE_USER_CHECK(available(),
                    "jit: native execution requires an x86-64 host "
                    "(use --execute interp here)");
    Lowerer lowerer(simd_level());
    return lowerer.lower(code);
}

} // namespace rake::jit
