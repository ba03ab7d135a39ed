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
 * Scalar lowering mirrors base/arith.h operation by operation (the
 * bit-identity contract the differential tests and the fuzz oracle
 * pin down). At SimdLevel::Sse2/Avx2 a node whose body has a packed
 * form emits it per chunk of 2/4 int64 lanes (emit_lanes), and the
 * scalar body stays for the tail and for chunks with no packed
 * fetch. Operands are read through their lane map, and classify()
 * recognises three maps from the displacements of a chunk's lanes:
 * contiguous (one load: lo/hi/combine/align/ror, same-width bitcast,
 * element-wise ops), deinterleaved (two loads + punpcklqdq, + vpermq
 * at AVX2: zxt/sxt, deal, the widening multiplies) and interleaved
 * (the same in reverse order: shuff, pack-e). A chunk that straddles
 * a concat seam or a rotate's wrap point matches none and runs
 * scalar. Packed bodies exist for those copies and for the multiply
 * family, which uses pmuludq + paddq: the low b bits of a product or
 * sum depend only on the low b bits of its operands, so for a result
 * of b <= 32 bits the wrap makes pmuludq's 32x32 product equal
 * imul's; 64-bit results keep the scalar body. Width masking uses the
 * ((v & mask) ^ sign) - sign identity, with a node's constants held
 * in registers.
 *
 * Loads are the exception to straight-line code. A vmem tests at run
 * time, once per tile, whether its lanes lie inside the buffer row:
 * an interior tile copies the row in packed chunks and wraps them;
 * an edge tile runs Buffer::at's clamp lane by lane in a small loop,
 * so the rare path costs a few dozen bytes rather than an unrolled
 * copy per lane. At SimdLevel::Scalar the interior copy is scalar too.
 */
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
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
// Vector registers: node bodies use xmm0..xmm2, fetch() clobbers
// kVtmp, and kConstRegs hold a node's broadcast constants.
constexpr Vreg kVtmp = Vreg::xmm7;
constexpr Vreg kConstRegs[] = {Vreg::xmm3, Vreg::xmm4, Vreg::xmm5,
                               Vreg::xmm6};

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
    int64_t
    slot_of(const Instr *node) const
    {
        for (const auto &[p, slot] : near_)
            if (p == node)
                return slot;
        auto it = slot_.find(node);
        RAKE_CHECK(it != slot_.end(), "operand emitted after use");
        return it->second;
    }
    int32_t
    disp(const Instr *node, int lane)
    {
        RAKE_CHECK(lane >= 0 && lane < node->type().lanes,
                   "jit: lane " << lane << " out of range for "
                                << to_string(node->type()));
        return slot_disp(slot_of(node) + lane);
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

    /** First pool slot: even, so packed constants are 16-byte
     *  aligned (the arena itself is). */
    int64_t pool_base() const { return (num_slots_ + 1) & ~int64_t{1}; }
    /** Arena slot of a broadcast constant (deduplicated). */
    int64_t
    const_slot(int64_t value, int lanes)
    {
        auto key = std::make_pair(value, lanes);
        auto it = const_map_.find(key);
        if (it != const_map_.end())
            return it->second;
        const int64_t slot = pool_base() + static_cast<int64_t>(pool_.size());
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
    /** An operand lane map: output lane i reads the arena slot at
     *  displacement map(i). */
    using LaneMap = std::function<int32_t(int)>;
    /** How one chunk of an operand's lanes can be loaded packed. */
    struct ChunkSrc {
        enum Kind {
            None,          ///< no packed form: scalar lanes
            Contiguous,    ///< lanes p, p+1, ...
            Deinterleaved, ///< lanes p, p+2, p+4, ...
            Interleaved,   ///< lanes p, q, p+1, q+1, ...
        } kind = None;
        int32_t p = 0, q = 0; ///< displacements
    };
    int simd_chunk() const { return simd_ == SimdLevel::Avx2 ? 4 : 2; }
    /** How lanes [k, k + chunk) of `src` can be loaded packed. */
    ChunkSrc classify(const LaneMap &src, int k);
    /** Lanes [k, k + chunk) of operand ai itself: contiguous. */
    ChunkSrc
    contiguous(const Instr &n, int ai, int k)
    {
        return {ChunkSrc::Contiguous, adisp(n, ai, k), 0};
    }
    /** v = one chunk of `c`, read from [base + disp]; may clobber
     *  kVtmp. */
    void fetch(Vreg v, const ChunkSrc &c, Reg base = kArena);
    void vload(Vreg v, Reg base, int32_t d);
    /** Lanes [lane, lane + chunk) of node n = v. */
    void vstore(const Instr &n, int lane, Vreg v);
    /** dst op= src. */
    void vop(VecOp op, Vreg dst, Vreg src);
    /** dst op= a broadcast constant, held in a kConstRegs register
     *  from its first use in the node on. */
    void vop_const(VecOp op, Vreg dst, int64_t value);
    /** Wrap v's lanes to s: ((v & mask) ^ sign) - sign. */
    void emit_simd_wrap(ScalarType s, Vreg v);

    /**
     * Emit node n: each whole chunk through `chunk(k)` when it
     * returns true (it emits nothing when it returns false), every
     * other lane through `lane(i)`. At SimdLevel::Scalar every lane
     * is scalar.
     */
    template <class Chunk, class Lane>
    void
    emit_lanes(const Instr &n, Chunk chunk, Lane lane)
    {
        const int L = n.type().lanes;
        int i = 0;
        if (simd_ != SimdLevel::Scalar) {
            const int c = simd_chunk();
            for (; i + c <= L; i += c)
                if (!chunk(i))
                    for (int j = i; j < i + c; ++j)
                        lane(j);
        }
        for (; i < L; ++i)
            lane(i);
    }
    /** Lane i = src(i), wrapped to the result type when `wrap`. */
    void emit_map(const Instr &n, const LaneMap &src, bool wrap);
    /** Lane i = wrap(arg0[i] op arg1[i]). */
    void emit_bin(const Instr &n, void (Assembler::*op)(Reg, Reg),
                  VecOp vop);
    /** One product of a multiply-accumulate: x(i) * y(i), or
     *  x(i) * imm without y (x(i) alone when imm is 1). */
    struct Tap {
        LaneMap x, y;
        int64_t imm = 1;
    };
    /** Lane i = wrap(acc(i) + sum of taps), acc optional. */
    void emit_mac(const Instr &n, const LaneMap &acc,
                  const std::vector<Tap> &taps);

    Assembler a_;
    SimdLevel simd_;
    bool used_avx_ = false;

    std::unordered_map<const Instr *, int64_t> slot_;
    /** The node being emitted and its operands, with their slots:
     *  lane addressing looks here before it hashes. */
    std::array<std::pair<const Instr *, int64_t>, 4> near_{};
    /** The constant in each of kConstRegs, for the node being
     *  emitted (straight-line code, except vread's own two paths). */
    std::array<std::optional<int64_t>, std::size(kConstRegs)> const_regs_;
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

Lowerer::ChunkSrc
Lowerer::classify(const LaneMap &src, int k)
{
    const int c = simd_chunk();
    int32_t d[4];
    for (int m = 0; m < c; ++m)
        d[m] = src(k + m);
    ChunkSrc r;
    r.p = d[0];
    r.q = d[1];
    bool contiguous = true, deinterleaved = true, interleaved = true;
    for (int m = 0; m < c; ++m) {
        contiguous = contiguous && d[m] == r.p + 8 * m;
        deinterleaved = deinterleaved && d[m] == r.p + 16 * m;
        interleaved = interleaved &&
                      d[m] == (m % 2 == 0 ? r.p : r.q) + 8 * (m / 2);
    }
    // At two lanes a chunk is always "interleaved": any pair of
    // lanes is one punpcklqdq of two loads.
    r.kind = contiguous      ? ChunkSrc::Contiguous
             : deinterleaved ? ChunkSrc::Deinterleaved
             : interleaved   ? ChunkSrc::Interleaved
                             : ChunkSrc::None;
    // A deinterleaved fetch reads one slot past its last lane and an
    // interleaved one c / 2 past each half's. Operand slots come
    // before their consumer's (c or more) slots, so the over-read
    // stays inside the arena.
    int64_t end = r.p + 8 * c;
    if (r.kind == ChunkSrc::Deinterleaved)
        end = r.p + 16 * c;
    else if (r.kind == ChunkSrc::Interleaved)
        end = std::max(r.p, r.q) + 8 * c;
    RAKE_CHECK(r.kind == ChunkSrc::None || end <= slot_disp(num_slots_),
               "packed fetch past the arena");
    return r;
}

void
Lowerer::vload(Vreg v, Reg base, int32_t d)
{
    if (simd_ == SimdLevel::Avx2) {
        used_avx_ = true;
        a_.vmovdqu_load(v, base, d);
    } else {
        a_.movdqu_load(v, base, d);
    }
}

void
Lowerer::vstore(const Instr &n, int lane, Vreg v)
{
    if (simd_ == SimdLevel::Avx2)
        a_.vmovdqu_store(kArena, disp(&n, lane), v);
    else
        a_.movdqu_store(kArena, disp(&n, lane), v);
}

void
Lowerer::vop(VecOp op, Vreg dst, Vreg src)
{
    if (simd_ == SimdLevel::Avx2)
        a_.avx_op(op, dst, dst, src);
    else
        a_.sse_op(op, dst, src);
}

void
Lowerer::vop_const(VecOp op, Vreg dst, int64_t value)
{
    auto pool_disp = [&] {
        return slot_disp(const_slot(value, simd_chunk()));
    };
    for (size_t r = 0; r < const_regs_.size(); ++r) {
        if (!const_regs_[r]) { // first use in this node: load it once
            vload(kConstRegs[r], kArena, pool_disp());
            const_regs_[r] = value;
        }
        if (*const_regs_[r] == value) {
            vop(op, dst, kConstRegs[r]);
            return;
        }
    }
    // All held: a memory operand (pool chunks start at even slots, so
    // a legacy-SSE one is 16-byte aligned).
    const int32_t d = pool_disp();
    if (simd_ == SimdLevel::Avx2)
        a_.avx_op_mem(op, dst, dst, kArena, d);
    else
        a_.sse_op_mem(op, dst, kArena, d);
}

void
Lowerer::fetch(Vreg v, const ChunkSrc &c, Reg base)
{
    const bool avx = simd_ == SimdLevel::Avx2;
    switch (c.kind) {
      case ChunkSrc::None:
        RAKE_UNREACHABLE("fetch of an unpackable chunk");
      case ChunkSrc::Contiguous:
        vload(v, base, c.p);
        return;
      case ChunkSrc::Deinterleaved:
        // Even lanes of [p, p + 2c): the low qword of each 128-bit
        // half; at AVX2 vpermq 0xD8 puts the halves back in order.
        vload(v, base, c.p);
        vload(kVtmp, base, c.p + 8 * simd_chunk());
        vop(VecOp::punpcklqdq, v, kVtmp);
        if (avx)
            a_.vpermq(v, v, 0xD8);
        return;
      case ChunkSrc::Interleaved:
        // The same in reverse: at AVX2 vpermq 0xD8 first puts lanes
        // 0 and 1 of each source in the low qwords of its halves.
        vload(v, base, c.p);
        vload(kVtmp, base, c.q);
        if (avx) {
            a_.vpermq(v, v, 0xD8);
            a_.vpermq(kVtmp, kVtmp, 0xD8);
        }
        vop(VecOp::punpcklqdq, v, kVtmp);
        return;
    }
}

void
Lowerer::emit_simd_wrap(ScalarType s, Vreg v)
{
    const int b = bits(s);
    if (b == 64)
        return;
    vop_const(VecOp::pand,
              v, static_cast<int64_t>((uint64_t{1} << b) - 1));
    if (is_signed(s)) {
        const int64_t sign = static_cast<int64_t>(uint64_t{1} << (b - 1));
        vop_const(VecOp::pxor, v, sign);
        vop_const(VecOp::psubq, v, sign);
    }
}

void
Lowerer::emit_map(const Instr &n, const LaneMap &src, bool wrap)
{
    const ScalarType s = n.type().elem;
    emit_lanes(
        n,
        [&](int k) {
            const ChunkSrc c = classify(src, k);
            if (c.kind == ChunkSrc::None)
                return false;
            fetch(Vreg::xmm0, c);
            if (wrap)
                emit_simd_wrap(s, Vreg::xmm0);
            vstore(n, k, Vreg::xmm0);
            return true;
        },
        [&](int i) {
            a_.load(Reg::rax, kArena, src(i));
            if (wrap)
                wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        });
}

void
Lowerer::emit_bin(const Instr &n, void (Assembler::*op)(Reg, Reg),
                  VecOp vop_code)
{
    const ScalarType s = n.type().elem;
    emit_lanes(
        n,
        [&](int k) {
            fetch(Vreg::xmm0, contiguous(n, 0, k));
            fetch(Vreg::xmm1, contiguous(n, 1, k));
            vop(vop_code, Vreg::xmm0, Vreg::xmm1);
            emit_simd_wrap(s, Vreg::xmm0);
            vstore(n, k, Vreg::xmm0);
            return true;
        },
        [&](int i) {
            ld(Reg::rax, n, 0, i);
            ld(Reg::rsi, n, 1, i);
            (a_.*op)(Reg::rax, Reg::rsi);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        });
}

void
Lowerer::emit_mac(const Instr &n, const LaneMap &acc,
                  const std::vector<Tap> &taps)
{
    RAKE_CHECK(taps.size() <= 4, "jit: more than four products");
    const ScalarType s = n.type().elem;
    // pmuludq multiplies the low 32 bits of each factor. The low b
    // bits of a product or sum depend only on the low b bits of its
    // operands, so for b <= 32 the wrap makes it equal to imul's.
    const bool narrow = bits(s) <= 32;
    emit_lanes(
        n,
        [&](int k) {
            if (!narrow)
                return false;
            // The chunk is packed whole or not at all.
            ChunkSrc acc_src, x_src[4], y_src[4];
            auto fails = [&](ChunkSrc &c, const LaneMap &f) {
                c = classify(f, k);
                return c.kind == ChunkSrc::None;
            };
            if (acc && fails(acc_src, acc))
                return false;
            for (size_t t = 0; t < taps.size(); ++t)
                if (fails(x_src[t], taps[t].x) ||
                    (taps[t].y && fails(y_src[t], taps[t].y)))
                    return false;
            bool first = !acc;
            if (acc)
                fetch(Vreg::xmm0, acc_src);
            for (size_t t = 0; t < taps.size(); ++t) {
                const Vreg r = first ? Vreg::xmm0 : Vreg::xmm1;
                fetch(r, x_src[t]);
                if (taps[t].y) {
                    fetch(Vreg::xmm2, y_src[t]);
                    vop(VecOp::pmuludq, r, Vreg::xmm2);
                } else if (taps[t].imm != 1) {
                    vop_const(VecOp::pmuludq, r, taps[t].imm);
                }
                if (!first)
                    vop(VecOp::paddq, Vreg::xmm0, Vreg::xmm1);
                first = false;
            }
            emit_simd_wrap(s, Vreg::xmm0);
            vstore(n, k, Vreg::xmm0);
            return true;
        },
        [&](int i) {
            bool first = !acc;
            if (acc)
                a_.load(Reg::rax, kArena, acc(i));
            for (const Tap &t : taps) {
                const Reg r = first ? Reg::rax : Reg::rdx;
                a_.load(r, kArena, t.x(i));
                if (t.y) {
                    a_.load(Reg::rsi, kArena, t.y(i));
                    a_.imul(r, Reg::rsi);
                } else if (t.imm != 1) {
                    mul_imm(r, t.imm, Reg::rsi);
                }
                if (!first)
                    a_.add(Reg::rax, Reg::rdx);
                first = false;
            }
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        });
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
    // rdi = data + iy * width * 8
    a_.imul(Reg::rax, Reg::rsi);
    a_.load(Reg::rdi, kBufs, dbase + 0);
    a_.lea_index8(Reg::rdi, Reg::rdi, Reg::rax);
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
        a_.load_index8(Reg::rax, Reg::rdi, Reg::rax);
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
    a_.lea_index8(Reg::rdi, Reg::rdi, Reg::r10); // rdi = &row[ix]
    emit_lanes(
        n,
        [&](int k) {
            fetch(Vreg::xmm0, ChunkSrc{ChunkSrc::Contiguous, 8 * k},
                  Reg::rdi);
            emit_simd_wrap(s, Vreg::xmm0);
            vstore(n, k, Vreg::xmm0);
            return true;
        },
        [&](int i) {
            a_.load(Reg::rax, Reg::rdi, 8 * i);
            wrap_reg(Reg::rax, s);
            st(n, i, Reg::rax);
        });
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
    if (out_w == in_w) {
        emit_map(n, [&](int i) { return adisp(n, 0, i); }, /*wrap=*/true);
        return;
    }
    const int L = n.type().lanes;
    for (int i = 0; i < L; ++i) {
        if (out_w < in_w) {
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

    // Operand lane maps.
    auto arg = [&](int ai) -> LaneMap {
        return [&, ai](int i) { return adisp(n, ai, i); };
    };
    auto arg_deint = [&](int ai) -> LaneMap {
        return [&, ai](int i) { return adisp(n, ai, deint(i, L)); };
    };
    // Lane deint(i) + off of concat(arg a0, arg a0 + 1).
    auto cat_deint = [&](int a0, int off) -> LaneMap {
        return [&, a0, off](int i) {
            return cat_disp(n, a0, a0 + 1, deint(i, L) + off);
        };
    };
    auto ileave = [&](int i) { return ileave_disp(n, i); };

    // Shared scalar emit shapes.
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
        emit_map(n, [&](int i) { return cat_disp(n, 0, 1, i); }, false);
        return;
      case Opcode::VLo:
        emit_map(n, arg(0), false);
        return;
      case Opcode::VHi:
        emit_map(n, [&](int i) { return adisp(n, 0, L + i); }, false);
        return;
      case Opcode::VAlign:
        emit_map(n,
                 [&](int i) {
                     const int j = i + static_cast<int>(im[0]);
                     return j < L ? adisp(n, 0, j) : adisp(n, 1, j - L);
                 },
                 false);
        return;
      case Opcode::VRor:
        emit_map(n,
                 [&](int i) {
                     return adisp(n, 0, (i + static_cast<int>(im[0])) % L);
                 },
                 false);
        return;
      case Opcode::VShuffVdd:
        emit_map(n,
                 [&](int i) {
                     return adisp(n, 0, i % 2 == 0 ? i / 2 : L / 2 + i / 2);
                 },
                 false);
        return;
      case Opcode::VDealVdd:
        emit_map(n, arg_deint(0), false);
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
        emit_map(n, ileave, true);
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
        emit_map(n, arg_deint(0), true);
        return;
      case Opcode::VAdd:
        emit_bin(n, &Assembler::add, VecOp::paddq);
        return;
      case Opcode::VSub:
        emit_bin(n, &Assembler::sub, VecOp::psubq);
        return;
      case Opcode::VAnd:
        emit_bin(n, &Assembler::and_, VecOp::pand);
        return;
      case Opcode::VOr:
        emit_bin(n, &Assembler::or_, VecOp::por);
        return;
      case Opcode::VXor:
        emit_bin(n, &Assembler::xor_, VecOp::pxor);
        return;
      case Opcode::VNot:
        emit_lanes(
            n,
            [&](int k) {
                fetch(Vreg::xmm0, contiguous(n, 0, k));
                vop_const(VecOp::pxor, Vreg::xmm0, -1);
                emit_simd_wrap(s, Vreg::xmm0);
                vstore(n, k, Vreg::xmm0);
                return true;
            },
            [&](int i) {
                ld(Reg::rax, n, 0, i);
                a_.not_(Reg::rax);
                wrap_reg(Reg::rax, s);
                st(n, i, Reg::rax);
            });
        return;
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
      // The multiply family: an optional accumulator plus products.
      case Opcode::VMpy:
        emit_mac(n, nullptr, {{arg_deint(0), arg_deint(1)}});
        return;
      case Opcode::VMpyAcc:
        emit_mac(n, arg(0), {{arg_deint(1), arg_deint(2)}});
        return;
      case Opcode::VMpyi:
        emit_mac(n, nullptr, {{arg(0), arg(1)}});
        return;
      case Opcode::VMpyiAcc:
        emit_mac(n, arg(0), {{arg(1), arg(2)}});
        return;
      case Opcode::VMpa:
        emit_mac(n, nullptr,
                 {{arg_deint(0), nullptr, im[0]},
                  {arg_deint(1), nullptr, im[1]}});
        return;
      case Opcode::VMpaAcc:
        emit_mac(n, arg(0),
                 {{arg_deint(1), nullptr, im[0]},
                  {arg_deint(2), nullptr, im[1]}});
        return;
      case Opcode::VDmpy:
      case Opcode::VDmpyAcc:
      case Opcode::VTmpy:
      case Opcode::VTmpyAcc:
      case Opcode::VRmpy:
      case Opcode::VRmpyAcc: {
        // Sliding windows over concat(a, b): taps j, j + 1, ... of
        // j = deint(i); vtmpy's third tap has weight 1.
        const bool has_acc = n.op() == Opcode::VDmpyAcc ||
                             n.op() == Opcode::VTmpyAcc ||
                             n.op() == Opcode::VRmpyAcc;
        const int a0 = has_acc ? 1 : 0;
        std::vector<Tap> taps;
        for (size_t k = 0; k < im.size(); ++k)
            taps.push_back({cat_deint(a0, static_cast<int>(k)), nullptr,
                            im[k]});
        if (n.op() == Opcode::VTmpy || n.op() == Opcode::VTmpyAcc)
            taps.push_back({cat_deint(a0, 2), nullptr, 1});
        emit_mac(n, has_acc ? arg(0) : nullptr, taps);
        return;
      }
      case Opcode::VDotRmpy:
      case Opcode::VDotRmpyAcc: {
        // Stride-4 taps match no lane map at AVX2, so they run scalar
        // there; at SSE2 any two lanes are one interleaved fetch.
        const bool has_acc = n.op() == Opcode::VDotRmpyAcc;
        const int a0 = has_acc ? 1 : 0;
        std::vector<Tap> taps;
        for (int k = 0; k < 4; ++k)
            taps.push_back(
                {[&, a0, k](int i) { return adisp(n, a0, 4 * i + k); },
                 [&, a0, k](int i) { return adisp(n, a0 + 1, 4 * i + k); }});
        emit_mac(n, has_acc ? arg(0) : nullptr, taps);
        return;
      }
      case Opcode::VMpyIE:
      case Opcode::VMpyIO: {
        const int odd = n.op() == Opcode::VMpyIO ? 1 : 0;
        emit_mac(n, nullptr,
                 {{arg(0),
                   [&, odd](int i) { return adisp(n, 1, 2 * i + odd); }}});
        return;
      }
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

    for (const Instr *n : order_) {
        near_.fill({nullptr, 0});
        const_regs_.fill(std::nullopt);
        near_[0] = {n, slot_.at(n)};
        for (int ai = 0; ai < n->num_args(); ++ai)
            near_[ai + 1] = {n->arg(ai).get(), slot_.at(n->arg(ai).get())};
        emit_node(*n);
    }

    if (used_avx_)
        a_.vzeroupper();
    a_.pop(Reg::r15);
    a_.pop(Reg::r14);
    a_.pop(Reg::r12);
    a_.pop(Reg::rbx);
    a_.ret();

    auto p = std::unique_ptr<Program>(new Program());
    p->arena_.assign(static_cast<size_t>(pool_base()) + pool_.size(), 0);
    RAKE_CHECK(reinterpret_cast<uintptr_t>(p->arena_.data()) % 16 == 0,
               "jit arena must be 16-byte aligned");
    std::copy(pool_.begin(), pool_.end(),
              p->arena_.begin() + pool_base());
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
