/**
 * @file
 * A small x86-64 assembler: just the encodings the HVX-to-host
 * lowerer emits, appended to a byte vector.
 *
 * The shape follows the classic IR → machine-IR → encoder JIT
 * pipeline: lower.cc is the machine-IR layer (it decides which
 * instructions to emit), and this class is the encoder proper — one
 * method per instruction form, each writing REX/VEX/ModRM/SIB/
 * immediate bytes. Memory operands are always [base + disp32] or
 * [base + index*8 + disp32]: uniform encodings keep the emitter
 * simple. VEX forms take the two-byte prefix whenever the operands
 * allow it (0F map, W0, no extended base), which most of the packed
 * code does. The vector registers are xmm0..xmm7 (ymm at AVX2):
 * legacy SSE ops on them need no REX prefix.
 *
 * Control flow is rel32 jumps to Labels. A jump to a label not yet
 * bound records a fixup that bind() patches, so forward and backward
 * branches both work. Every branch is relative and nothing else
 * refers to an absolute address, so the code is position-independent
 * and sealing into an ExecBuffer is a plain copy.
 */
#ifndef RAKE_JIT_ENCODER_H
#define RAKE_JIT_ENCODER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rake::jit {

/** General-purpose registers; values are the hardware encodings. */
enum class Reg : uint8_t {
    rax = 0,
    rcx = 1,
    rdx = 2,
    rbx = 3,
    rsp = 4,
    rbp = 5,
    rsi = 6,
    rdi = 7,
    r8 = 8,
    r9 = 9,
    r10 = 10,
    r11 = 11,
    r12 = 12,
    r13 = 13,
    r14 = 14,
    r15 = 15,
};

/** The SSE/AVX registers the lowerer uses (xmm0..xmm7, or their
 *  ymm halves at AVX2): none needs a REX/VEX extension bit. */
enum class Vreg : uint8_t {
    xmm0 = 0,
    xmm1 = 1,
    xmm2 = 2,
    xmm3 = 3,
    xmm4 = 4,
    xmm5 = 5,
    xmm6 = 6,
    xmm7 = 7,
};

/** Condition codes (the low nibble of the 0F 4x / 0F 8x / 0F 9x
 *  opcodes). */
enum class Cond : uint8_t {
    e = 0x4,  ///< equal
    ne = 0x5, ///< not equal
    l = 0xC,  ///< signed less
    ge = 0xD, ///< signed greater-or-equal
    le = 0xE, ///< signed less-or-equal
    g = 0xF,  ///< signed greater
};

/** Packed 64-bit SSE/AVX ops (opcode byte after 66 0F). */
enum class VecOp : uint8_t {
    paddq = 0xD4,
    psubq = 0xFB,
    pand = 0xDB,
    por = 0xEB,
    pxor = 0xEF,
    pmuludq = 0xF4,    ///< low 32 bits of each qword, unsigned, to 64
    punpcklqdq = 0x6C, ///< {dst.q0, src.q0} per 128-bit lane
    punpckhqdq = 0x6D, ///< {dst.q1, src.q1} per 128-bit lane
};

/**
 * A branch target in one Assembler's code. Jumps may reach it before
 * or after Assembler::bind() fixes its position.
 */
class Label
{
  private:
    friend class Assembler;
    static constexpr size_t kUnbound = ~size_t{0};
    size_t pos_ = kUnbound;
    std::vector<size_t> fixups_; ///< rel32 fields awaiting pos_
};

class Assembler
{
  public:
    /** The code so far; every label a jump uses must be bound. */
    const std::vector<uint8_t> &code() const;
    size_t size() const { return code_.size(); }

    // --- branches (rel32) ---
    /** Fix `l` at the current position and patch jumps already
     *  emitted to it. A label is bound once. */
    void bind(Label &l);
    void jmp(Label &l);
    void jcc(Cond cc, Label &l);

    // --- stack / control ---
    void push(Reg r);
    void pop(Reg r);
    void ret();

    // --- 64-bit moves ---
    void mov(Reg dst, Reg src);
    void mov_imm64(Reg dst, int64_t imm);
    /** mov dst, [base + disp] */
    void load(Reg dst, Reg base, int32_t disp);
    /** mov [base + disp], src */
    void store(Reg base, int32_t disp, Reg src);
    /** mov dst, [base + index*8 + disp] */
    void load_index8(Reg dst, Reg base, Reg index, int32_t disp = 0);
    /** lea dst, [base + disp] */
    void lea(Reg dst, Reg base, int32_t disp);
    /** lea dst, [base + index*8 + disp] */
    void lea_index8(Reg dst, Reg base, Reg index, int32_t disp = 0);

    // --- 64-bit ALU (dst op= src) ---
    void add(Reg dst, Reg src);
    void sub(Reg dst, Reg src);
    void and_(Reg dst, Reg src);
    void or_(Reg dst, Reg src);
    void xor_(Reg dst, Reg src);
    void imul(Reg dst, Reg src);
    void cmp(Reg a, Reg b);
    void test(Reg a, Reg b);
    void not_(Reg r);
    void add_imm32(Reg dst, int32_t imm);

    // --- shifts by compile-time amounts ---
    void shl_imm(Reg r, int n);
    void shr_imm(Reg r, int n);
    void sar_imm(Reg r, int n);

    // --- conditionals ---
    void cmov(Cond cc, Reg dst, Reg src);
    /** setcc al; the caller zeroes rax first. */
    void setcc_al(Cond cc);

    // --- SSE2 (128-bit, two int64 lanes) ---
    void movdqu_load(Vreg dst, Reg base, int32_t disp);
    void movdqu_store(Reg base, int32_t disp, Vreg src);
    void sse_op(VecOp op, Vreg dst, Vreg src);
    void sse_op_mem(VecOp op, Vreg dst, Reg base, int32_t disp);

    // --- AVX2 (256-bit, four int64 lanes; VEX-encoded) ---
    void vmovdqu_load(Vreg dst, Reg base, int32_t disp);
    void vmovdqu_store(Reg base, int32_t disp, Vreg src);
    void avx_op(VecOp op, Vreg dst, Vreg src1, Vreg src2);
    void avx_op_mem(VecOp op, Vreg dst, Vreg src1, Reg base,
                    int32_t disp);
    /** vpermq dst, src, imm: qword i of dst = qword (imm >> 2i) & 3
     *  of src. */
    void vpermq(Vreg dst, Vreg src, uint8_t imm);
    void vzeroupper();

  private:
    void byte(uint8_t b) { code_.push_back(b); }
    void dword(int32_t v);
    void qword(int64_t v);
    /** The rel32 field of a jump to `l`, patched later if unbound. */
    void rel32(Label &l);
    void rex(bool w, uint8_t reg, uint8_t index, uint8_t rm);
    /** ModRM mod=11 register-direct form. */
    void modrm_reg(uint8_t reg, uint8_t rm);
    /** ModRM mod=10 [base + disp32] form (SIB when base needs it). */
    void modrm_mem(uint8_t reg, Reg base, int32_t disp);
    /** ModRM [base + index*8 + disp32] form. */
    void modrm_sib8(uint8_t reg, Reg base, Reg index, int32_t disp);
    /** VEX prefix: two bytes when the 0F map, W0 and a base/rm
     *  below r8 allow it, else three; `map` is mmmmm (1 = 0F,
     *  3 = 0F3A). */
    void vex(uint8_t reg, uint8_t base_rm, uint8_t vvvv, bool l256,
              uint8_t pp, uint8_t map = 1, bool w = false);

    std::vector<uint8_t> code_;
    size_t pending_fixups_ = 0; ///< rel32 fields not yet patched
};

} // namespace rake::jit

#endif // RAKE_JIT_ENCODER_H
