#include "jit/encoder.h"

#include "support/error.h"

namespace rake::jit {

namespace {

uint8_t
num(Reg r)
{
    return static_cast<uint8_t>(r);
}

uint8_t
num(Vreg r)
{
    return static_cast<uint8_t>(r);
}

} // namespace

void
Assembler::dword(int32_t v)
{
    const uint32_t u = static_cast<uint32_t>(v);
    byte(static_cast<uint8_t>(u));
    byte(static_cast<uint8_t>(u >> 8));
    byte(static_cast<uint8_t>(u >> 16));
    byte(static_cast<uint8_t>(u >> 24));
}

void
Assembler::qword(int64_t v)
{
    const uint64_t u = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i)
        byte(static_cast<uint8_t>(u >> (8 * i)));
}

const std::vector<uint8_t> &
Assembler::code() const
{
    RAKE_CHECK(pending_fixups_ == 0, "jump to a label never bound");
    return code_;
}

namespace {

void
patch_rel32(std::vector<uint8_t> &code, size_t field, size_t target)
{
    // rel32 counts from the end of its own 4-byte field.
    const int64_t rel = static_cast<int64_t>(target) -
                        static_cast<int64_t>(field + 4);
    RAKE_CHECK(rel >= INT32_MIN && rel <= INT32_MAX,
               "branch out of rel32 range");
    const uint32_t u = static_cast<uint32_t>(static_cast<int32_t>(rel));
    for (int i = 0; i < 4; ++i)
        code[field + i] = static_cast<uint8_t>(u >> (8 * i));
}

} // namespace

void
Assembler::rel32(Label &l)
{
    const size_t field = code_.size();
    dword(0);
    if (l.pos_ != Label::kUnbound) {
        patch_rel32(code_, field, l.pos_);
    } else {
        l.fixups_.push_back(field);
        ++pending_fixups_;
    }
}

void
Assembler::bind(Label &l)
{
    RAKE_CHECK(l.pos_ == Label::kUnbound, "label bound twice");
    l.pos_ = code_.size();
    for (size_t field : l.fixups_)
        patch_rel32(code_, field, l.pos_);
    pending_fixups_ -= l.fixups_.size();
    l.fixups_.clear();
}

void
Assembler::jmp(Label &l)
{
    byte(0xE9);
    rel32(l);
}

void
Assembler::jcc(Cond cc, Label &l)
{
    byte(0x0F);
    byte(0x80 | static_cast<uint8_t>(cc));
    rel32(l);
}

void
Assembler::rex(bool w, uint8_t reg, uint8_t index, uint8_t rm)
{
    const uint8_t b = 0x40 | (w ? 0x08 : 0) | ((reg & 8) ? 0x04 : 0) |
                      ((index & 8) ? 0x02 : 0) | ((rm & 8) ? 0x01 : 0);
    // A REX prefix is mandatory for 64-bit operands; otherwise only
    // when an extended register needs its high bit.
    if (w || b != 0x40)
        byte(b);
}

void
Assembler::modrm_reg(uint8_t reg, uint8_t rm)
{
    byte(0xC0 | ((reg & 7) << 3) | (rm & 7));
}

void
Assembler::modrm_mem(uint8_t reg, Reg base, int32_t disp)
{
    // mod=10 ([base + disp32]) always: uniform and never ambiguous.
    // rm=100 selects a SIB byte, so rsp/r12 bases must route through
    // one (index=100 means "no index").
    if ((num(base) & 7) == 4) {
        byte(0x84 | ((reg & 7) << 3));
        byte(0x24);
    } else {
        byte(0x80 | ((reg & 7) << 3) | (num(base) & 7));
    }
    dword(disp);
}

void
Assembler::modrm_sib8(uint8_t reg, Reg base, Reg index, int32_t disp)
{
    RAKE_CHECK((num(index) & 7) != 4, "rsp cannot be an index");
    byte(0x84 | ((reg & 7) << 3)); // mod=10, rm=100 (SIB follows)
    byte(0xC0 | ((num(index) & 7) << 3) | (num(base) & 7)); // scale=8
    dword(disp);
}

void
Assembler::push(Reg r)
{
    if (num(r) & 8)
        byte(0x41);
    byte(0x50 + (num(r) & 7));
}

void
Assembler::pop(Reg r)
{
    if (num(r) & 8)
        byte(0x41);
    byte(0x58 + (num(r) & 7));
}

void
Assembler::ret()
{
    byte(0xC3);
}

void
Assembler::mov(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(0x8B);
    modrm_reg(num(dst), num(src));
}

void
Assembler::mov_imm64(Reg dst, int64_t imm)
{
    rex(true, 0, 0, num(dst));
    byte(0xB8 + (num(dst) & 7));
    qword(imm);
}

void
Assembler::load(Reg dst, Reg base, int32_t disp)
{
    rex(true, num(dst), 0, num(base));
    byte(0x8B);
    modrm_mem(num(dst), base, disp);
}

void
Assembler::store(Reg base, int32_t disp, Reg src)
{
    rex(true, num(src), 0, num(base));
    byte(0x89);
    modrm_mem(num(src), base, disp);
}

void
Assembler::load_index8(Reg dst, Reg base, Reg index, int32_t disp)
{
    rex(true, num(dst), num(index), num(base));
    byte(0x8B);
    modrm_sib8(num(dst), base, index, disp);
}

void
Assembler::lea(Reg dst, Reg base, int32_t disp)
{
    rex(true, num(dst), 0, num(base));
    byte(0x8D);
    modrm_mem(num(dst), base, disp);
}

void
Assembler::lea_index8(Reg dst, Reg base, Reg index, int32_t disp)
{
    rex(true, num(dst), num(index), num(base));
    byte(0x8D);
    modrm_sib8(num(dst), base, index, disp);
}

namespace {

/** "r64, r/m64" ALU opcode bytes. */
constexpr uint8_t kAdd = 0x03, kSub = 0x2B, kAnd = 0x23, kOr = 0x0B,
                  kXor = 0x33, kCmp = 0x3B;

} // namespace

void
Assembler::add(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kAdd);
    modrm_reg(num(dst), num(src));
}

void
Assembler::sub(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kSub);
    modrm_reg(num(dst), num(src));
}

void
Assembler::and_(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kAnd);
    modrm_reg(num(dst), num(src));
}

void
Assembler::or_(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kOr);
    modrm_reg(num(dst), num(src));
}

void
Assembler::xor_(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kXor);
    modrm_reg(num(dst), num(src));
}

void
Assembler::imul(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(0x0F);
    byte(0xAF);
    modrm_reg(num(dst), num(src));
}

void
Assembler::cmp(Reg a, Reg b)
{
    rex(true, num(a), 0, num(b));
    byte(kCmp);
    modrm_reg(num(a), num(b));
}

void
Assembler::test(Reg a, Reg b)
{
    rex(true, num(b), 0, num(a));
    byte(0x85);
    modrm_reg(num(b), num(a));
}

void
Assembler::not_(Reg r)
{
    rex(true, 0, 0, num(r));
    byte(0xF7);
    modrm_reg(2, num(r));
}

void
Assembler::add_imm32(Reg dst, int32_t imm)
{
    rex(true, 0, 0, num(dst));
    byte(0x81);
    modrm_reg(0, num(dst));
    dword(imm);
}

void
Assembler::shl_imm(Reg r, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    rex(true, 0, 0, num(r));
    byte(0xC1);
    modrm_reg(4, num(r));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::shr_imm(Reg r, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    rex(true, 0, 0, num(r));
    byte(0xC1);
    modrm_reg(5, num(r));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::sar_imm(Reg r, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    rex(true, 0, 0, num(r));
    byte(0xC1);
    modrm_reg(7, num(r));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::cmov(Cond cc, Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(0x0F);
    byte(0x40 | static_cast<uint8_t>(cc));
    modrm_reg(num(dst), num(src));
}

void
Assembler::setcc_al(Cond cc)
{
    byte(0x0F);
    byte(0x90 | static_cast<uint8_t>(cc));
    byte(0xC0); // mod=11, rm=rax -> al
}

void
Assembler::movdqu_load(Vreg dst, Reg base, int32_t disp)
{
    byte(0xF3);
    rex(false, num(dst), 0, num(base));
    byte(0x0F);
    byte(0x6F);
    modrm_mem(num(dst), base, disp);
}

void
Assembler::movdqu_store(Reg base, int32_t disp, Vreg src)
{
    byte(0xF3);
    rex(false, num(src), 0, num(base));
    byte(0x0F);
    byte(0x7F);
    modrm_mem(num(src), base, disp);
}

void
Assembler::sse_op(VecOp op, Vreg dst, Vreg src)
{
    byte(0x66);
    byte(0x0F);
    byte(static_cast<uint8_t>(op));
    modrm_reg(num(dst), num(src));
}

void
Assembler::sse_op_mem(VecOp op, Vreg dst, Reg base, int32_t disp)
{
    byte(0x66);
    rex(false, num(dst), 0, num(base));
    byte(0x0F);
    byte(static_cast<uint8_t>(op));
    modrm_mem(num(dst), base, disp);
}

void
Assembler::vex3(uint8_t reg, uint8_t base_rm, uint8_t vvvv, bool l256,
                uint8_t pp)
{
    byte(0xC4);
    // Inverted R/X/B; mmmmm = 00001 (0F map). X is never used here.
    byte(((reg & 8) ? 0 : 0x80) | 0x40 | ((base_rm & 8) ? 0 : 0x20) |
         0x01);
    // W=0, inverted vvvv, L, pp.
    byte(static_cast<uint8_t>(((~vvvv & 0xF) << 3) | (l256 ? 4 : 0) |
                              pp));
}

void
Assembler::vmovdqu_load(Vreg dst, Reg base, int32_t disp)
{
    vex3(num(dst), num(base), 0, /*l256=*/true, /*pp=F3*/ 2);
    byte(0x6F);
    modrm_mem(num(dst), base, disp);
}

void
Assembler::vmovdqu_store(Reg base, int32_t disp, Vreg src)
{
    vex3(num(src), num(base), 0, /*l256=*/true, /*pp=F3*/ 2);
    byte(0x7F);
    modrm_mem(num(src), base, disp);
}

void
Assembler::avx_op(VecOp op, Vreg dst, Vreg src1, Vreg src2)
{
    vex3(num(dst), num(src2), num(src1), /*l256=*/true, /*pp=66*/ 1);
    byte(static_cast<uint8_t>(op));
    modrm_reg(num(dst), num(src2));
}

void
Assembler::avx_op_mem(VecOp op, Vreg dst, Vreg src1, Reg base,
                      int32_t disp)
{
    vex3(num(dst), num(base), num(src1), /*l256=*/true, /*pp=66*/ 1);
    byte(static_cast<uint8_t>(op));
    modrm_mem(num(dst), base, disp);
}

void
Assembler::vzeroupper()
{
    byte(0xC5);
    byte(0xF8);
    byte(0x77);
}

} // namespace rake::jit
