/**
 * @file
 * Native x86-64 execution of selected HVX instruction DAGs.
 *
 * jit::Program::compile lowers a selected program to host machine
 * code: every node's value lives in a per-lane int64 arena (the same
 * carrier representation the interpreters use), lane counts and
 * immediates are compile-time constants, so every HVX index map
 * (deinterleave, interleave, concat, align, rotate) becomes a
 * constant displacement and node bodies are unrolled, relocation-free
 * x86-64. Element-wise ops, the lane-permuting copies, the widens and
 * the multiply family take an SSE2 or AVX2 packed path; everything
 * else (and every chunk with no packed fetch) is exact scalar code
 * reproducing base/arith.h bit for bit.
 *
 * Loads (vmem) are the one place with branches. Each load tests once
 * per tile whether its lanes lie wholly inside the buffer's row; an
 * interior tile copies the row in packed chunks, an edge tile runs
 * Buffer::at's clamp in a compact loop over lanes. At
 * SimdLevel::Scalar the interior copy is scalar too.
 *
 * The compiled function has C ABI `void fn(Frame *)`: the frame
 * carries the tile origin (x, y), the bound input-buffer
 * descriptors, and the arena pointer. Descriptors point straight at
 * the caller's pixels: bind() copies no buffer. Splat values are loop
 * invariant and are evaluated host-side at bind() time, from the
 * scalar variables alone, straight into their arena slots.
 *
 * Only meaningful on x86-64 hosts: available() is false elsewhere
 * and compile() throws UserError, so callers can gate cleanly.
 */
#ifndef RAKE_JIT_JIT_H
#define RAKE_JIT_JIT_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/value.h"
#include "hir/interp.h"
#include "hvx/instr.h"
#include "jit/exec_buffer.h"

namespace rake::jit {

/** True when this host can execute jit-compiled programs. */
bool available();

/** Packed-lane tiers the lowerer can emit. */
enum class SimdLevel { Scalar, Sse2, Avx2 };

std::string to_string(SimdLevel level);

/**
 * The tier the lowerer will use: the best the CPU supports, unless
 * RAKE_JIT_SIMD=scalar|sse2|avx2 forces one (forcing a tier the CPU
 * lacks throws UserError; forcing below is always allowed and is how
 * tests cover every tier on one machine).
 */
SimdLevel simd_level();

/** One bound input buffer, as the compiled code addresses it. */
struct BufferDesc {
    const int64_t *data = nullptr;
    int64_t width = 0;
    int64_t height = 0;
    int64_t x0 = 0;
    int64_t y0 = 0;
};

/** An input buffer as bind() takes it: the caller's pixels and
 *  geometry, borrowed, not copied. */
struct BufferView {
    ScalarType elem = ScalarType::UInt8;
    BufferDesc desc;
};

/** The single argument of a compiled program (SysV: rdi). */
struct Frame {
    int64_t x = 0;
    int64_t y = 0;
    const BufferDesc *bufs = nullptr;
    int64_t *arena = nullptr;
};

/** A compiled, executable HVX program. */
class Program
{
  public:
    /**
     * Lower and seal `code`. Throws UserError when the host is not
     * x86-64, when W^X sealing is refused, or when the program
     * contains a sketch hole (holes never appear in selected code).
     */
    static std::unique_ptr<Program> compile(const hvx::InstrPtr &code);

    /**
     * Bind inputs: point the buffer descriptors at `buffers` (by
     * buffer id; pixels are borrowed, never copied) and evaluate
     * every splat's scalar expression over `scalars` into its arena
     * slots. The pixels must outlive all run() calls made under this
     * binding. Callers bind once per image pass — there is
     * deliberately no "already bound to these buffers?" query: the
     * buffers are typically owned by stack locals, and a fresh buffer
     * can land on a dead one's address, so pointer identity cannot
     * tell a live binding from a stale one (that aliasing once read
     * freed buffer descriptors; binding again is always safe).
     */
    void bind(const std::map<int, BufferView> &buffers,
              const std::map<std::string, int64_t> &scalars);

    /** Same, over an environment's buffers and scalars. */
    void bind(const Env &env);

    /**
     * Execute one tile at origin (x, y). Returns the output value;
     * the reference is owned by the program and valid until the next
     * run(). bind() must have been called.
     */
    const Value &run(int x, int y);

    /** Execute one tile and copy its out_type().lanes lanes to
     *  `out`. bind() must have been called. */
    void run_into(int x, int y, int64_t *out);

    const VecType &out_type() const { return out_type_; }

    /** Buffer id -> element type the program loads from it. */
    const std::map<int, ScalarType> &load_elems() const
    {
        return load_elems_;
    }

    /** Bytes of sealed machine code (diagnostics). */
    size_t code_size() const { return code_.size(); }

    /** The packed tier this program was lowered with. */
    SimdLevel simd() const { return simd_; }

  private:
    friend class Lowerer;
    Program() = default;

    struct SplatSite {
        hir::ExprPtr expr;
        int64_t slot = 0;
        int lanes = 0;
        ScalarType elem = ScalarType::Int32;
    };

    ExecBuffer code_;
    void (*fn_)(Frame *) = nullptr;
    std::vector<int64_t> arena_;
    std::vector<BufferDesc> bufs_;
    std::vector<int> buf_ids_; ///< buffer id per descriptor index
    std::vector<SplatSite> splats_;
    std::map<int, ScalarType> load_elems_;
    VecType out_type_;
    int64_t out_slot_ = 0;
    SimdLevel simd_ = SimdLevel::Scalar;

    bool bound_ = false;
    Env splat_env_; ///< scalars only: splats read no buffer
    hir::Interpreter scalar_interp_;
    Value out_value_;
};

} // namespace rake::jit

#endif // RAKE_JIT_JIT_H
