#include "jit/jit.h"

#include <cstdlib>
#include <cstring>

#include "base/arith.h"
#include "support/error.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace rake::jit {

bool
available()
{
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
    return true;
#else
    return false;
#endif
}

std::string
to_string(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Sse2:
        return "sse2";
      case SimdLevel::Avx2:
        return "avx2";
    }
    RAKE_UNREACHABLE("bad SimdLevel");
}

namespace {

bool
cpu_has_avx2()
{
#if defined(__x86_64__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    // AVX2 instructions present?
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0 ||
        (b & (1u << 5)) == 0)
        return false;
    // OS saves ymm state? Requires OSXSAVE + AVX, then XCR0[2:1].
    if (__get_cpuid(1, &a, &b, &c, &d) == 0)
        return false;
    if ((c & (1u << 27)) == 0 || (c & (1u << 28)) == 0)
        return false;
    uint32_t xlo = 0, xhi = 0;
    __asm__ volatile("xgetbv" : "=a"(xlo), "=d"(xhi) : "c"(0));
    return (xlo & 0x6) == 0x6;
#else
    return false;
#endif
}

SimdLevel
resolve_simd_level()
{
    const char *env = std::getenv("RAKE_JIT_SIMD");
    if (env == nullptr || *env == '\0')
        return cpu_has_avx2() ? SimdLevel::Avx2 : SimdLevel::Sse2;
    const std::string want(env);
    if (want == "scalar")
        return SimdLevel::Scalar;
    if (want == "sse2")
        return SimdLevel::Sse2; // baseline on every x86-64
    if (want == "avx2") {
        RAKE_USER_CHECK(cpu_has_avx2(),
                        "RAKE_JIT_SIMD=avx2 but this CPU/OS does not "
                        "support AVX2");
        return SimdLevel::Avx2;
    }
    RAKE_USER_CHECK(false, "RAKE_JIT_SIMD must be scalar, sse2, or "
                           "avx2; got \""
                               << want << "\"");
}

} // namespace

SimdLevel
simd_level()
{
    // Resolved per call, not cached: compile() is rare, and tests
    // retarget RAKE_JIT_SIMD mid-process to cover every tier.
    return resolve_simd_level();
}

void
Program::bind(const std::map<int, BufferView> &buffers,
              const std::map<std::string, int64_t> &scalars)
{
    for (size_t k = 0; k < buf_ids_.size(); ++k) {
        const int id = buf_ids_[k];
        const auto bit = buffers.find(id);
        RAKE_USER_CHECK(bit != buffers.end(),
                        "jit: no buffer " << id << " bound");
        const BufferView &b = bit->second;
        const auto it = load_elems_.find(id);
        RAKE_CHECK(it != load_elems_.end(), "descriptor without a load");
        RAKE_USER_CHECK(b.elem == it->second,
                        "jit: buffer " << id << " is "
                                       << to_string(b.elem)
                                       << " but the program loads "
                                       << to_string(it->second));
        RAKE_USER_CHECK(b.desc.width > 0 && b.desc.height > 0,
                        "jit: empty buffer " << id);
        bufs_[k] = b.desc;
    }
    splat_env_.scalars.clear();
    for (const auto &[name, v] : scalars)
        splat_env_.scalars.emplace(name, v);
    scalar_interp_.reset(splat_env_);
    for (const SplatSite &sp : splats_) {
        const int64_t c =
            wrap(sp.elem, scalar_interp_.eval(sp.expr).as_scalar());
        for (int i = 0; i < sp.lanes; ++i)
            arena_[static_cast<size_t>(sp.slot) + i] = c;
    }
    bound_ = true;
}

void
Program::bind(const Env &env)
{
    std::map<int, BufferView> buffers;
    for (const auto &[id, b] : env.buffers) {
        BufferView &v = buffers[id];
        v.elem = b.elem;
        v.desc.data = b.data.data();
        v.desc.width = b.width;
        v.desc.height = b.height;
        v.desc.x0 = b.x0;
        v.desc.y0 = b.y0;
    }
    std::map<std::string, int64_t> scalars;
    for (const auto &[name, v] : env.scalars)
        scalars.emplace(name, v);
    bind(buffers, scalars);
}

void
Program::run_into(int x, int y, int64_t *out)
{
    RAKE_CHECK(bound_, "jit: run() before bind()");
    Frame frame;
    frame.x = x;
    frame.y = y;
    frame.bufs = bufs_.data();
    frame.arena = arena_.data();
    fn_(&frame);
    std::memcpy(out, arena_.data() + out_slot_,
                static_cast<size_t>(out_type_.lanes) * sizeof(int64_t));
}

const Value &
Program::run(int x, int y)
{
    run_into(x, y, out_value_.lanes.data());
    return out_value_;
}

} // namespace rake::jit
