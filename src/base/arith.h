/**
 * @file
 * Fixed-point arithmetic helpers with explicit wrapping, saturating,
 * and rounding semantics.
 *
 * Every interpreter in Rake (HIR, Uber-Instruction IR, HVX) evaluates
 * lane values as int64_t and re-normalizes through these helpers, so
 * the three IRs agree bit-for-bit on overflow behaviour. This is the
 * foundation the equivalence checker relies on.
 */
#ifndef RAKE_BASE_ARITH_H
#define RAKE_BASE_ARITH_H

#include <cstdint>

#include "base/type.h"

namespace rake {

/**
 * Reinterpret the low bits(t) bits of v as a value of type t
 * (two's-complement wrap-around, the semantics of a non-saturating
 * machine op writing a register of that width).
 */
inline int64_t
wrap(ScalarType t, int64_t v)
{
    const int b = bits(t);
    if (b == 64)
        return v;
    const uint64_t mask = (uint64_t{1} << b) - 1;
    uint64_t u = static_cast<uint64_t>(v) & mask;
    if (is_signed(t) && (u & (uint64_t{1} << (b - 1))))
        u |= ~mask; // sign extend
    return static_cast<int64_t>(u);
}

/**
 * a * b and a + b modulo 2^64: the low 64 bits of the exact result,
 * computed in uint64_t so they are never signed-overflow UB. The
 * interpreters multiply int64 carriers whose lanes may be full-range
 * u32 (or 64-bit) and then wrap() to the lane type, which keeps only
 * low bits; the JIT's imul wraps the same way.
 */
inline int64_t
mul_wrap(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

inline int64_t
add_wrap(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

/** Clamp v into the representable range of t (saturating cast). */
inline int64_t
saturate(ScalarType t, int64_t v)
{
    const int64_t lo = min_value(t);
    const int64_t hi = max_value(t);
    if (v < lo)
        return lo;
    if (v > hi)
        return hi;
    return v;
}

/** True iff v is representable in type t without wrapping. */
inline bool
fits_in(ScalarType t, int64_t v)
{
    return v >= min_value(t) && v <= max_value(t);
}

/**
 * Arithmetic shift right by a non-negative amount, with optional
 * round-to-nearest (adds 1 << (n-1) before shifting, the HVX ":rnd"
 * behaviour). Shift amounts >= 63 collapse to the sign.
 */
inline int64_t
shift_right(int64_t v, int n, bool round = false)
{
    if (n <= 0)
        return v;
    if (n >= 63)
        return v < 0 ? -1 : 0;
    if (round) {
        // The rounding add wraps in uint64_t: v near INT64_MAX (a
        // widening-multiply accumulator can get there) must not
        // overflow the signed carrier, which would be UB.
        v = static_cast<int64_t>(static_cast<uint64_t>(v) +
                                 (uint64_t{1} << (n - 1)));
    }
    return v >> n;
}

/** Shift left with wrap-around in the given type. */
inline int64_t
shift_left(ScalarType t, int64_t v, int n)
{
    if (n <= 0)
        return wrap(t, v);
    if (n >= 64)
        return 0;
    return wrap(t, static_cast<int64_t>(static_cast<uint64_t>(v) << n));
}

/** Logical (zero-fill) shift right within the width of t. */
inline int64_t
logical_shift_right(ScalarType t, int64_t v, int n)
{
    if (n <= 0)
        return wrap(t, v);
    const int b = bits(t);
    if (n >= b)
        return 0;
    const uint64_t mask =
        b == 64 ? ~uint64_t{0} : (uint64_t{1} << b) - 1;
    const uint64_t u = static_cast<uint64_t>(v) & mask;
    return wrap(t, static_cast<int64_t>(u >> n));
}

/** Saturating addition in type t. */
inline int64_t
add_sat(ScalarType t, int64_t a, int64_t b)
{
    return saturate(t, a + b);
}

/** Saturating subtraction in type t. */
inline int64_t
sub_sat(ScalarType t, int64_t a, int64_t b)
{
    return saturate(t, a - b);
}

/**
 * Average of two lanes computed in a wider type, optionally rounding
 * up (the HVX vavg / vavg:rnd behaviour). Never overflows.
 */
inline int64_t
average(ScalarType t, int64_t a, int64_t b, bool round)
{
    // Sum in uint64_t so extreme int64 carriers cannot overflow
    // (UB); the wrap-around result matches machine semantics.
    const int64_t sum = static_cast<int64_t>(
        static_cast<uint64_t>(a) + static_cast<uint64_t>(b) +
        (round ? 1u : 0u));
    return wrap(t, sum >> 1);
}

/**
 * Negative average: (a - b) averaged toward zero, the HVX vnavg
 * behaviour (a - b, arithmetically halved).
 */
inline int64_t
neg_average(ScalarType t, int64_t a, int64_t b, bool round)
{
    // Same unsigned-carrier trick as average(): a - b can overflow
    // int64 when the operands have opposite extreme signs.
    const int64_t diff = static_cast<int64_t>(
        static_cast<uint64_t>(a) - static_cast<uint64_t>(b) +
        (round ? 1u : 0u));
    return wrap(t, diff >> 1);
}

/** Absolute difference, always non-negative; exact in int64 carriers. */
inline int64_t
abs_diff(int64_t a, int64_t b)
{
    return a > b ? a - b : b - a;
}

} // namespace rake

#endif // RAKE_BASE_ARITH_H
