/**
 * @file
 * Symbolic vectors: the abstraction behind ??load and ??swizzle
 * (paper §4).
 *
 * A sketch hole stands for "some data movement producing this vector".
 * Its meaning is an *arrangement*: for every output lane, the cell the
 * lane must hold — either a buffer element (??load), a lane of an
 * already-lowered sub-expression (??swizzle), or zero. During sketch
 * verification the hole evaluates via an oracle that reads the
 * arrangement directly (the existence semantics); during swizzle
 * synthesis the arrangement becomes the goal of a search over real
 * HVX data-movement instructions.
 */
#ifndef RAKE_SYNTH_SYMBOLIC_VECTOR_H
#define RAKE_SYNTH_SYMBOLIC_VECTOR_H

#include <string>
#include <vector>

#include "backend/instr_handle.h"
#include "base/value.h"
#include "hvx/instr.h"
#include "hvx/interp.h"

namespace rake::synth {

/**
 * Lane layout of a lowered value relative to its UIR meaning.
 *
 * HVX widening instructions implicitly deinterleave (even lanes to
 * the low register, odd to the high); narrowing packs implicitly
 * re-interleave. Lowering is parameterized over the layout of each
 * intermediate (paper §5.1) so the search can keep values
 * deinterleaved across lane-wise stretches and skip the shuffles.
 */
enum class Layout : uint8_t {
    Linear,        ///< lanes in semantic order
    Deinterleaved, ///< even lanes first, then odd lanes
};

std::string to_string(Layout l);

/** Permute a linear value into the given layout. */
Value apply_layout(const Value &linear, Layout layout);

/**
 * Permute a linear value into the given layout, writing into a
 * caller-owned scratch value (the verification hot path applies the
 * layout to the reference once per example).
 */
void apply_layout_into(const Value &linear, Layout layout, Value &out);

/** Semantic lane index stored at position i of a value in `layout`. */
int layout_source_lane(Layout layout, int lanes, int i);

/** One lane's required content. */
struct Cell {
    enum class Kind : uint8_t { Zero, Buf, Src };
    Kind kind = Kind::Zero;
    // Buf payload: a buffer element at (x + x_off, y + dy).
    int buffer = 0;
    int dy = 0;
    int x = 0;
    // Src payload: lane `lane` of hole source `source`.
    int source = 0;
    int lane = 0;

    static Cell
    zero()
    {
        return Cell{};
    }
    static Cell
    buf(int buffer, int dy, int x)
    {
        Cell c;
        c.kind = Kind::Buf;
        c.buffer = buffer;
        c.dy = dy;
        c.x = x;
        return c;
    }
    static Cell
    src(int source, int lane)
    {
        Cell c;
        c.kind = Kind::Src;
        c.source = source;
        c.lane = lane;
        return c;
    }

    bool operator==(const Cell &o) const;
    bool operator<(const Cell &o) const;
};

/** A required lane arrangement: one Cell per output lane. */
using Arrangement = std::vector<Cell>;

/** Contiguous buffer window [x0, x0 + n). */
Arrangement window_cells(int buffer, int dy, int x0, int n);

/** Identity over a source's lanes. */
Arrangement source_cells(int source, int lanes);

/** Concatenation of two arrangements. */
Arrangement concat(const Arrangement &a, const Arrangement &b);

/** Evens of a, then odds of a (the deal permutation). */
Arrangement deinterleave(const Arrangement &a);

/** Inverse of deinterleave (the shuffle permutation). */
Arrangement interleave(const Arrangement &a);

/** out[i] = a[(i + r) mod lanes] (the ror permutation). */
Arrangement rotate(const Arrangement &a, int r);

/**
 * A sketch hole: required type + arrangement + the lowered values
 * that Src cells reference. Sources are type-erased backend handles
 * (a backend's own InstrPtr converts implicitly); only the owning
 * backend evaluates or inspects them.
 */
struct Hole {
    VecType type;
    Arrangement cells;
    std::vector<backend::InstrHandle> sources;
};

/**
 * Oracle value of a hole: evaluate the arrangement directly under an
 * environment (this is the "symbolic vector concretization" used for
 * sketch validity, §4.1). Sources may themselves contain nested holes
 * (a ??swizzle over a sketch subtree), so source evaluation threads
 * the same oracle through. HVX-flavoured: sources must be
 * hvx::InstrPtr handles.
 */
Value arrangement_value(const Hole &hole, const Env &env,
                        const hvx::HoleOracle &oracle = nullptr);

/**
 * Backend-independent lane assembly: concretize the arrangement given
 * the already-evaluated source values (src_values[i] is the value of
 * hole.sources[i]). Backends call this from their hole_value() after
 * running their own interpreter over the sources.
 */
Value arrangement_value_from(const Hole &hole, const Env &env,
                             const std::vector<Value> &src_values);

} // namespace rake::synth

#endif // RAKE_SYNTH_SYMBOLIC_VECTOR_H
