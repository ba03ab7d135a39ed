/**
 * @file
 * Swizzle synthesis (paper §5): concretize each ??load / ??swizzle
 * hole into a sequence of real data-movement instructions.
 *
 * One search (SwizzleSearch) serves every ISA: it looks, under a cost
 * budget, for the cheapest program in the ISA's swizzle grammar
 * (SwizzleRules; HVX: vmem reads, vcombine, vlo/vhi, vshuffvdd,
 * vdealvdd, vror) whose output lanes realize the hole's arrangement.
 * Every candidate program tried counts as one swizzling query
 * (Table 1); the search is memoized per arrangement and backtracks
 * through the budget exactly as Algorithm 2 requires.
 */
#ifndef RAKE_SYNTH_SWIZZLE_H
#define RAKE_SYNTH_SWIZZLE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "hvx/cost.h"
#include "sim/machine.h"
#include "support/deadline.h"
#include "synth/symbolic_vector.h"

namespace rake::synth {

/** Instrumentation for Table 1's swizzling columns. */
struct SwizzleStats {
    int queries = 0;   ///< candidate swizzle programs examined
    int solved = 0;    ///< holes successfully concretized
    int unsat = 0;     ///< holes proven infeasible within budget
    int memo_hits = 0; ///< goals answered from the memo table
    double seconds = 0.0;
};

/**
 * The swizzle search's memo, shared by every backend's solver
 * (DESIGN.md "Interned swizzle memo"). Goals are identified by
 * integers, not by value:
 *
 *  - each distinct arrangement gets a dense id and is stored once, in
 *    a flat arena of packed cells (pack());
 *  - the deinterleave, interleave, lo half, hi half and reverse of an
 *    arrangement are computed on first use and cached per id;
 *  - a hole's source list gets an id once per solve;
 *  - a goal (arrangement, sources, element type) is one 64-bit key
 *    into a single hash table of Entry records.
 *
 * One memo lives as long as its search, i.e. one lowering run;
 * sharing it wider would turn searches into memo hits and change
 * Table 1's query counts.
 */
class SwizzleMemo
{
  public:
    /** Dense id of an interned arrangement. */
    using Id = int32_t;

    /** Arrangements derived from another, cached per id. */
    enum class Derivation : uint8_t {
        Deinterleave, ///< deinterleave(a); even lanes only
        Interleave,   ///< interleave(a); even lanes only
        Lo,           ///< first half; even lanes only
        Hi,           ///< second half; even lanes only
        Reverse,      ///< lanes in reverse order
    };

    /**
     * Memo record of one goal. A positive result (instr + cost) and
     * the highest budget a search came up empty at are tracked in
     * separate fields: backtracking re-queries the same goal at a
     * *tighter* budget (Algorithm 2 shrinks beta), and that failure
     * must not clobber a solution already found at a looser budget —
     * later higher-budget queries still want it.
     */
    struct Entry {
        backend::InstrHandle instr; ///< best known program (null = none)
        int cost = 0;               ///< its cost (when found)
        int failed_budget = -1;     ///< highest budget proven infeasible
        bool active = false;        ///< goal is being searched right now
    };

    /**
     * Marks a goal active for the lifetime of the guard, so a search
     * that reaches its own goal again (rev(rev(x)), shuffle/deal
     * cycles) is cut instead of recursing forever.
     */
    class ActiveGoal
    {
      public:
        ActiveGoal(SwizzleMemo &memo, int32_t goal) : memo_(memo), goal_(goal)
        {
            memo_.entry(goal_).active = true;
        }
        ~ActiveGoal() { memo_.entry(goal_).active = false; }
        ActiveGoal(const ActiveGoal &) = delete;
        ActiveGoal &operator=(const ActiveGoal &) = delete;

      private:
        SwizzleMemo &memo_;
        int32_t goal_;
    };

    /**
     * One cell as a 64-bit word, low bits first: kind (2 bits), buffer
     * (10, 0..1023), dy (10, -512..511), source (10, 0..1023), x (16,
     * -32768..32767), lane (16, 0..65535). A field outside its range
     * fails a RAKE_CHECK; it is never truncated.
     */
    static uint64_t pack(const Cell &cell);
    static Cell unpack(uint64_t word);

    /** Id of `cells`, interning it on first sight. */
    Id intern(const Arrangement &cells);
    /** Id of the arrangement `d` derives from `id` (cached). */
    Id derived(Id id, Derivation d);
    /** Id of rotate(cells(id), r) (not cached). */
    Id rotated(Id id, int r);

    int lanes(Id id) const
    {
        return static_cast<int>(offsets_[id + 1] - offsets_[id]);
    }
    Cell cell(Id id, int i) const { return unpack(arena_[offsets_[id] + i]); }

    /** Every cell is Zero. */
    bool is_zero(Id id) const;
    /** A contiguous single-row buffer window [x0, x0 + lanes). */
    bool is_window(Id id, int *buffer, int *dy, int *x0) const;
    /** Lanes first, first + 1, ... of one source. */
    bool is_source_run(Id id, int *source, int *first) const;

    /**
     * Id of a source list (by instruction identity). The memo keeps
     * the instructions alive, so an id never aliases a later list
     * whose nodes reuse freed addresses.
     */
    int32_t intern_sources(const std::vector<backend::InstrHandle> &sources);

    /**
     * Index of the goal's entry, inserting an empty one (which answers
     * nothing, exactly like an absent one). Indices stay valid for the
     * memo's lifetime; Entry references do not survive an insertion.
     */
    int32_t goal(Id arrangement, int32_t sources, ScalarType elem);
    Entry &entry(int32_t goal) { return entries_[goal]; }

    /** Keep the cheaper of the stored program and `instr`. */
    void record_solution(int32_t goal, backend::InstrHandle instr, int cost);
    /** No program within `budget` exists. */
    void record_failure(int32_t goal, int budget);

  private:
    Id intern_scratch();
    template <typename From> Id permuted(Id id, int lanes, const From &from);

    // Arrangements: id's packed cells are
    // arena_[offsets_[id], offsets_[id + 1]).
    std::vector<uint64_t> arena_;
    std::vector<uint32_t> offsets_{0};
    std::vector<uint64_t> hashes_;
    std::vector<std::array<Id, 5>> derived_; ///< -1 until computed
    std::vector<int32_t> arrangement_slots_; ///< open addressing, -1 empty
    std::vector<uint64_t> scratch_;

    std::map<std::vector<const void *>, int32_t> source_ids_;
    std::vector<std::vector<backend::InstrHandle>> source_lists_;

    // Goals: entry g has key keys_[g].
    std::vector<uint64_t> keys_;
    std::vector<Entry> entries_;
    std::vector<int32_t> goal_slots_; ///< open addressing, -1 empty
};

/**
 * One ISA's swizzle repertoire, as SwizzleSearch reads it: how to
 * build each instruction the search may select, what each costs, and
 * the ISA's non-free rules in the order the search tries them. The
 * free rules (zero fill, window read, source identity, lo/hi half)
 * are common to every ISA and always come first.
 */
class SwizzleRules
{
  public:
    /** A non-free rule: the goal is `op(operands)`. */
    enum class Rule : uint8_t {
        Shuffle, ///< op(x), x realizes deinterleave(goal): vshuffvdd, vzip
        Deal,    ///< op(x), x realizes interleave(goal): vdealvdd, vuzp
        Combine, ///< op(lo, hi), each realizing one half: vcombine
        Rotate,  ///< op(x) #r, x a structured rotation of goal: vror
        Extract, ///< op(s, t) #r, a funnel shift of two sources: vext
        Reverse, ///< op(x), x realizes the goal reversed: vrev
        Table,   ///< op(s) #lane..., a static gather from one source: vtbl
    };

    virtual ~SwizzleRules() = default;

    /** The non-free rules, in search order. */
    virtual const std::vector<Rule> &rules() const = 0;
    /**
     * Issue cost of one `rule` instruction producing `type`: what a
     * recursive rule adds to its operands' cost, and the whole cost
     * of a leaf rule (Extract, Table).
     */
    virtual int step(Rule rule, VecType type) const = 0;
    /** The instruction `rule` builds over `args` and `imms`. */
    virtual backend::InstrHandle
    make(Rule rule, std::vector<backend::InstrHandle> args,
         std::vector<int64_t> imms = {}) const = 0;

    /** A zero splat (free: hoisted out of the loop). */
    virtual backend::InstrHandle zero(VecType type) const = 0;
    /** One vector read of a buffer window. */
    virtual backend::InstrHandle read(hir::LoadRef ref,
                                      VecType type) const = 0;
    /** Issue cost of a read() result. */
    virtual int read_cost(const backend::InstrHandle &read) const = 0;
    /** The lo or hi half of `src` (a free register rename). */
    virtual backend::InstrHandle half(const backend::InstrHandle &src,
                                      bool hi) const = 0;
    /** Result type of one of this ISA's instructions. */
    virtual VecType type_of(const backend::InstrHandle &instr) const = 0;
};

/** The HVX repertoire: vshuffvdd, vdealvdd, vcombine, vror; step 1. */
std::unique_ptr<const SwizzleRules> hvx_swizzle_rules(
    const hvx::Target &target);

/**
 * Goal-directed branch-and-bound search for data-movement programs,
 * shared by every ISA (DESIGN.md "One swizzle search"): memo lookup,
 * the free rules, then the ISA's rules in table order. Each rule
 * recurses with the room left below both the budget and the cheapest
 * program found so far, so it explores nothing that could not win.
 */
class SwizzleSearch
{
  public:
    SwizzleSearch(std::unique_ptr<const SwizzleRules> rules,
                  SwizzleStats &stats)
        : rules_(std::move(rules)), stats_(stats)
    {
    }

    /**
     * Cheapest instruction DAG realizing the hole's arrangement with
     * total cost <= budget; null if unsat within the budget.
     */
    backend::InstrHandle solve(const Hole &hole, int budget);

    /**
     * Wall-clock budget polled at every recursive search step; on
     * expiry the search throws TimeoutError instead of returning
     * unsat, so a timeout is never memoized as a negative result.
     */
    void set_deadline(const Deadline &deadline) { deadline_ = deadline; }

  private:
    struct Found {
        backend::InstrHandle instr;
        int cost = 0;
    };

    std::optional<Found>
    search(SwizzleMemo::Id arr, ScalarType elem,
           const std::vector<backend::InstrHandle> &sources,
           int32_t sources_id, int budget);

    /** Memoized read so identical loads share one node. */
    backend::InstrHandle read(int buffer, int dy, int x0, VecType type);

    std::unique_ptr<const SwizzleRules> rules_;
    SwizzleStats &stats_;
    Deadline deadline_;
    SwizzleMemo memo_;
    std::map<std::tuple<int, int, int, int, ScalarType>,
             backend::InstrHandle>
        reads_;
};

/**
 * Cross-stage layout negotiation (DESIGN.md "Whole-pipeline
 * selection"): the layout in which a producer stage stores its
 * intermediate buffer. Natural stores the semantic value;
 * Interleaved/Deinterleaved store it pre-permuted by vshuffvdd /
 * vdealvdd, with every consumer's reads compensated so the pipeline's
 * final output is unchanged. Picking a non-natural layout pays one
 * permute at the producer but can cancel a permute in every consumer
 * (or vice versa) — the §7.3 cross-stage re-layout Rake alone cannot
 * see.
 */
enum class EdgeLayout : uint8_t {
    Natural,
    Interleaved,
    Deinterleaved,
};

std::string to_string(EdgeLayout layout);

/** One stage's selected program, in whole-DAG topological order. */
struct StageProgram {
    hvx::InstrPtr instr;
    int64_t iterations = 0;
    /** Buffer id read by this stage -> producing stage index. */
    std::map<int, int> producers;
};

/** Outcome of negotiate_layouts(). */
struct NegotiationResult {
    /** Transformed programs, same order as the input stages. */
    std::vector<hvx::InstrPtr> programs;
    /** Chosen layout per stage (Natural for non-producers). */
    std::vector<EdgeLayout> layouts;
    /** Permutes adjacent to stage boundaries in the final programs. */
    int boundary_swizzles = 0;
    /** Boundary permutes removed relative to all-Natural. */
    int boundary_swizzles_saved = 0;
};

/**
 * Choose one layout per producer edge minimizing total scheduled
 * cycles (the measured replacement for the old modeled boundary
 * penalty). Producers are visited in topological order and each edge's
 * three layouts are enumerated — fan-outs are tiny — keeping a
 * non-natural layout only on strict cycle improvement, so ties stay
 * Natural and the result is deterministic. A layout is only feasible
 * when every consumer read of the edge's buffer is whole-row (dx == 0)
 * and the row has an even lane count; infeasible edges stay Natural.
 * The returned boundary permutes are real instructions in the
 * returned programs, scheduled and simulated like any other.
 */
NegotiationResult negotiate_layouts(const std::vector<StageProgram> &stages,
                                    const hvx::Target &target,
                                    const sim::MachineModel &machine);

} // namespace rake::synth

#endif // RAKE_SYNTH_SWIZZLE_H
