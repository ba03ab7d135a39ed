#include "synth/swizzle.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "sim/linearize.h"
#include "sim/simulator.h"
#include "support/error.h"

namespace rake::synth {

namespace {

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/**
 * View-based structural checks: `at(i)` yields cell i of a conceptual
 * arrangement of size n without materializing it. The rotation rule
 * probes every rotation of a goal, and building each rotation (plus
 * its interleave / deinterleave images) just to reject it dominated
 * the swizzle search; the views make rejection allocation-free.
 */
template <typename At>
bool
window_view(int n, const At &at)
{
    const Cell c0 = at(0);
    if (c0.kind != Cell::Kind::Buf)
        return false;
    for (int i = 1; i < n; ++i) {
        const Cell c = at(i);
        if (c.kind != Cell::Kind::Buf || c.buffer != c0.buffer ||
            c.dy != c0.dy || c.x != c0.x + i)
            return false;
    }
    return true;
}

/** Lanes c0.lane, c0.lane + 1, ... of one source. */
template <typename At>
bool
source_run_view(int n, const At &at)
{
    const Cell c0 = at(0);
    if (c0.kind != Cell::Kind::Src)
        return false;
    for (int i = 1; i < n; ++i) {
        const Cell c = at(i);
        if (c.kind != Cell::Kind::Src || c.source != c0.source ||
            c.lane != c0.lane + i)
            return false;
    }
    return true;
}

// Packed cell layout, low bits first (SwizzleMemo::pack).
constexpr int kKindBits = 2, kBufferBits = 10, kDyBits = 10,
              kSourceBits = 10, kXBits = 16, kLaneBits = 16;
constexpr int kBufferShift = kKindBits;
constexpr int kDyShift = kBufferShift + kBufferBits;
constexpr int kSourceShift = kDyShift + kDyBits;
constexpr int kXShift = kSourceShift + kSourceBits;
constexpr int kLaneShift = kXShift + kXBits;
static_assert(kLaneShift + kLaneBits == 64, "a cell fills one word");

uint64_t
pack_field(int value, int shift, int bits, bool is_signed,
           const char *name)
{
    const int lo = is_signed ? -(1 << (bits - 1)) : 0;
    const int hi = is_signed ? (1 << (bits - 1)) - 1 : (1 << bits) - 1;
    RAKE_CHECK(value >= lo && value <= hi,
               "swizzle memo: cell " << name << " " << value
                                     << " outside [" << lo << ", " << hi
                                     << "]");
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    return (static_cast<uint64_t>(value) & mask) << shift;
}

int
unpack_field(uint64_t word, int shift, int bits, bool is_signed)
{
    const int v = static_cast<int>((word >> shift) &
                                   ((uint64_t{1} << bits) - 1));
    return is_signed && v >= (1 << (bits - 1)) ? v - (1 << bits) : v;
}

uint64_t
mix64(uint64_t h)
{
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/**
 * Linear probe of an open-addressing index (size a power of two, -1
 * marks an empty slot) for an id `same` accepts; returns the slot
 * holding it, or the empty slot where it belongs.
 */
template <typename Same>
size_t
probe(const std::vector<int32_t> &slots, uint64_t hash, const Same &same)
{
    const size_t mask = slots.size() - 1;
    size_t i = hash & mask;
    while (slots[i] >= 0 && !same(slots[i]))
        i = (i + 1) & mask;
    return i;
}

/** Make room for one more id, keeping the index at most half full. */
template <typename HashOf>
void
reserve_slot(std::vector<int32_t> &slots, size_t count,
             const HashOf &hash_of)
{
    if (2 * (count + 1) <= slots.size())
        return;
    std::vector<int32_t> bigger(std::max<size_t>(64, 2 * slots.size()),
                                -1);
    for (size_t id = 0; id < count; ++id)
        bigger[probe(bigger, hash_of(id), [](int32_t) { return false; })] =
            static_cast<int32_t>(id);
    slots.swap(bigger);
}

} // namespace

uint64_t
SwizzleMemo::pack(const Cell &cell)
{
    return static_cast<uint64_t>(cell.kind) |
           pack_field(cell.buffer, kBufferShift, kBufferBits, false,
                      "buffer") |
           pack_field(cell.dy, kDyShift, kDyBits, true, "dy") |
           pack_field(cell.source, kSourceShift, kSourceBits, false,
                      "source") |
           pack_field(cell.x, kXShift, kXBits, true, "x") |
           pack_field(cell.lane, kLaneShift, kLaneBits, false, "lane");
}

Cell
SwizzleMemo::unpack(uint64_t word)
{
    Cell c;
    c.kind = static_cast<Cell::Kind>(word & ((1u << kKindBits) - 1));
    c.buffer = unpack_field(word, kBufferShift, kBufferBits, false);
    c.dy = unpack_field(word, kDyShift, kDyBits, true);
    c.source = unpack_field(word, kSourceShift, kSourceBits, false);
    c.x = unpack_field(word, kXShift, kXBits, true);
    c.lane = unpack_field(word, kLaneShift, kLaneBits, false);
    return c;
}

SwizzleMemo::Id
SwizzleMemo::intern(const Arrangement &cells)
{
    scratch_.clear();
    for (const Cell &c : cells)
        scratch_.push_back(pack(c));
    return intern_scratch();
}

SwizzleMemo::Id
SwizzleMemo::intern_scratch()
{
    uint64_t h = scratch_.size();
    for (uint64_t w : scratch_)
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h = mix64(h);
    reserve_slot(arrangement_slots_, hashes_.size(),
                 [this](size_t id) { return hashes_[id]; });
    const size_t slot = probe(arrangement_slots_, h, [&](Id id) {
        return hashes_[id] == h &&
               std::equal(scratch_.begin(), scratch_.end(),
                          arena_.begin() + offsets_[id],
                          arena_.begin() + offsets_[id + 1]);
    });
    if (arrangement_slots_[slot] >= 0)
        return arrangement_slots_[slot];
    RAKE_CHECK(hashes_.size() < INT32_MAX &&
                   arena_.size() + scratch_.size() <= UINT32_MAX,
               "swizzle memo: arrangement arena full");
    const Id id = static_cast<Id>(hashes_.size());
    arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
    hashes_.push_back(h);
    derived_.push_back({-1, -1, -1, -1, -1});
    arrangement_slots_[slot] = id;
    return id;
}

template <typename From>
SwizzleMemo::Id
SwizzleMemo::permuted(Id id, int lanes, const From &from)
{
    const uint32_t base = offsets_[id];
    scratch_.resize(lanes);
    for (int j = 0; j < lanes; ++j)
        scratch_[j] = arena_[base + from(j)];
    return intern_scratch();
}

SwizzleMemo::Id
SwizzleMemo::derived(Id id, Derivation d)
{
    const int k = static_cast<int>(d);
    if (derived_[id][k] >= 0)
        return derived_[id][k];
    const int n = lanes(id);
    const int h = n / 2;
    RAKE_CHECK(d == Derivation::Reverse || n % 2 == 0,
               "swizzle memo: half-based derivation of odd arrangement");
    Id out = -1;
    switch (d) {
      case Derivation::Deinterleave:
        out = permuted(id, n, [h](int j) {
            return j < h ? 2 * j : 2 * (j - h) + 1;
        });
        break;
      case Derivation::Interleave:
        out = permuted(id, n, [h](int j) {
            return j % 2 == 0 ? j / 2 : h + j / 2;
        });
        break;
      case Derivation::Lo:
        out = permuted(id, h, [](int j) { return j; });
        break;
      case Derivation::Hi:
        out = permuted(id, h, [h](int j) { return h + j; });
        break;
      case Derivation::Reverse:
        out = permuted(id, n, [n](int j) { return n - 1 - j; });
        break;
    }
    derived_[id][k] = out; // after interning, which may grow derived_
    return out;
}

SwizzleMemo::Id
SwizzleMemo::rotated(Id id, int r)
{
    const int n = lanes(id);
    return permuted(id, n, [n, r](int i) { return (i + r) % n; });
}

bool
SwizzleMemo::is_zero(Id id) const
{
    for (int i = 0; i < lanes(id); ++i)
        if (cell(id, i).kind != Cell::Kind::Zero)
            return false;
    return true;
}

bool
SwizzleMemo::is_window(Id id, int *buffer, int *dy, int *x0) const
{
    if (!window_view(lanes(id), [&](int i) { return cell(id, i); }))
        return false;
    const Cell c0 = cell(id, 0);
    *buffer = c0.buffer;
    *dy = c0.dy;
    *x0 = c0.x;
    return true;
}

bool
SwizzleMemo::is_source_run(Id id, int *source, int *first) const
{
    if (!source_run_view(lanes(id), [&](int i) { return cell(id, i); }))
        return false;
    const Cell c0 = cell(id, 0);
    *source = c0.source;
    *first = c0.lane;
    return true;
}

int32_t
SwizzleMemo::intern_sources(
    const std::vector<backend::InstrHandle> &sources)
{
    std::vector<const void *> key;
    key.reserve(sources.size());
    for (const auto &s : sources)
        key.push_back(s.get());
    const auto [it, inserted] = source_ids_.emplace(
        std::move(key), static_cast<int32_t>(source_lists_.size()));
    if (inserted) {
        RAKE_CHECK(source_lists_.size() < (1u << 24),
                   "swizzle memo: too many source lists");
        source_lists_.push_back(sources);
    }
    return it->second;
}

int32_t
SwizzleMemo::goal(Id arrangement, int32_t sources, ScalarType elem)
{
    // arrangement (32 bits) | sources (24) | elem (8)
    const uint64_t key =
        static_cast<uint64_t>(static_cast<uint32_t>(arrangement)) << 32 |
        static_cast<uint64_t>(sources) << 8 |
        static_cast<uint64_t>(elem);
    reserve_slot(goal_slots_, keys_.size(),
                 [this](size_t g) { return mix64(keys_[g]); });
    const size_t slot = probe(goal_slots_, mix64(key),
                              [&](int32_t g) { return keys_[g] == key; });
    if (goal_slots_[slot] < 0) {
        goal_slots_[slot] = static_cast<int32_t>(keys_.size());
        keys_.push_back(key);
        entries_.emplace_back();
    }
    return goal_slots_[slot];
}

void
SwizzleMemo::record_solution(int32_t goal, backend::InstrHandle instr,
                             int cost)
{
    Entry &e = entries_[goal];
    if (!e.instr || cost < e.cost) {
        e.instr = std::move(instr);
        e.cost = cost;
    }
}

void
SwizzleMemo::record_failure(int32_t goal, int budget)
{
    Entry &e = entries_[goal];
    e.failed_budget = std::max(e.failed_budget, budget);
}

namespace {

/** The HVX repertoire over the shared search; every step issues once. */
class HvxSwizzleRules final : public SwizzleRules
{
  public:
    explicit HvxSwizzleRules(const hvx::Target &target) : target_(target)
    {
    }

    const std::vector<Rule> &
    rules() const override
    {
        static const std::vector<Rule> table = {
            Rule::Shuffle, Rule::Deal, Rule::Combine, Rule::Rotate};
        return table;
    }

    int step(Rule, VecType) const override { return 1; }

    backend::InstrHandle
    make(Rule rule, std::vector<backend::InstrHandle> args,
         std::vector<int64_t> imms) const override
    {
        return hvx::Instr::make(opcode(rule),
                                backend::handles_as<hvx::Instr>(args),
                                std::move(imms));
    }

    backend::InstrHandle
    zero(VecType type) const override
    {
        return hvx::Instr::make_splat(
            hir::Expr::make_const(0, VecType(type.elem, 1)), type.lanes);
    }

    backend::InstrHandle
    read(hir::LoadRef ref, VecType type) const override
    {
        return hvx::Instr::make_read(ref, type);
    }

    int
    read_cost(const backend::InstrHandle &read) const override
    {
        return hvx::issue_count(*cast(read), target_);
    }

    backend::InstrHandle
    half(const backend::InstrHandle &src, bool hi) const override
    {
        return hvx::Instr::make(hi ? hvx::Opcode::VHi : hvx::Opcode::VLo,
                                {cast(src)});
    }

    VecType
    type_of(const backend::InstrHandle &instr) const override
    {
        return cast(instr)->type();
    }

  private:
    static hvx::InstrPtr
    cast(const backend::InstrHandle &h)
    {
        return std::static_pointer_cast<const hvx::Instr>(h);
    }

    static hvx::Opcode
    opcode(Rule rule)
    {
        switch (rule) {
          case Rule::Shuffle:
            return hvx::Opcode::VShuffVdd;
          case Rule::Deal:
            return hvx::Opcode::VDealVdd;
          case Rule::Combine:
            return hvx::Opcode::VCombine;
          case Rule::Rotate:
            return hvx::Opcode::VRor;
          default:
            RAKE_UNREACHABLE("no HVX swizzle rule "
                             << static_cast<int>(rule));
        }
    }

    hvx::Target target_;
};

/**
 * Whether rotating `arr` by r (lanes n - r .. ) lands on a structured
 * arrangement: a window, a source identity, or one deal/shuffle away
 * from a window. Decided through index views composed on top of
 * `arr`, so the (many) rotations that fail are never interned.
 */
bool
structured_rotation(const SwizzleMemo &memo, SwizzleMemo::Id arr, int r)
{
    const int n = memo.lanes(arr), h = n / 2;
    // unrot[i] = rotate(arr, n - r)[i] = arr[(i + n - r) % n].
    auto at_unrot = [&memo, arr, n, r](int i) {
        return memo.cell(arr, (i + n - r) % n);
    };
    // interleave(unrot)[j] reads unrot[j/2] (even j) or unrot[h + j/2]
    // (odd j); deinterleave(unrot)[j] reads unrot[2j] (j < h) or
    // unrot[2(j-h)+1].
    auto at_ileave = [&at_unrot, h](int j) {
        return at_unrot(j % 2 == 0 ? j / 2 : h + j / 2);
    };
    auto at_deint = [&at_unrot, h](int j) {
        return at_unrot(j < h ? 2 * j : 2 * (j - h) + 1);
    };
    if (window_view(n, at_unrot) ||
        (at_unrot(0).lane == 0 && source_run_view(n, at_unrot)))
        return true;
    return n % 2 == 0 &&
           (window_view(n, at_ileave) || window_view(n, at_deint));
}

/**
 * The static gather a Table rule needs: every cell a lane of one
 * source or zero (an out-of-range index reads as zero). Returns the
 * source, or -1.
 */
int
gather_source(const SwizzleMemo &memo, SwizzleMemo::Id arr,
              std::vector<int64_t> *idx)
{
    const int n = memo.lanes(arr);
    int s = -1;
    idx->assign(n, -1);
    for (int i = 0; i < n; ++i) {
        const Cell c = memo.cell(arr, i);
        if (c.kind == Cell::Kind::Zero)
            continue;
        if (c.kind != Cell::Kind::Src || (s != -1 && c.source != s))
            return -1;
        s = c.source;
        (*idx)[i] = c.lane;
    }
    return s;
}

} // namespace

std::unique_ptr<const SwizzleRules>
hvx_swizzle_rules(const hvx::Target &target)
{
    return std::make_unique<HvxSwizzleRules>(target);
}

backend::InstrHandle
SwizzleSearch::read(int buffer, int dy, int x0, VecType type)
{
    auto key = std::make_tuple(buffer, dy, x0, type.lanes, type.elem);
    auto it = reads_.find(key);
    if (it != reads_.end())
        return it->second;
    backend::InstrHandle r =
        rules_->read(hir::LoadRef{buffer, x0, dy}, type);
    reads_[key] = r;
    return r;
}

backend::InstrHandle
SwizzleSearch::solve(const Hole &hole, int budget)
{
    const double t0 = now_seconds();
    auto result = search(memo_.intern(hole.cells), hole.type.elem,
                         hole.sources, memo_.intern_sources(hole.sources),
                         budget);
    stats_.seconds += now_seconds() - t0;
    if (!result) {
        ++stats_.unsat;
        return nullptr;
    }
    ++stats_.solved;
    return result->instr;
}

std::optional<SwizzleSearch::Found>
SwizzleSearch::search(SwizzleMemo::Id arr, ScalarType elem,
                      const std::vector<backend::InstrHandle> &sources,
                      int32_t sources_id, int budget)
{
    // Poll before memo writes: a timeout unwinds out of here without
    // recording anything, so an aborted search can never masquerade
    // as a memoized "unsat within budget".
    deadline_.check("swizzle synthesis");

    if (budget < 0)
        return std::nullopt;
    const int32_t goal = memo_.goal(arr, sources_id, elem);
    {
        const SwizzleMemo::Entry &e = memo_.entry(goal);
        if (e.instr && e.cost <= budget) {
            ++stats_.memo_hits;
            return Found{e.instr, e.cost};
        }
        if (e.failed_budget >= budget) {
            ++stats_.memo_hits;
            return std::nullopt;
        }
        if (e.active)
            return std::nullopt; // already exploring this goal
    }
    SwizzleMemo::ActiveGoal active(memo_, goal);

    const int n = memo_.lanes(arr);
    const int ns = static_cast<int>(sources.size());
    const VecType type(elem, n);
    std::optional<Found> best;
    auto consider = [&](backend::InstrHandle instr, int cost) {
        ++stats_.queries;
        if (!instr || cost > budget)
            return;
        if (!best || cost < best->cost)
            best = Found{std::move(instr), cost};
    };
    auto sub = [&](SwizzleMemo::Id a, int b) {
        return search(a, elem, sources, sources_id, b);
    };
    // What a new candidate may cost: within the budget, and strictly
    // below the best found so far (nothing else could replace it).
    auto room = [&] {
        return best ? std::min(budget, best->cost - 1) : budget;
    };
    using D = SwizzleMemo::Derivation;
    using Rule = SwizzleRules::Rule;

    // Free rules. All-zero arrangement -> a zero splat.
    if (memo_.is_zero(arr))
        consider(rules_->zero(type), 0);

    // Contiguous buffer window -> one vector read.
    {
        int buffer = 0, dy = 0, x0 = 0;
        if (memo_.is_window(arr, &buffer, &dy, &x0)) {
            backend::InstrHandle r = read(buffer, dy, x0, type);
            consider(r, rules_->read_cost(r));
        }
    }

    // Identity over one source -> the source itself; lo / hi half of
    // a source -> free register renames.
    {
        int source = 0, first = 0;
        if (memo_.is_source_run(arr, &source, &first) && source < ns) {
            const backend::InstrHandle &src = sources[source];
            const VecType st = rules_->type_of(src);
            if (first == 0 && st == type)
                consider(src, 0);
            if ((first == 0 || first == n) && st.lanes == 2 * n &&
                st.elem == elem)
                consider(rules_->half(src, first == n), 0);
        }
    }

    if (best && best->cost == 0) {
        memo_.record_solution(goal, best->instr, best->cost);
        return best;
    }

    // The ISA's rules, in table order. A rule is tried only when the
    // room left can pay its own step.
    for (const Rule rule : rules_->rules()) {
        const int step = rules_->step(rule, type);
        if (room() < step)
            continue;
        // op(x) with x realizing `operand`.
        auto unary = [&](SwizzleMemo::Id operand, std::vector<int64_t> imms) {
            if (auto s = sub(operand, room() - step))
                consider(rules_->make(rule, {s->instr}, std::move(imms)),
                         s->cost + step);
        };
        switch (rule) {
          case Rule::Shuffle:
          case Rule::Deal:
            if (n % 2 == 0) {
                const SwizzleMemo::Id d = memo_.derived(
                    arr, rule == Rule::Shuffle ? D::Deinterleave
                                               : D::Interleave);
                if (d != arr)
                    unary(d, {});
            }
            break;
          case Rule::Combine:
            if (n % 2 == 0) {
                const int left = room() - step;
                if (auto lo = sub(memo_.derived(arr, D::Lo), left)) {
                    if (auto hi = sub(memo_.derived(arr, D::Hi),
                                      left - lo->cost))
                        consider(rules_->make(rule, {lo->instr, hi->instr}),
                                 lo->cost + hi->cost + step);
                }
            }
            break;
          case Rule::Rotate:
            // Bounded: recursing on arbitrary rotations would make the
            // search space explode.
            for (int r = 1; r < n; ++r) {
                if (room() < step)
                    break;
                if (structured_rotation(memo_, arr, r))
                    unary(memo_.rotated(arr, n - r), {r});
            }
            break;
          case Rule::Extract: {
            // A funnel shift across a source pair: covers rotations
            // (s == t) and windows sliding across two registers. Cell
            // 0 must be lane r of s and cell n - r lane 0 of t, so at
            // most one (s, t, r) matches.
            const Cell c0 = memo_.cell(arr, 0);
            const int s = c0.source, r = c0.lane;
            if (c0.kind != Cell::Kind::Src || r < 1 || r >= n || s >= ns ||
                rules_->type_of(sources[s]) != type)
                break;
            const int t = memo_.cell(arr, n - r).source;
            bool match = t < ns && rules_->type_of(sources[t]) == type;
            for (int i = 0; i < n && match; ++i)
                match = memo_.cell(arr, i) ==
                        (i + r < n ? Cell::src(s, i + r)
                                   : Cell::src(t, i + r - n));
            if (match)
                consider(rules_->make(rule, {sources[s], sources[t]}, {r}),
                         step);
            break;
          }
          case Rule::Reverse: {
            // The active-goal guard breaks the rev(rev(x)) cycle.
            const SwizzleMemo::Id rev = memo_.derived(arr, D::Reverse);
            if (rev != arr)
                unary(rev, {});
            break;
          }
          case Rule::Table: {
            std::vector<int64_t> idx;
            const int s = ns > 0 ? gather_source(memo_, arr, &idx) : -1;
            if (s >= 0 && s < ns && rules_->type_of(sources[s]).elem == elem)
                consider(rules_->make(rule, {sources[s]}, std::move(idx)),
                         step);
            break;
          }
        }
    }

    if (best) {
        memo_.record_solution(goal, best->instr, best->cost);
        return best;
    }
    memo_.record_failure(goal, budget);
    return std::nullopt;
}

std::string
to_string(EdgeLayout layout)
{
    switch (layout) {
      case EdgeLayout::Natural:
        return "natural";
      case EdgeLayout::Interleaved:
        return "interleaved";
      case EdgeLayout::Deinterleaved:
        return "deinterleaved";
    }
    RAKE_UNREACHABLE("bad EdgeLayout");
}

namespace {

bool
is_boundary_permute(hvx::Opcode op)
{
    return op == hvx::Opcode::VShuffVdd || op == hvx::Opcode::VDealVdd;
}

/**
 * Producer side of a non-natural layout: store permute(root) instead
 * of root, cancelling an existing inverse permute at the root rather
 * than stacking a new one on top of it.
 */
hvx::InstrPtr
transform_producer(const hvx::InstrPtr &root, EdgeLayout layout)
{
    const hvx::Opcode store_permute = layout == EdgeLayout::Deinterleaved
                                          ? hvx::Opcode::VDealVdd
                                          : hvx::Opcode::VShuffVdd;
    const hvx::Opcode inverse = layout == EdgeLayout::Deinterleaved
                                    ? hvx::Opcode::VShuffVdd
                                    : hvx::Opcode::VDealVdd;
    if (root->op() == inverse)
        return root->arg(0); // deal(shuff(x)) == x == shuff(deal(x))
    return hvx::Instr::make(store_permute, {root}, {},
                            root->type().elem);
}

/**
 * Consumer side: reads of `buffer` now observe the permuted stored
 * value, so an existing `strip(read)` (the permute the stored layout
 * pre-applies) collapses to the bare read, and a bare read gains the
 * inverse `wrap` to recover the semantic value.
 */
hvx::InstrPtr
compensate_consumer(
    const hvx::InstrPtr &n, int buffer, hvx::Opcode strip,
    hvx::Opcode wrap,
    std::unordered_map<const hvx::Instr *, hvx::InstrPtr> *memo)
{
    auto it = memo->find(n.get());
    if (it != memo->end())
        return it->second;
    hvx::InstrPtr out = n;
    if (n->op() == strip && n->num_args() == 1 &&
        n->arg(0)->op() == hvx::Opcode::VRead &&
        n->arg(0)->load_ref().buffer == buffer) {
        out = n->arg(0);
    } else if (n->op() == hvx::Opcode::VRead &&
               n->load_ref().buffer == buffer) {
        out = hvx::Instr::make(wrap, {n}, {}, n->type().elem);
    } else if (n->num_args() > 0) {
        std::vector<hvx::InstrPtr> args;
        args.reserve(n->args().size());
        bool changed = false;
        for (const auto &a : n->args()) {
            args.push_back(
                compensate_consumer(a, buffer, strip, wrap, memo));
            changed |= args.back() != a;
        }
        if (changed)
            out = hvx::Instr::make(n->op(), std::move(args), n->imms(),
                                   n->type().elem);
    }
    memo->emplace(n.get(), out);
    return out;
}

/** Every read of `buffer` is whole-row (dx == 0) with even lanes. */
bool
reads_relayoutable(const hvx::InstrPtr &n, int buffer,
                   std::unordered_set<const hvx::Instr *> *visited)
{
    if (!visited->insert(n.get()).second)
        return true;
    if (n->op() == hvx::Opcode::VRead &&
        n->load_ref().buffer == buffer &&
        (n->load_ref().dx != 0 || n->type().lanes % 2 != 0))
        return false;
    for (const auto &a : n->args())
        if (!reads_relayoutable(a, buffer, visited))
            return false;
    return true;
}

/**
 * Permutes adjacent to stage boundaries: a permute directly over an
 * intermediate-buffer read, or a producer whose stored root is a
 * permute. Counted over the deduplicated (linearized) programs.
 */
int
count_boundary_swizzles(const std::vector<hvx::InstrPtr> &programs,
                        const std::vector<StageProgram> &stages,
                        const std::vector<bool> &is_producer)
{
    int count = 0;
    for (size_t i = 0; i < programs.size(); ++i) {
        for (const hvx::InstrPtr &n : sim::linearize(programs[i]))
            if (is_boundary_permute(n->op()) && n->num_args() == 1 &&
                n->arg(0)->op() == hvx::Opcode::VRead &&
                stages[i].producers.count(
                    n->arg(0)->load_ref().buffer) > 0)
                ++count;
        if (is_producer[i] && is_boundary_permute(programs[i]->op()))
            ++count;
    }
    return count;
}

} // namespace

NegotiationResult
negotiate_layouts(const std::vector<StageProgram> &stages,
                  const hvx::Target &target,
                  const sim::MachineModel &machine)
{
    const int n = static_cast<int>(stages.size());
    NegotiationResult result;
    result.layouts.assign(n, EdgeLayout::Natural);
    result.programs.reserve(stages.size());
    for (const StageProgram &s : stages) {
        RAKE_CHECK(s.instr != nullptr, "negotiate_layouts null program");
        result.programs.push_back(s.instr);
    }

    // Consumers per producer, with the buffer id each consumer uses
    // for that edge (consumers address producers through their own
    // slot space, so the id is per consumer).
    std::vector<std::vector<std::pair<int, int>>> consumers(n);
    std::vector<bool> is_producer(n, false);
    for (int c = 0; c < n; ++c)
        for (const auto &[buf, p] : stages[c].producers) {
            RAKE_CHECK(p >= 0 && p < c,
                       "negotiate_layouts stages not topological");
            consumers[p].emplace_back(c, buf);
            is_producer[p] = true;
        }

    const int natural_swizzles =
        count_boundary_swizzles(result.programs, stages, is_producer);

    auto cycles_of = [&](int i, const hvx::InstrPtr &prog) {
        return sim::schedule(prog, target, machine)
            .cycles(stages[i].iterations);
    };

    for (int p = 0; p < n; ++p) {
        if (consumers[p].empty())
            continue;
        bool feasible = result.programs[p]->type().lanes % 2 == 0;
        for (const auto &[c, buf] : consumers[p]) {
            std::unordered_set<const hvx::Instr *> visited;
            feasible = feasible && reads_relayoutable(result.programs[c],
                                                      buf, &visited);
        }
        if (!feasible)
            continue;

        // Candidates are always built from the pre-edge programs so
        // the two non-natural layouts don't stack on one another.
        const hvx::InstrPtr base_producer = result.programs[p];
        std::map<int, hvx::InstrPtr> base_consumer;
        for (const auto &[c, buf] : consumers[p])
            base_consumer.emplace(c, result.programs[c]);

        int64_t best_cost = cycles_of(p, base_producer);
        for (const auto &[c, prog] : base_consumer)
            best_cost += cycles_of(c, prog);

        for (EdgeLayout layout : {EdgeLayout::Interleaved,
                                  EdgeLayout::Deinterleaved}) {
            const hvx::Opcode strip =
                layout == EdgeLayout::Deinterleaved
                    ? hvx::Opcode::VDealVdd
                    : hvx::Opcode::VShuffVdd;
            const hvx::Opcode wrap =
                layout == EdgeLayout::Deinterleaved
                    ? hvx::Opcode::VShuffVdd
                    : hvx::Opcode::VDealVdd;
            const hvx::InstrPtr producer =
                transform_producer(base_producer, layout);
            std::map<int, hvx::InstrPtr> cand = base_consumer;
            for (const auto &[c, buf] : consumers[p]) {
                std::unordered_map<const hvx::Instr *, hvx::InstrPtr>
                    memo;
                cand[c] = compensate_consumer(cand[c], buf, strip,
                                              wrap, &memo);
            }
            int64_t cost = cycles_of(p, producer);
            for (const auto &[c, cons] : cand)
                cost += cycles_of(c, cons);
            // Strict improvement only: ties keep the natural layout,
            // making the negotiation deterministic.
            if (cost < best_cost) {
                best_cost = cost;
                result.layouts[p] = layout;
                result.programs[p] = producer;
                for (auto &[c, cons] : cand)
                    result.programs[c] = cons;
            }
        }
    }

    result.boundary_swizzles =
        count_boundary_swizzles(result.programs, stages, is_producer);
    result.boundary_swizzles_saved =
        natural_swizzles - result.boundary_swizzles;
    return result;
}

} // namespace rake::synth
