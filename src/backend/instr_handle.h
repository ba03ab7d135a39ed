/**
 * @file
 * The type-erased instruction handle shared by all backends.
 *
 * Each target ISA represents lowered code as a shared_ptr to its own
 * immutable instruction node type (hvx::Instr, neon::NInstr, ...).
 * The synthesis core never inspects nodes structurally — it only
 * stores them, compares them for pointer identity, and hands them
 * back to the owning backend — so a shared_ptr<const void> carries
 * them through the target-independent layers without a class
 * hierarchy. A backend's own InstrPtr converts to InstrHandle
 * implicitly; the backend recovers it with static_pointer_cast.
 *
 * This header is deliberately tiny: synth/symbolic_vector.h needs
 * the handle type for Hole::sources, and backend/target_isa.h needs
 * symbolic_vector.h for Hole itself, so the handle lives below both.
 */
#ifndef RAKE_BACKEND_INSTR_HANDLE_H
#define RAKE_BACKEND_INSTR_HANDLE_H

#include <memory>
#include <vector>

namespace rake::backend {

/** A type-erased, immutable backend instruction DAG. */
using InstrHandle = std::shared_ptr<const void>;

/** `handles`, cast back to one backend's node type. */
template <typename Node>
std::vector<std::shared_ptr<const Node>>
handles_as(const std::vector<InstrHandle> &handles)
{
    std::vector<std::shared_ptr<const Node>> out;
    out.reserve(handles.size());
    for (const InstrHandle &h : handles)
        out.push_back(std::static_pointer_cast<const Node>(h));
    return out;
}

} // namespace rake::backend

#endif // RAKE_BACKEND_INSTR_HANDLE_H
