/**
 * @file
 * Executable code buffer with a W^X lifecycle.
 *
 * Code is assembled into ordinary heap memory, then sealed into a
 * page-aligned mmap region: the buffer is writable (and never
 * executable) while code is being copied in, and executable (and
 * never writable) afterwards — the two permissions are never held at
 * the same time. There is no relocation step: the lowerer emits
 * position-independent code (its only branches are rel32-relative),
 * so sealing is a copy plus an mprotect.
 */
#ifndef RAKE_JIT_EXEC_BUFFER_H
#define RAKE_JIT_EXEC_BUFFER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rake::jit {

class ExecBuffer
{
  public:
    ExecBuffer() = default;
    ~ExecBuffer();

    ExecBuffer(const ExecBuffer &) = delete;
    ExecBuffer &operator=(const ExecBuffer &) = delete;
    ExecBuffer(ExecBuffer &&other) noexcept;
    ExecBuffer &operator=(ExecBuffer &&other) noexcept;

    /**
     * Map fresh RW pages, copy `code` in, and flip the whole region
     * to RX. Throws UserError when the host refuses (no mmap, W^X
     * policy denying PROT_EXEC, empty code).
     */
    void seal(const std::vector<uint8_t> &code);

    /** Entry point of the sealed code; null before seal(). */
    const void *entry() const { return base_; }

    size_t size() const { return size_; }

  private:
    void release();

    void *base_ = nullptr;
    size_t size_ = 0;
};

} // namespace rake::jit

#endif // RAKE_JIT_EXEC_BUFFER_H
