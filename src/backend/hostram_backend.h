#pragma once
// HostRamBackend: march streams against real host memory.
//
// A memsim::Memory whose backing store is a large mmap'd anonymous buffer
// — one 64-bit host word per memory cell, zero-filled by the kernel.
// Reads mask to the geometry's word width; writes store the masked value,
// so it honors the same access contract as the simulator (and produces
// the same values the march expansion expects).  Pause phases advance no
// state: nothing decays.
//
// Huge pages are a request, not a requirement: when
// HostRamOptions::request_huge_pages is set the backend first tries
// MAP_HUGETLB and, if the kernel refuses (no hugetlb pool configured),
// falls back to a normal mapping plus madvise(MADV_HUGEPAGE) so
// transparent huge pages can still coalesce it.  huge_pages() reports
// what actually happened.

#include <cstddef>
#include <span>

#include "backend/backend.h"

namespace pmbist::backend {

struct HostRamOptions {
  /// Try MAP_HUGETLB first; fall back gracefully when unavailable.
  bool request_huge_pages = false;
};

class HostRamBackend final : public memsim::Memory {
 public:
  /// Maps geometry.num_words() host words.  Throws BackendError when the
  /// geometry needs more than one port (host RAM has no port semantics to
  /// model) or the mapping fails outright.
  explicit HostRamBackend(MemoryGeometry geometry, HostRamOptions options = {});
  ~HostRamBackend() override;

  [[nodiscard]] Word read(int port, Address addr) override;
  void write(int port, Address addr, Word data) override;

  /// The mapped storage, one word per cell — the memtest engine's
  /// compare-only sweeps run over it directly.
  [[nodiscard]] std::span<Word> words() {
    return {words_, geometry().num_words()};
  }
  /// Whether the mapping actually uses huge pages.
  [[nodiscard]] bool huge_pages() const { return huge_pages_; }

 private:
  Word* words_ = nullptr;
  std::size_t mapped_bytes_ = 0;
  bool huge_pages_ = false;
};

}  // namespace pmbist::backend
