#pragma once
// Memory-under-test backend selection.
//
// Every engine in this repo drives a memory through memsim::Memory — the
// per-port read/write verbs a BIST datapath needs, plus a time-advance
// hook for data-retention phases.  A backend is a choice of what stores
// the bits behind that one interface:
//
//   Sim      the behavioral simulator (memsim::SramModel / FaultyMemory);
//   HostRam  HostRamBackend (hostram_backend.h), a large mmap'd anonymous
//            buffer in host RAM — the software-memtest substrate
//            (backend/memtest.h).
//
// docs/BACKEND.md documents the contract.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "memsim/memory.h"

namespace pmbist::backend {

using memsim::Address;
using memsim::MemoryGeometry;
using memsim::Word;

/// Raised for backend construction/usage errors (bad geometry, size
/// bounds, fault injection on a non-behavioral backend).
class BackendError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which backend implementation a CLI/serve request selects.
enum class BackendKind : std::uint8_t {
  Sim,      ///< behavioral simulator (fault injection, retention modeling)
  HostRam,  ///< mmap'd anonymous host-RAM buffer (real memory, real speed)
};

[[nodiscard]] std::string_view to_string(BackendKind kind);
/// Parses "sim" / "hostram"; nullopt otherwise.
[[nodiscard]] std::optional<BackendKind> parse_backend(std::string_view name);

}  // namespace pmbist::backend
