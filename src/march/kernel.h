#pragma once
// Campaign kernel selection.
//
// The campaign engine has two interchangeable inner loops:
//
//   Scalar  one FaultyMemory per fault instance, replayed serially per
//           instance — the reference implementation every other path is
//           pinned against.
//   Packed  the PPSFP bit-parallel kernel (memsim/packed_memory.h): up to
//           64 fault instances per PackedFaultyMemory, one bit-lane each,
//           stepped simultaneously through the ops their faults can see
//           (docs/KERNEL.md, "Sparse projection").  Bit-identical to
//           Scalar by contract (same verdicts, same detecting-op
//           positions) and orders of magnitude faster.
//
// Selection is orthogonal to the worker count (--jobs): either kernel runs
// under any jobs value and produces byte-identical records.  The choice is
// always carried explicitly (CampaignConfig::kernel, CoverageOptions::
// kernel, the CLI's --kernel flag) — there is no process-wide default, so
// concurrent callers cannot affect each other; Auto simply resolves to
// Packed.  docs/KERNEL.md documents the lane encoding and the equivalence
// contract.

#include <optional>
#include <string_view>

namespace pmbist::march {

enum class CampaignKernel : std::uint8_t {
  Auto,    ///< resolves to Packed (the fast path)
  Scalar,  ///< one memory per fault instance (reference path)
  Packed,  ///< 64 fault instances per lane-packed memory (PPSFP)
};

/// Display name: "auto", "scalar" or "packed".
[[nodiscard]] std::string_view kernel_name(CampaignKernel kernel);

/// Parses "scalar" / "packed" / "auto"; nullopt on anything else.
[[nodiscard]] std::optional<CampaignKernel> parse_kernel(
    std::string_view name);

/// Resolves Auto to Packed; never returns Auto.
[[nodiscard]] CampaignKernel resolve_kernel(CampaignKernel kernel);

}  // namespace pmbist::march
