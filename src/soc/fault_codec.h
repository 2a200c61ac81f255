#pragma once
// Internal fault <-> key=value codec shared by the two chip-file front
// ends (chip.cpp for the line-oriented text format, chip_json.cpp for the
// JSON mirror).  Both formats describe a fault as a kind tag plus named
// arguments; keeping the codec in one place guarantees they accept and
// emit exactly the same fault vocabulary (docs/SOC.md).

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "memsim/fault_model.h"
#include "soc/description.h"

namespace pmbist::soc::detail {

/// Ordered key=value arguments of one serialized fault.
using FaultKv = std::vector<std::pair<std::string, std::string>>;

/// Parses one fault from its kind tag and argument map against a memory's
/// geometry, through the same key=value reader as the text format
/// (common/directives.h).  `where` prefixes every error message (e.g.
/// "chip json memories[0].faults[2]").  Throws ChipError on unknown kinds,
/// missing, unknown or ill-typed arguments and out-of-geometry references.
[[nodiscard]] memsim::Fault parse_fault_kv(
    const std::string& kind, const std::map<std::string, std::string>& kv,
    const memsim::MemoryGeometry& geometry, const std::string& where);

/// Serializes a fault as its kind tag plus ordered arguments; the exact
/// inverse of parse_fault_kv.  Throws SocError for faults neither format
/// can express (NPSF).
[[nodiscard]] std::pair<std::string, FaultKv> fault_kv(
    const memsim::Fault& fault);

/// "addr:bit" cell reference text.
[[nodiscard]] std::string cell_text(const memsim::BitRef& cell);

}  // namespace pmbist::soc::detail
