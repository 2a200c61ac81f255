#pragma once
// JSON mirror of the chip-file format (docs/SOC.md, "JSON mirror"):
// the same SocDescription + TestPlan payload as the line-oriented text
// format, expressed as one JSON object so machine producers (and the
// serve protocol, which embeds chip payloads in requests) don't have to
// emit the text grammar.  Shape:
//
//   {
//     "soc": "name",
//     "power_budget": 6.0,                      // omitted when 0
//     "memories": [
//       {"name": "m", "addr_bits": 4, "word_bits": 8, "ports": 1,
//        "seed": 1, "row_bits": 2, "scramble": 7,
//        "spare_rows": 1, "spare_cols": 1,
//        "faults": [{"kind": "SAF", "cell": "0:0", "value": 1}, ...]}
//     ],
//     "assignments": [
//       {"memory": "m", "algorithm": "March C-", "controller": "ucode",
//        "group": "g0", "weight": 9.5}
//     ]
//   }
//
// Optional memory fields default exactly as their text-format keys do;
// fault objects carry the text format's kind tag and key=value arguments
// verbatim (numbers or strings both accepted for scalar arguments), so
// the two formats stay in lock-step through the shared fault codec
// (fault_codec.h).  `pmbist soc`/`field`/`lint` and the serve layer accept
// either format; parse_chip sniffs a leading '{'.

#include <string>

#include "soc/chip.h"

namespace pmbist::soc {

/// Parses the JSON mirror into the same validated ChipFile as
/// parse_chip_text.  Throws ChipError on malformed JSON, unknown fields
/// and every semantic error the text parser reports.
[[nodiscard]] ChipFile parse_chip_json(const std::string& text,
                                       const ChipParseOptions& options = {});

/// Serializes a chip + plan as the JSON mirror (pretty-printed, stable
/// field order); parse_chip_json(serialize_chip_json(c, p)) round-trips to
/// an equal ChipFile.  Throws SocError for faults the format cannot
/// express (NPSF).
[[nodiscard]] std::string serialize_chip_json(const SocDescription& chip,
                                              const TestPlan& plan);

}  // namespace pmbist::soc
