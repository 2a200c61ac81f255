#pragma once
// Library of standard march test algorithms (van de Goor) plus the paper's
// enhanced derivatives:
//
//   March C+ / A+  : base algorithm + two "Hold" (pause) components that
//                    detect data-retention faults (paper, Sec. 3).
//   March C++ / A++: each read replaced by three reads, to excite and
//                    detect disconnected pull-up/pull-down devices
//                    (modeled as deceptive read-destructive faults).
//
// march_c() follows the paper's Eq. 1 (the six-element form, i.e. what the
// broader literature calls March C-); march_c_orig() is Marinescu's
// original seven-element March C with the mid-test read pass.

#include "march/march.h"

namespace pmbist::march {

/// Default pause used by retention variants (simulated nanoseconds).
inline constexpr std::uint64_t kDefaultPauseNs = 100'000'000;

[[nodiscard]] MarchAlgorithm mats();            //  4n
[[nodiscard]] MarchAlgorithm mats_plus();       //  5n
[[nodiscard]] MarchAlgorithm mats_plus_plus();  //  6n
[[nodiscard]] MarchAlgorithm march_x();         //  6n
[[nodiscard]] MarchAlgorithm march_y();         //  8n
[[nodiscard]] MarchAlgorithm march_c();         // 10n (paper Eq. 1)
[[nodiscard]] MarchAlgorithm march_c_orig();    // 11n (Marinescu)
[[nodiscard]] MarchAlgorithm march_u();         // 13n (van de Goor)
[[nodiscard]] MarchAlgorithm march_lr();        // 14n (linked faults)
[[nodiscard]] MarchAlgorithm march_a();         // 15n
[[nodiscard]] MarchAlgorithm march_b();         // 17n
[[nodiscard]] MarchAlgorithm march_ss();        // 22n (simple static faults)
[[nodiscard]] MarchAlgorithm march_g();         // 23n + pauses

[[nodiscard]] MarchAlgorithm march_c_plus();        // C + retention tail
[[nodiscard]] MarchAlgorithm march_c_plus_plus();   // C+ with triple reads
[[nodiscard]] MarchAlgorithm march_a_plus();        // A + retention tail
[[nodiscard]] MarchAlgorithm march_a_plus_plus();   // A+ with triple reads

/// Looks an algorithm up by name ("March C", "March A++", "MATS+", ...).
/// Throws std::out_of_range for unknown names.
[[nodiscard]] MarchAlgorithm by_name(std::string_view name);

/// Resolves a library algorithm name ("March C+") or an inline DSL string
/// (named `name`).  Throws march::ParseError when neither works.
[[nodiscard]] MarchAlgorithm resolve_algorithm(std::string_view text,
                                               std::string name = "custom");

/// All library algorithms, in complexity order.
[[nodiscard]] std::vector<MarchAlgorithm> all_algorithms();

/// The six algorithms of the paper's Tables 1-2, in table row order:
/// March C, C+, C++, A, A+, A++.
[[nodiscard]] std::vector<MarchAlgorithm> paper_table_algorithms();

}  // namespace pmbist::march
