#include "lint/equiv.h"

#include <algorithm>
#include <sstream>

#include "march/expand.h"

namespace pmbist::lint {
namespace {

using march::MarchAlgorithm;
using march::MemOp;

std::string fmt_op(const MemOp& op) {
  std::ostringstream os;
  switch (op.kind) {
    case MemOp::Kind::Write:
      os << "w @" << op.addr << " d=" << op.data;
      break;
    case MemOp::Kind::Read:
      os << "r @" << op.addr << " expect=" << op.data;
      break;
    case MemOp::Kind::Pause:
      os << "pause " << op.pause_ns() << "ns";
      break;
  }
  if (op.port != 0) os << " p" << op.port;
  return os.str();
}

/// Probe geometries for stream comparison: the qualifier's canonical
/// 4-word bit array plus a word-oriented multiport shape, so both the
/// address-order structure and the background/port loops are exercised.
constexpr memsim::MemoryGeometry kProbeA{.address_bits = 2, .word_bits = 1,
                                         .num_ports = 1};
constexpr memsim::MemoryGeometry kProbeB{.address_bits = 3, .word_bits = 2,
                                         .num_ports = 2};

/// Counterexample around the first divergence of the two probe streams.
std::vector<std::string> divergence_trace(const march::OpStream& want,
                                          const march::OpStream& got) {
  std::vector<std::string> trace;
  std::size_t k = 0;
  while (k < want.size() && k < got.size() && want[k] == got[k]) ++k;
  const std::size_t from = k >= 2 ? k - 2 : 0;
  for (std::size_t i = from; i < k; ++i)
    trace.push_back("op " + std::to_string(i) + ": both apply " +
                    fmt_op(want[i]));
  if (k < want.size() && k < got.size()) {
    trace.push_back("op " + std::to_string(k) + ": algorithm applies " +
                    fmt_op(want[k]) + ", image applies " + fmt_op(got[k]));
  } else if (k < want.size()) {
    trace.push_back("op " + std::to_string(k) +
                    ": image stream ends, algorithm continues with " +
                    fmt_op(want[k]));
  } else if (k < got.size()) {
    trace.push_back("op " + std::to_string(k) +
                    ": algorithm stream ends, image continues with " +
                    fmt_op(got[k]));
  }
  return trace;
}

}  // namespace

std::string_view to_string(EquivKind k) {
  switch (k) {
    case EquivKind::Equivalent: return "equivalent";
    case EquivKind::Mismatch: return "mismatch";
    case EquivKind::Unliftable: return "unliftable";
  }
  return "?";
}

MarchAlgorithm canonicalize(const MarchAlgorithm& alg) {
  std::vector<march::MarchElement> elements = alg.elements();
  for (auto& e : elements)
    if (!e.is_pause && e.order == march::AddressOrder::Any)
      e.order = march::AddressOrder::Up;
  return MarchAlgorithm{alg.name(), std::move(elements)};
}

EquivResult check_equivalence(const LiftResult& lifted,
                              const MarchAlgorithm& source) {
  EquivResult result;
  if (!lifted.ok) {
    result.kind = EquivKind::Unliftable;
    result.detail = lifted.why;
    result.index = lifted.index;
    result.code = lifted.code;
    result.trace = lifted.trace;
    return result;
  }

  const MarchAlgorithm canon_source = canonicalize(source);
  const MarchAlgorithm& canon_image = lifted.algorithm;  // always concrete

  if (canon_source.elements() == canon_image.elements()) {
    result.kind = EquivKind::Equivalent;
    result.detail = "image realizes '" + source.name() + "' (" +
                    std::to_string(canon_source.elements().size()) +
                    " elements, canonical lists equal)";
    return result;
  }

  // The element lists differ; the expanded streams decide.  Equal streams
  // on both probes mean the images apply the same ops — the algorithms
  // only split them into elements differently.
  for (const auto& probe : {kProbeA, kProbeB}) {
    const auto want = march::expand(canon_source, probe);
    const auto got = march::expand(canon_image, probe);
    if (want == got) continue;
    result.kind = EquivKind::Mismatch;
    result.trace = divergence_trace(want, got);
    std::size_t k = 0;
    while (k < want.size() && k < got.size() && want[k] == got[k]) ++k;
    result.detail =
        "image does not realize '" + source.name() + "': lifted " +
        std::to_string(canon_image.march_element_count()) +
        " march elements, eq. check diverges at op " + std::to_string(k) +
        " of the expanded stream";
    return result;
  }
  result.kind = EquivKind::Equivalent;
  result.detail = "image realizes '" + source.name() +
                  "' (element split differs; expanded op streams are "
                  "identical)";
  return result;
}

}  // namespace pmbist::lint
