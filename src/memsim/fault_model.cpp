#include "memsim/fault_model.h"

#include <sstream>

namespace pmbist::memsim {
namespace {

struct ClassVisitor {
  FaultClass operator()(const StuckAtFault&) const { return FaultClass::SAF; }
  FaultClass operator()(const TransitionFault&) const { return FaultClass::TF; }
  FaultClass operator()(const InversionCouplingFault&) const {
    return FaultClass::CFin;
  }
  FaultClass operator()(const IdempotentCouplingFault&) const {
    return FaultClass::CFid;
  }
  FaultClass operator()(const StateCouplingFault&) const {
    return FaultClass::CFst;
  }
  FaultClass operator()(const AddressDecoderFault&) const {
    return FaultClass::AF;
  }
  FaultClass operator()(const StuckOpenFault&) const { return FaultClass::SOF; }
  FaultClass operator()(const DataRetentionFault&) const {
    return FaultClass::DRF;
  }
  FaultClass operator()(const IncorrectReadFault&) const {
    return FaultClass::IRF;
  }
  FaultClass operator()(const WriteDisturbFault&) const {
    return FaultClass::WDF;
  }
  FaultClass operator()(const ReadDestructiveFault& f) const {
    return f.deceptive ? FaultClass::DRDF : FaultClass::RDF;
  }
  FaultClass operator()(const NeighborhoodPatternFault&) const {
    return FaultClass::NPSF;
  }
  FaultClass operator()(const PortReadFault&) const { return FaultClass::PF; }
};

std::ostream& operator<<(std::ostream& os, const BitRef& b) {
  return os << "[" << b.addr << "." << b.bit << "]";
}

}  // namespace

FaultClass fault_class(const Fault& f) { return std::visit(ClassVisitor{}, f); }

std::string_view fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::SAF: return "SAF";
    case FaultClass::TF: return "TF";
    case FaultClass::CFin: return "CFin";
    case FaultClass::CFid: return "CFid";
    case FaultClass::CFst: return "CFst";
    case FaultClass::AF: return "AF";
    case FaultClass::SOF: return "SOF";
    case FaultClass::DRF: return "DRF";
    case FaultClass::IRF: return "IRF";
    case FaultClass::WDF: return "WDF";
    case FaultClass::RDF: return "RDF";
    case FaultClass::DRDF: return "DRDF";
    case FaultClass::NPSF: return "NPSF";
    case FaultClass::PF: return "PF";
    case FaultClass::LF: return "LF";
  }
  return "?";
}

const std::vector<FaultClass>& all_fault_classes() {
  static const std::vector<FaultClass> kAll{
      FaultClass::SAF, FaultClass::TF,   FaultClass::CFin, FaultClass::CFid,
      FaultClass::CFst, FaultClass::AF,  FaultClass::SOF,  FaultClass::DRF,
      FaultClass::IRF, FaultClass::WDF, FaultClass::RDF,  FaultClass::DRDF};
  return kAll;
}

std::optional<FaultClass> parse_fault_class(std::string_view name) {
  for (const FaultClass cls : all_fault_classes())
    if (fault_class_name(cls) == name) return cls;
  return std::nullopt;
}

std::string describe(const Fault& f) {
  std::ostringstream os;
  os << fault_class_name(fault_class(f)) << " ";
  std::visit(
      [&os](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, StuckAtFault>) {
          os << v.cell << " stuck-at-" << (v.value ? 1 : 0);
        } else if constexpr (std::is_same_v<T, TransitionFault>) {
          os << v.cell << (v.rising ? " 0->1 blocked" : " 1->0 blocked");
        } else if constexpr (std::is_same_v<T, InversionCouplingFault>) {
          os << "agg" << v.aggressor << (v.on_rising ? " rise" : " fall")
             << " inverts victim" << v.victim;
        } else if constexpr (std::is_same_v<T, IdempotentCouplingFault>) {
          os << "agg" << v.aggressor << (v.on_rising ? " rise" : " fall")
             << " forces victim" << v.victim << "=" << (v.forced_value ? 1 : 0);
        } else if constexpr (std::is_same_v<T, StateCouplingFault>) {
          os << "agg" << v.aggressor << "==" << (v.aggressor_state ? 1 : 0)
             << " forces victim" << v.victim << "=" << (v.forced_value ? 1 : 0);
        } else if constexpr (std::is_same_v<T, AddressDecoderFault>) {
          os << "addr " << v.logical << " -> {";
          for (std::size_t i = 0; i < v.physical.size(); ++i)
            os << (i ? "," : "") << v.physical[i];
          os << "}";
        } else if constexpr (std::is_same_v<T, StuckOpenFault>) {
          os << v.cell << " open";
        } else if constexpr (std::is_same_v<T, DataRetentionFault>) {
          os << v.cell << " leaks to " << (v.leak_to ? 1 : 0) << " after "
             << v.hold_time_ns << "ns";
        } else if constexpr (std::is_same_v<T, IncorrectReadFault>) {
          os << v.cell << " reads inverted";
        } else if constexpr (std::is_same_v<T, WriteDisturbFault>) {
          os << v.cell << " flips on non-transition writes";
        } else if constexpr (std::is_same_v<T, ReadDestructiveFault>) {
          os << v.cell << (v.deceptive ? " deceptive" : "")
             << " read-destructive";
        } else if constexpr (std::is_same_v<T, NeighborhoodPatternFault>) {
          os << "base" << v.base << " forced " << (v.forced_value ? 1 : 0)
             << " by pattern 0x" << std::hex << v.pattern << std::dec
             << " on {";
          for (std::size_t i = 0; i < v.neighbors.size(); ++i)
            os << (i ? "," : "") << v.neighbors[i];
          os << "}";
        } else if constexpr (std::is_same_v<T, PortReadFault>) {
          os << "port " << v.port << " reads bit " << v.bit << " inverted";
        }
      },
      f);
  return os.str();
}

}  // namespace pmbist::memsim
