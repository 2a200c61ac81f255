#include "soc/plan.h"

#include "bist/datapath.h"
#include "march/library.h"
#include "mbist_pfsm/compiler.h"
#include "netlist/tech_library.h"

namespace pmbist::soc {

std::string_view to_string(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::Ucode: return "ucode";
    case ControllerKind::Pfsm: return "pfsm";
    case ControllerKind::Hardwired: return "hardwired";
  }
  return "?";
}

ControllerKind controller_kind_by_name(std::string_view name) {
  if (name == "ucode") return ControllerKind::Ucode;
  if (name == "pfsm") return ControllerKind::Pfsm;
  if (name == "hardwired") return ControllerKind::Hardwired;
  throw SocError{"unknown controller kind '" + std::string{name} +
                 "' (expected ucode|pfsm|hardwired)"};
}

TestPlan& TestPlan::assign(TestAssignment assignment) {
  for (const auto& a : assignments_)
    if (a.memory == assignment.memory)
      throw SocError{"memory '" + assignment.memory +
                     "' already has an assignment"};
  assignments_.push_back(std::move(assignment));
  return *this;
}

double PowerModel::calibrated_weight(const memsim::MemoryGeometry& g) {
  // Reference point: the bit-oriented 1K geometry, whose heuristic weight
  // is 11 (10 address bits + 1 data bit).  Calibration scales that anchor
  // by the gate-equivalent ratio of the full BIST datapath (with the
  // retention pause timer, the configuration the area tables report), so
  // both models agree at the reference and diverge with real logic area.
  static const double reference_ge =
      bist::datapath_inventory(memsim::MemoryGeometry{}, true)
          .total_ge(netlist::TechLibrary::cmos5s());
  const double ge = bist::datapath_inventory(g, true).total_ge(
      netlist::TechLibrary::cmos5s());
  return default_weight(memsim::MemoryGeometry{}) * ge / reference_ge;
}

double TestPlan::effective_weight(const TestAssignment& a,
                                  const MemoryInstance& m) const {
  return a.power_weight > 0.0 ? a.power_weight : power_.weight(m.geometry);
}

void TestPlan::validate(const SocDescription& chip) const {
  if (power_.budget < 0.0) throw SocError{"power budget must be >= 0"};
  for (const auto& a : assignments_) {
    const auto context = "assignment '" + a.memory + "': ";
    const auto* mem = chip.find(a.memory);
    if (mem == nullptr)
      throw SocError{context + "no such memory in chip '" + chip.name() +
                     "'"};
    march::MarchAlgorithm alg;
    try {
      alg = march::resolve_algorithm(a.algorithm);
    } catch (const std::exception& e) {
      throw SocError{context + "cannot resolve algorithm: " + e.what()};
    }
    if (const auto why = alg.validate(); !why.empty())
      throw SocError{context + "invalid algorithm: " + why};
    if (a.controller == ControllerKind::Pfsm) {
      std::string why;
      if (!mbist_pfsm::is_mappable(alg, &why))
        throw SocError{context + "not pFSM-mappable: " + why};
    }
    if (a.controller == ControllerKind::Hardwired && !a.share_group.empty())
      throw SocError{context +
                     "a hardwired controller cannot join share group '" +
                     a.share_group + "' (it runs one fixed algorithm)"};
    if (a.power_weight < 0.0)
      throw SocError{context + "power weight must be >= 0"};
    const double w = effective_weight(a, *mem);
    if (power_.budget > 0.0 && w > power_.budget)
      throw SocError{context + "toggle weight " + std::to_string(w) +
                     " alone exceeds the chip budget " +
                     std::to_string(power_.budget)};
  }
}

TestPlan demo_plan() {
  const auto task = [](std::string memory, std::string algorithm,
                       ControllerKind controller, std::string group = {},
                       double weight = 0.0) {
    TestAssignment a;
    a.memory = std::move(memory);
    a.algorithm = std::move(algorithm);
    a.controller = controller;
    a.share_group = std::move(group);
    a.power_weight = weight;
    return a;
  };
  TestPlan plan;
  plan.set_power_budget(48.0);
  plan.assign(task("cpu_l1i", "March C", ControllerKind::Ucode, "cpu_ctrl"));
  plan.assign(task("cpu_l1d", "March C+", ControllerKind::Ucode, "cpu_ctrl"));
  plan.assign(task("cpu_l2", "March C", ControllerKind::Ucode));
  plan.assign(task("dsp_x", "March X", ControllerKind::Pfsm, "dsp_ctrl"));
  plan.assign(task("dsp_y", "March Y", ControllerKind::Pfsm, "dsp_ctrl"));
  plan.assign(task("gpu_tile", "MATS+", ControllerKind::Pfsm));
  plan.assign(task("nic_fifo", "March C", ControllerKind::Hardwired));
  plan.assign(task("rom_patch", "March C", ControllerKind::Ucode, {}, 4.0));
  plan.assign(task("sensor_buf", "MATS+", ControllerKind::Hardwired, {}, 2.0));
  return plan;
}

}  // namespace pmbist::soc
