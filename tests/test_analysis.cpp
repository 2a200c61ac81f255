// Static qualifier tests: known verdicts for the library algorithms, and
// the load-bearing cross-validation — the exhaustive canonical-array
// verdicts must agree with the sampled fault-simulation campaign:
//   Guaranteed  <=>  campaign ratio == 1.0
//   None         =>  campaign ratio == 0.0
//   Partial      =>  0 < ratio < 1

#include <gtest/gtest.h>

#include "march/analysis.h"
#include "march/library.h"

namespace {

using namespace pmbist;
using march::Detection;
using memsim::FaultClass;

TEST(Analysis, MarchCVerdicts) {
  const auto v = march::analyze_all(march::march_c());
  EXPECT_EQ(v.at(FaultClass::SAF), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::TF), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::AF), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::CFin), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::CFid), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::CFst), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::RDF), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::IRF), Detection::Guaranteed);
  EXPECT_EQ(v.at(FaultClass::DRF), Detection::None);
  EXPECT_EQ(v.at(FaultClass::DRDF), Detection::None);
  EXPECT_EQ(v.at(FaultClass::WDF), Detection::Partial);
}

TEST(Analysis, EnhancementChangesVerdicts) {
  EXPECT_EQ(march::analyze(march::march_c_plus(), FaultClass::DRF),
            Detection::Guaranteed);
  EXPECT_EQ(march::analyze(march::march_c_plus(), FaultClass::DRDF),
            Detection::None);
  EXPECT_EQ(march::analyze(march::march_c_plus_plus(), FaultClass::DRDF),
            Detection::Guaranteed);
  EXPECT_EQ(march::analyze(march::march_ss(), FaultClass::WDF),
            Detection::Guaranteed);
}

TEST(Analysis, CheapAlgorithmsArePartialWhereExpected) {
  EXPECT_EQ(march::analyze(march::mats(), FaultClass::TF),
            Detection::Partial);
  EXPECT_EQ(march::analyze(march::mats_plus(), FaultClass::TF),
            Detection::Partial);
  EXPECT_EQ(march::analyze(march::march_x(), FaultClass::TF),
            Detection::Guaranteed);
  EXPECT_EQ(march::analyze(march::mats(), FaultClass::SAF),
            Detection::Guaranteed);
}

TEST(Analysis, SofNeedsReadWriteReadElements) {
  EXPECT_NE(march::analyze(march::march_c(), FaultClass::SOF),
            Detection::Guaranteed);
  EXPECT_EQ(march::analyze(march::march_y(), FaultClass::SOF),
            Detection::Guaranteed);
  EXPECT_EQ(march::analyze(march::march_g(), FaultClass::SOF),
            Detection::Guaranteed);
}

TEST(Analysis, TableFormat) {
  const std::vector<march::MarchAlgorithm> algs{march::march_c()};
  const std::vector<FaultClass> classes{FaultClass::SAF, FaultClass::DRF};
  const auto table = march::format_analysis_table(algs, classes);
  EXPECT_NE(table.find("March C"), std::string::npos);
  EXPECT_NE(table.find('G'), std::string::npos);
  EXPECT_NE(table.find('-'), std::string::npos);
}

// The cross-validation sweep: static verdicts vs the sampled campaign for
// every (library algorithm, fault class) pair.
struct CrossCase {
  const char* alg;
};

// gtest would print the struct's bytes (a pointer) into the listed test
// name, which then changes from build to build.
void PrintTo(const CrossCase& c, std::ostream* os) { *os << c.alg; }

class AnalysisCrossValidation : public ::testing::TestWithParam<CrossCase> {};

TEST_P(AnalysisCrossValidation, VerdictsMatchFaultSimulation) {
  const auto alg = march::by_name(GetParam().alg);
  const memsim::MemoryGeometry geom{.address_bits = 5, .word_bits = 1,
                                    .num_ports = 1};
  const march::CoverageOptions opts{.seed = 77,
                                    .max_instances_per_class = 64};
  for (FaultClass cls : memsim::all_fault_classes()) {
    const Detection verdict = march::analyze(alg, cls);
    const double ratio =
        march::evaluate_coverage(alg, cls, geom, opts).ratio();
    switch (verdict) {
      case Detection::Guaranteed:
        EXPECT_DOUBLE_EQ(ratio, 1.0)
            << alg.name() << " / " << memsim::fault_class_name(cls);
        break;
      case Detection::None:
        EXPECT_DOUBLE_EQ(ratio, 0.0)
            << alg.name() << " / " << memsim::fault_class_name(cls);
        break;
      case Detection::Partial:
        EXPECT_GT(ratio, 0.0)
            << alg.name() << " / " << memsim::fault_class_name(cls);
        EXPECT_LT(ratio, 1.0)
            << alg.name() << " / " << memsim::fault_class_name(cls);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Library, AnalysisCrossValidation,
    ::testing::Values(CrossCase{"MATS"}, CrossCase{"MATS+"},
                      CrossCase{"MATS++"}, CrossCase{"March X"},
                      CrossCase{"March Y"}, CrossCase{"March C"},
                      CrossCase{"March C (orig)"}, CrossCase{"March U"},
                      CrossCase{"March LR"}, CrossCase{"March C+"},
                      CrossCase{"March C++"}, CrossCase{"March A"},
                      CrossCase{"March B"}, CrossCase{"March A+"},
                      CrossCase{"March A++"}, CrossCase{"March SS"},
                      CrossCase{"March G"}),
    [](const auto& info) {
      std::string name = info.param.alg;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
