// Randomized property tests ("fuzzing" with deterministic seeds): random
// valid march algorithms are generated and pushed through the full stack —
// assembler/compiler, cycle-accurate controllers, reference expansion,
// transparent transform — asserting the invariants that hold for *every*
// algorithm, not just the library ones.

#include <gtest/gtest.h>

#include <random>

#include "bist/session.h"
#include "diag/transparent.h"
#include "march/campaign.h"
#include "lint/cfg.h"
#include "lint/driver.h"
#include "lint/equiv.h"
#include "lint/fix.h"
#include "lint/lifter.h"
#include "lint/march_lint.h"
#include "lint/program_lint.h"
#include "march/library.h"
#include "mbist_hardwired/controller.h"
#include "mbist_pfsm/controller.h"
#include "mbist_ucode/assembler.h"
#include "mbist_ucode/controller.h"

namespace {

using namespace pmbist;
using memsim::MemoryGeometry;

march::MarchAlgorithm random_algorithm(std::mt19937& rng,
                                       bool allow_pauses) {
  std::uniform_int_distribution<int> num_elements(1, 7);
  std::uniform_int_distribution<int> num_ops(1, 5);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> order_pick(0, 2);

  std::vector<march::MarchElement> elements;
  // A valid algorithm starts with a write sweep (power-up is undefined).
  elements.push_back(march::any({coin(rng) ? march::w1() : march::w0()}));

  const int extra = num_elements(rng);
  // March-style state tracking so reads expect the right value: after each
  // element all cells hold the element's last written value.
  bool cell_state = elements[0].ops[0].data;
  for (int e = 0; e < extra; ++e) {
    if (allow_pauses && coin(rng) == 0 && !elements.back().is_pause) {
      elements.push_back(march::MarchElement::pause(1'000'000));
      continue;
    }
    march::MarchElement el;
    const int order = order_pick(rng);
    el.order = order == 0 ? march::AddressOrder::Up
               : order == 1 ? march::AddressOrder::Down
                            : march::AddressOrder::Any;
    const int n = num_ops(rng);
    bool value = cell_state;
    for (int j = 0; j < n; ++j) {
      if (coin(rng)) {
        el.ops.push_back(
            march::MarchOp{march::MarchOp::Kind::Read, value});
      } else {
        value = coin(rng);
        el.ops.push_back(
            march::MarchOp{march::MarchOp::Kind::Write, value});
      }
    }
    cell_state = value;
    elements.push_back(std::move(el));
  }
  return march::MarchAlgorithm{"fuzz", std::move(elements)};
}

MemoryGeometry random_geometry(std::mt19937& rng) {
  std::uniform_int_distribution<int> addr(2, 4);
  std::uniform_int_distribution<int> word_pick(0, 2);
  std::uniform_int_distribution<int> ports(1, 2);
  const int words[] = {1, 2, 4};
  return MemoryGeometry{.address_bits = addr(rng),
                        .word_bits = words[word_pick(rng)],
                        .num_ports = ports(rng)};
}

class FuzzEquivalence : public ::testing::TestWithParam<int> {};

// Property: for any valid algorithm and geometry, the microcode and
// hardwired controllers replay the reference expansion exactly, the folded
// and flat microcode encodings agree, and a fault-free run passes.
TEST_P(FuzzEquivalence, MicrocodeAndHardwiredMatchExpansion) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const auto alg = random_algorithm(rng, /*allow_pauses=*/true);
  ASSERT_TRUE(alg.validate().empty()) << alg.to_string();
  const auto geometry = random_geometry(rng);
  const auto expected = march::expand(alg, geometry);

  mbist_ucode::MicrocodeController ucode{
      {.geometry = geometry, .storage_depth = 64}};
  ucode.load_algorithm(alg);
  EXPECT_EQ(bist::collect_ops(ucode, 100'000'000), expected)
      << alg.to_string();

  mbist_ucode::MicrocodeController flat{
      {.geometry = geometry, .storage_depth = 64}};
  flat.load_algorithm(alg, {.symmetric_encoding = false});
  EXPECT_EQ(bist::collect_ops(flat, 100'000'000), expected)
      << alg.to_string();

  mbist_hardwired::HardwiredController hw{alg, {.geometry = geometry}};
  EXPECT_EQ(bist::collect_ops(hw, 100'000'000), expected) << alg.to_string();

  memsim::SramModel mem{geometry, static_cast<std::uint64_t>(GetParam())};
  EXPECT_TRUE(bist::run_session(ucode, mem).passed()) << alg.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence, ::testing::Range(1, 49));

class FuzzPfsm : public ::testing::TestWithParam<int> {};

// Property: any algorithm composed from SM components is mappable and the
// two-level controller replays it exactly.
TEST_P(FuzzPfsm, ComponentComposedAlgorithmsMap) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u);
  std::uniform_int_distribution<int> num_elements(1, 6);
  std::uniform_int_distribution<int> comp_pick(0, 7);
  std::uniform_int_distribution<int> coin(0, 1);

  std::vector<march::MarchElement> elements;
  elements.push_back(march::any({coin(rng) ? march::w1() : march::w0()}));
  const int n = num_elements(rng);
  for (int i = 0; i < n; ++i) {
    march::MarchElement el;
    el.order = coin(rng) ? march::AddressOrder::Up
                         : march::AddressOrder::Down;
    el.ops = mbist_pfsm::realize(comp_pick(rng), coin(rng));
    elements.push_back(std::move(el));
  }
  // Reads in random component compositions may expect values the cells do
  // not hold — that is fine for stream equivalence (we do not run against
  // a memory here).
  const march::MarchAlgorithm alg{"fuzz-sm", std::move(elements)};
  ASSERT_TRUE(mbist_pfsm::is_mappable(alg)) << alg.to_string();

  const auto geometry = random_geometry(rng);
  mbist_pfsm::PfsmController pfsm{
      {.geometry = geometry, .buffer_depth = 16}};
  pfsm.load_algorithm(alg);
  EXPECT_EQ(bist::collect_ops(pfsm, 100'000'000),
            march::expand(alg, geometry))
      << alg.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPfsm, ::testing::Range(1, 25));

class FuzzTransparent : public ::testing::TestWithParam<int> {};

// Property: the transparent transform preserves arbitrary resident data on
// a fault-free memory, for any valid pause-free algorithm.
TEST_P(FuzzTransparent, ContentsPreserved) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u);
  const auto alg = random_algorithm(rng, /*allow_pauses=*/false);
  const auto geometry = random_geometry(rng);
  ASSERT_GE(march::final_data_value(alg), 0);

  memsim::SramModel mem{geometry,
                        static_cast<std::uint64_t>(GetParam()) + 17};
  std::vector<memsim::Word> before(geometry.num_words());
  for (memsim::Address a = 0; a < geometry.num_words(); ++a)
    before[a] = mem.read(0, a);

  const auto r = diag::run_transparent(alg, mem);
  EXPECT_TRUE(r.passed) << alg.to_string();
  EXPECT_TRUE(r.contents_preserved) << alg.to_string();
  for (memsim::Address a = 0; a < geometry.num_words(); ++a)
    ASSERT_EQ(mem.read(0, a), before[a]) << alg.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTransparent, ::testing::Range(1, 25));

// Property: a random single fault is either detected by all controllers or
// by none (verdict parity), for March C.
class FuzzFaultParity : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFaultParity, VerdictsAgreeAcrossControllers) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31u + 5u);
  const MemoryGeometry geometry{.address_bits = 4, .word_bits = 2,
                                .num_ports = 1};
  const auto classes = memsim::all_fault_classes();
  const auto cls = classes[rng() % classes.size()];
  const auto universe =
      march::make_fault_universe(cls, geometry, rng(), 8);
  const auto& fault = universe[rng() % universe.size()];

  const auto alg = march::march_c_plus_plus();
  mbist_ucode::MicrocodeController ucode{{.geometry = geometry}};
  ucode.load_algorithm(alg);
  mbist_hardwired::HardwiredController hw{alg, {.geometry = geometry}};

  memsim::FaultyMemory m1{geometry, 3};
  m1.add_fault(fault);
  memsim::FaultyMemory m2{geometry, 3};
  m2.add_fault(fault);

  EXPECT_EQ(bist::run_session(ucode, m1).passed(),
            bist::run_session(hw, m2).passed())
      << memsim::describe(fault);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFaultParity, ::testing::Range(1, 33));

class FuzzLintMarch : public ::testing::TestWithParam<int> {};

// Property: linting any valid random algorithm never crashes, is
// deterministic, and reports errors only for the one defect the generator
// can produce (an algorithm with zero reads -> MA02).
TEST_P(FuzzLintMarch, ValidAlgorithmsLintWithoutSpuriousErrors) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2671u);
  const auto alg = random_algorithm(rng, /*allow_pauses=*/true);
  ASSERT_TRUE(alg.validate().empty()) << alg.to_string();

  const auto report = lint::lint_march(alg);
  EXPECT_EQ(report, lint::lint_march(alg)) << alg.to_string();
  if (alg.reads_per_cell() == 0) {
    EXPECT_TRUE(report.has_code("MA02")) << alg.to_string();
  } else {
    EXPECT_FALSE(report.has_errors())
        << alg.to_string() << "\n" << lint::format_text(report);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLintMarch, ::testing::Range(1, 49));

class FuzzLintUcode : public ::testing::TestWithParam<int> {};

// Property: the assembler's output for any valid random algorithm is clean
// microcode — the program linter finds no structural defects (modulo UC06
// when the algorithm itself never reads).
TEST_P(FuzzLintUcode, AssembledProgramsAreClean) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 4391u);
  const auto alg = random_algorithm(rng, /*allow_pauses=*/true);
  const auto r = mbist_ucode::assemble(alg);

  const auto report = lint::lint_ucode(r.program, {.storage_depth = 64});
  EXPECT_EQ(report, lint::lint_ucode(r.program, {.storage_depth = 64}));
  if (alg.reads_per_cell() == 0) {
    EXPECT_TRUE(report.has_code("UC06")) << r.program.listing();
  } else {
    EXPECT_FALSE(report.has_errors())
        << r.program.listing() << lint::format_text(report);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLintUcode, ::testing::Range(1, 49));

class FuzzLintImages : public ::testing::TestWithParam<int> {};

// Property: the program linters accept *any* decodable image without
// crashing and produce identical reports on identical inputs — garbage in,
// diagnostics (not exceptions) out.
TEST_P(FuzzLintImages, RandomImagesLintDeterministically) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 6101u);
  std::uniform_int_distribution<int> len(1, 20);

  std::vector<std::uint16_t> ucode_words(static_cast<std::size_t>(len(rng)));
  for (auto& w : ucode_words) {
    w = static_cast<std::uint16_t>(rng() & 0x3ff);
    if (((w >> 5) & 0x3) == 3) w &= ~(1u << 5);  // avoid the reserved rw
  }
  const auto program = mbist_ucode::MicrocodeProgram::from_image(
      "fuzz", ucode_words);
  const auto report = lint::lint_ucode(program, {.storage_depth = 16});
  EXPECT_EQ(report, lint::lint_ucode(program, {.storage_depth = 16}));
  for (const auto& d : report.diagnostics())
    EXPECT_NE(lint::find_code(d.code), nullptr) << d.code;

  std::vector<std::uint16_t> pfsm_words(static_cast<std::size_t>(len(rng)));
  for (auto& w : pfsm_words) w = static_cast<std::uint16_t>(rng() & 0x1ff);
  const auto pfsm = mbist_pfsm::PfsmProgram::from_image("fuzz", pfsm_words);
  const auto preport = lint::lint_pfsm(pfsm, {.buffer_depth = 16});
  EXPECT_EQ(preport, lint::lint_pfsm(pfsm, {.buffer_depth = 16}));
  for (const auto& d : preport.diagnostics())
    EXPECT_NE(lint::find_code(d.code), nullptr) << d.code;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLintImages, ::testing::Range(1, 49));

class FuzzLintText : public ::testing::TestWithParam<int> {};

// Property: the lint driver never throws, whatever bytes it is handed —
// malformed input of every kind degrades to parse diagnostics.
TEST_P(FuzzLintText, ArbitraryTextNeverThrows) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7699u);
  std::uniform_int_distribution<int> len(0, 200);
  // Mostly characters the grammars care about, plus arbitrary printables.
  const std::string alphabet =
      "updownanyrw01();, \n\t#;=\"softmempausassign0123456789abcdefxyz";
  std::string text(static_cast<std::size_t>(len(rng)), ' ');
  for (auto& c : text) c = alphabet[rng() % alphabet.size()];
  // Sometimes steer into the image paths.
  switch (rng() % 4) {
    case 0: text = "; pmbist microcode image v1\n" + text; break;
    case 1: text = "; pmbist pfsm image v1\n" + text; break;
    case 2: text = "soc fuzz\n" + text; break;
    default: break;
  }
  const auto report = lint::lint_text(text, "fuzz");
  EXPECT_EQ(report, lint::lint_text(text, "fuzz"));
  for (const auto& d : report.diagnostics())
    EXPECT_NE(lint::find_code(d.code), nullptr) << d.code;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLintText, ::testing::Range(1, 65));

class FuzzLifter : public ::testing::TestWithParam<int> {};

// Differential translation validation: for any valid random algorithm, the
// assembled image (both encodings) lifts back, and the equivalence verdict
// coincides with ground-truth stream equality under march::expand.
TEST_P(FuzzLifter, UcodeVerdictMatchesStreamEquality) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 9241u);
  const auto alg = random_algorithm(rng, /*allow_pauses=*/true);
  const MemoryGeometry probe{.address_bits = 3, .word_bits = 2,
                             .num_ports = 2};
  for (const bool symmetric : {true, false}) {
    const auto r = mbist_ucode::assemble(
        alg, {.symmetric_encoding = symmetric, .emit_loop_tail = true});
    lint::LiftOptions options;
    if (r.pause_ns != 0) options.pause_ns = r.pause_ns;
    const auto lifted = lint::lift_ucode(r.program, options);
    ASSERT_TRUE(lifted.ok)
        << lifted.why << "\n" << alg.to_string() << r.program.listing();
    const auto verdict = lint::check_equivalence(lifted, alg);
    const bool streams_equal =
        march::expand(lifted.algorithm, probe) == march::expand(alg, probe);
    EXPECT_TRUE(streams_equal) << alg.to_string();
    EXPECT_EQ(verdict.kind == lint::EquivKind::Equivalent, streams_equal)
        << verdict.detail << "\n" << alg.to_string();
  }
}

// Cross-check: lifting A's image and validating it against an unrelated
// random algorithm B must rule Equivalent exactly when the two expand to
// the same op stream (usually they do not, and the verdict carries a
// counterexample trace).
TEST_P(FuzzLifter, CrossVerdictMatchesStreamEquality) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 11587u);
  const auto a = random_algorithm(rng, /*allow_pauses=*/true);
  const auto b = random_algorithm(rng, /*allow_pauses=*/true);
  const auto r = mbist_ucode::assemble(a);
  lint::LiftOptions options;
  if (r.pause_ns != 0) options.pause_ns = r.pause_ns;
  const auto lifted = lint::lift_ucode(r.program, options);
  ASSERT_TRUE(lifted.ok) << lifted.why;

  const auto verdict = lint::check_equivalence(lifted, b);
  const MemoryGeometry probes[] = {
      {.address_bits = 2, .word_bits = 1, .num_ports = 1},
      {.address_bits = 3, .word_bits = 2, .num_ports = 2},
  };
  bool streams_equal = true;
  for (const auto& g : probes)
    streams_equal = streams_equal &&
                    march::expand(lifted.algorithm, g) ==
                        march::expand(lint::canonicalize(b), g);
  EXPECT_EQ(verdict.kind == lint::EquivKind::Equivalent, streams_equal)
      << verdict.detail << "\na: " << a.to_string()
      << "b: " << b.to_string();
  if (verdict.kind == lint::EquivKind::Mismatch) {
    EXPECT_FALSE(verdict.trace.empty());
  }
}

// pFSM side of the round trip, over random component compositions.
TEST_P(FuzzLifter, PfsmRoundTripHolds) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 13693u);
  std::uniform_int_distribution<int> num_elements(1, 6);
  std::uniform_int_distribution<int> comp_pick(0, 7);
  std::uniform_int_distribution<int> coin(0, 1);

  std::vector<march::MarchElement> elements;
  elements.push_back(march::any({coin(rng) ? march::w1() : march::w0()}));
  const int n = num_elements(rng);
  for (int i = 0; i < n; ++i) {
    march::MarchElement el;
    el.order = coin(rng) ? march::AddressOrder::Up
                         : march::AddressOrder::Down;
    el.ops = mbist_pfsm::realize(comp_pick(rng), coin(rng));
    elements.push_back(std::move(el));
  }
  const march::MarchAlgorithm alg{"fuzz-sm", std::move(elements)};
  ASSERT_TRUE(mbist_pfsm::is_mappable(alg)) << alg.to_string();

  const auto r = mbist_pfsm::compile(alg);
  const auto lifted = lint::lift_pfsm(r.program);
  ASSERT_TRUE(lifted.ok) << lifted.why << "\n" << alg.to_string();
  EXPECT_EQ(lint::check_equivalence(lifted, alg).kind,
            lint::EquivKind::Equivalent)
      << alg.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLifter, ::testing::Range(1, 49));

class FuzzLifterImages : public ::testing::TestWithParam<int> {};

// Property: the lifters never throw on arbitrary decodable images — they
// either lift or explain why not, deterministically.
TEST_P(FuzzLifterImages, RandomImagesLiftOrExplainDeterministically) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 15091u);
  std::uniform_int_distribution<int> len(1, 20);

  std::vector<std::uint16_t> ucode_words(static_cast<std::size_t>(len(rng)));
  for (auto& w : ucode_words) {
    w = static_cast<std::uint16_t>(rng() & 0x3ff);
    if (((w >> 5) & 0x3) == 3) w &= ~(1u << 5);  // avoid the reserved rw
  }
  const auto program = mbist_ucode::MicrocodeProgram::from_image(
      "fuzz", ucode_words);
  const auto a = lint::lift_ucode(program);
  const auto b = lint::lift_ucode(program);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.why, b.why);
  EXPECT_EQ(a.code, b.code);
  if (a.ok) {
    // Note an empty element list is legitimate: an image that is only a
    // loop tail (or an immediate TERMINATE) applies no ops at all.
    EXPECT_EQ(a.algorithm.elements(), b.algorithm.elements());
  } else {
    EXPECT_FALSE(a.why.empty());
    EXPECT_NE(lint::find_code(a.code), nullptr) << a.code;
  }

  std::vector<std::uint16_t> pfsm_words(static_cast<std::size_t>(len(rng)));
  for (auto& w : pfsm_words) w = static_cast<std::uint16_t>(rng() & 0x1ff);
  const auto pfsm = mbist_pfsm::PfsmProgram::from_image("fuzz", pfsm_words);
  const auto p = lint::lift_pfsm(pfsm);
  const auto q = lint::lift_pfsm(pfsm);
  EXPECT_EQ(p.ok, q.ok);
  EXPECT_EQ(p.why, q.why);
  EXPECT_EQ(p.code, q.code);
  if (!p.ok) {
    EXPECT_FALSE(p.why.empty());
    EXPECT_NE(lint::find_code(p.code), nullptr) << p.code;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLifterImages, ::testing::Range(1, 65));

class FuzzCfgDifferential : public ::testing::TestWithParam<int> {};

// Differential CFG fuzz: random *branchy* images — no-op strides, cell
// loops, Repeat windows whose replay enters a group mid-way, mid-program
// TERMINATEs leaving whole blocks unreachable — are analyzed and lifted,
// and whenever the lift succeeds with full loop structure the image is
// replayed on the cycle-accurate controller: the concrete op stream must
// equal march::expand of the recovered algorithm.  Rejections must be
// deterministic and carry a registered stable code; every image's CFG is
// reducible (no controller flow field can encode an irreducible region);
// and --fix removes exactly the unreachable blocks while preserving the
// lifted algorithm.
TEST_P(FuzzCfgDifferential, LiftedImagesReplayTheirAlgorithm) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 17389u);
  std::uniform_int_distribution<int> segments(1, 5);
  std::uniform_int_distribution<int> pick(0, 9);
  std::uniform_int_distribution<int> coin(0, 1);

  auto op_row = [&](unsigned flow) {
    unsigned w = flow << 7;
    w |= static_cast<unsigned>(coin(rng));        // addr_inc
    w |= (coin(rng) ? 1u : 2u) << 5;              // read or write
    if (coin(rng)) w |= 1u << 3;                  // data_inv
    if (coin(rng)) w |= 1u << 4;                  // cmp_inv
    if (coin(rng)) w |= 1u << 1;                  // addr_down
    return static_cast<std::uint16_t>(w);
  };

  std::vector<std::uint16_t> words;
  const int n = segments(rng);
  for (int s = 0; s < n; ++s) {
    switch (pick(rng)) {
      case 0:  // single-op sweep
        words.push_back(op_row(2));
        break;
      case 1:  // multi-op group closed by LOOP_CELL
        for (int i = 0; i <= coin(rng); ++i) words.push_back(op_row(0));
        words.push_back(op_row(1));
        break;
      case 2:  // no-op padding, sometimes address-stepping
        words.push_back(static_cast<std::uint16_t>(coin(rng)));
        break;
      case 3:  // no-op sweep
        words.push_back(coin(rng) ? 0x100 : 0x080);
        break;
      case 4:  // pause
        words.push_back(0x200);
        break;
      case 5: {  // Repeat with a random complement mask
        unsigned w = 0x180;
        if (coin(rng)) w |= 1u << 1;
        if (coin(rng)) w |= 1u << 3;
        if (coin(rng)) w |= 1u << 4;
        words.push_back(static_cast<std::uint16_t>(w));
        break;
      }
      case 6:  // mid-program TERMINATE: the rest becomes unreachable
        words.push_back(0x380);
        break;
      default:  // bare NEXT op rows (often draw LT04/LT05)
        words.push_back(op_row(0));
        break;
    }
  }
  if (coin(rng)) words.push_back(0x284);
  words.push_back(0x300);
  if (pick(rng) == 0) words.push_back(op_row(0));  // unreachable garbage
  const auto program =
      mbist_ucode::MicrocodeProgram::from_image("fuzz-cfg", words);

  // CFG invariants: reducible, and block reachability is consistent with
  // per-instruction reachability.
  const auto cfg = lint::build_ucode_cfg(program);
  EXPECT_TRUE(cfg.reducible()) << program.listing();
  for (const auto& block : cfg.blocks)
    for (int i = block.first; i <= block.last; ++i)
      EXPECT_EQ(cfg.reachable_insn[static_cast<std::size_t>(i)],
                block.reachable)
          << program.listing();

  const auto a = lint::lift_ucode(program);
  const auto b = lint::lift_ucode(program);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.why, b.why);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.trace, b.trace);

  if (a.ok && a.full_structure()) {
    // The ground-truth check: the recovered algorithm expands to exactly
    // the op stream the hardware applies.
    const MemoryGeometry probes[] = {
        {.address_bits = 2, .word_bits = 1, .num_ports = 1},
        {.address_bits = 3, .word_bits = 2, .num_ports = 2},
    };
    for (const auto& g : probes) {
      mbist_ucode::MicrocodeController ctl{
          {.geometry = g, .storage_depth = 64}};
      ctl.load(program);
      EXPECT_EQ(bist::collect_ops(ctl, 100'000'000),
                march::expand(a.algorithm, g))
          << program.listing() << a.algorithm.to_string();
    }
  } else if (!a.ok) {
    EXPECT_FALSE(a.why.empty());
    ASSERT_NE(lint::find_code(a.code), nullptr)
        << "unregistered rejection code '" << a.code << "'";
  }

  // CFG-exact --fix: afterwards nothing is unreachable, and a liftable
  // image lifts to the identical algorithm.
  auto fixed = program;
  (void)lint::fix_ucode(fixed);
  const auto relint = lint::lint_ucode(fixed, {.storage_depth = 64});
  EXPECT_FALSE(relint.has_code("LT00")) << lint::format_text(relint);
  EXPECT_FALSE(relint.has_code("UC03")) << lint::format_text(relint);
  if (a.ok) {
    const auto after = lint::lift_ucode(fixed);
    ASSERT_TRUE(after.ok) << after.why << "\n" << fixed.listing();
    EXPECT_EQ(a.algorithm.elements(), after.algorithm.elements())
        << program.listing();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCfgDifferential, ::testing::Range(1, 97));

// --- packed-kernel differential fuzz ----------------------------------

// `models` < 13 drops the last models of the list: 11 leaves out NPSF and
// PF, the two whose packs the campaign kernel replays densely.
memsim::Fault random_fault(std::mt19937& rng, const MemoryGeometry& g,
                           unsigned models = 13) {
  auto cell = [&] {
    return memsim::BitRef{
        static_cast<memsim::Address>(rng() % g.num_words()),
        static_cast<int>(rng() % static_cast<unsigned>(g.word_bits))};
  };
  auto other_cell = [&](const memsim::BitRef& a) {
    memsim::BitRef b = cell();
    while (b == a) b = cell();
    return b;
  };
  auto coin = [&] { return rng() % 2 == 0; };
  switch (rng() % models) {
    case 0: return memsim::StuckAtFault{cell(), coin()};
    case 1: return memsim::TransitionFault{cell(), coin()};
    case 2: {
      const auto a = cell();
      return memsim::InversionCouplingFault{a, other_cell(a), coin()};
    }
    case 3: {
      const auto a = cell();
      return memsim::IdempotentCouplingFault{a, other_cell(a), coin(),
                                             coin()};
    }
    case 4: {
      const auto a = cell();
      return memsim::StateCouplingFault{a, other_cell(a), coin(), coin()};
    }
    case 5: {
      // Decoder remap to 0 (no cell), 1 or 2 physical addresses —
      // including the nastiest shapes: self-maps and duplicates.
      memsim::AddressDecoderFault af;
      af.logical = static_cast<memsim::Address>(rng() % g.num_words());
      const unsigned n = rng() % 3;
      for (unsigned i = 0; i < n; ++i)
        af.physical.push_back(
            static_cast<memsim::Address>(rng() % g.num_words()));
      return af;
    }
    case 6: return memsim::StuckOpenFault{cell()};
    case 7:
      return memsim::DataRetentionFault{cell(), coin(),
                                        1 + rng() % 2'000'000};
    case 8: return memsim::IncorrectReadFault{cell()};
    case 9: return memsim::WriteDisturbFault{cell()};
    case 10: return memsim::ReadDestructiveFault{cell(), coin()};
    case 11: {
      memsim::NeighborhoodPatternFault f;
      f.base = cell();
      const unsigned n = 1 + rng() % 3;
      for (unsigned i = 0; i < n; ++i)
        f.neighbors.push_back(other_cell(f.base));
      f.pattern = rng() & ((1u << n) - 1);
      f.forced_value = coin();
      return f;
    }
    default:
      return memsim::PortReadFault{
          static_cast<int>(rng() % static_cast<unsigned>(g.num_ports)),
          static_cast<int>(rng() % static_cast<unsigned>(g.word_bits))};
  }
}

class FuzzKernel : public ::testing::TestWithParam<int> {};

// Property: for any valid random algorithm, geometry and fault population
// — every fault model, multi-fault groups, decoder remaps to anywhere —
// the packed PPSFP kernel produces records byte-identical to the scalar
// reference: same verdicts and same detecting-op positions.
TEST_P(FuzzKernel, PackedMatchesScalarOnRandomUniverses) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 17389u);
  const auto alg = random_algorithm(rng, /*allow_pauses=*/true);
  ASSERT_TRUE(alg.validate().empty()) << alg.to_string();
  const auto geometry = random_geometry(rng);
  const auto stream = march::expand(alg, geometry);

  // 97 groups: one full 64-lane pack plus a ragged 33-lane one.
  std::vector<march::FaultGroup> groups(97);
  for (auto& group : groups) {
    const unsigned n = 1 + rng() % 3;
    for (unsigned i = 0; i < n; ++i)
      group.push_back(random_fault(rng, geometry));
  }

  const std::uint64_t seed = rng();
  const auto scalar =
      march::CampaignRunner{{.jobs = 1,
                             .powerup_seed = seed,
                             .kernel = march::CampaignKernel::Scalar}}
          .run_groups(stream, geometry, groups);
  for (const int jobs : {1, 2}) {
    const auto packed =
        march::CampaignRunner{{.jobs = jobs,
                               .powerup_seed = seed,
                               .kernel = march::CampaignKernel::Packed}}
            .run_groups(stream, geometry, groups);
    ASSERT_EQ(scalar.records.size(), packed.records.size());
    for (std::size_t i = 0; i < scalar.records.size(); ++i) {
      ASSERT_EQ(scalar.records[i], packed.records[i])
          << "group " << i << " jobs=" << jobs << "\n"
          << alg.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzKernel, ::testing::Range(1, 65));

// --- sparse-projection differential fuzz -----------------------------
//
// FuzzKernel's 4-16-word arrays put nearly every address in every pack,
// and nearly every pack holds a PF or NPSF fault (dense replay).  This leg
// draws 64-512-word arrays and groups without PF/NPSF, so the packed
// kernel replays sparse projections of the stream.

// A raw op stream expand() never produces: reads of never-written words,
// reads expecting the wrong word, and long runs of random accesses (most
// of them skipped by any one pack) between pauses.  Other reads expect
// what a fault-free memory holds, so the faults decide most verdicts.
march::OpStream random_raw_stream(std::mt19937& rng, const MemoryGeometry& g,
                                  std::uint64_t seed) {
  memsim::SramModel fault_free{g, seed};
  march::OpStream stream;
  const auto addr = [&] {
    return static_cast<memsim::Address>(rng() % g.num_words());
  };
  const auto port = [&] {
    return static_cast<int>(rng() % static_cast<unsigned>(g.num_ports));
  };
  const auto word = [&] { return memsim::Word{rng()} & g.word_mask(); };
  const auto write = [&](memsim::Address a, memsim::Word w) {
    fault_free.write(0, a, w);
    stream.push_back(march::MemOp::write(port(), a, w));
  };
  // Reads before any write expect the power-up contents, except that one
  // stream in eight expects a random word.  A read that fails in a
  // fault-free memory fails in every lane, and its stream is replayed
  // densely; a raw stream without one is projected.
  const bool guess = rng() % 8 == 0;
  for (int i = 0; i < 4; ++i) {
    const memsim::Address a = addr();
    stream.push_back(march::MemOp::read(
        port(), a, guess && i == 3 ? word() : fault_free.read(0, a)));
  }
  const unsigned segments = 2 + rng() % 3;
  for (unsigned s = 0; s < segments; ++s) {
    if (rng() % 2 == 0)
      for (memsim::Address a = 0; a < g.num_words(); ++a) write(a, word());
    const std::size_t ops = g.num_words() * (1 + rng() % 2);
    for (std::size_t k = 0; k < ops; ++k) {
      const memsim::Address a = addr();
      if (rng() % 3 == 0) {
        write(a, word());
      } else {
        const bool wrong = rng() % (4 * ops) == 0;
        stream.push_back(march::MemOp::read(
            port(), a, wrong ? word() : fault_free.read(0, a)));
      }
    }
    stream.push_back(
        march::MemOp::pause(rng() % 2 == 0 ? 1'000'000 : 10));
  }
  return stream;
}

class FuzzProjection : public ::testing::TestWithParam<int> {};

// Property: on arrays large enough for the projection to skip ops, for
// expanded and raw streams alike, the packed kernel's records equal the
// scalar reference's.
TEST_P(FuzzProjection, PackedMatchesScalarOnSparseGeometries) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u);
  const int words[] = {1, 2, 4};
  const MemoryGeometry geometry{
      .address_bits = 6 + static_cast<int>(rng() % 4),
      .word_bits = words[rng() % 3],
      .num_ports = 1 + static_cast<int>(rng() % 2)};
  const std::uint64_t seed = rng();
  const bool raw = GetParam() % 2 == 0;
  const march::OpStream stream =
      raw ? random_raw_stream(rng, geometry, seed)
          : march::expand(random_algorithm(rng, /*allow_pauses=*/true),
                          geometry);

  std::vector<march::FaultGroup> groups(97);
  for (auto& group : groups) {
    const unsigned n = 1 + rng() % 3;
    for (unsigned i = 0; i < n; ++i)
      group.push_back(random_fault(rng, geometry, /*models=*/11));
  }

  const auto scalar =
      march::CampaignRunner{{.jobs = 1,
                             .powerup_seed = seed,
                             .kernel = march::CampaignKernel::Scalar}}
          .run_groups(stream, geometry, groups);
  for (const int jobs : {1, 2}) {
    const auto packed =
        march::CampaignRunner{{.jobs = jobs,
                               .powerup_seed = seed,
                               .kernel = march::CampaignKernel::Packed}}
            .run_groups(stream, geometry, groups);
    ASSERT_EQ(scalar.records.size(), packed.records.size());
    for (std::size_t i = 0; i < scalar.records.size(); ++i) {
      ASSERT_EQ(scalar.records[i], packed.records[i])
          << "group " << i << " jobs=" << jobs << (raw ? " raw" : " expanded")
          << " stream, " << geometry.num_words() << "x" << geometry.word_bits
          << "x" << geometry.num_ports;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProjection, ::testing::Range(1, 33));

}  // namespace
