#include "march/library.h"

#include <stdexcept>
#include <utility>

#include "march/parser.h"

namespace pmbist::march {

MarchAlgorithm mats() {
  return MarchAlgorithm{"MATS",
                        {any({w0()}), any({r0(), w1()}), any({r1()})}};
}

MarchAlgorithm mats_plus() {
  return MarchAlgorithm{"MATS+",
                        {any({w0()}), up({r0(), w1()}), down({r1(), w0()})}};
}

MarchAlgorithm march_x() {
  return MarchAlgorithm{
      "March X",
      {any({w0()}), up({r0(), w1()}), down({r1(), w0()}), any({r0()})}};
}

MarchAlgorithm march_y() {
  return MarchAlgorithm{"March Y",
                        {any({w0()}), up({r0(), w1(), r1()}),
                         down({r1(), w0(), r0()}), any({r0()})}};
}

MarchAlgorithm march_c() {
  // Paper Eq. 1: {any(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0);
  // any(r0)} — note the symmetric structure (elements 2-3 repeat as 4-5
  // with complemented address order / data / compare), which the microcode
  // Repeat instruction exploits.
  return MarchAlgorithm{"March C",
                        {any({w0()}), up({r0(), w1()}), up({r1(), w0()}),
                         down({r0(), w1()}), down({r1(), w0()}),
                         any({r0()})}};
}

MarchAlgorithm march_c_orig() {
  return MarchAlgorithm{"March C (orig)",
                        {any({w0()}), up({r0(), w1()}), up({r1(), w0()}),
                         any({r0()}), down({r0(), w1()}), down({r1(), w0()}),
                         any({r0()})}};
}

MarchAlgorithm march_a() {
  // {any(w0); up(r0,w1,w0,w1); up(r1,w0,w1); down(r1,w0,w1,w0);
  //  down(r0,w1,w0)} — symmetric in the same pairwise sense as March C.
  return MarchAlgorithm{
      "March A",
      {any({w0()}), up({r0(), w1(), w0(), w1()}), up({r1(), w0(), w1()}),
       down({r1(), w0(), w1(), w0()}), down({r0(), w1(), w0()})}};
}

MarchAlgorithm mats_plus_plus() {
  return MarchAlgorithm{
      "MATS++",
      {any({w0()}), up({r0(), w1()}), down({r1(), w0(), r0()})}};
}

MarchAlgorithm march_u() {
  // {any(w0); up(r0,w1,r1,w0); up(r0,w1); down(r1,w0,r0,w1); down(r1,w0)}
  // — symmetric pairs (elements 2-3 mirror 4-5 under full complement).
  return MarchAlgorithm{
      "March U",
      {any({w0()}), up({r0(), w1(), r1(), w0()}), up({r0(), w1()}),
       down({r1(), w0(), r0(), w1()}), down({r1(), w0()})}};
}

MarchAlgorithm march_lr() {
  // van de Goor & Gaydadjiev: detects realistic linked faults.
  return MarchAlgorithm{
      "March LR",
      {any({w0()}), down({r0(), w1()}), up({r1(), w0(), r0(), w1()}),
       up({r1(), w0()}), up({r0(), w1(), r1(), w0()}), up({r0()})}};
}

MarchAlgorithm march_ss() {
  // Hamdioui/Al-Ars/van de Goor: detects all simple static faults —
  // the non-transition writes catch WDFs, the back-to-back reads catch
  // deceptive/weak-cell read faults.
  return MarchAlgorithm{
      "March SS",
      {any({w0()}), up({r0(), r0(), w0(), r0(), w1()}),
       up({r1(), r1(), w1(), r1(), w0()}),
       down({r0(), r0(), w0(), r0(), w1()}),
       down({r1(), r1(), w1(), r1(), w0()}), any({r0()})}};
}

MarchAlgorithm march_g() {
  // van de Goor's March G: March B's element structure plus the two
  // pause/read components for data-retention and recovery faults.
  return MarchAlgorithm{
      "March G",
      {any({w0()}), up({r0(), w1(), r1(), w0(), r0(), w1()}),
       up({r1(), w0(), w1()}), down({r1(), w0(), w1(), w0()}),
       down({r0(), w1(), w0()}), MarchElement::pause(kDefaultPauseNs),
       any({r0(), w1(), r1()}), MarchElement::pause(kDefaultPauseNs),
       any({r1(), w0(), r0()})}};
}

MarchAlgorithm march_b() {
  return MarchAlgorithm{
      "March B",
      {any({w0()}), up({r0(), w1(), r1(), w0(), r0(), w1()}),
       up({r1(), w0(), w1()}), down({r1(), w0(), w1(), w0()}),
       down({r0(), w1(), w0()})}};
}

MarchAlgorithm march_c_plus() {
  return with_retention(march_c(), kDefaultPauseNs, "March C+");
}

MarchAlgorithm march_c_plus_plus() {
  return with_triple_reads(march_c_plus(), "March C++");
}

MarchAlgorithm march_a_plus() {
  return with_retention(march_a(), kDefaultPauseNs, "March A+");
}

MarchAlgorithm march_a_plus_plus() {
  return with_triple_reads(march_a_plus(), "March A++");
}

std::vector<MarchAlgorithm> all_algorithms() {
  return {mats(),         mats_plus(),       mats_plus_plus(),
          march_x(),      march_y(),         march_c(),
          march_c_orig(), march_u(),         march_lr(),
          march_c_plus(), march_c_plus_plus(),
          march_a(),      march_b(),         march_a_plus(),
          march_a_plus_plus(),
          march_ss(),     march_g()};
}

std::vector<MarchAlgorithm> paper_table_algorithms() {
  return {march_c(), march_c_plus(), march_c_plus_plus(),
          march_a(), march_a_plus(), march_a_plus_plus()};
}

MarchAlgorithm by_name(std::string_view name) {
  for (auto& alg : all_algorithms())
    if (alg.name() == name) return alg;
  throw std::out_of_range("unknown march algorithm: " + std::string{name});
}

MarchAlgorithm resolve_algorithm(std::string_view text, std::string name) {
  for (auto& alg : all_algorithms())
    if (alg.name() == text) return alg;
  return parse(text, std::move(name));
}

}  // namespace pmbist::march
