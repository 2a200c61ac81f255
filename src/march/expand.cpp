#include "march/expand.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace pmbist::march {

std::vector<Word> standard_backgrounds(int word_bits) {
  assert(word_bits >= 1 && word_bits <= 64);
  std::vector<Word> bgs{0};
  // Background k (k >= 1): bit j set iff (j >> (k-1)) & 1 — alternating
  // blocks of width 2^(k-1): 0101.., 0011.., 00001111.., ...
  for (int k = 1; (1 << (k - 1)) < word_bits; ++k) {
    Word bg = 0;
    for (int j = 0; j < word_bits; ++j)
      if ((j >> (k - 1)) & 1) bg |= Word{1} << j;
    bgs.push_back(bg);
  }
  return bgs;
}

int checked_num_ports(const MemoryGeometry& geometry) {
  if (geometry.num_ports < 1 || geometry.num_ports > kMaxPorts)
    throw std::invalid_argument("num_ports " +
                                std::to_string(geometry.num_ports) +
                                " outside 1.." + std::to_string(kMaxPorts) +
                                ", the ports an op can name");
  return geometry.num_ports;
}

namespace {

void expand_pass_into(const MarchAlgorithm& alg,
                      const MemoryGeometry& geometry, int port, Word bg,
                      OpStream& out) {
  const Word mask = geometry.word_mask();
  const auto n = static_cast<std::uint32_t>(geometry.num_words());
  for (const auto& element : alg.elements()) {
    if (element.is_pause) {
      out.push_back(MemOp::pause(element.pause_ns));
      continue;
    }
    const bool descending = element.order == AddressOrder::Down;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Address addr = descending ? (n - 1 - i) : i;
      for (const auto& op : element.ops) {
        const Word value = apply_background(op.data, bg, mask);
        out.push_back(op.is_read() ? MemOp::read(port, addr, value)
                                   : MemOp::write(port, addr, value));
      }
    }
  }
}

}  // namespace

OpStream expand_single_pass(const MarchAlgorithm& alg,
                            const MemoryGeometry& geometry, int port,
                            Word background) {
  if (port < 0 || port >= checked_num_ports(geometry))
    throw std::invalid_argument("port " + std::to_string(port) +
                                " outside the geometry");
  OpStream out;
  expand_pass_into(alg, geometry, port, background, out);
  return out;
}

OpStream expand(const MarchAlgorithm& alg, const MemoryGeometry& geometry) {
  assert(alg.validate().empty());
  const auto backgrounds = standard_backgrounds(geometry.word_bits);
  const int ports = checked_num_ports(geometry);
  OpStream out;
  out.reserve(expanded_op_count(alg, geometry));
  for (int port = 0; port < ports; ++port)
    for (Word bg : backgrounds) expand_pass_into(alg, geometry, port, bg, out);
  return out;
}

std::uint64_t expanded_op_count(const MarchAlgorithm& alg,
                                const MemoryGeometry& geometry) {
  const auto backgrounds = standard_backgrounds(geometry.word_bits);
  return static_cast<std::uint64_t>(alg.ops_per_cell()) *
         geometry.num_words() * backgrounds.size() *
         static_cast<std::uint64_t>(geometry.num_ports);
}

}  // namespace pmbist::march
