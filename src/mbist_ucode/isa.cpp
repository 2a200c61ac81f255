#include "mbist_ucode/isa.h"

#include <cctype>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace pmbist::mbist_ucode {

std::string_view to_string(Flow f) {
  switch (f) {
    case Flow::Next: return "NEXT";
    case Flow::LoopCell: return "LOOP_CELL";
    case Flow::LoopSelf: return "LOOP_SELF";
    case Flow::Repeat: return "REPEAT";
    case Flow::Pause: return "PAUSE";
    case Flow::LoopData: return "LOOP_DATA";
    case Flow::LoopPort: return "LOOP_PORT";
    case Flow::Terminate: return "TERMINATE";
  }
  return "?";
}

std::uint16_t Instruction::encode() const {
  std::uint16_t bits = 0;
  bits |= static_cast<std::uint16_t>(addr_inc) << 0;
  bits |= static_cast<std::uint16_t>(addr_down) << 1;
  bits |= static_cast<std::uint16_t>(data_inc) << 2;
  bits |= static_cast<std::uint16_t>(data_inv) << 3;
  bits |= static_cast<std::uint16_t>(cmp_inv) << 4;
  bits |= static_cast<std::uint16_t>(rw) << 5;
  bits |= static_cast<std::uint16_t>(flow) << 7;
  return bits;
}

Instruction Instruction::decode(std::uint16_t bits) {
  if (bits >= (1u << kInstructionBits))
    throw std::invalid_argument("microcode word exceeds 10 bits");
  const auto rw_bits = static_cast<std::uint8_t>((bits >> 5) & 0x3);
  if (rw_bits == 3)
    throw std::invalid_argument("microcode rw field 11 is reserved");
  Instruction i;
  i.addr_inc = bits & 0x1;
  i.addr_down = bits & 0x2;
  i.data_inc = bits & 0x4;
  i.data_inv = bits & 0x8;
  i.cmp_inv = bits & 0x10;
  i.rw = static_cast<Rw>(rw_bits);
  i.flow = static_cast<Flow>((bits >> 7) & 0x7);
  return i;
}

std::string Instruction::disassemble() const {
  std::ostringstream os;
  switch (rw) {
    case Rw::Nop: os << "--      "; break;
    case Rw::Read: os << "r cmp=" << (cmp_inv ? 1 : 0) << " "; break;
    case Rw::Write: os << "w dat=" << (data_inv ? 1 : 0) << " "; break;
  }
  os << (addr_down ? "down" : "up  ") << " "
     << (addr_inc ? "inc " : "hold") << " ";
  if (data_inc) os << "bg+ ";
  os << to_string(flow);
  return os.str();
}

std::vector<std::uint16_t> MicrocodeProgram::image() const {
  std::vector<std::uint16_t> out;
  out.reserve(instructions_.size());
  for (const auto& i : instructions_) out.push_back(i.encode());
  return out;
}

MicrocodeProgram MicrocodeProgram::from_image(
    std::string name, const std::vector<std::uint16_t>& image) {
  std::vector<Instruction> instructions;
  instructions.reserve(image.size());
  for (std::size_t i = 0; i < image.size(); ++i) {
    try {
      instructions.push_back(Instruction::decode(image[i]));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument{"instruction " + std::to_string(i) + ": " +
                                  e.what()};
    }
  }
  return MicrocodeProgram{std::move(name), std::move(instructions)};
}

std::string MicrocodeProgram::listing() const {
  std::ostringstream os;
  os << "; microcode program: " << name_ << " (" << instructions_.size()
     << " instructions)\n";
  for (std::size_t i = 0; i < instructions_.size(); ++i) {
    os << std::setw(3) << i << ": 0x" << std::hex << std::setw(3)
       << std::setfill('0') << instructions_[i].encode() << std::dec
       << std::setfill(' ') << "  " << instructions_[i].disassemble() << "\n";
  }
  return os.str();
}

std::string MicrocodeProgram::to_hex_text() const {
  std::ostringstream os;
  os << "; pmbist microcode image v1\n";
  os << "; name: " << name_ << "\n";
  for (const auto& i : instructions_) {
    os << std::hex << std::setw(3) << std::setfill('0') << i.encode()
       << std::dec << std::setfill(' ') << "  ; " << i.disassemble()
       << "\n";
  }
  return os.str();
}

MicrocodeProgram MicrocodeProgram::from_hex_text(std::string_view text) {
  std::istringstream is{std::string{text}};
  std::string line;
  std::string name = "image";
  std::vector<Instruction> code;
  bool saw_header = false;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and whitespace.
    if (const auto semi = line.find(';'); semi != std::string::npos) {
      const std::string comment = line.substr(semi + 1);
      if (comment.find("pmbist microcode image v1") != std::string::npos)
        saw_header = true;
      if (const auto tag = comment.find("name:"); tag != std::string::npos) {
        std::string n = comment.substr(tag + 5);
        while (!n.empty() && n.front() == ' ') n.erase(n.begin());
        while (!n.empty() && (n.back() == ' ' || n.back() == '\r'))
          n.pop_back();
        if (!n.empty()) name = n;
      }
      line.erase(semi);
    }
    std::string word;
    for (char c : line)
      if (!std::isspace(static_cast<unsigned char>(c))) word += c;
    if (word.empty()) continue;
    std::size_t pos = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(word, &pos, 16);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != word.size() || value > 0xffff)
      throw std::invalid_argument("line " + std::to_string(lineno) +
                                  ": malformed hex word '" + word + "'");
    try {
      code.push_back(Instruction::decode(static_cast<std::uint16_t>(value)));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument{"instruction " + std::to_string(code.size()) +
                                  " (line " + std::to_string(lineno) + "): " +
                                  e.what()};
    }
  }
  // Truncated input reports the same scan detail as malformed input: the
  // pFSM loader words these identically (modulo the architecture token) so
  // tooling can treat both formats uniformly.
  if (!saw_header)
    throw std::invalid_argument("missing 'pmbist microcode image v1' header "
                                "(scanned " + std::to_string(lineno) +
                                " line(s))");
  if (code.empty())
    throw std::invalid_argument("image has no instructions (" +
                                std::to_string(lineno) + " line(s) scanned)");
  return MicrocodeProgram{std::move(name), std::move(code)};
}

}  // namespace pmbist::mbist_ucode
