#include "common/directives.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace pmbist::common {
namespace {

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Appends the tokens of one line; false on an unterminated quote.
bool split_line(std::string_view line, std::vector<std::string>& tokens) {
  std::size_t i = 0;
  while (i < line.size()) {
    if (is_blank(line[i])) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;
    std::string token;
    while (i < line.size() && !is_blank(line[i]) && line[i] != '#') {
      if (line[i] == '"') {
        const auto close = line.find('"', i + 1);
        if (close == std::string_view::npos) return false;
        token.append(line.substr(i + 1, close - i - 1));
        i = close + 1;
      } else {
        token += line[i++];
      }
    }
    tokens.push_back(std::move(token));
  }
  return true;
}

/// Calls `on_line(number, line)` for each '\n'-separated line until it
/// returns false.
template <class F>
void for_each_line(std::string_view text, F&& on_line) {
  std::size_t start = 0;
  for (int number = 1; start < text.size(); ++number) {
    const auto end = std::min(text.find('\n', start), text.size());
    if (!on_line(number, text.substr(start, end - start))) return;
    start = end + 1;
  }
}

[[noreturn]] void raise_as(const DirectiveFormat& format,
                           const std::string& what, int line) {
  format.raise(what, line);
  throw DirectiveError{what, line};  // not reached: raise() throws
}

}  // namespace

int error_line(const std::exception& e) noexcept {
  const auto* located = dynamic_cast<const DirectiveError*>(&e);
  return located != nullptr ? located->line() : -1;
}

bool DirectiveFormat::declares(std::string_view word) const {
  return std::find(directives.begin(), directives.end(), word) !=
         directives.end();
}

void DirectiveFormat::fail(int line, const std::string& message) const {
  raise_as(*this,
           std::string{name} + " line " + std::to_string(line) + ": " +
               message,
           line);
}

std::vector<Directive> lex(std::string_view text,
                           const DirectiveFormat& format) {
  std::vector<Directive> out;
  for_each_line(text, [&](int number, std::string_view line) {
    std::vector<std::string> tokens;
    if (!split_line(line, tokens)) format.fail(number, "unterminated quote");
    if (tokens.empty()) return true;
    if (!format.declares(tokens[0]))
      format.fail(number, "unknown directive '" + tokens[0] + "'");
    out.push_back({number, std::move(tokens)});
    return true;
  });
  return out;
}

std::string first_word(std::string_view text) {
  std::string word;
  for_each_line(text, [&](int, std::string_view line) {
    std::vector<std::string> tokens;
    const bool whole = split_line(line, tokens);
    if (tokens.empty()) return whole;  // a blank line: keep looking
    word = std::move(tokens[0]);
    return false;
  });
  return word;
}

std::string token_text(std::string_view name) {
  const bool bare =
      !name.empty() && name.find_first_of(" \t\r\n#\"") == std::string::npos;
  return bare ? std::string{name} : "\"" + std::string{name} + "\"";
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base) {
  const std::string s{text};
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE)
    return std::nullopt;
  return v;
}

std::optional<double> parse_real(std::string_view text) {
  const std::string s{text};
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE)
    return std::nullopt;
  return v;
}

std::string real_text(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%g", v);
  for (int digits = 7; digits <= 17 && parse_real(buf) != v; ++digits)
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

KeyValues::KeyValues(const Directive& d, std::size_t first,
                     const DirectiveFormat& format,
                     std::initializer_list<std::string_view> bare)
    : where_{std::string{format.name} + " line " + std::to_string(d.line)},
      line_{d.line},
      format_{&format} {
  for (std::size_t i = first; i < d.tokens.size(); ++i) {
    const std::string& token = d.tokens[i];
    if (std::find(bare.begin(), bare.end(), token) != bare.end()) {
      words_.push_back(token);
      continue;
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      fail("expected key=value, got '" + token + "'");
    std::string key = token.substr(0, eq);
    if (find(key) != nullptr) fail("duplicate key '" + key + "'");
    entries_.push_back({std::move(key), token.substr(eq + 1)});
  }
}

KeyValues::KeyValues(const std::map<std::string, std::string>& kv,
                     std::string where, const DirectiveFormat& format)
    : where_{std::move(where)}, format_{&format} {
  for (const auto& [key, value] : kv) entries_.push_back({key, value});
}

const KeyValues::Entry* KeyValues::find(const std::string& key) const {
  for (const auto& e : entries_) {
    if (e.key != key) continue;
    e.used = true;
    return &e;
  }
  return nullptr;
}

bool KeyValues::has(const std::string& key) const {
  return find(key) != nullptr;
}

const std::string& KeyValues::raw(const std::string& key) const {
  const Entry* e = find(key);
  if (e == nullptr) fail("missing " + key + "=");
  return e->value;
}

std::uint64_t KeyValues::u64(const std::string& key) const {
  const std::string& text = raw(key);
  const auto v = parse_u64(text, format_->base);
  if (!v) fail("bad number for " + key + ": '" + text + "'");
  return *v;
}

bool KeyValues::flag(const std::string& key) const {
  const auto v = u64(key);
  if (v > 1) fail(key + " must be 0 or 1");
  return v != 0;
}

double KeyValues::real(const std::string& key) const {
  const std::string& text = raw(key);
  const auto v = parse_real(text);
  if (!v) fail("bad number for " + key + ": '" + text + "'");
  return *v;
}

bool KeyValues::word(std::string_view bare) const {
  return std::find(words_.begin(), words_.end(), bare) != words_.end();
}

void KeyValues::finish() const {
  for (const auto& e : entries_)
    if (!e.used) fail("unknown key '" + e.key + "'");
}

void KeyValues::fail(const std::string& message) const {
  raise_as(*format_, where_ + ": " + message, line_);
}

}  // namespace pmbist::common
