#pragma once
// One reader for the line-oriented directive files: chip files
// (soc/chip.h), mission profiles (field/profile.h), .schedule files
// (soc/schedule_io.h) and .fieldsched files (field/schedule_io.h).
//
// Every format is one directive per line, `<word> <positional...>
// key=value... [bare words]`, under one set of lexical rules (docs/SOC.md,
// "Lexical rules"):
//   * `#` starts a comment that runs to the end of the line;
//   * tokens are separated by spaces, tabs and carriage returns;
//   * a double-quoted run is part of a token and may hold blanks and `#`
//     (the quotes are dropped; there are no escapes), so `"March C"` and
//     `group="g 1"` are one token each.
// A format declares itself once, as a DirectiveFormat: its error prefix,
// its numeric base, its directive words (which the parser and the lint
// driver's format sniffing share) and the error type it throws.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pmbist::common {

/// An error in a directive file, or in what a parsed file describes.
/// what() carries the format's location prefix ("chip file line 3: ...");
/// line() is the 1-based source line, -1 when the error has none.
class DirectiveError : public std::runtime_error {
 public:
  explicit DirectiveError(const std::string& what, int line = -1)
      : std::runtime_error{what}, line_{line} {}
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_;
};

/// The line an exception names: DirectiveError::line(), else -1.
[[nodiscard]] int error_line(const std::exception& e) noexcept;

/// Throws `Error{what, line}`: a format's `raise` hook.
template <class Error>
[[noreturn]] void throw_as(const std::string& what, int line) {
  throw Error{what, line};
}

/// What one directive-file format declares about itself.
struct DirectiveFormat {
  /// Error prefix: messages read "<name> line N: ...".
  std::string_view name;
  /// Base of unsigned numbers: 0 accepts C prefixes (0x1f, 017), 10 is
  /// plain decimal (so 010 is ten).
  int base;
  /// The directive words: lex() admits no other first token, and the lint
  /// driver sniffs the format by them.
  std::span<const std::string_view> directives;
  /// Throws the format's own error type (derived from DirectiveError).
  void (*raise)(const std::string& what, int line);

  [[nodiscard]] bool declares(std::string_view word) const;
  /// Throws "<name> line N: message" through `raise`.
  [[noreturn]] void fail(int line, const std::string& message) const;
};

/// One line that holds tokens: its 1-based number and the tokens, the
/// directive word first.
struct Directive {
  int line = 0;
  std::vector<std::string> tokens;
};

/// Lexes `text` into its directives; lines without tokens are dropped.
/// Throws through `format` on an unterminated quote or on a first token
/// the format does not declare, so a parser sees only its own directives.
[[nodiscard]] std::vector<Directive> lex(std::string_view text,
                                         const DirectiveFormat& format);

/// The first token of `text` under the same rules; empty when there is
/// none, or when that token has an unterminated quote.  Never throws.
[[nodiscard]] std::string first_word(std::string_view text);

/// `name` as one token: verbatim when it lexes back as itself, quoted
/// otherwise (a name holding `"` or a line break has no token form).
[[nodiscard]] std::string token_text(std::string_view name);

/// Strict numbers: the whole text is the number, or nullopt.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text,
                                                     int base);
[[nodiscard]] std::optional<double> parse_real(std::string_view text);

/// The shortest text that reads back as exactly `v`: "%g" when that is
/// exact, otherwise the fewest "%.Ng" digits that are.
[[nodiscard]] std::string real_text(double v);

/// The key=value arguments of one directive, plus the bare words it
/// allows (`retest`).  Duplicate keys, malformed tokens, missing keys and
/// bad numbers fail with the directive's location; finish() fails on any
/// key no getter asked for.
class KeyValues {
 public:
  /// Reads d.tokens[first..] under `format`.
  KeyValues(const Directive& d, std::size_t first,
            const DirectiveFormat& format,
            std::initializer_list<std::string_view> bare = {});
  /// Arguments that arrive already split (the chip JSON mirror's fault
  /// objects); `where` prefixes every error message.
  KeyValues(const std::map<std::string, std::string>& kv, std::string where,
            const DirectiveFormat& format);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const std::string& raw(const std::string& key) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key) const;
  [[nodiscard]] std::uint64_t u64_or(const std::string& key,
                                     std::uint64_t fallback) const {
    return has(key) ? u64(key) : fallback;
  }
  [[nodiscard]] int num(const std::string& key) const {
    return static_cast<int>(u64(key));
  }
  [[nodiscard]] int num_or(const std::string& key, int fallback) const {
    return has(key) ? num(key) : fallback;
  }
  /// A 0/1 value.
  [[nodiscard]] bool flag(const std::string& key) const;
  [[nodiscard]] double real(const std::string& key) const;
  /// Whether the bare word was given.
  [[nodiscard]] bool word(std::string_view bare) const;
  /// The format's numeric base, for value decoders (addr:bit, A..B).
  [[nodiscard]] int base() const noexcept { return format_->base; }

  /// Fails on the first key nothing asked for.
  void finish() const;
  /// Throws "<where>: message" through the format.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    mutable bool used = false;
  };
  [[nodiscard]] const Entry* find(const std::string& key) const;

  std::vector<Entry> entries_;
  std::vector<std::string> words_;
  std::string where_;
  int line_ = -1;
  const DirectiveFormat* format_;
};

}  // namespace pmbist::common
