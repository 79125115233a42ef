// The library's one JSON module: a value type, a strict RFC 8259 reader, a
// checked integer accessor and a string escaper. The tuning table, the
// Chrome-trace exporter and importer and the metrics dump all go through it.
//
// The reader is strict so that a corrupt file fails loudly instead of loading
// as something else:
// - whitespace is JSON's four characters (space, tab, LF, CR) only;
// - numbers follow the JSON grammar (no leading '+', no leading zeros, no
//   bare '.') and must convert to a finite double; RFC 8259 §6 lets a reader
//   limit range, and this one rejects magnitudes a double cannot hold;
// - strings reject raw control characters; \uXXXX decodes to UTF-8, a
//   surrogate pair to one code point, and a lone surrogate is an error;
//   other bytes pass through unchecked, so parse(quote(s)) == s for any s;
// - on a duplicate object key the last one wins;
// - arrays and objects nest at most kMaxDepth deep, so hostile input cannot
//   exhaust the stack.
// Every failure throws tiledqr::Error naming the caller's context and the
// byte offset.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/stringf.hpp"

namespace tiledqr::json {

/// Deepest nesting of arrays and objects the reader accepts. The library's
/// own formats nest three levels.
inline constexpr int kMaxDepth = 64;

/// One JSON value; only the member that `type` names is meaningful.
struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value, std::less<>> object;

  /// Member `key` of an object; nullptr when this is not an object or has no
  /// such member.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

/// Parses `text` as one complete JSON document. Throws tiledqr::Error
/// "<context>: <problem> at offset <byte>" on malformed input.
[[nodiscard]] Value parse(std::string_view text, std::string_view context);

/// `v` as an `Int`. Throws tiledqr::Error "<context>: field "<field>" must be
/// an integer in [min, max]" unless `v` is a number without a fraction that
/// `Int` holds, so a corrupt value never reaches an undefined float cast.
template <class Int>
[[nodiscard]] Int integer(const Value& v, std::string_view context, std::string_view field) {
  using Limits = std::numeric_limits<Int>;
  static_assert(std::is_integral_v<Int> && Limits::max() <= std::numeric_limits<long long>::max());
  // max + 1 is a power of two, so this sum rounds to it exactly even where
  // max itself has no double.
  const double end = double(Limits::max()) + 1.0;
  if (v.type != Value::Type::Number || std::trunc(v.number) != v.number ||
      v.number < double(Limits::min()) || v.number >= end)
    throw Error(stringf("%.*s: field \"%.*s\" must be an integer in [%lld, %lld]",
                        int(context.size()), context.data(), int(field.size()), field.data(),
                        static_cast<long long>(Limits::min()),
                        static_cast<long long>(Limits::max())));
  return static_cast<Int>(v.number);
}

/// `s` as a JSON string literal, quotes included. `"` and `\` are escaped, and
/// so is every byte below 0x20 (\n, \t and \r by name, the rest as \u00XX);
/// every other byte passes through unchanged.
[[nodiscard]] std::string quote(std::string_view s);

}  // namespace tiledqr::json
