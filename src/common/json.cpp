#include "common/json.hpp"

#include <charconv>
#include <cstddef>
#include <system_error>

namespace tiledqr::json {

namespace {

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out.push_back(char(cp));
    return;
  }
  // A lead byte, then six payload bits per continuation byte.
  static constexpr unsigned kLead[] = {0, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out.push_back(char(kLead[tail] | (cp >> (6 * tail))));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6)
    out.push_back(char(0x80 | ((cp >> shift) & 0x3F)));
}

class Reader {
 public:
  Reader(std::string_view text, std::string_view context) : text_(text), context_(context) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after the document");
    return v;
  }

 private:
  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(stringf("%.*s: %s at offset %zu", int(context_.size()), context_.data(),
                        what.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Value value(int depth) {
    skip_ws();
    Value v;
    const char c = peek();
    if (c == '{' || c == '[') {
      container(v, depth + 1, c == '{' ? '}' : ']');
    } else if (c == '"') {
      v.type = Value::Type::String;
      v.string = string();
    } else if (literal("true") || literal("false")) {
      v.type = Value::Type::Bool;
      v.boolean = c == 't';
    } else if (!literal("null")) {
      v.type = Value::Type::Number;
      v.number = number();
    }
    return v;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // An array (close == ']') or an object (close == '}'), opening bracket next.
  void container(Value& v, int depth, char close) {
    if (depth > kMaxDepth) fail(stringf("nesting deeper than %d", kMaxDepth));
    const bool is_object = close == '}';
    v.type = is_object ? Value::Type::Object : Value::Type::Array;
    ++pos_;
    skip_ws();
    if (consume(close)) return;
    do {
      if (!is_object) {
        v.array.push_back(value(depth));
      } else {
        skip_ws();
        if (peek() != '"') fail("expected a string key");
        std::string key = string();
        skip_ws();
        if (!consume(':')) fail("expected ':' after an object key");
        v.object.insert_or_assign(std::move(key), value(depth));
      }
      skip_ws();
    } while (consume(','));
    if (!consume(close)) fail(is_object ? "expected ',' or '}'" : "expected ',' or ']'");
  }

  double number() {
    const std::size_t start = pos_;
    auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > from;
    };
    consume('-');
    if (!consume('0') && !digits()) {  // a leading zero stands alone
      pos_ = start;
      fail("expected a JSON value");
    }
    if (consume('.') && !digits()) fail("expected a digit after the decimal point");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) fail("expected a digit in the exponent");
    }
    double v = 0.0;
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, end, v);
    if (ec != std::errc() || ptr != end) {
      pos_ = start;
      fail("number out of the range of a double");
    }
    return v;
  }

  std::string string() {
    ++pos_;  // the opening quote, checked by the caller
    std::string out;
    while (!consume('"')) {
      const char c = peek();
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in a string");
      ++pos_;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      switch (const char e = peek(); e) {
        case '"':
        case '\\':
        case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          ++pos_;
          append_utf8(out, code_point());
          continue;
        default: fail("unknown escape");
      }
      ++pos_;
    }
    return out;
  }

  // The code point of a \u escape whose "\u" is consumed; a surrogate pair
  // is read whole.
  unsigned code_point() {
    const unsigned cp = hex4();
    if (cp >= 0xDC00 && cp <= 0xDFFF) fail("lone low surrogate");
    if (cp < 0xD800 || cp > 0xDBFF) return cp;
    const unsigned low = literal("\\u") ? hex4() : 0;
    if (low < 0xDC00 || low > 0xDFFF) fail("high surrogate without a low surrogate");
    return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
  }

  unsigned hex4() {
    unsigned code = 0;
    const char* p = text_.data() + pos_;
    if (text_.size() - pos_ < 4 || std::from_chars(p, p + 4, code, 16).ptr != p + 4)
      fail("\\u escape without four hex digits");
    pos_ += 4;
    return code;
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (type != Type::Object) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Value parse(std::string_view text, std::string_view context) {
  return Reader(text, context).document();
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += stringf("\\u%04x", unsigned(c));
        else
          out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace tiledqr::json
