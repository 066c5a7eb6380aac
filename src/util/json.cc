#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>

#include "util/check.h"
#include "util/stats_registry.h"

namespace jury {
namespace {

void AppendNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  JURY_CHECK(ec == std::errc());
  out->append(buf, ptr);
}

template <typename Int>
void AppendInteger(Int value, std::string* out) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  JURY_CHECK(ec == std::errc());
  out->append(buf, ptr);
}

}  // namespace

const Json* Json::Find(const std::string& key) const {
  const ObjectRepr* object = std::get_if<ObjectRepr>(&repr_);
  if (object == nullptr) return nullptr;
  const auto it = object->find(key);
  return it == object->end() ? nullptr : &it->second;
}

const std::map<std::string, Json>* Json::GetObject() const {
  return std::get_if<ObjectRepr>(&repr_);
}

const std::vector<Json>* Json::GetArray() const {
  return std::get_if<ArrayRepr>(&repr_);
}

Result<bool> Json::GetBool() const {
  if (const bool* b = std::get_if<bool>(&repr_)) return *b;
  return Status::InvalidArgument("JSON value is not a boolean");
}

Result<double> Json::GetDouble() const {
  if (const double* d = std::get_if<double>(&repr_)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&repr_)) {
    return static_cast<double>(*i);
  }
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&repr_)) {
    return static_cast<double>(*u);
  }
  return Status::InvalidArgument("JSON value is not a number");
}

Result<std::uint64_t> Json::GetUint64() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&repr_)) return *u;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&repr_)) {
    if (*i < 0) {
      return Status::InvalidArgument("JSON value is a negative integer");
    }
    return static_cast<std::uint64_t>(*i);
  }
  return Status::InvalidArgument("JSON value is not an unsigned integer");
}

Result<std::string> Json::GetString() const {
  if (const std::string* s = std::get_if<std::string>(&repr_)) return *s;
  return Status::InvalidArgument("JSON value is not a string");
}

Json& Json::Set(const std::string& key, Json value) {
  JURY_CHECK(is_object()) << "Json::Set on a non-object document";
  std::get<ObjectRepr>(repr_).insert_or_assign(key, std::move(value));
  return *this;
}

Json& Json::Append(Json value) {
  JURY_CHECK(is_array()) << "Json::Append on a non-array document";
  std::get<ArrayRepr>(repr_).push_back(std::move(value));
  return *this;
}

std::string Json::Quote(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void Json::DumpTo(std::string* out) const {
  if (std::holds_alternative<std::monostate>(repr_)) {
    out->append("null");
  } else if (const bool* b = std::get_if<bool>(&repr_)) {
    out->append(*b ? "true" : "false");
  } else if (const double* d = std::get_if<double>(&repr_)) {
    AppendNumber(*d, out);
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&repr_)) {
    AppendInteger(*i, out);
  } else if (const std::uint64_t* u = std::get_if<std::uint64_t>(&repr_)) {
    AppendInteger(*u, out);
  } else if (const std::string* s = std::get_if<std::string>(&repr_)) {
    out->append(Quote(*s));
  } else if (const ObjectRepr* obj = std::get_if<ObjectRepr>(&repr_)) {
    out->push_back('{');
    bool first = true;
    for (const auto& [key, value] : *obj) {  // std::map: sorted keys
      if (!first) out->push_back(',');
      first = false;
      out->append(Quote(key));
      out->push_back(':');
      value.DumpTo(out);
    }
    out->push_back('}');
  } else {
    const ArrayRepr& array = std::get<ArrayRepr>(repr_);
    out->push_back('[');
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) out->push_back(',');
      array[i].DumpTo(out);
    }
    out->push_back(']');
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

/// Recursive-descent RFC 8259 parser. Depth is bounded by
/// `JsonParseOptions::max_depth` (checked before each container recursion)
/// and every malformed byte is an InvalidArgument naming its offset, so no
/// input — however hostile — can abort or overflow the stack.
class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonParseOptions& options)
      : text_(text), options_(options) {}

  Result<Json> Parse() {
    // Parsing into the result it returns, rather than into a local `Json`
    // moved into `Result<Json>(T)`, keeps GCC 12 from flagging the
    // variant move as -Wmaybe-uninitialized.
    Result<Json> result = Json();
    JURY_RETURN_NOT_OK(ParseValue(0, &*result));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return result;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(std::size_t depth, Json* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string value;
        JURY_RETURN_NOT_OK(ParseString(&value));
        *out = Json(std::move(value));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = Json(true);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = Json(false);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = Json();
          return Status::OK();
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(std::size_t depth, Json* out) {
    if (depth >= options_.max_depth) {
      return Fail("nesting deeper than " + std::to_string(options_.max_depth));
    }
    ++pos_;  // '{'
    Json object = Json::Object();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = std::move(object);
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      JURY_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      Json value;
      JURY_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      object.Set(key, std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = std::move(object);
        return Status::OK();
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(std::size_t depth, Json* out) {
    if (depth >= options_.max_depth) {
      return Fail("nesting deeper than " + std::to_string(options_.max_depth));
    }
    ++pos_;  // '['
    Json array = Json::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = std::move(array);
      return Status::OK();
    }
    for (;;) {
      Json value;
      JURY_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      array.Append(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = std::move(array);
        return Status::OK();
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  /// RFC 8259 number grammar, checked before conversion so `from_chars`
  /// leniencies (leading zeros, "1.", "+1") cannot widen the accepted
  /// language, then converted overflow-safely: an integer literal that
  /// fits neither int64 nor uint64, or a double outside its range, is an
  /// error — never a saturated or truncated value.
  Status ParseNumber(Json* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      pos_ = start;
      return Fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
      if (pos_ < text_.size() && IsDigit(text_[pos_])) {
        pos_ = start;
        return Fail("leading zeros are not allowed");
      }
    } else {
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        pos_ = start;
        return Fail("expected digits after decimal point");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        pos_ = start;
        return Fail("expected digits in exponent");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      const bool negative = text_[start] == '-';
      if (negative) {
        std::int64_t value = 0;
        const auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec == std::errc() && ptr == last) {
          // Keep "-0" a double so Dump round-trips it byte-stably.
          *out = value == 0 ? Json(-0.0) : Json(value);
          return Status::OK();
        }
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec == std::errc() && ptr == last) {
          *out = value <= static_cast<std::uint64_t>(
                              std::numeric_limits<std::int64_t>::max())
                     ? Json(static_cast<std::int64_t>(value))
                     : Json(value);
          return Status::OK();
        }
      }
      pos_ = start;
      return Fail("integer overflows 64 bits");
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) {
      pos_ = start;
      return Fail("number out of double range");
    }
    *out = Json(value);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        JURY_RETURN_NOT_OK(ParseEscape(out));
        continue;
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c < 0x80) {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      JURY_RETURN_NOT_OK(ConsumeUtf8Sequence(out));
    }
    return Fail("unterminated string");
  }

  Status ParseEscape(std::string* out) {
    ++pos_;  // '\\'
    if (pos_ >= text_.size()) return Fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out->push_back('"'); return Status::OK();
      case '\\': out->push_back('\\'); return Status::OK();
      case '/': out->push_back('/'); return Status::OK();
      case 'b': out->push_back('\b'); return Status::OK();
      case 'f': out->push_back('\f'); return Status::OK();
      case 'n': out->push_back('\n'); return Status::OK();
      case 'r': out->push_back('\r'); return Status::OK();
      case 't': out->push_back('\t'); return Status::OK();
      case 'u': {
        std::uint32_t code = 0;
        JURY_RETURN_NOT_OK(ParseHex4(&code));
        if (code >= 0xD800 && code <= 0xDBFF) {
          // High surrogate: a low surrogate escape must follow.
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            return Fail("lone high surrogate in \\u escape");
          }
          pos_ += 2;
          std::uint32_t low = 0;
          JURY_RETURN_NOT_OK(ParseHex4(&low));
          if (low < 0xDC00 || low > 0xDFFF) {
            return Fail("invalid low surrogate in \\u escape");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          return Fail("lone low surrogate in \\u escape");
        }
        AppendUtf8(code, out);
        return Status::OK();
      }
      default:
        --pos_;
        return Fail("invalid escape character");
    }
  }

  Status ParseHex4(std::uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return Fail("invalid hex digit in \\u escape");
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(std::uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// Validates and copies one multi-byte UTF-8 sequence starting at
  /// `pos_`. Rejects truncated sequences, stray continuation bytes,
  /// overlong encodings, UTF-8-encoded surrogates, and code points above
  /// U+10FFFF — the classic smuggling vectors.
  Status ConsumeUtf8Sequence(std::string* out) {
    const unsigned char lead = static_cast<unsigned char>(text_[pos_]);
    std::size_t length;
    std::uint32_t code;
    if ((lead & 0xE0) == 0xC0) {
      length = 2;
      code = lead & 0x1F;
    } else if ((lead & 0xF0) == 0xE0) {
      length = 3;
      code = lead & 0x0F;
    } else if ((lead & 0xF8) == 0xF0) {
      length = 4;
      code = lead & 0x07;
    } else {
      return Fail("invalid UTF-8 lead byte in string");
    }
    if (pos_ + length > text_.size()) {
      return Fail("truncated UTF-8 sequence in string");
    }
    for (std::size_t i = 1; i < length; ++i) {
      const unsigned char cont = static_cast<unsigned char>(text_[pos_ + i]);
      if ((cont & 0xC0) != 0x80) {
        return Fail("invalid UTF-8 continuation byte in string");
      }
      code = (code << 6) | (cont & 0x3F);
    }
    static constexpr std::uint32_t kMinForLength[5] = {0, 0, 0x80, 0x800,
                                                       0x10000};
    if (code < kMinForLength[length]) {
      return Fail("overlong UTF-8 encoding in string");
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      return Fail("UTF-8-encoded surrogate in string");
    }
    if (code > 0x10FFFF) {
      return Fail("UTF-8 code point above U+10FFFF");
    }
    out->append(text_.substr(pos_, length));
    pos_ += length;
    return Status::OK();
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  std::string_view text_;
  JsonParseOptions options_;
  std::size_t pos_ = 0;
};

}  // namespace

namespace {

// Parse volume and rejection rate, visible in `jury_cli --stats`: on a
// hostile input stream the error counter is the interesting signal.
// Registered at static initialization so the instrument set is identical
// in every process, used or not.
StatsRegistry::Counter& g_documents_parsed =
    RegisterStatsCounter("json.documents_parsed");
StatsRegistry::Counter& g_parse_errors =
    RegisterStatsCounter("json.parse_errors");

}  // namespace

Result<Json> Json::Parse(std::string_view text,
                         const JsonParseOptions& options) {
  Result<Json> result = JsonParser(text, options).Parse();
  g_documents_parsed.Increment();
  if (!result.ok()) g_parse_errors.Increment();
  return result;
}

}  // namespace jury
