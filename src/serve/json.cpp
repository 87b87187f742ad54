#include "serve/json.h"

#include <cctype>
#include <cstddef>

#include "util/errors.h"

namespace bsr::serve {

namespace {

// Arrays and objects nest at most this deep. The reader recurses once per
// level, so without a cap one line of `[` would overflow a worker's stack;
// the deepest request the contract defines (a batched lint) nests 4 deep.
constexpr int kMaxDepth = 64;

[[noreturn]] void bad(const std::string& what, std::size_t pos) {
  throw UsageError("malformed request JSON: " + what + " at byte " +
                   std::to_string(pos));
}

}  // namespace

bool Json::boolean() const {
  usage_check(kind_ == Kind::Bool, "JSON field is not a boolean");
  return bool_;
}

long Json::num() const {
  usage_check(kind_ == Kind::Number, "JSON field is not a number");
  return num_;
}

const std::string& Json::str() const {
  usage_check(kind_ == Kind::String, "JSON field is not a string");
  return str_;
}

const std::vector<Json>& Json::array() const {
  usage_check(kind_ == Kind::Array, "JSON field is not an array");
  return *arr_;
}

const std::map<std::string, Json>& Json::object() const {
  usage_check(kind_ == Kind::Object, "JSON field is not an object");
  return *obj_;
}

const Json* Json::get(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

std::string Json::str_or(const std::string& key,
                         const std::string& def) const {
  const Json* v = get(key);
  if (v == nullptr) return def;
  usage_check(v->is_string(), "field '" + key + "' must be a string");
  return v->str();
}

long Json::num_or(const std::string& key, long def) const {
  const Json* v = get(key);
  if (v == nullptr) return def;
  usage_check(v->is_number(), "field '" + key + "' must be a number");
  return v->num();
}

bool Json::bool_or(const std::string& key, bool def) const {
  const Json* v = get(key);
  if (v == nullptr) return def;
  usage_check(v->is_bool(), "field '" + key + "' must be a boolean");
  return v->boolean();
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) bad("trailing content", pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) bad("unexpected end of input", pos_);
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) bad(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        bad("nesting deeper than " + std::to_string(kMaxDepth) + " levels",
            pos_);
      }
      ++depth_;
      Json v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      Json v;
      v.kind_ = Json::Kind::String;
      v.str_ = string();
      return v;
    }
    if (c == 't' || c == 'f' || c == 'n') return literal();
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) bad("dangling escape", pos_);
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) bad("truncated \\u escape", pos_);
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code += 10 + (h - 'a');
            } else if (h >= 'A' && h <= 'F') {
              code += 10 + (h - 'A');
            } else {
              bad("bad \\u escape", pos_);
            }
          }
          // The wire protocol only escapes control bytes; reject the
          // surrogate range instead of silently mangling it.
          if (code > 0x7f) bad("non-ASCII \\u escape (send raw UTF-8)", pos_);
          out += static_cast<char>(code);
          break;
        }
        default: bad("unknown escape", pos_);
      }
    }
    expect('"');
    return out;
  }

  Json literal() {
    Json v;
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.kind_ = Json::Kind::Bool;
      v.bool_ = true;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.kind_ = Json::Kind::Bool;
      v.bool_ = false;
    } else if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      v.kind_ = Json::Kind::Null;
    } else {
      bad("bad literal", pos_);
    }
    return v;
  }

  Json number() {
    std::size_t end = pos_;
    if (end < s_.size() && s_[end] == '-') ++end;
    const std::size_t digits = end;
    while (end < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[end])) != 0) {
      ++end;
    }
    if (end == digits) bad("bad number", pos_);
    Json v;
    v.kind_ = Json::Kind::Number;
    try {
      v.num_ = std::stol(s_.substr(pos_, end - pos_));
    } catch (const std::exception&) {
      bad("number out of range", pos_);
    }
    pos_ = end;
    return v;
  }

  Json array() {
    expect('[');
    Json v;
    v.kind_ = Json::Kind::Array;
    v.arr_ = std::make_shared<std::vector<Json>>();
    if (!consume(']')) {
      do {
        v.arr_->push_back(value());
      } while (consume(','));
      expect(']');
    }
    return v;
  }

  Json object() {
    expect('{');
    Json v;
    v.kind_ = Json::Kind::Object;
    v.obj_ = std::make_shared<std::map<std::string, Json>>();
    if (!consume('}')) {
      do {
        const std::string key = string();
        expect(':');
        (*v.obj_)[key] = value();
      } while (consume(','));
      expect('}');
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

Json Json::parse(const std::string& text) { return JsonParser(text).parse(); }

}  // namespace bsr::serve
