#include "json_read.h"

#include <cstdlib>
#include <map>

namespace hexbench {

namespace {

struct Value {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  std::string text;  // string value, or the number's spelling
  std::vector<Value> items;
  std::map<std::string, Value> fields;

  const Value* Get(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool ParseDocument(Value* out) {
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool Hex4(unsigned* cp) {
    if (pos_ + 4 > s_.size()) {
      return false;
    }
    const std::string digits(s_.substr(pos_, 4));
    char* end = nullptr;
    *cp = static_cast<unsigned>(std::strtoul(digits.c_str(), &end, 16));
    if (end != digits.c_str() + 4) {
      return false;
    }
    pos_ += 4;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) {
        return false;
      }
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!Hex4(&cp)) {
            return false;
          }
          if (cp >= 0xD800 && cp < 0xDC00 && Literal("\\u")) {
            unsigned low = 0;
            if (!Hex4(&low)) {
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > 64) {
      return false;
    }
    SkipSpace();
    if (pos_ >= s_.size()) {
      return false;
    }
    const char c = s_[pos_];
    if (c == '"') {
      out->kind = Value::kString;
      return ParseString(&out->text);
    }
    if (c == '{') {
      out->kind = Value::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipSpace();
        if (!Literal(":")) {
          return false;
        }
        if (!ParseValue(&out->fields[key], depth + 1)) {
          return false;
        }
        SkipSpace();
        if (Literal("}")) {
          return true;
        }
        if (!Literal(",")) {
          return false;
        }
      }
    }
    if (c == '[') {
      out->kind = Value::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        out->items.emplace_back();
        if (!ParseValue(&out->items.back(), depth + 1)) {
          return false;
        }
        SkipSpace();
        if (Literal("]")) {
          return true;
        }
        if (!Literal(",")) {
          return false;
        }
      }
    }
    if (Literal("true") || Literal("false")) {
      out->kind = Value::kBool;
      return true;
    }
    if (Literal("null")) {
      out->kind = Value::kNull;
      return true;
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' ||
            (s_[pos_] >= '0' && s_[pos_] <= '9'))) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = Value::kNumber;
    out->text = std::string(s_.substr(start, pos_ - start));
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool CellKey(const Value& cell, std::string* key) {
  const Value* type = cell.Get("type");
  const Value* value = cell.Get("value");
  if (type == nullptr || value == nullptr || value->kind != Value::kString) {
    return false;
  }
  if (type->text == "uri") {
    *key = "<" + value->text + ">";
  } else if (type->text == "bnode") {
    *key = "_:" + value->text;
  } else if (type->text == "literal" || type->text == "typed-literal") {
    *key = "\"" + value->text + "\"";
    if (const Value* lang = cell.Get("xml:lang")) {
      *key += "@" + lang->text;
    } else if (const Value* dt = cell.Get("datatype")) {
      *key += "^^<" + dt->text + ">";
    }
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool ParseSparqlJson(std::string_view text, SparqlRows* out) {
  Value doc;
  if (!Parser(text).ParseDocument(&doc) || doc.kind != Value::kObject) {
    return false;
  }
  const Value* head = doc.Get("head");
  const Value* results = doc.Get("results");
  if (head == nullptr || results == nullptr) {
    return false;
  }
  const Value* vars = head->Get("vars");
  const Value* bindings = results->Get("bindings");
  if (vars == nullptr || bindings == nullptr ||
      bindings->kind != Value::kArray) {
    return false;
  }
  out->vars.clear();
  out->rows.clear();
  for (const Value& v : vars->items) {
    out->vars.push_back(v.text);
  }
  for (const Value& b : bindings->items) {
    std::vector<std::string> row(out->vars.size());
    for (std::size_t i = 0; i < out->vars.size(); ++i) {
      if (const Value* cell = b.Get(out->vars[i])) {
        if (!CellKey(*cell, &row[i])) {
          return false;
        }
      }
    }
    out->rows.push_back(std::move(row));
  }
  return true;
}

bool ReadJsonCount(std::string_view text, const std::string& field,
                   long long* value) {
  Value doc;
  if (!Parser(text).ParseDocument(&doc) || doc.kind != Value::kObject) {
    return false;
  }
  const Value* v = doc.Get(field);
  if (v == nullptr || v->kind != Value::kNumber) {
    return false;
  }
  *value = std::atoll(v->text.c_str());
  return true;
}

long long CountCell(const std::string& key) {
  static const std::string kSuffix =
      "\"^^<http://www.w3.org/2001/XMLSchema#integer>";
  if (key.size() <= kSuffix.size() + 1 || key[0] != '"' ||
      key.compare(key.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return -1;
  }
  return std::atoll(key.c_str() + 1);
}

}  // namespace hexbench
