#include "src/metrics/json_writer.h"

#include <charconv>
#include <cmath>

namespace cgraph {

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
  } else if (!has_element_.empty()) {
    if (has_element_.back()) {
      out_ += ',';
    }
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::Open(char bracket) {
  BeforeValue();
  out_ += bracket;
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  has_element_.pop_back();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  BeforeValue();
  AppendEscaped(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  AppendEscaped(value);
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  // Without a format, std::to_chars writes the shortest form that parses back exactly.
  char buffer[32];
  out_.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  BeforeValue();
  char buffer[24];
  out_.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
  return *this;
}

void JsonWriter::AppendEscaped(std::string_view text) {
  out_ += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      out_ += "\\u00";
      out_ += kHex[(c >> 4) & 0xF];
      out_ += kHex[c & 0xF];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

}  // namespace cgraph
