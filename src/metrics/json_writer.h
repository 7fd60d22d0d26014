// Minimal streaming JSON writer for machine-readable reports (cgraph_cli --report-json).

#ifndef SRC_METRICS_JSON_WRITER_H_
#define SRC_METRICS_JSON_WRITER_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cgraph {

// Builds one compact JSON document. Commas are inserted automatically; inside an object
// every value must be preceded by Key() (Field() does both). Integers are written
// exactly, doubles in their shortest round-trip form, and non-finite doubles as null.
// The writer does not validate nesting: callers pair every Begin with its End.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(double value);
  JsonWriter& Value(uint64_t value);
  template <std::unsigned_integral T>
    requires(!std::is_same_v<T, bool> && !std::is_same_v<T, uint64_t>)
  JsonWriter& Value(T value) {
    return Value(static_cast<uint64_t>(value));
  }

  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    Key(key);
    return Value(value);
  }

  const std::string& str() const { return out_; }

 private:
  // Emits the separating comma unless this is the first element of its container.
  void BeforeValue();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  void AppendEscaped(std::string_view text);

  std::string out_;
  std::vector<bool> has_element_;  // One entry per open container.
  bool after_key_ = false;
};

}  // namespace cgraph

#endif  // SRC_METRICS_JSON_WRITER_H_
