// Builds hostile variants of serialized documents for restore tests.
// util::JsonValue has no mutable access, so an edit rebuilds the path from
// the root down to the edited value and shares everything else.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/json.h"

namespace jarvis::json_edit {

// One step into a document: an object key or an array index.
using JsonStep = std::variant<std::string, std::size_t>;
using JsonPath = std::vector<JsonStep>;

// Returns `doc` with the value at `path` replaced by edit(value).
inline util::JsonValue EditJson(
    const util::JsonValue& doc, const JsonPath& path,
    const std::function<util::JsonValue(const util::JsonValue&)>& edit,
    std::size_t depth = 0) {
  if (depth == path.size()) return edit(doc);
  if (const auto* key = std::get_if<std::string>(&path[depth])) {
    util::JsonObject object = doc.AsObject();
    object.at(*key) = EditJson(object.at(*key), path, edit, depth + 1);
    return util::JsonValue(std::move(object));
  }
  util::JsonArray array = doc.AsArray();
  const std::size_t index = std::get<std::size_t>(path[depth]);
  array.at(index) = EditJson(array.at(index), path, edit, depth + 1);
  return util::JsonValue(std::move(array));
}

// Returns `doc` with the value at `path` replaced by `value`.
inline util::JsonValue SetJson(const util::JsonValue& doc,
                               const JsonPath& path, util::JsonValue value) {
  return EditJson(doc, path,
                  [&value](const util::JsonValue&) { return value; });
}

// Returns `doc` with `value` appended to the array at `path`.
inline util::JsonValue AppendJson(const util::JsonValue& doc,
                                  const JsonPath& path,
                                  util::JsonValue value) {
  return EditJson(doc, path, [&value](const util::JsonValue& array) {
    util::JsonArray items = array.AsArray();
    items.push_back(value);
    return util::JsonValue(std::move(items));
  });
}

// The "f64le" text of a tensor holding `values`: RFC 4648 base64, with '='
// padding, of their raw little-endian IEEE-754 bytes. Written bit by bit,
// apart from neural/serialize.cpp's codec, so tests can both craft tensors
// the production encoder refuses (NaN, Inf) and check what it writes.
inline std::string F64le(const std::vector<double>& values) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::vector<int> bits;
  for (double value : values) {
    const auto word = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      for (int bit = 7; bit >= 0; --bit) {
        bits.push_back(static_cast<int>((word >> (8 * byte + bit)) & 1u));
      }
    }
  }
  std::string out;
  for (std::size_t i = 0; i < bits.size(); i += 6) {
    int sextet = 0;
    for (std::size_t k = i; k < i + 6; ++k) {
      sextet = 2 * sextet + (k < bits.size() ? bits[k] : 0);
    }
    out.push_back(kAlphabet[sextet]);
  }
  while (out.size() % 4 != 0) out.push_back('=');
  return out;
}

}  // namespace jarvis::json_edit
