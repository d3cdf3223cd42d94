#include "serve/protocol.h"

#include <array>

namespace jarvis::serve {

namespace {

constexpr std::array<const char*, kRequestTypeCount> kTypeNames = {
    "ping",           "ingest",     "suggest_action",
    "suggest_minutes", "metrics",   "checkpoint",
    "health",         "shutdown",   "stall",
};

}  // namespace

const char* RequestTypeName(RequestType type) {
  return kTypeNames[static_cast<std::size_t>(type)];
}

std::optional<RequestType> RequestTypeFromName(const std::string& name) {
  for (std::size_t i = 0; i < kTypeNames.size(); ++i) {
    if (name == kTypeNames[i]) return static_cast<RequestType>(i);
  }
  return std::nullopt;
}

std::optional<Request> ParseRequest(const std::string& payload,
                                    std::string* error, std::int64_t* id) {
  if (id != nullptr) *id = 0;
  util::JsonValue doc;
  try {
    doc = util::JsonValue::Parse(payload);
  } catch (const util::JsonError& e) {
    if (error != nullptr) *error = std::string("not JSON: ") + e.what();
    return std::nullopt;
  }
  if (!doc.is_object()) {
    if (error != nullptr) *error = "request is not a JSON object";
    return std::nullopt;
  }
  Request request;
  const auto& object = doc.AsObject();
  const auto id_it = object.find("id");
  if (id_it != object.end()) {
    if (!id_it->second.is_number()) {
      if (error != nullptr) *error = "'id' is not a number";
      return std::nullopt;
    }
    request.id = id_it->second.AsInt();
    if (id != nullptr) *id = request.id;
  }
  const auto type_it = object.find("type");
  if (type_it == object.end() || !type_it->second.is_string()) {
    if (error != nullptr) *error = "missing string 'type'";
    return std::nullopt;
  }
  const auto type = RequestTypeFromName(type_it->second.AsString());
  if (!type.has_value()) {
    if (error != nullptr) {
      *error = "unknown request type '" + type_it->second.AsString() + "'";
    }
    return std::nullopt;
  }
  request.type = *type;
  request.body = std::move(doc);
  return request;
}

std::string MakeOkResponse(std::int64_t id, util::JsonObject fields) {
  fields["id"] = id;
  fields["ok"] = true;
  return util::JsonValue(std::move(fields)).Dump();
}

std::string MakeErrorResponse(std::int64_t id, const std::string& code,
                              const std::string& detail) {
  util::JsonObject fields;
  fields["id"] = id;
  fields["ok"] = false;
  fields["error"] = code;
  fields["detail"] = detail;
  return util::JsonValue(std::move(fields)).Dump();
}

bool ResponseOk(const util::JsonValue& response) {
  return response.At("ok").AsBool();
}

}  // namespace jarvis::serve
