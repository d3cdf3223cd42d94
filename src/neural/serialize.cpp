#include "neural/serialize.h"

#include <cmath>

#include "util/check.h"

namespace jarvis::neural {

using jarvis::util::JsonArray;
using jarvis::util::JsonObject;
using jarvis::util::JsonValue;

namespace {

// v1: topology + parameters. v2: + optional optimizer state. The writer
// stamps v2; the reader accepts both and rejects anything newer.
constexpr std::int64_t kFormatVersion = 2;

}  // namespace

JsonValue TensorToJson(const Tensor& t) {
  JsonObject obj;
  obj["rows"] = JsonValue(static_cast<std::int64_t>(t.rows()));
  obj["cols"] = JsonValue(static_cast<std::int64_t>(t.cols()));
  JsonArray data;
  data.reserve(t.size());
  for (double v : t.data()) {
    JARVIS_CHECK(std::isfinite(v),
                 "TensorToJson: refusing to serialize non-finite value "
                 "(diverged parameters must not be persisted)");
    data.emplace_back(v);
  }
  obj["data"] = JsonValue(std::move(data));
  return JsonValue(std::move(obj));
}

Tensor TensorFromJson(const JsonValue& doc) {
  const std::int64_t rows = doc.At("rows").AsInt();
  const std::int64_t cols = doc.At("cols").AsInt();
  if (rows < 0 || cols < 0) {
    throw jarvis::util::JsonError("tensor shape negative");
  }
  const auto& data = doc.At("data").AsArray();
  if (data.size() != static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols)) {
    throw jarvis::util::JsonError("tensor data size mismatch");
  }
  Tensor t(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double v = data[i].AsNumber();
    if (!std::isfinite(v)) {
      throw jarvis::util::JsonError("tensor data non-finite");
    }
    t.mutable_data()[i] = v;
  }
  return t;
}

JsonValue ToJson(const Network& network, const SerializeOptions& options) {
  JsonObject obj;
  obj["format_version"] = JsonValue(kFormatVersion);
  obj["input_features"] =
      JsonValue(static_cast<std::int64_t>(network.input_features()));
  JsonArray layers;
  for (const auto& layer : network.layers()) {
    JsonObject layer_obj;
    layer_obj["activation"] = JsonValue(ActivationName(layer.activation()));
    layer_obj["weights"] = TensorToJson(layer.weights());
    layer_obj["biases"] = TensorToJson(layer.biases());
    layers.push_back(JsonValue(std::move(layer_obj)));
  }
  obj["layers"] = JsonValue(std::move(layers));
  if (options.include_optimizer) {
    JsonObject opt;
    opt["name"] = JsonValue(network.optimizer().name());
    opt["state"] = network.optimizer().StateToJson();
    obj["optimizer"] = JsonValue(std::move(opt));
  }
  return JsonValue(std::move(obj));
}

Network FromJson(const JsonValue& doc, Loss loss,
                 std::unique_ptr<Optimizer> optimizer, jarvis::util::Rng rng) {
  if (doc.AsObject().count("format_version") != 0) {
    const std::int64_t version = doc.At("format_version").AsInt();
    if (version < 1 || version > kFormatVersion) {
      throw jarvis::util::JsonError(
          "network document format version " + std::to_string(version) +
          " unsupported (library writes v" + std::to_string(kFormatVersion) +
          ")");
    }
  }
  const auto input_features =
      static_cast<std::size_t>(doc.At("input_features").AsInt());
  const auto& layer_docs = doc.At("layers").AsArray();
  std::vector<LayerSpec> specs;
  specs.reserve(layer_docs.size());
  for (const auto& layer_doc : layer_docs) {
    specs.push_back(
        {static_cast<std::size_t>(layer_doc.At("weights").At("cols").AsInt()),
         ActivationFromName(layer_doc.At("activation").AsString())});
  }
  Network network(input_features, specs, loss, std::move(optimizer), rng);
  for (std::size_t i = 0; i < layer_docs.size(); ++i) {
    network.mutable_layers()[i].SetParameters(
        TensorFromJson(layer_docs[i].At("weights")),
        TensorFromJson(layer_docs[i].At("biases")));
  }
  if (doc.AsObject().count("optimizer") != 0) {
    const JsonValue& opt_doc = doc.At("optimizer");
    const std::string& recorded = opt_doc.At("name").AsString();
    if (recorded != network.optimizer().name()) {
      throw jarvis::util::JsonError(
          "optimizer state is '" + recorded + "' but the network was given '" +
          network.optimizer().name() + "' — state never imports across kinds");
    }
    network.optimizer().StateFromJson(opt_doc.At("state"), network.layers());
  }
  return network;
}

}  // namespace jarvis::neural
