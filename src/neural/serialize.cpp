#include "neural/serialize.h"

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>

#include "util/check.h"

namespace jarvis::neural {

using jarvis::util::JsonArray;
using jarvis::util::JsonError;
using jarvis::util::JsonObject;
using jarvis::util::JsonValue;

namespace {

// v3: tensors as f64le. The reader accepts only this version; v1/v2
// documents (decimal "data" arrays) are refused.
constexpr std::int64_t kFormatVersion = 3;

// f64le is the tensor's memory as is: a vector<double> on a little-endian
// host already holds the bytes in the encoded order.
static_assert(std::endian::native == std::endian::little,
              "f64le tensors are copied to and from memory byte for byte");

constexpr char kBase64[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Each alphabet byte's 6-bit value; every other byte maps above 63.
constexpr std::array<std::uint8_t, 256> MakeBase64Values() {
  std::array<std::uint8_t, 256> values{};
  values.fill(0xFF);
  for (std::uint8_t i = 0; i < 64; ++i) {
    values[static_cast<unsigned char>(kBase64[i])] = i;
  }
  return values;
}

constexpr std::array<std::uint8_t, 256> kBase64Values = MakeBase64Values();

std::size_t Base64Length(std::size_t bytes) { return (bytes + 2) / 3 * 4; }

std::string Base64Encode(const unsigned char* in, std::size_t size) {
  std::string out(Base64Length(size), '=');
  char* o = out.data();
  std::size_t i = 0;
  for (; i + 3 <= size; i += 3, o += 4) {
    const std::uint32_t v = (std::uint32_t{in[i]} << 16) |
                            (std::uint32_t{in[i + 1]} << 8) | in[i + 2];
    o[0] = kBase64[v >> 18];
    o[1] = kBase64[(v >> 12) & 63];
    o[2] = kBase64[(v >> 6) & 63];
    o[3] = kBase64[v & 63];
  }
  if (i < size) {  // one or two bytes left: "xx==" or "xxx="
    const bool two = i + 1 < size;
    const std::uint32_t v =
        (std::uint32_t{in[i]} << 16) | (two ? std::uint32_t{in[i + 1]} << 8 : 0);
    o[0] = kBase64[v >> 18];
    o[1] = kBase64[(v >> 12) & 63];
    if (two) o[2] = kBase64[(v >> 6) & 63];
  }
  return out;
}

// Decodes `text` into the `size` bytes at `out`. True only when `text` is
// exactly what Base64Encode writes for `size` bytes: its length, alphabet,
// '=' padding and zero pad bits. On false, `out` holds partial garbage.
bool Base64Decode(std::string_view text, unsigned char* out,
                  std::size_t size) {
  if (text.size() != Base64Length(size)) return false;
  const auto* in = reinterpret_cast<const unsigned char*>(text.data());
  std::uint32_t seen = 0;  // OR of every value: above 63 if any was invalid
  for (std::size_t n = size / 3; n > 0; --n, in += 4, out += 3) {
    const std::uint32_t a = kBase64Values[in[0]];
    const std::uint32_t b = kBase64Values[in[1]];
    const std::uint32_t c = kBase64Values[in[2]];
    const std::uint32_t d = kBase64Values[in[3]];
    seen |= a | b | c | d;
    const std::uint32_t v = (a << 18) | (b << 12) | (c << 6) | d;
    out[0] = static_cast<unsigned char>(v >> 16);
    out[1] = static_cast<unsigned char>(v >> 8);
    out[2] = static_cast<unsigned char>(v);
  }
  const std::size_t tail = size % 3;
  if (tail != 0) {
    const bool two = tail == 2;
    if (in[3] != '=' || (!two && in[2] != '=')) return false;
    const std::uint32_t a = kBase64Values[in[0]];
    const std::uint32_t b = kBase64Values[in[1]];
    const std::uint32_t c = two ? kBase64Values[in[2]] : 0;
    seen |= a | b | c;
    const std::uint32_t v = (a << 18) | (b << 12) | (c << 6);
    // The bits below the last whole byte must be zero.
    if ((v & (two ? 0xFFu : 0xFFFFu)) != 0) return false;
    out[0] = static_cast<unsigned char>(v >> 16);
    if (two) out[1] = static_cast<unsigned char>(v >> 8);
  }
  return seen <= 63;
}

}  // namespace

JsonValue TensorToJson(const Tensor& t) {
  JARVIS_CHECK(AllFinite(t),
               "TensorToJson: refusing to serialize non-finite value "
               "(diverged parameters must not be persisted)");
  JsonObject obj;
  obj["rows"] = JsonValue(static_cast<std::int64_t>(t.rows()));
  obj["cols"] = JsonValue(static_cast<std::int64_t>(t.cols()));
  obj["f64le"] = JsonValue(
      Base64Encode(reinterpret_cast<const unsigned char*>(t.data().data()),
                   t.size() * sizeof(double)));
  return JsonValue(std::move(obj));
}

Tensor TensorFromJson(const JsonValue& doc) {
  const std::int64_t rows = doc.At("rows").AsInt();
  const std::int64_t cols = doc.At("cols").AsInt();
  const std::string& f64le = doc.At("f64le").AsString();
  if (rows < 0 || cols < 0) throw JsonError("tensor shape negative");
  // Bound rows x cols by what the text can hold before multiplying, so a
  // hostile shape neither overflows nor drives an allocation.
  const auto r = static_cast<std::size_t>(rows);
  const auto c = static_cast<std::size_t>(cols);
  const std::size_t max_values = f64le.size() / 4 * 3 / sizeof(double);
  if (c != 0 && r > max_values / c) {
    throw JsonError("tensor shape larger than its f64le data");
  }
  Tensor t(r, c);
  if (!Base64Decode(f64le,
                    reinterpret_cast<unsigned char*>(t.mutable_data().data()),
                    t.size() * sizeof(double))) {
    throw JsonError("tensor f64le is not the base64 of rows x cols doubles");
  }
  if (!AllFinite(t)) throw JsonError("tensor data non-finite");
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
  const std::int64_t version = doc.At("format_version").AsInt();
  if (version != kFormatVersion) {
    throw JsonError("network document format version " +
                    std::to_string(version) + " unsupported (library reads v" +
                    std::to_string(kFormatVersion) + ")");
  }
  const std::int64_t input_features = doc.At("input_features").AsInt();
  const auto& layer_docs = doc.At("layers").AsArray();
  if (input_features <= 0 || layer_docs.empty()) {
    throw JsonError("network document has no input or no layers");
  }
  // Decode every tensor first: the network is built from shapes the
  // decoder has already bounded by the document's own size.
  std::vector<LayerSpec> specs;
  std::vector<Tensor> weights;
  std::vector<Tensor> biases;
  auto width = static_cast<std::size_t>(input_features);
  for (const auto& layer_doc : layer_docs) {
    Tensor w = TensorFromJson(layer_doc.At("weights"));
    Tensor b = TensorFromJson(layer_doc.At("biases"));
    if (w.rows() != width || w.cols() == 0 || b.rows() != 1 ||
        b.cols() != w.cols()) {
      throw JsonError("network layer " + std::to_string(specs.size()) +
                      ": parameter shapes do not chain");
    }
    width = w.cols();
    specs.push_back(
        {width, ActivationFromName(layer_doc.At("activation").AsString())});
    weights.push_back(std::move(w));
    biases.push_back(std::move(b));
  }
  Network network(static_cast<std::size_t>(input_features), specs, loss,
                  std::move(optimizer), rng);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    network.mutable_layers()[i].SetParameters(weights[i], biases[i]);
  }
  if (doc.AsObject().count("optimizer") != 0) {
    const JsonValue& opt_doc = doc.At("optimizer");
    const std::string& recorded = opt_doc.At("name").AsString();
    if (recorded != network.optimizer().name()) {
      throw JsonError(
          "optimizer state is '" + recorded + "' but the network was given '" +
          network.optimizer().name() + "' — state never imports across kinds");
    }
    network.optimizer().StateFromJson(opt_doc.At("state"), network.layers());
  }
  return network;
}

}  // namespace jarvis::neural
