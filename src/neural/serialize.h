// JSON (de)serialization of network parameters, so a trained SPL filter or
// Q-network can be saved after the learning phase and reloaded at
// deployment, as the paper's offline-learning workflow implies.
//
// Every tensor is {"rows", "cols", "f64le"}: f64le is the base64 (RFC 4648,
// padded) of its values as raw little-endian IEEE-754 doubles, so a round
// trip is bit-exact, -0.0 and subnormals included. A network document
// carries topology + parameters, plus an optional "optimizer" object (kind
// + moment/velocity state) when serialized with include_optimizer, so a
// restored network resumes training mid-schedule instead of with a cold
// optimizer. FromJson reads only the version ToJson writes.
//
// Non-finite policy: serialization REJECTS NaN/Inf parameters with
// util::CheckError, and deserialization rejects them with util::JsonError.
// A diverged network must fail loudly at the save/restore boundary:
// silently persisting a poisoned policy is exactly the failure mode the
// checkpoint layer exists to prevent.
#pragma once

#include <string>

#include "neural/network.h"
#include "util/json.h"

namespace jarvis::neural {

// Tensor <-> JSON, shared by the network and optimizer-state serializers.
// TensorToJson throws util::CheckError on non-finite values;
// TensorFromJson throws util::JsonError on a negative shape, an f64le that
// is not the exact encoding of rows x cols doubles (checked before any
// allocation), or non-finite data.
jarvis::util::JsonValue TensorToJson(const Tensor& t);
Tensor TensorFromJson(const jarvis::util::JsonValue& doc);

struct SerializeOptions {
  // Persist the optimizer's state (Adam moments / SGD velocities, step
  // count) alongside the parameters. Off by default: inference-only
  // reloads don't pay for it.
  bool include_optimizer = false;
};

// Serializes topology + parameters (+ optimizer state when requested).
jarvis::util::JsonValue ToJson(const Network& network,
                               const SerializeOptions& options = {});

// Rebuilds a network from ToJson output with the given loss/optimizer.
// Throws util::JsonError when the layer shapes do not chain. When the
// document carries optimizer state, it is imported into `optimizer` —
// whose kind must match the recorded one (util::JsonError otherwise);
// without it the network resumes with the optimizer as given.
Network FromJson(const jarvis::util::JsonValue& doc, Loss loss,
                 std::unique_ptr<Optimizer> optimizer,
                 jarvis::util::Rng rng);

}  // namespace jarvis::neural
