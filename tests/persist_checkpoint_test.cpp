// Container-format coverage for persist::Checkpoint: round trip, and the
// per-section salvage semantics the recovery layer depends on — magic and
// version skew reject the whole file, truncation salvages the intact
// prefix, a CRC mismatch drops exactly the corrupt section, and corrupt
// headers stop cleanly. Corruption is data, not an exception: Parse never
// throws. The hostile-bytes cases then carry damage past the container
// into the owners' loaders and their f64le tensor decoder.
#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "fsm/device_library.h"
#include "json_edit.h"
#include "rl/dqn_agent.h"
#include "scratch_dir.h"
#include "spl/learner.h"
#include "util/io.h"
#include "util/rng.h"

namespace jarvis::persist {
namespace {

Checkpoint MakeCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.AddSection("meta", "{\"v\":1}");
  checkpoint.AddSection("spl", std::string(512, 'a'));
  checkpoint.AddSection("dqn", std::string("binary\0bytes\xff ok", 16));
  return checkpoint;
}

TEST(Checkpoint, RoundTripPreservesSectionsAndOrder) {
  const std::string bytes = MakeCheckpoint().Serialize();
  std::vector<CheckpointIssue> issues;
  const Checkpoint parsed = Checkpoint::Parse(bytes, &issues);
  EXPECT_TRUE(issues.empty()) << FormatIssues(issues);
  ASSERT_EQ(parsed.section_count(), 3u);
  // Byte-identical re-serialization: same sections in the same order.
  EXPECT_EQ(parsed.Serialize(), bytes);
  ASSERT_NE(parsed.FindSection("dqn"), nullptr);
  EXPECT_EQ(*parsed.FindSection("dqn"), std::string("binary\0bytes\xff ok", 16));
  EXPECT_EQ(*parsed.FindSection("meta"), "{\"v\":1}");
}

TEST(Checkpoint, AddSectionReplacesExistingPayload) {
  Checkpoint checkpoint;
  checkpoint.AddSection("spl", "old");
  checkpoint.AddSection("meta", "m");
  checkpoint.AddSection("spl", "new");
  EXPECT_EQ(checkpoint.section_count(), 2u);
  EXPECT_EQ(*checkpoint.FindSection("spl"), "new");
  // Replacement keeps the original position.
  Checkpoint in_order;
  in_order.AddSection("spl", "new");
  in_order.AddSection("meta", "m");
  EXPECT_EQ(checkpoint.Serialize(), in_order.Serialize());
}

TEST(Checkpoint, BadMagicRecoversNothing) {
  std::string bytes = MakeCheckpoint().Serialize();
  bytes[0] = 'X';
  std::vector<CheckpointIssue> issues;
  const Checkpoint parsed = Checkpoint::Parse(bytes, &issues);
  EXPECT_EQ(parsed.section_count(), 0u);
  ASSERT_FALSE(issues.empty());
  EXPECT_TRUE(issues[0].section.empty());  // file-level issue
}

TEST(Checkpoint, VersionSkewRecoversNothing) {
  std::string bytes = MakeCheckpoint().Serialize();
  bytes[4] = static_cast<char>(kFormatVersion + 1);  // little-endian u32
  std::vector<CheckpointIssue> issues;
  const Checkpoint parsed = Checkpoint::Parse(bytes, &issues);
  EXPECT_EQ(parsed.section_count(), 0u);
  ASSERT_FALSE(issues.empty());
}

TEST(Checkpoint, VersionOneFileIsRefusedWhole) {
  // v1 files carry decimal tensors, which no reader decodes any more.
  std::string bytes = MakeCheckpoint().Serialize();
  bytes[4] = 1;
  std::vector<CheckpointIssue> issues;
  EXPECT_EQ(Checkpoint::Parse(bytes, &issues).section_count(), 0u);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].detail.find("format version skew: file v1"),
            std::string::npos)
      << issues[0].detail;
}

TEST(Checkpoint, TruncationSalvagesIntactPrefix) {
  const std::string bytes = MakeCheckpoint().Serialize();
  // Cut into the middle of the last section's payload: the first two
  // sections must survive, the torn one must be reported and dropped.
  const std::string torn = bytes.substr(0, bytes.size() - 8);
  std::vector<CheckpointIssue> issues;
  const Checkpoint parsed = Checkpoint::Parse(torn, &issues);
  EXPECT_EQ(parsed.section_count(), 2u);
  EXPECT_TRUE(parsed.HasSection("meta"));
  EXPECT_TRUE(parsed.HasSection("spl"));
  EXPECT_FALSE(parsed.HasSection("dqn"));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].sections_lost, 1u);

  // Cut inside the middle section: it and the section after it are lost.
  issues.clear();
  const std::size_t spl_at = bytes.find(std::string(512, 'a'));
  ASSERT_NE(spl_at, std::string::npos);
  EXPECT_EQ(Checkpoint::Parse(bytes.substr(0, spl_at + 256), &issues)
                .section_count(),
            1u);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].sections_lost, 2u);
}

TEST(Checkpoint, BitFlipDropsOnlyTheCorruptSection) {
  const std::string bytes = MakeCheckpoint().Serialize();
  // Flip one bit inside the large middle section's payload; CRC catches
  // it, the sections around it still restore.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 0x10);
  std::vector<CheckpointIssue> issues;
  const Checkpoint parsed = Checkpoint::Parse(flipped, &issues);
  EXPECT_TRUE(parsed.HasSection("meta"));
  EXPECT_FALSE(parsed.HasSection("spl"));
  EXPECT_TRUE(parsed.HasSection("dqn"));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].section, "spl");
}

TEST(Checkpoint, EmptyAndGarbageInputsNeverThrow) {
  std::vector<CheckpointIssue> issues;
  EXPECT_EQ(Checkpoint::Parse("", &issues).section_count(), 0u);
  EXPECT_EQ(Checkpoint::Parse("JV", &issues).section_count(), 0u);
  EXPECT_EQ(Checkpoint::Parse(std::string(64, '\xff'), &issues)
                .section_count(),
            0u);
  // A null issues sink is also fine.
  EXPECT_EQ(Checkpoint::Parse("garbage", nullptr).section_count(), 0u);
}

TEST(Checkpoint, TrailingBytesAreReportedAndIgnored) {
  std::string bytes = MakeCheckpoint().Serialize();
  bytes += "junk";
  std::vector<CheckpointIssue> issues;
  const Checkpoint parsed = Checkpoint::Parse(bytes, &issues);
  EXPECT_EQ(parsed.section_count(), 3u);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].sections_lost, 0u);  // reported, but nothing was lost
}

TEST(Checkpoint, WriteAndReadFileRoundTrip) {
  const testing_util::ScratchDir scratch("persist_checkpoint_test");
  const std::string path = scratch.path() + "/roundtrip.ckpt";
  MakeCheckpoint().WriteFile(path);
  std::vector<CheckpointIssue> issues;
  const Checkpoint parsed = Checkpoint::ReadFile(path, &issues);
  EXPECT_TRUE(issues.empty()) << FormatIssues(issues);
  EXPECT_EQ(parsed.section_count(), 3u);
}

TEST(Checkpoint, MissingFileThrowsIoError) {
  const testing_util::ScratchDir scratch("persist_checkpoint_test");
  EXPECT_THROW(Checkpoint::ReadFile(scratch.path() + "/no_such.ckpt", nullptr),
               util::io::IoError);
}

// Crash-before-commit: a failed rename must leave the previous checkpoint
// untouched — the atomic-write contract the whole recovery story rests on.
class RenameFailInterceptor : public util::io::WriteInterceptor {
 public:
  void OnWrite(const std::string&, std::string&) override {}
  bool OnRename(const std::string&) override { return false; }
};

TEST(Checkpoint, FailedRenameLeavesOldCheckpointIntact) {
  const testing_util::ScratchDir scratch("persist_checkpoint_test");
  const std::string path = scratch.path() + "/atomic.ckpt";
  Checkpoint old_checkpoint;
  old_checkpoint.AddSection("meta", "old");
  old_checkpoint.WriteFile(path);

  Checkpoint new_checkpoint;
  new_checkpoint.AddSection("meta", "new");
  RenameFailInterceptor interceptor;
  EXPECT_THROW(new_checkpoint.WriteFile(path, &interceptor),
               util::io::IoError);

  const Checkpoint survivor = Checkpoint::ReadFile(path, nullptr);
  ASSERT_NE(survivor.FindSection("meta"), nullptr);
  EXPECT_EQ(*survivor.FindSection("meta"), "old");
  EXPECT_FALSE(util::io::FileExists(path + ".tmp"));  // temp cleaned up
}

// The byte-at-a-time table CRC-32 util::io::Crc32 replaced: the oracle
// for its slicing-by-8 form.
std::uint32_t Crc32ByteAtATime(const unsigned char* bytes, std::size_t size) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheByteAtATimeTableAtEveryLengthAndAlignment) {
  EXPECT_EQ(util::io::Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::io::Crc32(std::string()), 0u);
  constexpr std::size_t kMaxLength = 4096;
  constexpr std::size_t kAlignments = 8;
  util::Rng rng(4096);
  std::vector<unsigned char> buffer(kMaxLength + kAlignments);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.NextIndex(256));
  }
  for (std::size_t offset = 0; offset < kAlignments; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(util::io::Crc32(start, length), Crc32ByteAtATime(start, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

// --- Hostile bytes through the section owners ------------------------------

// A checkpoint as the pipeline writes one: a P_safe learner's "spl" section
// and a trained DQN's "dqn" section (parameters plus Adam moments), every
// tensor in f64le. Two hidden widths give tensors of both padded tails.
class HostileCheckpoint : public ::testing::Test {
 protected:
  HostileCheckpoint() : home_(fsm::ExampleHomeDevices()) {
    config_.hidden_units = {8, 7};
    config_.batch_size = 8;
    config_.seed = 29;
    rl::DqnAgent agent(kFeatures, home_.codec(), config_);
    const std::size_t slot = home_.codec().MiniActionSlot({2, 1});
    for (int i = 0; i < 24; ++i) {
      rl::Experience experience;
      experience.features = {0.1 * i, 1.0 - 0.01 * i, 0.5, -0.3};
      experience.taken_slots = {slot};
      experience.reward = (i % 2 == 0) ? 1.0 : -1.0;
      experience.next_features = {0.1 * i, 0.9, 0.4, -0.2};
      experience.next_mask =
          std::vector<bool>(home_.codec().mini_action_count(), true);
      experience.done = true;
      agent.Remember(std::move(experience));
    }
    for (int i = 0; i < 4; ++i) agent.Replay();
    dqn_doc_ = agent.ToJson();
    const spl::SafetyPolicyLearner learner(home_, spl::SplConfig{});
    spl_doc_ = util::JsonValue::Parse(learner.ToJsonString());
    good_.AddSection("spl", spl_doc_.Dump());
    good_.AddSection("dqn", dqn_doc_.Dump());
  }

  struct Outcome {
    std::size_t restored = 0;
    std::size_t failed = 0;
    std::size_t lost = 0;  // absent from the parsed container
    std::vector<std::string> restored_names;
  };

  // Restores like Jarvis::RestoreFrom, but decodes the DQN at once: every
  // section present either loads or counts as failed, and a section the
  // container lost comes with an issue.
  Outcome Restore(const std::string& bytes) const {
    std::vector<CheckpointIssue> issues;
    const Checkpoint checkpoint = Checkpoint::Parse(bytes, &issues);
    const std::vector<std::pair<std::string,
                                std::function<void(const std::string&)>>>
        owners = {
            {"spl",
             [this](const std::string& text) {
               spl::SafetyPolicyLearner learner(home_, spl::SplConfig{});
               learner.LoadJsonString(text);
             }},
            {"dqn",
             [this](const std::string& text) {
               rl::DqnAgent agent(kFeatures, home_.codec(), config_);
               agent.LoadJson(util::JsonValue::Parse(text));
             }},
        };
    Outcome outcome;
    for (const auto& [name, load] : owners) {
      const std::string* text = checkpoint.FindSection(name);
      if (text == nullptr) {
        ++outcome.lost;
        EXPECT_FALSE(issues.empty()) << name << " vanished without an issue";
        continue;
      }
      try {
        load(*text);
        ++outcome.restored;
        outcome.restored_names.push_back(name);
      } catch (const std::exception&) {
        ++outcome.failed;
      }
    }
    return outcome;
  }

  // The good checkpoint with one section's document replaced.
  std::string WithSection(const std::string& name,
                          const util::JsonValue& doc) const {
    Checkpoint checkpoint = good_;
    checkpoint.AddSection(name, doc.Dump());
    return checkpoint.Serialize();
  }

  static constexpr std::size_t kFeatures = 4;
  fsm::EnvironmentFsm home_;
  rl::DqnConfig config_;
  util::JsonValue dqn_doc_;
  util::JsonValue spl_doc_;
  Checkpoint good_;
};

TEST_F(HostileCheckpoint, TheUndamagedCheckpointRestores) {
  const Outcome outcome = Restore(good_.Serialize());
  EXPECT_EQ(outcome.restored, 2u);
}

TEST_F(HostileCheckpoint, TruncationsRestoreThePrefixAndCountTheRest) {
  const std::string bytes = good_.Serialize();
  util::Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cut = rng.NextIndex(bytes.size());
    const Outcome outcome = Restore(bytes.substr(0, cut));
    EXPECT_EQ(outcome.failed, 0u) << "cut " << cut;
    EXPECT_GE(outcome.lost, 1u) << "cut " << cut;
    EXPECT_EQ(outcome.restored + outcome.lost, 2u) << "cut " << cut;
  }
}

TEST_F(HostileCheckpoint, ByteFlipsBehindAValidCrcReachTheDecoder) {
  // The section CRC is recomputed over the damaged payload, so every flip
  // reaches the owner's loader and its tensor decoder. The other section
  // always restores.
  util::Rng rng(72);
  std::size_t failed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string name = trial % 2 == 0 ? "spl" : "dqn";
    std::string payload = *good_.FindSection(name);
    const std::size_t at = rng.NextIndex(payload.size());
    payload[at] = static_cast<char>(payload[at] ^ (1 + rng.NextIndex(255)));
    Checkpoint checkpoint = good_;
    checkpoint.AddSection(name, payload);
    const Outcome outcome = Restore(checkpoint.Serialize());
    EXPECT_EQ(outcome.lost, 0u);
    EXPECT_EQ(outcome.restored + outcome.failed, 2u);
    const std::string other = name == "spl" ? "dqn" : "spl";
    EXPECT_NE(std::find(outcome.restored_names.begin(),
                        outcome.restored_names.end(), other),
              outcome.restored_names.end())
        << name << " flip at " << at;
    failed += outcome.failed;
  }
  // Most flips land in tensor text, and most of those must be refused.
  EXPECT_GT(failed, 100u);
}

json_edit::JsonPath Field(json_edit::JsonPath path, const std::string& key) {
  path.emplace_back(key);
  return path;
}

TEST_F(HostileCheckpoint, MalformedTensorsCountAFailedSection) {
  using json_edit::JsonPath;
  // One tensor of each padded tail: 4x8 doubles end in "==", 1x7 in "=".
  const JsonPath double_pad = {"network", "layers", 0u, "weights"};
  const JsonPath single_pad = {"network", "layers", 1u, "biases"};
  const JsonPath moment = {"network", "optimizer", "state", "v_weights", 1u};
  const JsonPath filter = {"filter", "network", "layers", 0u, "weights"};
  const auto text_at = [](const util::JsonValue& doc, const JsonPath& path) {
    const util::JsonValue* value = &doc;
    for (const auto& step : path) {
      value = std::holds_alternative<std::string>(step)
                  ? &value->At(std::get<std::string>(step))
                  : &value->AsArray().at(std::get<std::size_t>(step));
    }
    return value->At("f64le").AsString();
  };
  ASSERT_EQ(text_at(dqn_doc_, double_pad).substr(
                text_at(dqn_doc_, double_pad).size() - 2),
            "==");
  ASSERT_EQ(text_at(dqn_doc_, single_pad).back(), '=');
  ASSERT_NE(text_at(dqn_doc_, single_pad).end()[-2], '=');

  const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  using Edit = std::function<std::string(std::string)>;
  const std::vector<std::pair<std::string, Edit>> text_edits = {
      {"out-of-alphabet byte", [](std::string t) { t[3] = '-'; return t; }},
      {"NUL byte", [](std::string t) { t[0] = '\0'; return t; }},
      {"high byte", [](std::string t) { t[t.size() / 2] = '\xc3'; return t; }},
      {"'=' inside", [](std::string t) { t[4] = '='; return t; }},
      {"one character long", [](std::string t) { return t + "A"; }},
      {"one character short", [](std::string t) { t.pop_back(); return t; }},
      {"four characters long", [](std::string t) { return t + "AAAA"; }},
      {"padding dropped",
       [](std::string t) {
         while (t.back() == '=') t.back() = 'A';
         return t;
       }},
      {"padding doubled",
       [](std::string t) {
         t[t.find('=') - 1] = '=';
         return t;
       }},
      {"non-zero pad bits",
       [&alphabet](std::string t) {
         const std::size_t last = t.find('=') - 1;
         t[last] = alphabet[alphabet.find(t[last]) | 1u];
         return t;
       }},
  };
  std::size_t cases = 0;
  for (const auto& [section, doc, paths] :
       {std::tuple{std::string("dqn"), dqn_doc_,
                   std::vector<JsonPath>{double_pad, single_pad, moment}},
        std::tuple{std::string("spl"), spl_doc_,
                   std::vector<JsonPath>{filter}}}) {
    for (const JsonPath& path : paths) {
      const JsonPath field = Field(path, "f64le");
      for (const auto& [why, edit] : text_edits) {
        const std::string text = text_at(doc, path);
        if (text.back() != '=' && why.find("pad") != std::string::npos) {
          continue;  // no padding to damage on this tensor
        }
        const Outcome outcome = Restore(WithSection(
            section, json_edit::SetJson(doc, field,
                                        util::JsonValue(edit(text)))));
        EXPECT_EQ(outcome.failed, 1u) << section << ": " << why;
        EXPECT_EQ(outcome.restored, 1u) << section << ": " << why;
        ++cases;
      }
      // Shapes the text cannot hold, including products past 2^64.
      const auto big = util::JsonValue(std::int64_t{1} << 40);
      for (const auto& [key, value] :
           std::vector<std::pair<std::string, util::JsonValue>>{
               {"rows", util::JsonValue(-1)},
               {"cols", util::JsonValue(-8)},
               {"rows", big},
               {"cols", big},
               {"rows", util::JsonValue(1e300)}}) {
        const Outcome outcome = Restore(WithSection(
            section, json_edit::SetJson(doc, Field(path, key), value)));
        EXPECT_EQ(outcome.failed, 1u) << section << ": " << key;
        ++cases;
      }
      // 2^40 x 2^24 wraps to 0 doubles in 64 bits.
      const util::JsonValue wrapped = json_edit::SetJson(
          json_edit::SetJson(doc, Field(path, "rows"), big),
          Field(path, "cols"), util::JsonValue(std::int64_t{1} << 24));
      EXPECT_EQ(Restore(WithSection(section, wrapped)).failed, 1u);
      // NaN and Inf bit patterns in otherwise well-formed text.
      for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
        const std::string good_text = text_at(doc, path);
        std::vector<double> values((good_text.size() / 4 * 3) / 8, 0.5);
        values.back() = bad;
        const Outcome outcome = Restore(WithSection(
            section, json_edit::SetJson(
                         doc, field,
                         util::JsonValue(json_edit::F64le(values)))));
        EXPECT_EQ(outcome.failed, 1u) << section << ": non-finite";
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 60u);
}

}  // namespace
}  // namespace jarvis::persist
