// Container-format coverage for persist::Checkpoint: round trip, and the
// per-section salvage semantics the recovery layer depends on — magic and
// version skew reject the whole file, truncation salvages the intact
// prefix, a CRC mismatch drops exactly the corrupt section, and corrupt
// headers stop cleanly. Corruption is data, not an exception: Parse never
// throws.
#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scratch_dir.h"
#include "util/io.h"

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

}  // namespace
}  // namespace jarvis::persist
