// Cross-version journal wall.
//
// tests/fixtures/journal_shards4/ holds a small journaled run (200
// devices, 2 jobs, shards=4, snapshot_every=2) written by a build that
// still executed `shards=` on a worker pool, together with that build's
// `venn_sim_cli inspect --seek-commit 6` dump. `shards=` is a no-op now,
// but journals carry it and their snapshots carry one idle-pool count per
// FleetPartition range of it. This wall pins that compatibility:
//
//   - strict replay, with snapshot verification on, reproduces every
//     journaled event and the stored snapshot byte for byte;
//   - inspecting each snapshot commit verifies the stored snapshot, and
//     the dump at commit 6 equals the recorded one line for line;
//   - the stored idle-pool sections keep the layout `u64 pool size, ids,
//     u64 S, S counts` with S = 4 and the counts per device range.
//
// A change to the idle-pool section layout or to the per-range counts
// fails the first two checks on the recorded bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "journal/format.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "service/inspect.h"
#include "venn/venn.h"

namespace venn {
namespace {

std::filesystem::path fixture_dir() {
  return std::filesystem::path(__FILE__).parent_path() / "fixtures" /
         "journal_shards4";
}

// Copies the fixture into a fresh temp directory so nothing a replay or an
// inspection might write lands in the source tree. Returns the journal.
std::string staged_journal(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("venn_fixture_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(fixture_dir())) {
    std::filesystem::copy_file(entry.path(), dir / entry.path().filename());
  }
  return (dir / "default-Venn.vjl").string();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The dump names the journal and snapshot files by the path it was given;
// strip the staging directory so it reads as if run inside it.
std::string relative_to(std::string text, const std::string& dir) {
  const std::string prefix = dir + "/";
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at)) {
    text.erase(at, prefix.size());
  }
  return text;
}

TEST(JournalFixture, Shards4JournalReplaysStrictly) {
  const std::string path = staged_journal("replay");
  ReplayOptions opts;
  opts.verify_snapshot = true;
  const ReplayReport report = Experiment::replay(path, opts);
  EXPECT_GT(report.events_verified, 0u);
  EXPECT_FALSE(report.resumed_past_journal);
  EXPECT_TRUE(report.snapshot_verified);
  EXPECT_EQ(report.snapshot_commits, 6u);
  EXPECT_EQ(report.result.finished_jobs(), 2u);
}

TEST(JournalFixture, InspectAtSnapshotCommitsMatchesRecordedDump) {
  const std::string path = staged_journal("inspect");
  for (const std::uint64_t commit : {2u, 4u, 6u}) {
    const service::InspectReport report =
        service::inspect_journal(path, {commit});
    EXPECT_EQ(report.commit, commit);
    EXPECT_TRUE(report.snapshot_compared) << "commit " << commit;
    if (commit == 6) {
      const std::string expected =
          read_file(fixture_dir() / "inspect_commit6.txt");
      ASSERT_FALSE(expected.empty());
      const std::string dir =
          std::filesystem::path(path).parent_path().string();
      EXPECT_EQ(relative_to(report.text, dir), expected);
    }
  }
}

TEST(JournalFixture, IdlePoolSectionKeepsPerRangeCounts) {
  const std::string path = (fixture_dir() / "default-Venn.vjl").string();
  const std::size_t devices = 200;
  std::size_t spread = 0;
  for (const std::uint64_t commit : {2u, 4u, 6u}) {
    SCOPED_TRACE(commit);
    const journal::StateSnapshot snap =
        journal::read_snapshot_file(journal::snapshot_path(path, commit));
    const std::string* bytes = snap.find("idle-pool");
    ASSERT_NE(bytes, nullptr);
    journal::Decoder d(*bytes, 0);
    const std::uint64_t pool = d.u64();
    std::vector<std::uint64_t> expected(4, 0);
    const FleetPartition ranges(devices, 4);
    for (std::uint64_t i = 0; i < pool; ++i) {
      const std::uint64_t dev = d.u64();
      ASSERT_LT(dev, devices);
      ++expected[ranges.shard_of(dev)];
    }
    ASSERT_EQ(d.u64(), 4u);  // S = the scenario's shards value
    std::vector<std::uint64_t> counts;
    for (int s = 0; s < 4; ++s) counts.push_back(d.u64());
    EXPECT_EQ(d.remaining(), 0u);
    EXPECT_EQ(counts, expected);
    const auto filled = std::count_if(counts.begin(), counts.end(),
                                      [](std::uint64_t c) { return c > 0; });
    spread += filled > 1 ? 1 : 0;
  }
  // At least one snapshot spreads the pool over several ranges, so the
  // per-range counts are not vacuous.
  EXPECT_GT(spread, 0u);
}

}  // namespace
}  // namespace venn
