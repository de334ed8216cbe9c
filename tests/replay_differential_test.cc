// Replay & crash-recovery differential wall.
//
// Durability must be invisible and replay must be exact:
//
//   1. journal=1 is a pure observer — a journaled run produces the SAME
//      RunResult and TSDB streams, byte for byte, as the same scenario
//      with journaling off (across round protocols). A shards=4 run —
//      `shards=` is a no-op kept for journal headers — journals the same
//      records and replays like the shards=1 run.
//   2. Experiment::replay re-executes a journal byte-identically: every
//      event matches its record, and the replayed RunResult equals the
//      original.
//   3. Crash recovery: a run killed at a deterministic commit
//      (journal.halt-after) leaves a journal that resume-replay completes
//      to the EXACT results of the uninterrupted run — verified prefix,
//      snapshot compared field-for-field at its marked commit, live tail.
//      Pinned across protocols {sync, overcommit, async}.
//
// Plus the guard rails: tampered journals fail replay loudly, runs whose
// inputs are not kv-expressible are refused at replay, and the journal
// knobs validate their preconditions.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "journal/format.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "venn/venn.h"

namespace venn {
namespace {

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].jct, b.jobs[i].jct) << label << " job " << i;
    EXPECT_EQ(a.jobs[i].completed_rounds, b.jobs[i].completed_rounds)
        << label << " job " << i;
    EXPECT_EQ(a.jobs[i].total_aborts, b.jobs[i].total_aborts)
        << label << " job " << i;
    EXPECT_EQ(a.jobs[i].solo_jct_estimate, b.jobs[i].solo_jct_estimate)
        << label << " job " << i;
    ASSERT_EQ(a.jobs[i].rounds.size(), b.jobs[i].rounds.size())
        << label << " job " << i;
    for (std::size_t r = 0; r < a.jobs[i].rounds.size(); ++r) {
      EXPECT_EQ(a.jobs[i].rounds[r].scheduling_delay,
                b.jobs[i].rounds[r].scheduling_delay)
          << label << " job " << i << " round " << r;
      EXPECT_EQ(a.jobs[i].rounds[r].response_collection,
                b.jobs[i].rounds[r].response_collection)
          << label << " job " << i << " round " << r;
    }
  }
  EXPECT_EQ(a.protocol, b.protocol) << label;
  EXPECT_EQ(a.assignment_matrix, b.assignment_matrix) << label;
}

void expect_identical_streams(const TimeSeriesRecorder& a,
                              const TimeSeriesRecorder& b,
                              const std::string& label) {
  const auto keys_a = a.store().keys();
  const auto keys_b = b.store().keys();
  ASSERT_EQ(keys_a.size(), keys_b.size()) << label;
  for (const std::uint64_t key : keys_a) {
    const tsdb::Series* sa = a.store().find(key);
    const tsdb::Series* sb = b.store().find(key);
    ASSERT_NE(sa, nullptr) << label << " stream " << key;
    ASSERT_NE(sb, nullptr) << label << " stream " << key;
    const auto pa = sa->snapshot();
    const auto pb = sb->snapshot();
    ASSERT_EQ(pa.size(), pb.size()) << label << " stream " << key;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].first, pb[i].first)
          << label << " stream " << key << " point " << i;
      EXPECT_EQ(pa[i].second, pb[i].second)
          << label << " stream " << key << " point " << i;
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A fresh journal directory per test case (journal file names derive from
// scenario name + label, so cases must not share directories).
std::string journal_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "venn_journal_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------- journaling is invisible --

// journal=1 (with snapshots) changes nothing about the results: RunResult
// and TSDB streams are byte-identical to the unjournaled run, across
// protocols. Then the one shards=4 case: it runs, journals and replays
// exactly like shards=1 while its header still says shards=4.
TEST(ReplayDifferential, JournalingIsInvisibleAcrossProtocolsAndShards) {
  const auto scenario = [](const char* proto) {
    ScenarioSpec sc;
    sc.seed = 53;
    sc.num_devices = 3'000;
    sc.num_jobs = 6;
    sc.horizon = 3.0 * kDay;
    sc.set("churn", "weibull");
    sc.set("protocol", proto);
    return sc;
  };
  const auto journaled = [](ScenarioSpec sc, const std::string& tag) {
    sc.set("journal", "1");
    sc.set("journal.dir", journal_dir("invis_" + tag));
    sc.set("snapshot_every", "4");
    return sc;
  };
  for (const char* proto : {"sync", "overcommit", "async"}) {
    const ScenarioSpec base = scenario(proto);
    TimeSeriesRecorder plain_rec;
    const RunResult plain = [&] {
      ExperimentBuilder b;
      b.scenario(base).observe(plain_rec);
      return b.run();
    }();

    TimeSeriesRecorder jrec;
    const RunResult jrun = [&] {
      ExperimentBuilder b;
      b.scenario(journaled(base, proto)).observe(jrec);
      return b.run();
    }();

    expect_identical(plain, jrun, proto);
    expect_identical_streams(plain_rec, jrec, proto);
  }

  const ScenarioSpec one = journaled(scenario("overcommit"), "shards1");
  ScenarioSpec four = journaled(scenario("overcommit"), "shards4");
  four.set("shards", "4");
  const std::string kv = four.to_kv();
  EXPECT_NE(kv.find("\nshards=4\n"), std::string::npos) << kv;

  TimeSeriesRecorder rec1;
  TimeSeriesRecorder rec4;
  const RunResult r1 = ExperimentBuilder().scenario(one).observe(rec1).run();
  const RunResult r4 = ExperimentBuilder().scenario(four).observe(rec4).run();
  expect_identical(r1, r4, "shards=4");
  expect_identical_streams(rec1, rec4, "shards=4");

  // Journals: the header differs only in the shards line; every record
  // after it is byte-identical.
  const std::string path1 = api::journal_file_path(one, r1.scheduler);
  const std::string path4 = api::journal_file_path(four, r4.scheduler);
  const std::string bytes1 = read_file(path1);
  const std::string bytes4 = read_file(path4);
  std::size_t end1 = 0;
  std::size_t end4 = 0;
  journal::JournalHeader h1 = journal::decode_header(bytes1, &end1);
  const journal::JournalHeader h4 = journal::decode_header(bytes4, &end4);
  const std::size_t at = h1.scenario_kv.find("\nshards=1\n");
  ASSERT_NE(at, std::string::npos) << h1.scenario_kv;
  h1.scenario_kv.replace(at, 10, "\nshards=4\n");
  EXPECT_EQ(h1.scenario_kv, h4.scenario_kv);
  EXPECT_EQ(h1.inputs_digest, h4.inputs_digest);
  EXPECT_EQ(bytes1.substr(end1), bytes4.substr(end4));

  // Snapshots: the same commits, every section identical except that the
  // idle-pool section ends in 4 per-range counts instead of 1.
  journal::JournalReader reader(path4);
  const std::optional<std::uint64_t> last = reader.last_snapshot_commits();
  ASSERT_TRUE(last.has_value());
  std::size_t pooled = 0;
  for (std::uint64_t c = 4; c <= *last; c += 4) {
    const journal::StateSnapshot s1 =
        journal::read_snapshot_file(journal::snapshot_path(path1, c));
    const journal::StateSnapshot s4 =
        journal::read_snapshot_file(journal::snapshot_path(path4, c));
    ASSERT_EQ(s1.sections.size(), s4.sections.size()) << "commit " << c;
    for (std::size_t i = 0; i < s1.sections.size(); ++i) {
      const auto& [name, b1] = s1.sections[i];
      const auto& b4 = s4.sections[i].second;
      ASSERT_EQ(name, s4.sections[i].first);
      if (name != "idle-pool") {
        EXPECT_EQ(b1, b4) << name << " at commit " << c;
        continue;
      }
      journal::Decoder d1(b1, 0);
      journal::Decoder d4(b4, 0);
      const std::uint64_t pool = d1.u64();
      ASSERT_EQ(d4.u64(), pool);
      std::vector<std::uint64_t> expected(4, 0);
      const FleetPartition ranges(one.num_devices, 4);
      for (std::uint64_t k = 0; k < pool; ++k) {
        const std::uint64_t dev = d1.u64();
        ASSERT_EQ(d4.u64(), dev);
        ++expected[ranges.shard_of(dev)];
      }
      EXPECT_EQ(d1.u64(), 1u);
      EXPECT_EQ(d1.u64(), pool);
      EXPECT_EQ(d4.u64(), 4u);
      for (const std::uint64_t n : expected) EXPECT_EQ(d4.u64(), n);
      EXPECT_EQ(d1.remaining(), 0u);
      EXPECT_EQ(d4.remaining(), 0u);
      pooled += pool > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(pooled, 0u) << "no snapshot caught a non-empty idle pool";

  // And the shards=4 journal replays strictly, snapshot verified.
  const ReplayReport report = Experiment::replay(path4);
  EXPECT_TRUE(report.snapshot_verified);
  expect_identical(r4, report.result, "shards=4 replay");
}

// ------------------------------------------------------------ exact replay --

// Strict replay of a complete journal: every event verified, the footer
// consumed, the replayed RunResult equal to the original.
TEST(ReplayDifferential, StrictReplayReproducesTheRun) {
  ScenarioSpec sc;
  sc.seed = 41;
  sc.num_devices = 3'000;
  sc.num_jobs = 6;
  sc.horizon = 3.0 * kDay;
  sc.set("churn", "weibull");
  sc.set("stream", "1");
  sc.set("journal", "1");
  const std::string dir = journal_dir("strict");
  sc.set("journal.dir", dir);
  sc.set("snapshot_every", "3");

  const RunResult original = ExperimentBuilder().scenario(sc).run();
  const std::string path =
      api::journal_file_path(sc, original.scheduler);

  const ReplayReport report = Experiment::replay(path);
  EXPECT_GT(report.events_verified, 0u);
  EXPECT_FALSE(report.resumed_past_journal);
  EXPECT_TRUE(report.snapshot_verified);
  EXPECT_GT(report.snapshot_commits, 0u);
  expect_identical(original, report.result, "strict replay");
}

// Open-loop admissions travel through the journal too: jobs sampled
// mid-run by the arrival/mix generators replay exactly.
TEST(ReplayDifferential, OpenLoopRunsReplayExactly) {
  ScenarioSpec sc;
  sc.seed = 71;
  sc.num_devices = 2'500;
  sc.num_jobs = 6;
  sc.horizon = 3.0 * kDay;
  sc.set("arrival", "poisson");
  sc.set("arrival.interarrival-min", "180");
  sc.set("mix", "even");
  sc.set("open-loop", "1");
  sc.set("journal", "1");
  sc.set("journal.dir", journal_dir("openloop"));

  const RunResult original = ExperimentBuilder().scenario(sc).run();
  const ReplayReport report =
      Experiment::replay(api::journal_file_path(sc, original.scheduler));
  EXPECT_FALSE(report.resumed_past_journal);
  expect_identical(original, report.result, "open-loop replay");
}

// A tampered journal fails replay loudly at the diverging record.
TEST(ReplayDifferential, TamperedJournalFailsReplay) {
  ScenarioSpec sc;
  sc.seed = 67;
  sc.num_devices = 1'500;
  sc.num_jobs = 4;
  sc.horizon = 2.0 * kDay;
  sc.set("journal", "1");
  sc.set("journal.dir", journal_dir("tamper"));

  const RunResult original = ExperimentBuilder().scenario(sc).run();
  const std::string path =
      api::journal_file_path(sc, original.scheduler);

  // Flip one payload byte of an early record, re-CRC the frame so the
  // READER accepts it — only byte-exact verification can catch it now.
  std::string bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }();
  journal::JournalReader probe(path);
  auto rec = probe.next();
  ASSERT_TRUE(rec.has_value());
  const std::size_t body_start = rec->offset + 8;
  bytes[body_start + 9] ^= 0x01;  // a payload byte (past type + f64 now)
  const std::uint32_t crc =
      journal::crc32(bytes.data() + body_start, rec->payload.size() + 2);
  bytes[rec->offset + 4] = static_cast<char>(crc & 0xFF);
  bytes[rec->offset + 5] = static_cast<char>((crc >> 8) & 0xFF);
  bytes[rec->offset + 6] = static_cast<char>((crc >> 16) & 0xFF);
  bytes[rec->offset + 7] = static_cast<char>((crc >> 24) & 0xFF);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  try {
    (void)Experiment::replay(path);
    FAIL() << "expected divergence";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged at record"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- crash recovery --

// The tentpole guarantee: kill a journaled run at a deterministic commit,
// resume-replay the journal, and land on the EXACT results of the
// uninterrupted run — across all three round protocols.
TEST(ReplayDifferential, CrashRecoveryMatchesUninterruptedRun) {
  for (const char* proto : {"sync", "overcommit", "async"}) {
    ScenarioSpec base;
    base.seed = 53;
    base.num_devices = 2'500;
    base.num_jobs = 6;
    base.horizon = 3.0 * kDay;
    base.set("churn", "weibull");
    base.set("protocol", proto);
    const std::string label = std::string("crash ") + proto;

    const RunResult uninterrupted = ExperimentBuilder().scenario(base).run();

    ScenarioSpec crashed = base;
    crashed.set("journal", "1");
    crashed.set("journal.dir", journal_dir("crash_" + label));
    crashed.set("snapshot_every", "2");
    crashed.set("journal.halt-after", "5");
    bool halted = false;
    std::string path;
    try {
      (void)ExperimentBuilder().scenario(crashed).run();
    } catch (const SimulationHalted& h) {
      halted = true;
      EXPECT_EQ(h.commits_flushed, 5u) << label;
    }
    ASSERT_TRUE(halted) << label << ": run finished before commit 5";

    // The journal ends at the 5th flushed commit, no footer. Resume
    // replay verifies the prefix, checks the stored snapshot at its
    // marked commit, then continues live to the end of the run.
    path = api::journal_file_path(crashed, uninterrupted.scheduler);
    ReplayOptions opts;
    opts.resume = true;
    const ReplayReport report = Experiment::replay(path, opts);
    EXPECT_TRUE(report.resumed_past_journal) << label;
    EXPECT_TRUE(report.snapshot_verified) << label;
    EXPECT_EQ(report.snapshot_commits, 4u) << label;
    EXPECT_GT(report.events_verified, 0u) << label;
    expect_identical(uninterrupted, report.result, label);

    // Strict replay of a crashed journal refuses: the re-execution
    // outruns the journal mid-run.
    try {
      (void)Experiment::replay(path);
      FAIL() << label << ": strict replay accepted a crashed journal";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("journal ended early"),
                std::string::npos)
          << e.what();
    }
  }
}

// A torn tail (truncated final frame) on top of the crash: tolerate +
// resume still recovers to the uninterrupted results.
TEST(ReplayDifferential, TornTailRecoveryMatchesUninterruptedRun) {
  ScenarioSpec base;
  base.seed = 67;
  base.num_devices = 2'000;
  base.num_jobs = 5;
  base.horizon = 2.5 * kDay;
  base.set("churn", "weibull");

  const RunResult uninterrupted = ExperimentBuilder().scenario(base).run();

  ScenarioSpec journaled = base;
  journaled.set("journal", "1");
  journaled.set("journal.dir", journal_dir("torn"));
  journaled.set("snapshot_every", "3");
  const RunResult full = ExperimentBuilder().scenario(journaled).run();
  expect_identical(uninterrupted, full, "torn baseline");

  // Tear the journal mid-record (drop the footer and then some).
  const std::string path =
      api::journal_file_path(journaled, uninterrupted.scheduler);
  std::string bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const auto keep = static_cast<std::streamsize>(bytes.size() * 3 / 4);
    out.write(bytes.data(), keep);
  }

  // Without tolerance the tear is a hard error.
  EXPECT_THROW((void)Experiment::replay(path), std::runtime_error);

  ReplayOptions opts;
  opts.tolerate_torn_tail = true;
  opts.resume = true;
  const ReplayReport report = Experiment::replay(path, opts);
  EXPECT_TRUE(report.resumed_past_journal);
  expect_identical(uninterrupted, report.result, "torn recovery");
}

// --------------------------------------------------------------- guard rails --

// Runs built from explicit inputs (use_devices/use_jobs) are not
// kv-expressible; replay refuses them via the inputs digest.
TEST(ReplayDifferential, NonExpressibleInputsRefusedAtReplay) {
  ScenarioSpec sc;
  sc.seed = 19;
  sc.num_devices = 400;
  sc.num_jobs = 3;
  sc.horizon = 2.0 * kDay;
  sc.set("journal", "1");
  sc.set("journal.dir", journal_dir("digest"));

  // Generate inputs, then perturb one job so the journaled world no longer
  // matches what the header kv regenerates.
  ExperimentInputs inputs = api::build_inputs(sc);
  ASSERT_FALSE(inputs.jobs.empty());
  inputs.jobs[0].rounds += 1;
  ScenarioSpec plain = sc;
  const Experiment ex(plain, std::move(inputs));
  const RunResult r = ex.run(PolicySpec{});

  try {
    (void)Experiment::replay(api::journal_file_path(sc, r.scheduler));
    FAIL() << "expected digest mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos)
        << e.what();
  }
}

// run_with (an externally constructed scheduler) cannot be journaled: the
// header has no kv form for it.
TEST(ReplayDifferential, RunWithRejectsJournaledScenarios) {
  ScenarioSpec sc;
  sc.num_devices = 200;
  sc.num_jobs = 2;
  sc.set("journal", "1");
  sc.set("journal.dir", journal_dir("runwith"));
  const Experiment ex = ExperimentBuilder().scenario(sc).build();
  auto sched = PolicyRegistry::instance().create(
      "random", {}, ex.stream_seed("scheduler"));
  EXPECT_THROW((void)ex.run_with(std::move(sched)), std::invalid_argument);
}

// journal.dir / journal.halt-after without journal=1 are configuration
// errors, not silent no-ops.
TEST(ReplayDifferential, JournalKnobsValidatePreconditions) {
  {
    ScenarioSpec sc;
    sc.num_devices = 100;
    sc.num_jobs = 1;
    sc.set("journal.dir", "/tmp/nowhere");
    EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
  }
  {
    ScenarioSpec sc;
    sc.num_devices = 100;
    sc.num_jobs = 1;
    sc.set("journal.halt-after", "3");
    EXPECT_THROW((void)api::build_inputs(sc), std::invalid_argument);
  }
}

}  // namespace
}  // namespace venn
