// Crash-recovery differential wall for the coordinator daemon.
//
// The service's durability contract: a command is acknowledged only after
// its kExternal record is flushed to the journal, so killing the daemon at
// ANY moment and restarting with --resume loses nothing a client ever saw
// acked. Clients re-query `seq` and resend from there; the finished run is
// byte-identical to one that never crashed.
//
// Pinned at two levels:
//
//   1. In-process: CoordinatorDaemon destroyed mid-script without drain
//      (the writer discards unflushed buffers — the crash model), resumed
//      on the same journal, remaining script resent from recovered_seq,
//      drained. The drain dump (RunResult + TSDB streams at %.17g) must
//      equal an uninterrupted in-process LiveSession run of the same
//      script, across protocols {sync, overcommit, async}, at seeded
//      random crash points — plus a double-crash cycle and an
//      open-loop (admit) variant.
//   2. Process-level: the REAL venn_coordinatord binary, driven over its
//      Unix socket and killed with SIGKILL between acked requests, then
//      restarted with --resume and drained. Same byte-identity bar.
//
// Also here: the drained journal replays strict (the stitched
// prefix+tail is one gapless transcript), and LiveSession matches the
// batch Experiment::run path event for event.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/live.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/dump.h"
#include "venn/venn.h"

namespace venn {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".result");
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ScenarioSpec make_scenario(const std::string& proto, bool open_loop) {
  ScenarioSpec sc;
  sc.seed = 91;
  sc.num_devices = 500;
  sc.num_jobs = 3;
  sc.horizon = 2.0 * kDay;
  sc.set("churn", "weibull");
  sc.set("protocol", proto);
  if (open_loop) {
    sc.set("arrival", "poisson");
    sc.set("arrival.interarrival-min", "300");
    sc.set("mix", "even");
    sc.set("open-loop", "1");
  }
  return sc;
}

// Deterministic traffic script, valid against static experiment facts
// (devices in range, advances monotone) so the daemon accepts every line
// and both sides of the differential journal/apply the same sequence.
std::vector<std::string> build_script(std::uint64_t seed, std::size_t fleet,
                                      double horizon, bool open_loop) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> dev(0, fleet - 1);
  std::uniform_real_distribution<double> step(600.0, horizon / 16.0);
  std::vector<std::string> script;
  double cursor = 0.0;
  for (int i = 0; i < 6; ++i) {
    cursor += step(rng);
    script.push_back("advance " + service::fmt_double(cursor));
    script.push_back("checkin " + std::to_string(dev(rng)) + " " +
                     service::fmt_double(4.0 * step(rng)));
    switch (i) {
      case 1:
        script.push_back("submit 3 40 0 30 0.5 1200");
        break;
      case 2:
        script.push_back(open_loop
                             ? std::string("admit")
                             : "respond " + std::to_string(dev(rng)));
        break;
      case 3:
        script.push_back("checkout " + std::to_string(dev(rng)));
        break;
      case 4:
        script.push_back("snapshot-now");
        break;
      case 5:
        script.push_back("respond " + std::to_string(dev(rng)));
        break;
      default:
        break;
    }
  }
  return script;
}

// The uninterrupted baseline: same scenario, same script, no daemon, no
// journal — just a LiveSession paced by the script, dumped with the same
// deterministic formatter `drain` uses.
std::string reference_dump(const ScenarioSpec& sc, const PolicySpec& policy,
                           const std::vector<std::string>& script) {
  TimeSeriesRecorder rec;
  ExperimentBuilder b;
  b.scenario(sc).observe(rec);
  const Experiment ex = b.build();
  auto scheduler = PolicyRegistry::instance().create(
      policy.name, policy.params, ex.stream_seed("scheduler"));
  api::LiveSession live(ex, std::move(scheduler), {}, nullptr);
  live.start();
  live.advance_to(0.0);
  for (const std::string& line : script) {
    const api::TrafficCommand cmd = api::TrafficCommand::parse(line);
    if (const auto err = live.validate(cmd)) {
      throw std::runtime_error("reference rejects \"" + line + "\": " + *err);
    }
    live.apply(cmd);
  }
  return service::dump_run(live.finish(), &rec);
}

service::CoordinatorDaemon fresh_daemon(const ScenarioSpec& sc,
                                        const PolicySpec& policy,
                                        const std::string& journal) {
  service::DaemonOptions opts;
  opts.scenario = sc;
  opts.policy = policy;
  opts.journal_path = journal;
  return service::CoordinatorDaemon(std::move(opts));
}

service::CoordinatorDaemon resumed_daemon(const std::string& journal) {
  service::DaemonOptions opts;
  opts.journal_path = journal;
  opts.resume = true;
  return service::CoordinatorDaemon(std::move(opts));
}

// Dispatches script[from..to) and asserts every line is acked.
void play(service::CoordinatorDaemon& daemon,
          const std::vector<std::string>& script, std::size_t from,
          std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const std::string reply = daemon.dispatch(script[i]);
    ASSERT_EQ(reply.rfind("ok ", 0), 0u)
        << "script[" << i << "] \"" << script[i] << "\" -> " << reply;
  }
}

// ------------------------------------------- in-process crash differential --

TEST(ServiceDaemon, CrashResumeDrainMatchesUninterruptedRun) {
  std::mt19937_64 crash_rng(0xDEADD0E5);
  const PolicySpec policy = ExperimentBuilder().current_policy();
  for (const char* proto : {"sync", "overcommit", "async"}) {
    const std::string tag = proto;
    SCOPED_TRACE(tag);
    const ScenarioSpec sc = make_scenario(proto, false);
    const auto script = build_script(/*seed=*/1001, sc.num_devices,
                                     sc.horizon, /*open_loop=*/false);
    const std::string expected = reference_dump(sc, policy, script);

    const std::string journal = temp_path("venn_crash_" + tag + ".vjl");
    const std::size_t crash_at = std::uniform_int_distribution<std::size_t>(
        1, script.size() - 1)(crash_rng);
    {
      service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
      play(daemon, script, 0, crash_at);
      ASSERT_EQ(daemon.last_seq(), crash_at);
      // Destroyed here WITHOUT drain: unflushed buffers are dropped,
      // exactly like SIGKILL. Every acked command is already durable.
    }
    service::CoordinatorDaemon daemon = resumed_daemon(journal);
    EXPECT_TRUE(daemon.resumed());
    ASSERT_EQ(daemon.recovered_seq(), crash_at)
        << "an acked command did not survive the crash";
    play(daemon, script, daemon.recovered_seq(), script.size());
    const std::string reply = daemon.dispatch("drain");
    ASSERT_EQ(reply.rfind("ok drained ", 0), 0u) << reply;
    EXPECT_TRUE(daemon.done());
    EXPECT_EQ(read_file(daemon.result_path()), expected)
        << tag << ": crashed-at-" << crash_at
        << " run diverged from the uninterrupted baseline";

    // The stitched journal (recovered prefix + live tail + footer) is
    // one gapless transcript: strict replay verifies every byte.
    const ReplayReport report = Experiment::replay(journal);
    EXPECT_GT(report.events_verified, 0u);
    EXPECT_FALSE(report.resumed_past_journal);
  }
}

// Two crashes in one run: crash, resume, crash again mid-tail, resume
// again, drain. The journal absorbs both tears.
TEST(ServiceDaemon, DoubleCrashStillConverges) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  const ScenarioSpec sc = make_scenario("async", false);
  const auto script =
      build_script(7, sc.num_devices, sc.horizon, /*open_loop=*/false);
  const std::string expected = reference_dump(sc, policy, script);
  const std::string journal = temp_path("venn_doublecrash.vjl");

  const std::size_t k1 = script.size() / 3;
  const std::size_t k2 = (2 * script.size()) / 3;
  {
    service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
    play(daemon, script, 0, k1);
  }
  {
    service::CoordinatorDaemon daemon = resumed_daemon(journal);
    ASSERT_EQ(daemon.recovered_seq(), k1);
    play(daemon, script, k1, k2);
  }
  service::CoordinatorDaemon daemon = resumed_daemon(journal);
  ASSERT_EQ(daemon.recovered_seq(), k2);
  play(daemon, script, k2, script.size());
  ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
  EXPECT_EQ(read_file(daemon.result_path()), expected);
}

// Open-loop traffic (admit pulls a job from the arrival/mix generators)
// crosses the crash boundary exactly too.
TEST(ServiceDaemon, OpenLoopAdmissionsSurviveCrash) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  const ScenarioSpec sc = make_scenario("sync", /*open_loop=*/true);
  const auto script =
      build_script(11, sc.num_devices, sc.horizon, /*open_loop=*/true);
  const std::string expected = reference_dump(sc, policy, script);
  const std::string journal = temp_path("venn_crash_openloop.vjl");

  const std::size_t crash_at = script.size() / 2;
  {
    service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
    play(daemon, script, 0, crash_at);
  }
  service::CoordinatorDaemon daemon = resumed_daemon(journal);
  ASSERT_EQ(daemon.recovered_seq(), crash_at);
  play(daemon, script, crash_at, script.size());
  ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
  EXPECT_EQ(read_file(daemon.result_path()), expected);
}

// A drained (complete) journal refuses to resume: there is nothing left.
TEST(ServiceDaemon, ResumeRefusesCompletedJournal) {
  const PolicySpec policy = ExperimentBuilder().current_policy();
  const ScenarioSpec sc = make_scenario("sync", false);
  const std::string journal = temp_path("venn_complete.vjl");
  {
    service::CoordinatorDaemon daemon = fresh_daemon(sc, policy, journal);
    ASSERT_EQ(daemon.dispatch("advance 3600").rfind("ok ", 0), 0u);
    ASSERT_EQ(daemon.dispatch("drain").rfind("ok drained ", 0), 0u);
  }
  EXPECT_THROW((void)resumed_daemon(journal), std::runtime_error);
}

// ----------------------------------------------- LiveSession == batch run --

// The batch path (Experiment::run) delegates to LiveSession, and a live
// run with no external traffic must equal it exactly.
TEST(ServiceDaemon, LiveSessionMatchesBatchRun) {
  ScenarioSpec sc;
  sc.seed = 29;
  sc.num_devices = 1'000;
  sc.num_jobs = 4;
  sc.horizon = 2.0 * kDay;
  sc.set("churn", "weibull");
  sc.set("protocol", "overcommit");
  const PolicySpec policy = ExperimentBuilder().current_policy();

  TimeSeriesRecorder batch_rec;
  const RunResult batch = [&] {
    ExperimentBuilder b;
    b.scenario(sc).observe(batch_rec);
    return b.run();
  }();

  TimeSeriesRecorder live_rec;
  const RunResult live = [&] {
    ExperimentBuilder b;
    b.scenario(sc).observe(live_rec);
    const Experiment ex = b.build();
    auto scheduler = PolicyRegistry::instance().create(
        policy.name, policy.params, ex.stream_seed("scheduler"));
    api::LiveSession session(ex, std::move(scheduler), {}, nullptr);
    session.start();
    return session.finish();
  }();

  EXPECT_EQ(service::dump_run(batch, &batch_rec),
            service::dump_run(live, &live_rec));
}

// ---------------------------------------- process-level SIGKILL recovery --

struct DaemonProcess {
  pid_t pid = -1;
};

DaemonProcess spawn_daemon(const std::vector<std::string>& args) {
  std::vector<std::string> full = {VENN_COORDINATORD_PATH, "serve"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    // The READY line and any logs are the parent's concern only through
    // the socket; keep the test output clean.
    (void)std::freopen("/dev/null", "w", stdout);
    execv(VENN_COORDINATORD_PATH, argv.data());
    _exit(127);  // exec failed
  }
  if (pid < 0) throw std::runtime_error("fork failed");
  return DaemonProcess{pid};
}

// The daemon binds its socket after construction; poll until it answers.
service::SocketClient connect_with_retry(const std::string& socket_path) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    try {
      auto client = service::SocketClient::connect_unix(socket_path);
      if (client.request("ping") == "ok pong") return client;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  throw std::runtime_error("daemon never came up on " + socket_path);
}

// The real binary, really SIGKILLed: serve over a Unix socket, ack a
// prefix of the script, kill -9, restart --resume, ask `seq`, resend the
// tail, drain — and the result dump equals the uninterrupted in-process
// baseline byte for byte.
TEST(ServiceDaemon, ProcessLevelSigkillRecovery) {
  const std::vector<std::string> kv = {
      "seed=97",  "devices=400",         "jobs=3", "horizon-s=86400",
      "shards=2", "protocol=overcommit", "churn=weibull"};
  ExperimentBuilder builder;
  for (const std::string& s : kv) builder.override_kv(s);
  const ScenarioSpec sc = builder.current_scenario();
  const PolicySpec policy = builder.current_policy();
  const auto script =
      build_script(23, sc.num_devices, sc.horizon, /*open_loop=*/false);
  const std::string expected = reference_dump(sc, policy, script);

  const std::string socket_path = temp_path("venn_proc.sock");
  const std::string journal = temp_path("venn_proc.vjl");
  std::mt19937_64 crash_rng(0x516C411DULL);
  const std::size_t crash_at = std::uniform_int_distribution<std::size_t>(
      1, script.size() - 1)(crash_rng);
  std::vector<std::string> serve_args = kv;
  serve_args.insert(serve_args.end(),
                    {"--socket", socket_path, "--journal", journal,
                     "--quiet"});

  // Phase 1: fresh daemon, ack `crash_at` commands, SIGKILL.
  DaemonProcess proc = spawn_daemon(serve_args);
  {
    auto client = connect_with_retry(socket_path);
    for (std::size_t i = 0; i < crash_at; ++i) {
      const std::string reply = client.request(script[i]);
      ASSERT_EQ(reply.rfind("ok ", 0), 0u)
          << "script[" << i << "] -> " << reply;
    }
  }
  ASSERT_EQ(kill(proc.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(proc.pid, &status, 0), proc.pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Phase 2: restart --resume, resend from the recovered seq, drain.
  proc = spawn_daemon({"--resume", "--journal", journal, "--socket",
                       socket_path, "--quiet"});
  {
    auto client = connect_with_retry(socket_path);
    const std::string seq_reply = client.request("seq");
    ASSERT_EQ(seq_reply.rfind("ok ", 0), 0u) << seq_reply;
    const std::size_t recovered = std::stoull(seq_reply.substr(3));
    ASSERT_EQ(recovered, crash_at)
        << "an acked command did not survive SIGKILL";
    for (std::size_t i = recovered; i < script.size(); ++i) {
      const std::string reply = client.request(script[i]);
      ASSERT_EQ(reply.rfind("ok ", 0), 0u)
          << "script[" << i << "] -> " << reply;
    }
    ASSERT_EQ(client.request("drain").rfind("ok drained ", 0), 0u);
  }
  ASSERT_EQ(waitpid(proc.pid, &status, 0), proc.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(read_file(journal + ".result"), expected)
      << "SIGKILLed-at-" << crash_at
      << " daemon diverged from the uninterrupted baseline";
}

}  // namespace
}  // namespace venn
