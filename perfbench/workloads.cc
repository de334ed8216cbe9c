// Workload shapes, generated inputs, and the timed runs of one sub-instance:
// an in-process LiveSession run (sim workloads, and the daemon's reference)
// and a served daemon run over a Unix socket.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/builder.h"
#include "api/observers.h"
#include "api/registry.h"
#include "bench.h"
#include "device/eligibility.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/dump.h"
#include "service/ingest.h"
#include "service/server.h"
#include "sim/event_queue.h"

namespace perfbench {

using venn::api::TrafficCommand;

// Why these shapes: fleet-100k puts ~0.7M events in the queue at t=0 and
// leaves the scheduler ~8% of the run, so the event core, session
// bookkeeping and idle-pool sweep carry it; contention-500j keeps the queue
// shallow but re-plans IRS thousands of times, so the scheduler carries
// about half of it; the daemon's simulation is small, so the wire, ingest
// handoff, codec and journal carry its acks. Each is the bypass workload for
// the others' layers. Sub-instances average the simulated metrics over
// several seeded worlds: one world's average JCT swings by ~20% with its job
// mix, which would spread a one-world run across seeds by nearly the 25%
// bound. fleet-100k runs 7 days (its jobs finish within the first two) so
// that 12 worlds fit in a run; contention-500j runs 42 days so that every
// job finishes.
const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet-100k", "contention-500j", "daemon-closed-loop"};
  return names;
}

Shape make_shape(const std::string& workload, bool tiny) {
  Shape s;
  s.workload = workload;
  if (workload == "fleet-100k") {
    s.kv = {"policy=venn", tiny ? "devices=2000" : "devices=100000",
            tiny ? "jobs=6" : "jobs=50",
            tiny ? "horizon-days=2" : "horizon-days=7"};
    s.instances = tiny ? 2 : 12;
  } else if (workload == "contention-500j") {
    s.kv = {"policy=venn", tiny ? "devices=1000" : "devices=7000",
            tiny ? "jobs=40" : "jobs=500",
            tiny ? "horizon-days=2" : "horizon-days=42"};
    s.instances = tiny ? 2 : 10;
  } else if (workload == "daemon-closed-loop") {
    s.kv = {"policy=venn", tiny ? "devices=300" : "devices=2000",
            tiny ? "jobs=3" : "jobs=20",
            tiny ? "horizon-days=1" : "horizon-days=7"};
    s.instances = tiny ? 2 : 24;
    s.commands = tiny ? 300 : 2000;
  } else {
    throw std::invalid_argument("unknown workload \"" + workload + "\"");
  }
  return s;
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  return seed * 1000 + k + 1;
}

namespace {

double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::size_t below(std::mt19937_64& rng, std::size_t n) {
  return static_cast<std::size_t>(unit(rng) * static_cast<double>(n));
}

venn::api::ScenarioSpec scenario_of(const Shape& shape) {
  venn::api::ExperimentBuilder b;
  for (const std::string& kv : shape.kv) b.override_kv(kv);
  return b.current_scenario();
}

}  // namespace

std::vector<std::string> daemon_script(const Shape& shape, std::uint64_t seed,
                                       bool inject_reject) {
  const std::size_t devices = scenario_of(shape).num_devices;
  std::mt19937_64 rng(seed ^ 0x6a09e667f3bcc909ULL);
  std::vector<std::string> out;
  out.reserve(shape.commands + 1);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < shape.commands; ++i) {
    TrafficCommand cmd;
    if (i % 10 == 9) {
      cursor += 1 + below(rng, 60);
      cmd.kind = TrafficCommand::Kind::kAdvance;
      cmd.target = static_cast<double>(cursor);
    } else {
      const double r = unit(rng);
      if (r < 0.01) {
        cmd.kind = TrafficCommand::Kind::kSubmit;
        cmd.spec.rounds = 2 + static_cast<int>(below(rng, 7));
        cmd.spec.demand = 8 + static_cast<int>(below(rng, 33));
        cmd.spec.category = static_cast<venn::ResourceCategory>(
            below(rng, venn::kNumCategories));
        cmd.spec.nominal_task_s = 120.0;
        cmd.spec.task_cv = 0.25;
        cmd.spec.deadline_s = 600.0;
      } else if (r < 0.40) {
        cmd.kind = TrafficCommand::Kind::kCheckin;
        cmd.dev = below(rng, devices);
        cmd.duration = static_cast<double>(300 + below(rng, 3300));
      } else if (r < 0.70) {
        cmd.kind = TrafficCommand::Kind::kRespond;
        cmd.dev = below(rng, devices);
      } else {
        cmd.kind = TrafficCommand::Kind::kCheckout;
        cmd.dev = below(rng, devices);
      }
    }
    out.push_back(cmd.canonical());
  }
  if (inject_reject) {
    TrafficCommand bad;
    bad.kind = TrafficCommand::Kind::kCheckin;
    bad.dev = devices + 7;  // out of range: validate() refuses it
    bad.duration = 60.0;
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(out.size() / 2),
               bad.canonical());
  }
  return out;
}

std::vector<std::string> hourly_advances(const Shape& shape) {
  const double horizon_s = scenario_of(shape).horizon;
  std::vector<std::string> out;
  for (double t = 3600.0;; t += 3600.0) {
    TrafficCommand cmd;
    cmd.kind = TrafficCommand::Kind::kAdvance;
    cmd.target = std::min(t, horizon_s);
    out.push_back(cmd.canonical());
    if (t >= horizon_s) break;
  }
  return out;
}

// ----------------------------------------------------------- in process --

SessionRun run_session(const Shape& shape, std::uint64_t scenario_seed,
                       const std::vector<std::string>& script,
                       SpanLog* spans) {
  SessionRun out;
  std::vector<TrafficCommand> cmds;
  cmds.reserve(script.size());
  for (const std::string& line : script) {
    cmds.push_back(TrafficCommand::parse(line));
  }
  // The daemon's result dump includes the recorder's streams, so the
  // in-process reference of a daemon instance records them too.
  const bool record_series = shape.commands > 0;
  venn::api::TimeSeriesRecorder recorder;
  venn::api::ExperimentBuilder builder;
  for (const std::string& kv : shape.kv) builder.override_kv(kv);
  builder.seed(scenario_seed);
  if (record_series) builder.observe(recorder);

  std::uint32_t parent = 0;  // enclosing span of scheduler calls
  const auto t0 = Clock::now();
  const venn::api::Experiment ex = builder.build();
  const auto t1 = Clock::now();
  const venn::api::PolicySpec& policy = builder.current_policy();
  std::unique_ptr<venn::Scheduler> scheduler =
      venn::api::PolicyRegistry::instance().create(
          policy.name, policy.params, ex.stream_seed("scheduler"));
  TimedScheduler* timed = nullptr;
  if (spans != nullptr) {
    auto wrapped =
        std::make_unique<TimedScheduler>(std::move(scheduler), spans, &parent);
    timed = wrapped.get();
    scheduler = std::move(wrapped);
  }
  venn::api::LiveSession live(ex, std::move(scheduler), {}, nullptr);
  live.start();
  const auto t2 = Clock::now();

  std::uint32_t root = 0;
  std::uint32_t run_span = 0;
  if (spans != nullptr) {
    root = spans->open("instance", 0, t0);
    spans->add("workload.build", root, t0, t1);
    spans->add("core.setup", root, t1, t2);
    run_span = spans->open("session.run", root, t2);
    parent = run_span;
    out.pending_at_start = live.engine().queue().pending();
    out.pending_peak = out.pending_at_start;
  }
  out.command_s.reserve(cmds.size());
  for (const TrafficCommand& cmd : cmds) {
    if (live.validate(cmd)) {
      ++out.rejected;
      continue;
    }
    const auto a = Clock::now();
    if (spans != nullptr) {
      parent = spans->open(cmd.kind == TrafficCommand::Kind::kAdvance
                               ? "session.advance"
                               : "session.traffic",
                           run_span, a);
    }
    live.apply(cmd);
    const auto b = Clock::now();
    out.command_s.push_back(seconds_between(a, b));
    if (spans != nullptr) {
      spans->finish(parent, b);
      out.pending_peak = std::max<std::uint64_t>(
          out.pending_peak, live.engine().queue().pending());
    }
  }
  parent = run_span;
  out.result = live.finish();
  const auto t3 = Clock::now();
  if (spans != nullptr) {
    spans->finish(run_span, t3);
    spans->finish(root, t3);
  }

  out.build_s = seconds_between(t0, t1);
  out.start_s = seconds_between(t1, t2);
  out.run_s = seconds_between(t2, t3);
  out.events = live.engine().events_executed();
  out.hot = live.coordinator().hotpath_stats();
  out.protocol = live.coordinator().protocol_stats();
  if (timed != nullptr) {
    out.sched = timed->stats();
    out.sched_s = timed->total_seconds();
  }
  out.dump = venn::service::dump_run(out.result,
                                     record_series ? &recorder : nullptr);
  return out;
}

// ---------------------------------------------------------------- daemon --

namespace {

std::uint64_t json_uint_after(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

DaemonRun run_daemon(const Shape& shape, std::uint64_t scenario_seed,
                     const std::vector<std::string>& script,
                     std::size_t instance, SpanLog* spans) {
  DaemonRun out;
  const bool traced = spans != nullptr;
  // Relative paths: the caller runs in a private working directory, and a
  // short socket path stays inside the AF_UNIX length limit.
  const std::string sock = "perfbench.sock";
  const std::string journal = "perfbench-" + std::to_string(instance) + ".vjl";
  remove_quietly(sock);
  remove_quietly(journal);

  venn::api::ExperimentBuilder builder;
  for (const std::string& kv : shape.kv) builder.override_kv(kv);
  builder.seed(scenario_seed);

  const std::size_t n = script.size();
  std::vector<Clock::time_point> sent(n), acked(n);
  std::vector<char> ok(n, 0);
  std::size_t completed = 0;  // replies read
  Clock::time_point connected{};
  std::string status;
  std::string client_error;
  std::vector<Clock::time_point> d_start, d_end;
  if (traced) {
    d_start.reserve(n + 2);
    d_end.reserve(n + 2);
  }

  const auto t0 = Clock::now();
  {
    venn::service::DaemonOptions opts;
    opts.scenario = builder.current_scenario();
    opts.policy = builder.current_policy();
    opts.journal_path = journal;
    venn::service::CoordinatorDaemon daemon(std::move(opts));
    venn::service::IngestQueue queue;
    venn::service::LineServer server({sock, -1}, queue);

    // Client thread: one closed-loop client, then status and drain. It
    // always closes the queue, so the loop below ends even if the
    // connection dies.
    std::jthread client([&] {
      try {
        auto c = venn::service::SocketClient::connect_unix(sock);
        connected = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
          sent[i] = Clock::now();
          const std::string reply = c.request(script[i]);
          acked[i] = Clock::now();
          ok[i] = reply.rfind("ok", 0) == 0 ? 1 : 0;
          completed = i + 1;
        }
        status = c.request("status");
        std::error_code ec;
        out.journal_bytes = std::filesystem::file_size(journal, ec);
        const std::string drained = c.request("drain");
        if (drained.rfind("ok", 0) != 0) client_error = "drain: " + drained;
      } catch (const std::exception& e) {
        client_error = e.what();
      }
      queue.close();
    });

    // The daemon loop of `venn_coordinatord serve`: pop, dispatch, reply.
    while (!daemon.done()) {
      auto item = queue.pop();
      if (!item) break;
      if (traced) {
        const auto a = Clock::now();
        std::string reply = daemon.dispatch(item->line);
        d_end.push_back(Clock::now());
        d_start.push_back(a);
        item->reply.set_value(std::move(reply));
      } else {
        item->reply.set_value(daemon.dispatch(item->line));
      }
    }
    client.join();
    server.stop();
  }
  remove_quietly(sock);

  if (connected == Clock::time_point{}) {
    out.problems.push_back("client never connected: " + client_error);
    connected = Clock::now();
  } else if (!client_error.empty()) {
    out.problems.push_back("client: " + client_error);
  }
  out.setup_s = seconds_between(t0, connected);
  out.sent = n;
  for (std::size_t i = 0; i < completed; ++i) out.acked += ok[i] ? 1 : 0;
  out.failed = n - out.acked;
  if (completed > 0) out.run_s = seconds_between(sent[0], acked[completed - 1]);
  out.ack_us.reserve(completed);
  out.is_advance.reserve(completed);
  for (std::size_t i = 0; i < completed; ++i) {
    out.ack_us.push_back(seconds_between(sent[i], acked[i]) * 1e6);
    out.is_advance.push_back(script[i].rfind("advance", 0) == 0);
  }
  out.journal_records = json_uint_after(status, "records");

  if (traced) {
    // Dispatch i is command i: one client, strictly request-reply.
    const std::size_t m = std::min(completed, d_start.size());
    out.dispatch_us.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      out.dispatch_us.push_back(seconds_between(d_start[i], d_end[i]) * 1e6);
      const std::uint64_t request = (instance << 32) | (i + 1);
      const std::uint32_t req =
          spans->add("client.request", 0, sent[i], acked[i], request, 1);
      spans->add("daemon.dispatch", req, d_start[i], d_end[i], request, 0);
    }
  }

  // Checks: the journal holds exactly the acked commands and closes with a
  // kRunEnd footer, and a strict replay re-executes it byte for byte.
  try {
    const venn::journal::JournalReader reader(journal);
    const venn::journal::JournalScan scan = reader.scan();
    if (!scan.has_run_end) out.problems.push_back("journal has no kRunEnd");
    if (scan.externals.size() != out.acked ||
        scan.last_external_seq != out.acked) {
      out.problems.push_back(
          "journal holds " + std::to_string(scan.externals.size()) +
          " commands (last seq " + std::to_string(scan.last_external_seq) +
          "), client saw " + std::to_string(out.acked) + " acked");
    }
    const venn::api::ReplayReport rep =
        venn::api::Experiment::replay(journal);
    if (rep.events_verified == 0) {
      out.problems.push_back("replay verified no events");
    }
    out.avg_jct_s = rep.result.avg_jct();
    std::ifstream in(journal + ".result", std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    out.dump = ss.str();
    if (out.dump.empty()) out.problems.push_back("drain wrote no result");
  } catch (const std::exception& e) {
    out.problems.push_back(std::string("journal check: ") + e.what());
  }
  remove_quietly(journal + ".result");
  remove_quietly(journal);
  return out;
}

// -------------------------------------------------------- queue hold model --

double queue_hold_ns(std::size_t pending, std::uint64_t seed) {
  constexpr std::size_t kIncs = 4096;
  std::mt19937_64 rng(seed);
  std::vector<double> inc(kIncs);
  for (double& x : inc) x = -std::log(1.0 - unit(rng));  // exponential(1)
  std::size_t next = 0;
  venn::sim::EventQueue q;
  // Each event reschedules itself one random increment later, so the queue
  // stays at `pending` events: one pop and one push per step().
  struct Hold {
    venn::sim::EventQueue* q;
    const double* inc;
    std::size_t* next;
    void operator()() const {
      q->schedule(q->now() + inc[(*next)++ % kIncs], *this);
    }
  };
  const Hold hold{&q, inc.data(), &next};
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    q.schedule(unit(rng), hold);
  }
  constexpr std::size_t kBlock = 200000;
  std::vector<double> per_op;
  for (int block = 0; block < 5; ++block) {
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kBlock; ++i) q.step();
    per_op.push_back(seconds_between(a, Clock::now()) * 1e9 /
                     static_cast<double>(kBlock));
  }
  return median(per_op);
}

}  // namespace perfbench
