// venn_perfbench: the repository benchmark.
//
// Three workloads drive the library from the outside, through its public
// entry points only (ExperimentBuilder, LiveSession, Scheduler,
// CoordinatorDaemon, LineServer, IngestQueue, SocketClient). Nothing inside
// src/ is instrumented: every span and every per-layer timer lives in this
// directory, around the calls into each layer.
//
// Host-time metrics (setup, run, ack latency) are noisy; the simulated
// metrics (average JCT, event counts, protocol counters) are exact and are
// checked for bit-identity between repeats and between traced and untraced
// runs. A run of one workload is a fixed set of sub-instances whose seeds
// derive from --seed, so the simulated metrics average over several worlds
// and every figure is a pure function of (--seed, shape).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/live.h"
#include "scheduler/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Quantile q in [0, 1] by linear interpolation between order statistics.
// Sorts a copy; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// ---------------------------------------------------------------- spans --
// In-memory span log of a traced run, written once at exit as Chrome
// trace-event JSON (chrome://tracing, Perfetto). Single-threaded: spans
// timed on other threads are recorded as raw timestamps there and added
// here after the thread is joined. `request` groups the spans of one daemon
// command (client request and its dispatch); 0 means none.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  // Adds a finished span; returns its id (ids start at 1; parent 0 = root).
  // Past the capacity the span is counted as dropped and 0 is returned.
  std::uint32_t add(const char* name, std::uint32_t parent,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t request = 0, int thread = 0);

  // Reserves an id for a span whose end is not known yet (its children are
  // recorded first); finish() fills it in.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     Clock::time_point start);
  void finish(std::uint32_t id, Clock::time_point end);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  // Writes {"traceEvents": [...], "metadata": <metadata_json>}. Returns
  // false when the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t request;
    int thread;
  };
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  Clock::time_point epoch_ = Clock::now();
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// ------------------------------------------------------ scheduler timing --
// Forwarding Scheduler decorator: times every call into the wrapped policy
// and counts it. Decisions are the inner policy's, so a run through the
// decorator is bit-identical to a run without it (checked per run).
class TimedScheduler final : public venn::Scheduler {
 public:
  enum Method { kCheckin, kQueueChange, kResponse, kRoundComplete, kAssign };
  static constexpr std::size_t kMethods = 5;
  static constexpr std::array<const char*, kMethods> kNames = {
      "checkin", "queue_change", "response", "round_complete", "assign"};
  struct Stat {
    std::uint64_t calls = 0;
    double seconds = 0.0;
  };

  // `spans` (may be null) receives one span per queue_change call (the IRS
  // re-plan), parented to *parent (the enclosing command span). The far more
  // frequent calls are only counted and timed, to keep the trace small.
  TimedScheduler(std::unique_ptr<venn::Scheduler> inner, SpanLog* spans,
                 const std::uint32_t* parent);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_device_checkin(const venn::DeviceView& dev,
                         venn::SimTime now) override;
  void on_queue_change(std::span<const venn::PendingJob> pending,
                       venn::SimTime now) override;
  void on_response(venn::JobId job, double capacity, double response_time,
                   venn::SimTime now) override;
  void on_round_complete(venn::JobId job, venn::SimTime sched_delay,
                         venn::SimTime response_time,
                         venn::SimTime now) override;
  [[nodiscard]] std::optional<std::size_t> assign(
      const venn::DeviceView& dev,
      std::span<const venn::PendingJob> candidates,
      venn::SimTime now) override;

  [[nodiscard]] const std::array<Stat, kMethods>& stats() const {
    return stats_;
  }
  [[nodiscard]] double total_seconds() const;

 private:
  // Counts a call that started at t0; returns its end time.
  Clock::time_point record(Method m, Clock::time_point t0);

  std::unique_ptr<venn::Scheduler> inner_;
  SpanLog* spans_;
  const std::uint32_t* parent_;
  std::array<Stat, kMethods> stats_{};
};

// ------------------------------------------------------------ workloads --
// A workload's fixed shape. Every sub-instance k of a run simulates the
// scenario `kv` with scenario seed sub_seed(seed, k).
struct Shape {
  std::string workload;
  std::vector<std::string> kv;  // ExperimentBuilder key=value overrides
  std::size_t instances = 1;    // sub-instances per run
  std::size_t commands = 0;     // daemon: closed-loop commands per instance
};

// Known workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();
// Full or tiny (self-test) shape of a workload; throws on unknown names.
[[nodiscard]] Shape make_shape(const std::string& workload, bool tiny);

[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::size_t k);

// The seeded daemon traffic mix: mostly checkin/respond/checkout, a few
// submits, and a small advance every 10th command. With `inject_reject`
// one command the daemon must reject (device out of range) is placed in
// the middle.
[[nodiscard]] std::vector<std::string> daemon_script(const Shape& shape,
                                                     std::uint64_t seed,
                                                     bool inject_reject);

// The sim workloads' command list: advance one simulated hour at a time to
// the scenario's horizon.
[[nodiscard]] std::vector<std::string> hourly_advances(const Shape& shape);

// One LiveSession run driven through a command list, timed from outside.
struct SessionRun {
  double build_s = 0.0;  // ExperimentBuilder::build (input generation)
  double start_s = 0.0;  // LiveSession construction + start()
  double run_s = 0.0;    // start() returned .. finish() returned
  std::vector<double> command_s;  // host time of each applied command
  std::size_t rejected = 0;       // commands LiveSession::validate refused
  venn::RunResult result;
  std::string dump;               // service::dump_run(result, recorder)
  std::uint64_t events = 0;
  std::uint64_t pending_at_start = 0;
  std::uint64_t pending_peak = 0;  // traced: max pending after a command
  venn::Coordinator::HotpathStats hot;
  venn::Coordinator::ProtocolStats protocol;
  std::array<TimedScheduler::Stat, TimedScheduler::kMethods> sched{};
  double sched_s = 0.0;
};

// Runs one sub-instance in process. `spans` non-null = traced run: the
// scheduler goes through TimedScheduler, every command gets a span, and the
// queue depth is sampled after each command.
[[nodiscard]] SessionRun run_session(const Shape& shape,
                                     std::uint64_t scenario_seed,
                                     const std::vector<std::string>& script,
                                     SpanLog* spans);

// One daemon sub-instance: CoordinatorDaemon + LineServer + IngestQueue on
// a Unix socket in the working directory, one SocketClient thread in a
// closed loop over `script`, then status and drain. Checks the journal and
// a strict replay; the caller compares `dump` with the in-process run.
struct DaemonRun {
  double setup_s = 0.0;  // daemon + server construction + client connect
  double run_s = 0.0;    // first request sent .. last reply read
  std::vector<double> ack_us;        // per command, client side
  std::vector<double> dispatch_us;   // traced: per command, daemon loop
  std::vector<bool> is_advance;      // per command
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;          // err replies and lost replies
  std::uint64_t acked = 0;
  std::uint64_t journal_records = 0;  // from `status` after the timed phase
  std::uint64_t journal_bytes = 0;    // journal file size at that point
  std::string dump;                   // the drained run's result dump
  double avg_jct_s = 0.0;             // from the strict replay
  std::vector<std::string> problems;  // failed checks
};

[[nodiscard]] DaemonRun run_daemon(const Shape& shape,
                                   std::uint64_t scenario_seed,
                                   const std::vector<std::string>& script,
                                   std::size_t instance, SpanLog* spans);

// Hold-model microbenchmark of a fresh sim::EventQueue kept at `pending`
// events: ns per pop+push pair, median of a few blocks.
[[nodiscard]] double queue_hold_ns(std::size_t pending, std::uint64_t seed);

}  // namespace perfbench
