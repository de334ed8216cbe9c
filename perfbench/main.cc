// venn_perfbench — one run of one benchmark workload.
//
//   venn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--inject-reject] [--trace-out PATH]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (and writes the run's spans as Chrome trace-event JSON to --trace-out).
// --tiny runs the self-test shape of the workload; --inject-reject makes the
// daemon client send one command the daemon must refuse. The last stdout
// line is the result: {"correct", "attempted", "failed", "metrics"}.
// Works in the current directory (daemon socket and journals), which the
// caller provides.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/build_info.h"

namespace perfbench {
namespace {

// Metric names and units; BENCHMARK.json lists the same, in this order.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"peak_rss_mb", "MB"},     {"avg_jct_s", "s"},
    {"acked_cmds_per_s", "1/s"}, {"ack_p50_us", "us"},
    {"ack_p90_us", "us"},
};
const std::vector<MetricDef> kPerLayer = {
    {"workload.build_s", "s"},
    {"core.setup_s", "s"},
    {"sim.pending_at_start", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.pending_peak", "count"},
    {"sim.queue_hold_ns", "ns"},
    {"core.self_s", "s"},
    {"core.sweeps", "count"},
    {"core.sweep_visits", "count"},
    {"core.sweep_offer_ratio", "ratio"},
    {"core.supply_queries", "count"},
    {"protocol.commits", "count"},
    {"protocol.useful_response_ratio", "ratio"},
    {"scheduler.checkin_calls", "count"},
    {"scheduler.checkin_s", "s"},
    {"scheduler.queue_change_calls", "count"},
    {"scheduler.queue_change_s", "s"},
    {"scheduler.response_calls", "count"},
    {"scheduler.response_s", "s"},
    {"scheduler.round_complete_calls", "count"},
    {"scheduler.round_complete_s", "s"},
    {"scheduler.assign_calls", "count"},
    {"scheduler.assign_s", "s"},
    {"scheduler.share", "ratio"},
    {"daemon.dispatch_p50_us", "us"},
    {"daemon.dispatch_p99_us", "us"},
    {"daemon.traffic_dispatch_p50_us", "us"},
    {"daemon.advance_dispatch_p50_us", "us"},
    {"service.wire_p50_us", "us"},
    {"service.wire_p99_us", "us"},
    {"journal.records", "count"},
    {"journal.bytes_per_cmd", "B"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  bool inject_reject = false;
  std::string trace_out = "perfbench-trace.json";
};

// Collects one run's metrics, counts and failed checks.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void check(bool ok, const std::string& what) {
    if (!ok) problems_.push_back(what);
  }
  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const { return problems_.empty(); }

  // The human-readable table, then the one-line JSON result.
  void print(const std::vector<MetricDef>& defs) {
    for (const MetricDef& d : defs) {
      if (!values_.contains(d.name)) {
        problems_.push_back(std::string("metric not measured: ") + d.name);
      } else if (!std::isfinite(values_[d.name])) {
        problems_.push_back(std::string("metric not finite: ") + d.name);
        values_[d.name] = 0.0;
      }
    }
    for (const std::string& p : problems_) {
      std::printf("CHECK FAILED: %s\n", p.c_str());
    }
    for (const MetricDef& d : defs) {
      std::printf("  %-34s %20.6f %s\n", d.name, values_[d.name], d.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", values_[defs[i].name]);
      json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Pins the process, and so every thread it starts later, to the last CPU it
// may run on. The daemon workload's three threads then hand off on one CPU
// instead of waking idle ones: unpinned, its acks ran 2x slower for tens of
// seconds after a CPU-heavy process such as the build.
// Returns the CPU, or -1 when pinning is not possible.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string provenance_json(const Args& a, const Shape& shape, int cpu) {
  std::string s = "{";
  s += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"pinned_cpu\": " + std::to_string(cpu);
  s += ", \"cpu\": " + json_str(cpu_model());
  s += ", \"compiler\": " + json_str(venn::build_compiler());
  s += ", \"build_type\": " + json_str(venn::build_type());
  s += ", \"build\": " + json_str(venn::build_info_line());
  s += ", \"workload\": " + json_str(a.workload);
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"shape\": " + json_str(a.tiny ? "tiny" : "full");
  s += ", \"scenario\": [";
  for (std::size_t i = 0; i < shape.kv.size(); ++i) {
    s += (i == 0 ? "" : ", ") + json_str(shape.kv[i]);
  }
  s += "], \"sub_seeds\": [";
  for (std::size_t k = 0; k < shape.instances; ++k) {
    s += (k == 0 ? "" : ", ") + std::to_string(sub_seed(a.seed, k));
  }
  s += "], \"commands_per_instance\": " + std::to_string(shape.commands);
  s += ", \"trace\": " + std::to_string(a.trace) + "}";
  return s;
}

// Runs instances 0..K-1 once, then repeats them round-robin while the
// time budget allows another one. `body(k)` runs instance k.
template <typename Body>
void for_instances(std::size_t count, double seconds, Body&& body) {
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    if (i >= count &&
        elapsed * static_cast<double>(i + 1) / static_cast<double>(i) >
            seconds) {
      break;
    }
    body(i % count);
  }
}

// Runs pairs (untraced, traced) of instance k = 0, 1, ... while the budget
// allows another pair; the order within a pair alternates.
template <typename Body>
void for_pairs(std::size_t count, double seconds, Body&& body) {
  const auto start = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    const double elapsed = seconds_between(start, Clock::now());
    if (k > 0 && elapsed * static_cast<double>(k + 1) /
                         static_cast<double>(k) > seconds) {
      break;
    }
    body(k, /*traced_first=*/k % 2 == 1);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void check_result(Report& rep, const SessionRun& s, const std::string& tag) {
  rep.check(s.events > 0, tag + ": no events executed");
  rep.check(!s.result.jobs.empty(), tag + ": no jobs");
  for (const venn::JobResult& j : s.result.jobs) {
    if (!(std::isfinite(j.jct) && j.jct > 0.0)) {
      rep.check(false, tag + ": a job has a non-positive or non-finite JCT");
      break;
    }
  }
}

// Per-layer metrics that come from an in-process session run.
void set_session_layers(Report& rep, const SessionRun& first,
                        const std::vector<SessionRun>& traced) {
  std::vector<double> build, setup, self, rate, share;
  std::array<std::vector<double>, TimedScheduler::kMethods> sched_s;
  for (const SessionRun& t : traced) {
    build.push_back(t.build_s);
    setup.push_back(t.start_s);
    self.push_back(t.run_s - t.sched_s);
    rate.push_back(ratio(static_cast<double>(t.events), t.run_s));
    share.push_back(ratio(t.sched_s, t.run_s));
    for (std::size_t m = 0; m < TimedScheduler::kMethods; ++m) {
      sched_s[m].push_back(t.sched[m].seconds);
    }
  }
  rep.set("workload.build_s", median(build));
  rep.set("core.setup_s", median(setup));
  rep.set("sim.pending_at_start", static_cast<double>(first.pending_at_start));
  rep.set("sim.events", static_cast<double>(first.events));
  rep.set("sim.events_per_s", median(rate));
  rep.set("sim.pending_peak", static_cast<double>(first.pending_peak));
  rep.set("sim.queue_hold_ns", queue_hold_ns(first.pending_peak, 1));
  rep.set("core.self_s", median(self));
  rep.set("core.sweeps", static_cast<double>(first.hot.sweeps));
  rep.set("core.sweep_visits", static_cast<double>(first.hot.sweep_visits));
  rep.set("core.sweep_offer_ratio",
          ratio(static_cast<double>(first.hot.sweep_offers),
                static_cast<double>(first.hot.sweep_visits)));
  rep.set("core.supply_queries",
          static_cast<double>(first.hot.supply_queries));
  rep.set("protocol.commits", static_cast<double>(first.protocol.commits));
  rep.set("protocol.useful_response_ratio",
          ratio(static_cast<double>(first.protocol.responses),
                static_cast<double>(first.protocol.responses +
                                    first.protocol.wasted_responses)));
  for (std::size_t m = 0; m < TimedScheduler::kMethods; ++m) {
    const std::string base =
        std::string("scheduler.") + TimedScheduler::kNames[m];
    rep.set(base + "_calls", static_cast<double>(first.sched[m].calls));
    rep.set(base + "_s", median(sched_s[m]));
  }
  rep.set("scheduler.share", median(share));
}

void set_daemon_layers_bypassed(Report& rep) {
  for (const char* name :
       {"daemon.dispatch_p50_us", "daemon.dispatch_p99_us",
        "daemon.traffic_dispatch_p50_us", "daemon.advance_dispatch_p50_us",
        "service.wire_p50_us", "service.wire_p99_us", "journal.records",
        "journal.bytes_per_cmd"}) {
    rep.set(name, 0.0);
  }
}

// ------------------------------------------------------------ sim runs --

void run_sim_workload(const Args& a, const Shape& shape, Report& rep,
                      SpanLog* spans) {
  const std::vector<std::string> script = hourly_advances(shape);
  const std::size_t K = shape.instances;
  std::vector<std::string> dumps(K);
  std::vector<double> jct(K);
  // First run of instance k fixes its result; every later run (repeat,
  // traced twin) must reproduce it bit for bit.
  auto settle = [&](std::size_t k, const SessionRun& s, const char* what) {
    const std::string tag = "instance " + std::to_string(k) + " " + what;
    check_result(rep, s, tag);
    if (dumps[k].empty()) {
      dumps[k] = s.dump;
      jct[k] = s.result.avg_jct();
      std::size_t unfinished = 0;
      for (const venn::JobResult& j : s.result.jobs) {
        unfinished += j.finished ? 0 : 1;
      }
      rep.add_ops(s.result.jobs.size(), unfinished);
    } else {
      rep.check(s.dump == dumps[k], tag + ": result differs from the first "
                                          "run of this instance");
    }
  };

  if (spans == nullptr) {
    std::vector<std::vector<double>> run_by(K);
    std::vector<double> setup, cmd_us;
    double commands = 0.0, run_total = 0.0;
    for_instances(K, a.seconds, [&](std::size_t k) {
      const SessionRun s =
          run_session(shape, sub_seed(a.seed, k), script, nullptr);
      settle(k, s, "untraced");
      setup.push_back(s.build_s + s.start_s);
      run_by[k].push_back(s.run_s);
      for (const double c : s.command_s) cmd_us.push_back(c * 1e6);
      commands += static_cast<double>(s.command_s.size());
      run_total += s.run_s;
    });
    double run_mean = 0.0, jct_mean = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      run_mean += median(run_by[k]) / static_cast<double>(K);
      jct_mean += jct[k] / static_cast<double>(K);
    }
    std::printf("  samples: %zu setups, %zu advance commands\n", setup.size(),
                cmd_us.size());
    rep.set("setup_s", median(setup));
    rep.set("run_s", run_mean);
    rep.set("avg_jct_s", jct_mean);
    rep.set("acked_cmds_per_s", ratio(commands, run_total));
    rep.set("ack_p50_us", quantile(cmd_us, 0.5));
    rep.set("ack_p90_us", quantile(cmd_us, 0.9));
    return;
  }

  std::vector<SessionRun> traced;
  double untraced_s = 0.0, traced_s = 0.0;
  for_pairs(K, a.seconds, [&](std::size_t k, bool traced_first) {
    for (int side = 0; side < 2; ++side) {
      const bool tr = (side == 0) == traced_first;
      SessionRun s =
          run_session(shape, sub_seed(a.seed, k), script, tr ? spans : nullptr);
      settle(k, s, tr ? "traced" : "untraced");
      (tr ? traced_s : untraced_s) += s.run_s;
      if (tr) {
        s.result = {};
        s.dump.clear();
        traced.push_back(std::move(s));
      }
    }
  });
  std::printf("  samples: %zu traced/untraced pairs\n", traced.size());
  set_session_layers(rep, traced.front(), traced);
  set_daemon_layers_bypassed(rep);
  rep.set("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
}

// --------------------------------------------------------- daemon runs --

void run_daemon_workload(const Args& a, const Shape& shape, Report& rep,
                         SpanLog* spans) {
  const std::size_t K = shape.instances;
  std::vector<std::string> dumps(K);
  std::vector<double> jct(K);
  std::vector<std::vector<double>> run_by(K);
  std::vector<double> setup, ack_us;
  double acked = 0.0, run_total = 0.0;
  SessionRun reference_traced;

  auto script_of = [&](std::size_t k) {
    return daemon_script(shape, sub_seed(a.seed, k), a.inject_reject && k == 0);
  };
  // The first served run of instance k is checked against an in-process
  // LiveSession run of the same commands (the daemon's serial reference);
  // every later run must reproduce the same result dump.
  auto settle = [&](std::size_t k, const DaemonRun& d,
                    const std::vector<std::string>& script, const char* what) {
    const std::string tag = "instance " + std::to_string(k) + " " + what;
    for (const std::string& p : d.problems) rep.check(false, tag + ": " + p);
    if (!dumps[k].empty()) {
      rep.check(d.dump == dumps[k], tag + ": result differs from the first "
                                          "run of this instance");
      return;
    }
    const bool trace_reference = spans != nullptr && k == 0;
    SessionRun ref = run_session(shape, sub_seed(a.seed, k), script,
                                 trace_reference ? spans : nullptr);
    rep.check(ref.dump == d.dump,
              tag + ": served result differs from the in-process run");
    rep.check(ref.result.avg_jct() == d.avg_jct_s,
              tag + ": replayed average JCT differs from the in-process run");
    rep.check(ref.rejected == d.failed,
              tag + ": daemon failed " + std::to_string(d.failed) +
                  " commands, validation rejects " +
                  std::to_string(ref.rejected));
    check_result(rep, ref, tag + " reference");
    dumps[k] = d.dump;
    jct[k] = d.avg_jct_s;
    rep.add_ops(d.sent, d.failed);
    if (trace_reference) {
      ref.result = {};
      ref.dump.clear();
      reference_traced = std::move(ref);
    }
  };
  auto collect = [&](std::size_t k, const DaemonRun& d) {
    setup.push_back(d.setup_s);
    run_by[k].push_back(d.run_s);
    ack_us.insert(ack_us.end(), d.ack_us.begin(), d.ack_us.end());
    acked += static_cast<double>(d.acked);
    run_total += d.run_s;
  };

  if (spans == nullptr) {
    for_instances(K, a.seconds, [&](std::size_t k) {
      const auto script = script_of(k);
      const DaemonRun d =
          run_daemon(shape, sub_seed(a.seed, k), script, k, nullptr);
      settle(k, d, script, "untraced");
      collect(k, d);
    });
    double run_mean = 0.0, jct_mean = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      run_mean += median(run_by[k]) / static_cast<double>(K);
      jct_mean += jct[k] / static_cast<double>(K);
    }
    std::printf("  samples: %zu setups, %zu acks\n", setup.size(),
                ack_us.size());
    rep.set("setup_s", median(setup));
    rep.set("run_s", run_mean);
    rep.set("avg_jct_s", jct_mean);
    rep.set("acked_cmds_per_s", ratio(acked, run_total));
    rep.set("ack_p50_us", quantile(ack_us, 0.5));
    rep.set("ack_p90_us", quantile(ack_us, 0.9));
    return;
  }

  std::vector<double> dispatch, traffic, advance, wire;
  double untraced_s = 0.0, traced_s = 0.0;
  std::uint64_t records = 0, bytes = 0, commands = 0;
  for_pairs(K, a.seconds, [&](std::size_t k, bool traced_first) {
    const auto script = script_of(k);
    for (int side = 0; side < 2; ++side) {
      const bool tr = (side == 0) == traced_first;
      const DaemonRun d = run_daemon(shape, sub_seed(a.seed, k), script, k,
                                     tr ? spans : nullptr);
      settle(k, d, script, tr ? "traced" : "untraced");
      (tr ? traced_s : untraced_s) += d.run_s;
      if (!tr) continue;
      for (std::size_t i = 0; i < d.dispatch_us.size(); ++i) {
        dispatch.push_back(d.dispatch_us[i]);
        (d.is_advance[i] ? advance : traffic).push_back(d.dispatch_us[i]);
        wire.push_back(d.ack_us[i] - d.dispatch_us[i]);
      }
      if (k == 0) {
        records = d.journal_records;
        bytes = d.journal_bytes;
        commands = d.sent;
      }
    }
  });
  std::printf("  samples: %zu traced dispatches\n", dispatch.size());
  set_session_layers(rep, reference_traced, {reference_traced});
  rep.set("daemon.dispatch_p50_us", quantile(dispatch, 0.5));
  rep.set("daemon.dispatch_p99_us", quantile(dispatch, 0.99));
  rep.set("daemon.traffic_dispatch_p50_us", quantile(traffic, 0.5));
  rep.set("daemon.advance_dispatch_p50_us", quantile(advance, 0.5));
  rep.set("service.wire_p50_us", quantile(wire, 0.5));
  rep.set("service.wire_p99_us", quantile(wire, 0.99));
  rep.set("journal.records", static_cast<double>(records));
  rep.set("journal.bytes_per_cmd",
          ratio(static_cast<double>(bytes), static_cast<double>(commands)));
  rep.set("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "venn_perfbench: %s\nusage: venn_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--tiny] [--inject-reject] "
               "[--trace-out PATH]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--inject-reject") {
      a.inject_reject = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) return usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) return usage("--seconds must be positive");
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == a.workload;
  if (!known) return usage(("unknown workload \"" + a.workload + "\"").c_str());

  const Shape shape = make_shape(a.workload, a.tiny);
  const int cpu = pin_to_one_cpu();
  const std::string provenance = provenance_json(a, shape, cpu);
  std::printf("provenance %s\n", provenance.c_str());
  Report rep;
  SpanLog spans(1 << 21);
  SpanLog* tracer = a.trace == 1 ? &spans : nullptr;
  if (shape.commands > 0) {
    run_daemon_workload(a, shape, rep, tracer);
  } else {
    run_sim_workload(a, shape, rep, tracer);
  }
  if (tracer != nullptr) {
    const std::string meta = "{\"provenance\": " + provenance +
                             ", \"spans\": " + std::to_string(spans.size()) +
                             ", \"spans_dropped\": " +
                             std::to_string(spans.dropped()) + "}";
    rep.check(spans.write_chrome_json(a.trace_out, meta),
              "cannot write trace " + a.trace_out);
    std::printf("  trace: %zu spans (%llu dropped) -> %s\n", spans.size(),
                static_cast<unsigned long long>(spans.dropped()),
                a.trace_out.c_str());
  } else {
    rep.set("peak_rss_mb", peak_rss_mb());
  }
  rep.print(a.trace == 1 ? kPerLayer : kEndToEnd);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "venn_perfbench: %s\n", e.what());
    return 1;
  }
}
