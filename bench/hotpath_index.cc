// Scheduler hot-path benchmark: eligibility-index work and throughput.
//
// Sweeps devices × jobs cells (default {1k, 10k, 100k} × {4, 16, 64}) over
// the same streaming-churn world and reports events/sec, per-event µs and
// five deterministic work counters per cell: idle-sweep visits and offers,
// manager candidates scanned, pending-view builds, and index device
// rescans. Results are written to BENCH_hotpath.json; CI re-runs the quick
// cells against the checked-in baseline
// (bench/baselines/hotpath_baseline.json).
//
// Usage:
//   hotpath_index [--quick] [--out=BENCH_hotpath.json]
//                 [--baseline=path] [--tolerance=0.30]
//                 [--horizon-days=0.25] [--seed=77] [--repeats=3]
//                 [--max-journal-overhead=0.10]
//
//   --quick      CI-sized sweep: {1k, 10k} devices × {4, 16} jobs.
//   --baseline   gate against a previous output file; exit 1 if any gate
//                below fails (or if no cell could be matched against the
//                baseline).
//   --repeats    run each cell N times and keep the fastest wall time —
//                damps scheduler/timer noise, which on sub-10ms cells can
//                otherwise exceed the regression tolerance by itself.
//
// Work gate: every index cell's five work counters must not exceed the
// baseline cell's values. The simulation is deterministic, so the counters
// are exact functions of the code and seed — the gate cannot flap on a
// noisy machine, and any change that makes the hot path do more work per
// run (a lost sweep early stop, a per-offer pending-view rebuild, a second
// fleet rescan per requirement) fails it. A change that legitimately moves
// a counter up regenerates the baseline in the same commit.
//
// Journaling-overhead cell: the identical 150k-device scenario with the
// event journal off and on (src/journal/ JournalWriter, round-boundary
// flushes). Both modes must simulate the same run; the journal-on wall
// time must stay within --max-journal-overhead (default 10%) of the
// journal-off wall time — durability is an observer, not a tax. With a
// baseline, the on/off events/sec ratio must also stay within the
// tolerance of the baseline's ratio.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "orchestrator/metrics.h"
#include "util/parse.h"

using namespace venn;

namespace {

// Deterministic per-run work counters — the work gate's inputs.
struct WorkCounters {
  std::uint64_t sweep_visits = 0;        // Coordinator::HotpathStats
  std::uint64_t sweep_offers = 0;        // Coordinator::HotpathStats
  std::uint64_t candidates_scanned = 0;  // ResourceManager::HotpathStats
  std::uint64_t view_builds = 0;         // ResourceManager::HotpathStats
  std::uint64_t device_rescans = 0;      // EligibilityIndex maintenance

  // (JSON key, value) pairs in output order.
  [[nodiscard]] std::vector<std::pair<const char*, std::uint64_t>> fields()
      const {
    return {{"sweep_visits", sweep_visits},
            {"sweep_offers", sweep_offers},
            {"candidates_scanned", candidates_scanned},
            {"view_builds", view_builds},
            {"device_rescans", device_rescans}};
  }
};

struct CellResult {
  std::size_t devices = 0;
  std::size_t jobs = 0;
  std::string mode;  // "index" | "journal-off" | "journal-on"
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double per_event_us = 0.0;
  double avg_jct = 0.0;
  WorkCounters work;
};

ScenarioSpec cell_scenario(std::size_t devices, std::size_t jobs,
                           double horizon_days, std::uint64_t seed) {
  ScenarioSpec sc;
  sc.seed = seed;
  sc.num_devices = devices;
  sc.num_jobs = jobs;
  sc.horizon = horizon_days * kDay;
  sc.job_trace.mean_interarrival = 3.0 * kMinute;
  sc.job_trace.min_rounds = 3;
  sc.job_trace.max_rounds = 8;
  sc.job_trace.min_demand = 4;
  sc.job_trace.max_demand = 10;
  sc.set("churn", "weibull");
  // Materialized sessions (stream=0): session generation happens in the
  // untimed input build, so the timed window measures the scheduling hot
  // path, not world generation. The stream=0/1 byte-equivalence means
  // this is the same world the streaming mode would run.
  return sc;
}

// One timed run of the cell's scenario. Mode "journal-on" attaches the
// durability sink; its timed window covers the run INCLUDING the journal's
// round-boundary flushes and the footer — the steady-state cost a
// coordinator daemon would pay. "index" and "journal-off" run the same
// journal-less simulation.
CellResult run_cell(std::size_t devices, std::size_t jobs, double horizon_days,
                    std::uint64_t seed, const std::string& mode) {
  const ScenarioSpec sc = cell_scenario(devices, jobs, horizon_days, seed);
  const auto inputs = api::build_inputs(sc);
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);

  sim::Engine engine(Rng::derive(sc.seed, "engine"));
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.seed = sc.seed;
  ccfg.churn = gens.churn.get();
  ccfg.stream_sessions = sc.streaming;

  std::unique_ptr<journal::JournalWriter> writer;
  if (mode == "journal-on") {
    // tmpfs when available: the gate measures the coordinator-side cost of
    // journaling (framing, CRC, buffering, the write syscalls) — disk
    // writeback throughput varies too much across runners to gate on.
    const std::filesystem::path base =
        std::filesystem::is_directory("/dev/shm")
            ? std::filesystem::path("/dev/shm")
            : std::filesystem::temp_directory_path();
    const std::string dir = (base / "venn_hotpath_journal").string();
    std::filesystem::create_directories(dir);
    journal::JournalHeader header;
    header.seed = sc.seed;
    header.scenario_kv = sc.to_kv();
    header.label = "bench";
    writer = std::make_unique<journal::JournalWriter>(dir + "/bench.vjl",
                                                      header);
    ccfg.journal = writer.get();
  }
  Coordinator coord(engine, manager, inputs.devices, inputs.jobs, ccfg);

  const auto t0 = std::chrono::steady_clock::now();
  coord.run();
  if (writer) writer->finalize(engine.now());
  const auto t1 = std::chrono::steady_clock::now();

  CellResult r;
  r.devices = devices;
  r.jobs = jobs;
  r.mode = mode;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = engine.events_executed();
  r.events_per_sec =
      r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
  r.per_event_us =
      r.events > 0 ? 1e6 * r.wall_s / static_cast<double>(r.events) : 0.0;
  r.avg_jct = collect_results(coord, r.mode).avg_jct();
  r.work.sweep_visits = coord.hotpath_stats().sweep_visits;
  r.work.sweep_offers = coord.hotpath_stats().sweep_offers;
  r.work.candidates_scanned = manager.hotpath_stats().candidates_scanned;
  r.work.view_builds = manager.hotpath_stats().view_builds;
  r.work.device_rescans = coord.index().maintenance_stats().device_rescans;
  return r;
}

// Best-of-N: identical deterministic simulation each time, so the fastest
// repeat is the least-noise measurement of the same work.
CellResult run_cell_best(std::size_t devices, std::size_t jobs,
                         double horizon_days, std::uint64_t seed,
                         int repeats) {
  CellResult best = run_cell(devices, jobs, horizon_days, seed, "index");
  for (int rep = 1; rep < repeats; ++rep) {
    CellResult r = run_cell(devices, jobs, horizon_days, seed, "index");
    if (r.wall_s < best.wall_s) best = r;
  }
  return best;
}

// The overhead gate needs a low-noise RATIO, so the two modes are run
// INTERLEAVED (off, on, off, on, ...) — filesystem writeback pressure, CPU
// frequency drift and container scheduling noise then hit both modes
// alike instead of whichever mode happened to run last — and each mode
// keeps its fastest repeat.
std::pair<CellResult, CellResult> run_journal_pair(std::size_t devices,
                                                   std::size_t jobs,
                                                   double horizon_days,
                                                   std::uint64_t seed,
                                                   int repeats,
                                                   double early_exit_ratio,
                                                   double* gate_ratio) {
  // The gate statistic is the MINIMUM over adjacent (off, on) pairs of
  // the pair's wall ratio. Two properties make that robust on a noisy
  // runner: the two runs of a pair are adjacent in time, so common-mode
  // machine drift (frequency phases, co-tenant load) cancels out of the
  // ratio; and noise only ever ADDS wall time, so a genuine regression
  // shows up in EVERY pair while a noise spike only poisons the pairs it
  // lands on. Within-pair order alternates so monotone drift cannot bias
  // one side. Sampling stops early once a pair reaches
  // `early_exit_ratio` (the gate ceiling) — further samples could only
  // confirm the pass — or when the repeat budget runs out. The returned
  // cells are the best-observed walls per mode (the baseline entries).
  const auto run = [&](bool journal_on) {
    return run_cell(devices, jobs, horizon_days, seed,
                    journal_on ? "journal-on" : "journal-off");
  };
  (void)run(true);
  CellResult off = run(false);
  CellResult on = run(true);
  double best_ratio = on.wall_s / off.wall_s;
  for (int rep = 1; rep < repeats && best_ratio > early_exit_ratio; ++rep) {
    const bool on_first = (rep & 1) != 0;
    CellResult a = run(on_first);
    CellResult b = run(!on_first);
    CellResult& o = on_first ? b : a;
    CellResult& j = on_first ? a : b;
    best_ratio = std::min(best_ratio, j.wall_s / o.wall_s);
    if (o.wall_s < off.wall_s) off = o;
    if (j.wall_s < on.wall_s) on = j;
  }
  *gate_ratio = best_ratio;
  return {off, on};
}

void write_json(const std::string& path, double horizon_days,
                const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"hotpath_index\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  \"horizon_days\": %g,\n", horizon_days);
  out << buf;
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"devices\": %zu, \"jobs\": %zu, \"mode\": \"%s\", "
                  "\"wall_s\": %.6f, \"events\": %llu, "
                  "\"events_per_sec\": %.1f, \"per_event_us\": %.4f, "
                  "\"avg_jct\": %.6f",
                  c.devices, c.jobs, c.mode.c_str(), c.wall_s,
                  static_cast<unsigned long long>(c.events), c.events_per_sec,
                  c.per_event_us, c.avg_jct);
    out << buf;
    for (const auto& [key, value] : c.work.fields()) {
      out << ", \"" << key << "\": " << value;
    }
    out << '}' << (i + 1 < cells.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

// Minimal lookup into a previous output file: find the cell's identifying
// prefix, then read the named throughput field after it. The file format
// is our own (write_json above), so no general JSON parsing is needed.
// Index and journal cells carry "events_per_sec" and the work counters.
// The lookup delegates to orchestrator::find_cell_metric, which bounds the
// key search to the matched cell object: an unbounded search silently
// read the NEXT cell's value when a cell lacked the key, and gated
// against the wrong number.
bool baseline_metric(const std::string& text, std::size_t devices,
                     std::size_t jobs, const std::string& mode,
                     const char* metric_key, double* out) {
  char needle[128];
  std::snprintf(needle, sizeof(needle),
                "\"devices\": %zu, \"jobs\": %zu, \"mode\": \"%s\"", devices,
                jobs, mode.c_str());
  return orchestrator::find_cell_metric(text, needle, metric_key, out);
}

bool baseline_events_per_sec(const std::string& text, const CellResult& c,
                             double* out) {
  return baseline_metric(text, c.devices, c.jobs, c.mode, "events_per_sec",
                         out);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_hotpath.json";
  std::string baseline_path;
  double tolerance = 0.30;
  double horizon_days = 0.25;
  std::uint64_t seed = 77;
  int repeats = 3;
  double max_journal_overhead = 0.10;
  // Numeric flags go through the hardened util/parse.h helpers (the same
  // semantics ScenarioSpec key=value parsing uses): the unchecked
  // atoi/atof/strtod(..., nullptr) calls they replace silently turned
  // --repeats=abc into 1 and --tolerance=x into 0.0 — the latter
  // effectively disabling the regression gate on a typo.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick = true;
      } else if (arg.rfind("--max-journal-overhead=", 0) == 0) {
        max_journal_overhead =
            internal::parse_positive("--max-journal-overhead", arg.substr(23));
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--baseline=", 0) == 0) {
        baseline_path = arg.substr(11);
      } else if (arg.rfind("--tolerance=", 0) == 0) {
        tolerance = internal::parse_prob("--tolerance", arg.substr(12));
      } else if (arg.rfind("--horizon-days=", 0) == 0) {
        horizon_days =
            internal::parse_positive("--horizon-days", arg.substr(15));
      } else if (arg.rfind("--seed=", 0) == 0) {
        seed = internal::parse_u64("--seed", arg.substr(7));
      } else if (arg.rfind("--repeats=", 0) == 0) {
        repeats = std::max(1, internal::parse_int("--repeats", arg.substr(10)));
      } else {
        std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  bench::header("Scheduler hot path — eligibility-index work and throughput",
                "core/elig_index.h + the idle-pool sweep; no paper figure");
  bench::note("identical churn world per cell; work counters are exact "
              "(deterministic) and gated against the baseline");

  const std::vector<std::size_t> device_axis =
      quick ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000};
  const std::vector<std::size_t> job_axis =
      quick ? std::vector<std::size_t>{4, 16} : std::vector<std::size_t>{4, 16, 64};

  std::vector<CellResult> cells;
  std::printf("%9s %5s | %12s %9s | %10s %10s %10s %6s %8s\n", "devices",
              "jobs", "ev/s", "us/event", "visits", "offers", "candidates",
              "views", "rescans");
  for (const std::size_t devices : device_axis) {
    for (const std::size_t jobs : job_axis) {
      const CellResult c =
          run_cell_best(devices, jobs, horizon_days, seed, repeats);
      const WorkCounters& w = c.work;
      std::printf("%9zu %5zu | %12.0f %9.4f | %10llu %10llu %10llu %6llu "
                  "%8llu\n",
                  devices, jobs, c.events_per_sec, c.per_event_us,
                  static_cast<unsigned long long>(w.sweep_visits),
                  static_cast<unsigned long long>(w.sweep_offers),
                  static_cast<unsigned long long>(w.candidates_scanned),
                  static_cast<unsigned long long>(w.view_builds),
                  static_cast<unsigned long long>(w.device_rescans));
      cells.push_back(c);
    }
  }

  // --- journaling overhead -------------------------------------------------
  // Durability must be an observer, not a tax: the identical 150k-device
  // cell with the event journal off and on. Gate on wall-time overhead.
  const std::size_t journal_devices = 150'000;
  const std::size_t journal_jobs = 12;
  std::printf("\njournaling overhead (%zu devices x %zu jobs):\n",
              journal_devices, journal_jobs);
  double journal_gate_ratio = 1.0;
  const auto [joff, jon] = run_journal_pair(
      journal_devices, journal_jobs, horizon_days, seed,
      std::max(repeats, 12), 1.0 + max_journal_overhead,
      &journal_gate_ratio);
  const bool journal_match =
      joff.avg_jct == jon.avg_jct && joff.events == jon.events;
  const double overhead = journal_gate_ratio - 1.0;
  std::printf("%12s | %12s %12s | %8s %5s\n", "mode", "wall s", "ev/s",
              "overhead", "match");
  std::printf("%12s | %12.4f %12.0f | %8s %5s\n", joff.mode.c_str(),
              joff.wall_s, joff.events_per_sec, "-", "yes");
  std::printf("%12s | %12.4f %12.0f | %7.1f%% %5s\n", jon.mode.c_str(),
              jon.wall_s, jon.events_per_sec, 100.0 * overhead,
              journal_match ? "yes" : "NO");
  // Rows show the best wall per mode (what the baseline records); the
  // overhead column is the gate statistic — the best adjacent pair ratio.
  cells.push_back(joff);
  cells.push_back(jon);

  write_json(out_path, horizon_days, cells);
  bench::note("wrote " + out_path);
  if (!journal_match) {
    std::fprintf(stderr, "FAIL: journal-on and journal-off runs diverged\n");
    return 1;
  }
  if (overhead > max_journal_overhead) {
    std::fprintf(stderr,
                 "FAIL: journaling overhead %.1f%% exceeds the %.0f%% "
                 "ceiling (journal-off %.4fs vs journal-on %.4fs)\n",
                 100.0 * overhead, 100.0 * max_journal_overhead, joff.wall_s,
                 jon.wall_s);
    return 1;
  }
  {
    char note[96];
    std::snprintf(note, sizeof(note),
                  "journaling overhead %.1f%% (ceiling %.0f%%)",
                  100.0 * overhead, 100.0 * max_journal_overhead);
    bench::note(note);
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    bool ok = true;
    std::size_t matched = 0;
    // Work gate: exact counters, so any increase over the baseline is a
    // real change in how much work the hot path does — no tolerance.
    for (const CellResult& c : cells) {
      if (c.mode != "index") continue;
      for (const auto& [key, value] : c.work.fields()) {
        double base = 0.0;
        if (!baseline_metric(text, c.devices, c.jobs, c.mode, key, &base)) {
          continue;  // new cell or counter
        }
        ++matched;
        if (static_cast<double>(value) > base) {
          std::fprintf(stderr,
                       "FAIL: %zu devices x %zu jobs: %s %llu exceeds the "
                       "baseline's %.0f\n",
                       c.devices, c.jobs, key,
                       static_cast<unsigned long long>(value), base);
          ok = false;
        }
      }
    }
    // Journal pair: the on/off events/sec ratio against the baseline's —
    // machine-invariant, unlike absolute ev/s, which differs across
    // machines by more than the tolerance.
    {
      const CellResult& on = cells.back();
      const CellResult& off = cells[cells.size() - 2];
      double base_off = 0.0, base_on = 0.0;
      // A zero on either side (truncated/hand-edited baseline, or a parse
      // landing on 0) would make the ratio degenerate and the gate vacuous
      // — treat it as unmatched instead.
      if (baseline_events_per_sec(text, off, &base_off) &&
          baseline_events_per_sec(text, on, &base_on) && base_off > 0.0 &&
          base_on > 0.0 && off.events_per_sec > 0.0 &&
          on.events_per_sec > 0.0) {
        ++matched;
        const double base_ratio = base_on / base_off;
        const double ratio = on.events_per_sec / off.events_per_sec;
        if (ratio < (1.0 - tolerance) * base_ratio) {
          std::fprintf(stderr,
                       "FAIL: %zu devices x %zu jobs: journal-on vs "
                       "journal-off throughput ratio %.2fx is >%.0f%% below "
                       "baseline %.2fx\n",
                       on.devices, on.jobs, ratio, 100.0 * tolerance,
                       base_ratio);
          ok = false;
        }
      }
    }
    if (matched == 0) {
      // A truncated or format-drifted baseline must not silently disable
      // the gate by failing to match anything.
      std::fprintf(stderr,
                   "FAIL: no measured cell matched baseline %s — "
                   "regenerate it with --quick --out=<path>\n",
                   baseline_path.c_str());
      return 1;
    }
    if (!ok) return 1;
    bench::note(std::to_string(matched) +
                " baseline checks passed (work counters at or below the "
                "baseline; ratios within " +
                std::to_string(int(100 * tolerance)) + "% of it) against " +
                baseline_path);
  }
  return 0;
}
