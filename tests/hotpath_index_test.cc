// Index-vs-reference equivalence and hot-path budget tests.
//
// The incremental eligibility index (core/elig_index.h) is the only
// scheduling path. Its supply aggregates, device signatures and the
// manager's wants mask are checked for exact equality against the
// test-only brute-force scan in tests/reference/brute_force.h — the "scan"
// of the test names — at several points of each run, under every policy
// and workload mode. The stress tests at the bottom are the scaling
// evidence: at 100k devices × 64 jobs, per-event scheduling work (offers
// made during idle-pool sweeps, pending views built, devices rescanned for
// supply estimates) is bounded by the workload, not the fleet.
#include <gtest/gtest.h>

#include "reference/brute_force.h"
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
  }
  EXPECT_EQ(a.assignment_matrix, b.assignment_matrix) << label;
}

// Runs `sc` once checked against the reference at five points, and once as
// a plain batch run; the two results must be identical (the checks are
// read-only and slicing is invisible).
void expect_checked_run(const ScenarioSpec& sc, const PolicySpec& pol,
                        const std::string& label) {
  const RunResult checked = reference::run_checked(sc, pol, 4, label);
  const RunResult batch = ExperimentBuilder().scenario(sc).policy(pol).run();
  expect_identical(checked, batch, label);
  EXPECT_GT(checked.finished_jobs(), 0u) << label;
}

// Legacy single-model world (materialized diurnal sessions): the index's
// session-statistics doubles must equal the reference bit for bit.
TEST(IndexVsScan, ByteIdenticalAcrossPoliciesLegacyWorld) {
  ScenarioSpec sc;
  sc.seed = 17;
  sc.num_devices = 900;
  sc.num_jobs = 10;
  sc.horizon = 8.0 * kDay;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 12;

  PolicySpec venn_eps("venn");
  venn_eps.set("epsilon", "2");  // fairness consumes the solo JCT estimates
  for (const PolicySpec& pol :
       {venn_eps, PolicySpec("fifo"), PolicySpec("srsf"),
        PolicySpec("random")}) {
    expect_checked_run(sc, pol, pol.name);
  }
}

// Churn-model world, materialized and streamed: the index's eligible-count
// path feeds the analytic supply rate in both modes.
TEST(IndexVsScan, ByteIdenticalWithChurnAndStreaming) {
  ScenarioSpec sc;
  sc.seed = 23;
  sc.num_devices = 700;
  sc.num_jobs = 8;
  sc.horizon = 6.0 * kDay;
  sc.set("churn", "weibull");
  for (const bool streaming : {false, true}) {
    ScenarioSpec s = sc;
    s.streaming = streaming;
    expect_checked_run(s, PolicySpec("venn"),
                       streaming ? "streamed" : "materialized");
  }
}

TEST(IndexVsScan, ByteIdenticalOpenLoop) {
  ScenarioSpec sc;
  sc.seed = 31;
  sc.num_devices = 500;
  sc.num_jobs = 8;
  sc.horizon = 5.0 * kDay;
  sc.set("arrival", "poisson");
  sc.set("arrival.interarrival-min", "240");
  sc.set("mix", "even");
  sc.set("open-loop", "1");
  expect_checked_run(sc, PolicySpec("venn"), "open-loop");
}

// ---------------------------------------------------------------- stress --

struct StressRun {
  RunResult result;
  Coordinator::HotpathStats coord;
  ResourceManager::HotpathStats manager;
  EligibilityIndex::MaintenanceStats index;
};

// 64 jobs over a streaming-churn fleet, short horizon. Coordinator built by
// hand so the hot-path counters are observable; the index is checked
// against the reference mid-run and at the horizon.
StressRun run_stress(std::size_t devices) {
  ScenarioSpec sc;
  sc.seed = 77;
  sc.num_devices = devices;
  sc.num_jobs = 64;
  sc.horizon = 0.5 * kDay;
  sc.job_trace.mean_interarrival = 4.0 * kMinute;  // all 64 arrive in-horizon
  sc.job_trace.min_rounds = 1;
  sc.job_trace.max_rounds = 3;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 8;
  sc.set("churn", "weibull");
  sc.set("stream", "1");

  const auto inputs = api::build_inputs(sc);
  sim::Engine engine(Rng::derive(sc.seed, "engine"));
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  AssignmentMatrixObserver matrix;
  manager.add_observer(&matrix);
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.seed = sc.seed;
  ccfg.churn = gens.churn.get();
  ccfg.stream_sessions = true;
  Coordinator coord(engine, manager, inputs.devices, inputs.jobs, ccfg);
  coord.setup();
  engine.run_until(sc.horizon / 2);
  EXPECT_TRUE(reference::index_matches(coord, manager)) << "mid-run";
  engine.run_until(sc.horizon);
  EXPECT_TRUE(reference::index_matches(coord, manager)) << "at the horizon";

  StressRun out;
  out.result = collect_results(coord, "index");
  out.result.assignment_matrix = matrix.matrix();
  out.coord = coord.hotpath_stats();
  out.manager = manager.hotpath_stats();
  out.index = coord.index().maintenance_stats();
  return out;
}

TEST(HotpathStress, HundredThousandDevicesIndexMatchesScanWithBoundedWork) {
  constexpr std::size_t kFleet = 100'000;
  const StressRun idx = run_stress(kFleet);
  ASSERT_EQ(idx.result.jobs.size(), 64u);
  EXPECT_GT(idx.result.finished_jobs(), 0u);

  // Sweeps stop once no request wants devices and skip ineligible devices,
  // so a sweep visits a handful of the ~100k-device fleet's idle pool —
  // a full pass per sweep is the O(fleet × jobs) term the index removes.
  ASSERT_GT(idx.coord.sweeps, 0u);
  EXPECT_LT(idx.coord.sweep_visits, 100 * idx.coord.sweeps);
  EXPECT_LE(idx.coord.sweep_offers, idx.coord.sweep_visits);
  // The pending view is materialized for scheduler queue-change
  // notifications only, never per offer.
  EXPECT_LT(10 * idx.manager.view_builds, idx.manager.offers);

  // Supply estimation pays one fleet pass per *distinct* requirement, ever.
  EXPECT_GT(idx.coord.supply_queries, 64u);  // one per registration + collect
  EXPECT_LE(idx.index.requirement_registrations, 4u);
  EXPECT_EQ(idx.index.device_rescans,
            idx.index.requirement_registrations * kFleet);
}

TEST(HotpathStress, SweepOffersDoNotScaleWithFleetSize) {
  // Same 64-job workload over a 4x larger fleet: the sweep offers stay
  // pinned to what the workload actually consumes (a fixed per-event
  // budget, fleet-independent).
  const StressRun small = run_stress(25'000);
  const StressRun large = run_stress(100'000);
  ASSERT_GT(small.coord.sweep_offers, 0u);
  const double growth = static_cast<double>(large.coord.sweep_offers) /
                        static_cast<double>(small.coord.sweep_offers);
  EXPECT_LT(growth, 2.0) << "sweep offers grew " << growth
                         << "x for a 4x fleet: per-event work is scaling "
                            "with fleet size again";
}

}  // namespace
}  // namespace venn
