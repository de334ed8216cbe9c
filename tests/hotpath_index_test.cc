// Index-vs-reference equivalence and hot-path budget tests.
//
// The incremental eligibility index (core/elig_index.h) is the only
// scheduling path. Its supply aggregates, device signatures and the
// manager's wants mask are checked for exact equality against the
// test-only brute-force scan in tests/reference/brute_force.h — the "scan"
// of the test names — at several points of each run, under every policy
// and workload mode. Two property tests pin the pieces the sweep and the
// supply estimate read: the cached signature column against live
// recomputation, and per-category solo-JCT probes against the reference.
// The stress tests at the bottom are the scaling evidence: at 100k
// devices × 64 jobs, per-event scheduling work (offers made during
// idle-pool sweeps, pending views built, devices rescanned for supply
// estimates) is bounded by the workload, not the fleet.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "protocol/builtins.h"
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

// ---------------------------------------------------------------- property --

// A coordinator over a 4k-device churn world, built by hand so supply
// estimates and the index are directly observable.
struct ProbeRun {
  sim::Engine engine;
  ResourceManager manager;
  std::shared_ptr<const workload::GeneratorSet> gens;
  std::unique_ptr<Coordinator> coord;

  ProbeRun()
      : engine(Rng::derive(91, "engine")),
        manager(PolicyRegistry::instance().create(
            "venn", {}, Rng::derive(91, "scheduler"))) {
    ScenarioSpec sc;
    sc.seed = 91;
    sc.num_devices = 4'000;
    sc.num_jobs = 6;
    sc.horizon = 2.0 * kDay;
    sc.set("churn", "weibull");
    const auto inputs = api::build_inputs(sc);
    gens = std::make_shared<const workload::GeneratorSet>(
        workload::build_generators(sc.arrival_gen, sc.mix_gen, sc.churn_gen,
                                   sc.seed));
    CoordinatorConfig ccfg;
    ccfg.horizon = sc.horizon;
    ccfg.seed = sc.seed;
    ccfg.churn = gens->churn.get();
    coord = std::make_unique<Coordinator>(engine, manager, inputs.devices,
                                          inputs.jobs, ccfg);
  }
};

// Solo-JCT probes for every category register one requirement each with
// the index; afterwards the index must equal the brute-force reference,
// and each estimate must not depend on the order the probes registered
// their requirement bits in (the supply aggregates behind it are exact).
TEST(IndexVsScan, SoloJctProbesMatchReferenceAtFourThousandDevices) {
  std::vector<trace::JobSpec> probes;
  for (const ResourceCategory c : all_categories()) {
    trace::JobSpec spec;
    spec.category = c;
    spec.demand = 24;
    spec.rounds = 6;
    spec.nominal_task_s = 120.0;
    spec.task_cv = 0.3;
    probes.push_back(spec);
  }
  ProbeRun forward;
  ProbeRun backward;
  std::vector<double> fwd;
  for (const auto& spec : probes) {
    fwd.push_back(forward.coord->solo_jct_estimate(spec));
  }
  for (std::size_t i = probes.size(); i-- > 0;) {
    const double est = backward.coord->solo_jct_estimate(probes[i]);
    EXPECT_EQ(est, fwd[i]) << category_name(probes[i].category);
    EXPECT_TRUE(std::isfinite(est) && est > 0.0)
        << category_name(probes[i].category) << " " << est;
  }
  for (ProbeRun* run : {&forward, &backward}) {
    EXPECT_EQ(run->coord->index().num_requirements(), probes.size());
    EXPECT_TRUE(reference::index_matches(*run->coord, run->manager));
  }
}

// SoA-filter-vs-live-signature property. The sweep's skip verdict reads
// the hot store's cached signature column: skip device d iff
// (hot.signature[d] & wants) == 0 on bits proven aligned with the
// manager's requirement space; the fallback recomputes the signature live
// from the spec per offer (SignatureSpace::signature_of). The two must
// agree under exactly the dynamic conditions that invalidate caches:
//   * the wants mask GROWS mid-sweep — staggered job arrivals register new
//     requirement bits between (and during) sweeps, and a successful offer
//     can re-open a queue the filter considered satisfied;
//   * straggler re-parks — the overcommit protocol cuts devices off
//     mid-compute and re-parks them with their day budget refunded, so
//     the pool churns while rounds are in flight.
// Run the scenario, assert those conditions actually occurred, then check
// per device that the cached column reproduces the live signature bit for
// bit on the aligned prefix (recomputed here the same way
// Coordinator::aligned_requirement_mask proves it) — which implies verdict
// equality for every wants mask the sweep can see. The participation
// column must likewise match the Device views bound over it.
TEST(IndexVsScan, SoaFilterVerdictMatchesLiveSignatureFallback) {
  ScenarioSpec sc;
  sc.seed = 97;
  sc.num_devices = 6'000;
  sc.num_jobs = 10;
  sc.horizon = 2.0 * kDay;
  sc.job_trace.min_demand = 3;
  sc.job_trace.max_demand = 12;
  sc.set("churn", "weibull");

  const auto inputs = api::build_inputs(sc);
  const auto gens = workload::build_generators(sc.arrival_gen, sc.mix_gen,
                                               sc.churn_gen, sc.seed);
  sim::Engine engine(Rng::derive(sc.seed, "engine"));
  ResourceManager manager(PolicyRegistry::instance().create(
      "venn", {}, Rng::derive(sc.seed, "scheduler")));
  const protocol::OvercommitProtocol overcommit(1.5);
  CoordinatorConfig ccfg;
  ccfg.horizon = sc.horizon;
  ccfg.seed = sc.seed;
  ccfg.churn = gens.churn.get();
  ccfg.protocol = &overcommit;
  Coordinator coord(engine, manager, inputs.devices, inputs.jobs, ccfg);
  coord.run();

  // The dynamic conditions engaged, or the property below is vacuous:
  // requirements were registered (wants-mask growth), stragglers were
  // released back into the pool, and sweeps skipped devices by signature.
  const SignatureSpace& sigs = manager.signatures();
  ASSERT_GT(sigs.size(), 0u);
  EXPECT_GT(coord.protocol_stats().stragglers_released, 0u);
  EXPECT_GT(coord.hotpath_stats().sweep_skips, 0u);

  const FleetHotState& hot = coord.hot_state();
  ASSERT_EQ(hot.size(), sc.num_devices);

  const EligibilityIndex& idx = coord.index();
  // Recompute the aligned prefix exactly like the coordinator does.
  std::size_t aligned = 0;
  const std::size_t n = std::min(idx.num_requirements(), sigs.size());
  while (aligned < n &&
         idx.requirement(aligned) == sigs.requirement(aligned)) {
    ++aligned;
  }
  // In this scenario every manager requirement came through the
  // register-with-index-first path, so the whole space must align —
  // otherwise the sweep silently degraded to plain offering and the
  // equality below would not cover the filter at all.
  ASSERT_EQ(aligned, sigs.size());
  const std::uint64_t amask = aligned >= 64 ? ~0ULL : (1ULL << aligned) - 1;
  for (std::size_t d = 0; d < hot.size(); ++d) {
    const std::uint64_t live = sigs.signature_of(hot.spec[d]);
    ASSERT_EQ(hot.signature[d] & amask, live & amask) << "device " << d;
  }

  // The participation column is the backing store of the Device views;
  // after refunds (straggler releases above) every slot is either the
  // sentinel or a real day inside the run.
  const int last_day = Device::day_of(sc.horizon);
  for (std::size_t d = 0; d < hot.size(); ++d) {
    const std::int32_t day = hot.participation_day[d];
    ASSERT_TRUE(day == Device::kNeverParticipated ||
                (day >= -1 && day <= last_day))
        << "device " << d << " day " << day;
  }
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
