// Protocol-level tests for the coordinator: the CL round lifecycle under
// controlled device populations — deadline aborts, ephemeral-device
// failures, the one-job-per-day rule and idle-pool behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/metrics.h"
#include "core/resource_manager.h"
#include "protocol/builtins.h"
#include "reference/brute_force.h"
#include "scheduler/fifo_sched.h"
#include "sim/engine.h"
#include "trace/availability.h"
#include "trace/hardware.h"

namespace venn {
namespace {

trace::JobSpec one_job(int rounds, int demand, SimTime arrival = 0.0,
                       double nominal = 60.0, SimTime deadline = 600.0) {
  trace::JobSpec s;
  s.rounds = rounds;
  s.demand = demand;
  s.category = ResourceCategory::kGeneral;
  s.arrival = arrival;
  s.nominal_task_s = nominal;
  s.task_cv = 0.0;  // deterministic execution by default
  s.deadline_s = deadline;
  return s;
}

// `n` always-on devices of the given spec.
std::vector<Device> always_on(int n, DeviceSpec spec, SimTime horizon) {
  std::vector<Device> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(DeviceId(i), spec,
                     std::vector<Session>{{0.0, horizon}});
  }
  return out;
}

RunResult run(std::vector<Device> devices, std::vector<trace::JobSpec> jobs,
              SimTime horizon = 14.0 * kDay) {
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  CoordinatorConfig cfg;
  cfg.horizon = horizon;
  Coordinator coord(engine, mgr, std::move(devices), std::move(jobs), cfg);
  coord.run();
  return collect_results(coord, "FIFO");
}

TEST(Coordinator, SingleRoundCompletesFromIdlePool) {
  // 10 devices online at t=0; job arrives at t=100 needing 5: instant fill,
  // response collection = deterministic exec time of a speed-s device.
  auto devices = always_on(10, {0.5, 0.5}, kDay);
  const Device probe(DeviceId(99), {0.5, 0.5}, {});
  const double exec = 60.0 / probe.speed();
  const RunResult r = run(std::move(devices), {one_job(1, 5, 100.0)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  ASSERT_EQ(r.jobs[0].rounds.size(), 1u);
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 0.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, exec, 1e-6);
  EXPECT_NEAR(r.jobs[0].jct, exec, 1e-6);
}

TEST(Coordinator, SchedulingDelayWaitsForCheckins) {
  // Devices come online one per hour; a demand-3 job submitted at t=0 is
  // fully allocated when the third device appears.
  std::vector<Device> devices;
  for (int i = 0; i < 5; ++i) {
    devices.emplace_back(
        DeviceId(i), DeviceSpec{0.5, 0.5},
        std::vector<Session>{{(i + 1) * kHour, (i + 1) * kHour + 10 * kHour}});
  }
  const RunResult r = run(std::move(devices), {one_job(1, 3)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 3 * kHour, 1.0);
}

TEST(Coordinator, EightyPercentRuleIgnoresStragglers) {
  // 10 devices: 8 fast, 2 very slow. Round of demand 10 completes when the
  // 8th (fast) response arrives; the slow pair never gates completion.
  std::vector<Device> devices;
  for (int i = 0; i < 8; ++i) {
    devices.emplace_back(DeviceId(i), DeviceSpec{1.0, 1.0},
                         std::vector<Session>{{0.0, kDay}});
  }
  for (int i = 8; i < 10; ++i) {
    devices.emplace_back(DeviceId(i), DeviceSpec{0.0, 0.0},
                         std::vector<Session>{{0.0, kDay}});
  }
  const double fast_exec = 60.0 / Device(DeviceId(0), {1.0, 1.0}, {}).speed();
  const RunResult r = run(std::move(devices), {one_job(1, 10)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, fast_exec, 1e-6);
}

TEST(Coordinator, DeadlineAbortsAndRetries) {
  // Demand 5 but only 4 devices can ever respond (the 5th fails: its
  // session ends before it finishes). With <80%*5=4 responses... 4 of 5 is
  // exactly 80%, so make 2 fail: 3 responses < 4 needed -> deadline abort,
  // retry also fails, job never finishes (censored at horizon).
  std::vector<Device> devices;
  for (int i = 0; i < 3; ++i) {
    devices.emplace_back(DeviceId(i), DeviceSpec{0.5, 0.5},
                         std::vector<Session>{{0.0, 30 * kDay}});
  }
  // Two ephemeral devices whose sessions end mid-computation (exec ~120 s).
  for (int i = 3; i < 5; ++i) {
    devices.emplace_back(DeviceId(i), DeviceSpec{0.5, 0.5},
                         std::vector<Session>{{0.0, 10.0}});
  }
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  CoordinatorConfig cfg;
  cfg.horizon = 2.0 * kDay;
  Coordinator coord(engine, mgr, std::move(devices), {one_job(1, 5)}, cfg);
  coord.run();
  const RunResult r = collect_results(coord, "FIFO");
  EXPECT_EQ(r.finished_jobs(), 0u);
  EXPECT_GE(r.jobs[0].total_aborts, 1);
}

TEST(Coordinator, FailedPendingAssignmentReopensDemand) {
  // Demand 3. Devices 0 and 1 are assigned at t=0, but device 0's session
  // ends at t=10 — before it can finish — while the request is still
  // pending (2/3 assigned). The freed unit of demand must be re-openable:
  // devices arriving at 1 h and 2 h complete the allocation.
  std::vector<Device> devices;
  devices.emplace_back(DeviceId(0), DeviceSpec{0.5, 0.5},
                       std::vector<Session>{{0.0, 10.0}});  // dies at t=10
  devices.emplace_back(DeviceId(1), DeviceSpec{0.5, 0.5},
                       std::vector<Session>{{0.0, kDay}});
  devices.emplace_back(DeviceId(2), DeviceSpec{0.5, 0.5},
                       std::vector<Session>{{kHour, kDay}});
  devices.emplace_back(DeviceId(3), DeviceSpec{0.5, 0.5},
                       std::vector<Session>{{2 * kHour, kDay}});
  const RunResult r = run(std::move(devices), {one_job(1, 3)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  // Full allocation required the 2 h arrival (the failed unit re-opened).
  EXPECT_GE(r.jobs[0].rounds[0].scheduling_delay, 2 * kHour - 1.0);
}

TEST(Coordinator, OneJobPerDayPerDevice) {
  // 5 always-on devices, one 3-round job of demand 5: every round consumes
  // all devices for the day, so rounds complete ~one per day.
  auto devices = always_on(5, {0.5, 0.5}, 10 * kDay);
  const RunResult r = run(std::move(devices), {one_job(3, 5)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  // Three rounds need three distinct days of participation.
  EXPECT_GE(r.jobs[0].jct, 2 * kDay);
  EXPECT_LE(r.jobs[0].jct, 4 * kDay);
}

TEST(Coordinator, IneligibleDevicesNeverAssigned) {
  // High-perf job, low-end population: the job can never start.
  auto devices = always_on(20, {0.1, 0.1}, 5 * kDay);
  trace::JobSpec hp = one_job(1, 2);
  hp.category = ResourceCategory::kHighPerf;
  const RunResult r = run(std::move(devices), {hp}, 5 * kDay);
  EXPECT_EQ(r.finished_jobs(), 0u);
  EXPECT_EQ(r.jobs[0].completed_rounds, 0);
  EXPECT_TRUE(r.jobs[0].rounds.empty());
}

TEST(Coordinator, AssignmentMatrixObserverAccountsEveryAssignment) {
  auto devices = always_on(30, {0.6, 0.6}, 5 * kDay);
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  AssignmentMatrixObserver matrix;
  mgr.add_observer(&matrix);
  CoordinatorConfig cfg;
  cfg.horizon = 5 * kDay;
  Coordinator coord(engine, mgr, std::move(devices), {one_job(2, 8)}, cfg);
  coord.run();
  EXPECT_EQ(matrix.total(), 16);  // 2 rounds x 8 devices, no failures
  // A {0.6, 0.6} device sits in the High-Perf region; the job is General.
  EXPECT_EQ(matrix.matrix()[static_cast<int>(ResourceCategory::kHighPerf)]
                           [static_cast<int>(ResourceCategory::kGeneral)],
            16);
}

TEST(Coordinator, SoloJctEstimateIsPositiveAndScalesWithRounds) {
  auto devices = always_on(50, {0.5, 0.5}, 7 * kDay);
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  Coordinator coord(engine, mgr, std::move(devices), {}, {});
  const double one = coord.solo_jct_estimate(one_job(1, 10));
  const double ten = coord.solo_jct_estimate(one_job(10, 10));
  EXPECT_GT(one, 0.0);
  EXPECT_NEAR(ten / one, 10.0, 1e-6);
}

TEST(Coordinator, HorizonCensorsUnfinishedJobs) {
  auto devices = always_on(2, {0.5, 0.5}, 100 * kDay);
  // Demand 10 with only 2 devices/day: cannot finish within 1 day horizon.
  const RunResult r = run(std::move(devices), {one_job(1, 10)}, 1.0 * kDay);
  EXPECT_EQ(r.finished_jobs(), 0u);
  EXPECT_NEAR(r.jobs[0].jct, 1.0 * kDay, 1.0);  // censored at horizon
}

// FIFO, except one device is refused placement before a gate time. Lets a
// test park an eligible device in the idle pool while a job still wants it
// — the greedy baselines would otherwise grab it at check-in.
class GateScheduler final : public Scheduler {
 public:
  GateScheduler(DeviceId blocked, SimTime open_at)
      : blocked_(blocked), open_at_(open_at) {}
  [[nodiscard]] std::string name() const override { return "GATE"; }
  [[nodiscard]] std::optional<std::size_t> assign(
      const DeviceView& dev, std::span<const PendingJob> candidates,
      SimTime now) override {
    if (dev.id == blocked_ && now < open_at_) return std::nullopt;
    return fifo_.assign(dev, candidates, now);
  }

 private:
  DeviceId blocked_;
  SimTime open_at_;
  FifoScheduler fifo_;
};

class AssignmentLog final : public RunObserver {
 public:
  void on_assignment(const Device& dev, const Job&, const AssignOutcome&,
                     SimTime now) override {
    entries.push_back({dev.id(), now});
  }
  std::vector<std::pair<DeviceId, SimTime>> entries;
};

TEST(Coordinator, MidSweepRoundCompletionDefersNestedSweep) {
  // Regression test for idle-sweep reentrancy: a round whose last device is
  // assigned *by a sweep* while >= 80% of its responses already landed
  // completes synchronously inside that sweep (handle_outcome ->
  // maybe_complete -> submit_request), and the resubmission calls back into
  // offer_idle_pool mid-iteration. The guard must defer that nested sweep;
  // without it the nested sweep re-read the outer sweep's pool snapshot and
  // could re-offer the device the outer sweep had just assigned.
  //
  // Devices 0-3 plus the gated device 4, all always-on. Job 0 (demand 5,
  // 2 rounds) arrives at t=10 and takes devices 0-3; the gate keeps
  // device 4 parked even though job 0 still wants one more. All four
  // responses land at t = 10 + exec < 600, so job 0 sits at exactly
  // needed_responses() with one unit of demand open. Job 1's arrival at
  // t=600 sweeps the pool (gate now open): device 4's assignment fully
  // allocates job 0 and completes its round inside the sweep.
  auto devices = always_on(5, {0.5, 0.5}, 20 * kDay);
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<GateScheduler>(DeviceId(4), 500.0));
  AssignmentLog log;
  mgr.add_observer(&log);
  Coordinator coord(engine, mgr, std::move(devices),
                    {one_job(2, 5, 10.0), one_job(1, 1, 600.0)});
  coord.run();
  const RunResult r = collect_results(coord, "GATE");

  ASSERT_EQ(r.finished_jobs(), 2u);
  ASSERT_EQ(r.jobs[0].rounds.size(), 2u);
  // Round 1 completed the instant it was fully allocated, inside the
  // t=600 sweep: delay 600-10, zero response-collection time.
  EXPECT_NEAR(r.jobs[0].rounds[0].scheduling_delay, 590.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, 0.0, 1e-9);
  // The mid-sweep resubmission hit the reentrancy guard and was deferred.
  EXPECT_GE(coord.hotpath_stats().resweeps, 1u);
  // The t=600 sweep made exactly one assignment (device 4 -> job 0); a
  // nested sweep would have re-offered the already-assigned device 4 to
  // round 2 at the same timestamp.
  std::size_t at_600 = 0;
  for (const auto& [dev, at] : log.entries) at_600 += (at == 600.0) ? 1 : 0;
  EXPECT_EQ(at_600, 1u);
}

TEST(Coordinator, SoloJctProbeCannotDesyncIndexBits) {
  // solo_jct_estimate() is public and lazily registers requirements with
  // the eligibility index on first sight. A probe for a category that
  // never becomes a job used to shift the index's bit space relative to
  // the manager's (which only sees real jobs), and the idle-sweep skip
  // intersects the two — eligible devices were silently skipped. The
  // alignment check must degrade to plain offering instead: a probed run
  // must simulate exactly like an unprobed one, and the shifted index must
  // still match the brute-force reference.
  RunResult results[2];
  for (const bool probe : {false, true}) {
    // {0.4, 0.4}: eligible for General but NOT High-Perf (threshold 0.5),
    // so a desynced index signature has no overlap with the wanted bit.
    auto devices = always_on(10, {0.4, 0.4}, 5 * kDay);
    sim::Engine engine(1);
    ResourceManager mgr(std::make_unique<FifoScheduler>());
    CoordinatorConfig cfg;
    cfg.horizon = 5 * kDay;
    Coordinator coord(engine, mgr, std::move(devices),
                      {one_job(2, 5, 100.0)}, cfg);
    if (probe) {
      trace::JobSpec spec = one_job(1, 2);
      spec.category = ResourceCategory::kHighPerf;
      (void)coord.solo_jct_estimate(spec);  // HighPerf takes index bit 0
      ASSERT_EQ(coord.index().requirement(0),
                requirement_for(ResourceCategory::kHighPerf));
    }
    coord.run();
    EXPECT_TRUE(reference::index_matches(coord, mgr)) << "probe=" << probe;
    results[probe ? 1 : 0] = collect_results(coord, "FIFO");
  }
  ASSERT_EQ(results[1].finished_jobs(), 1u);
  ASSERT_EQ(results[0].finished_jobs(), 1u);
  EXPECT_EQ(results[1].jobs[0].jct, results[0].jobs[0].jct);
  EXPECT_EQ(results[1].jobs[0].rounds[0].scheduling_delay,
            results[0].jobs[0].rounds[0].scheduling_delay);
}

TEST(Coordinator, ResponseLandingExactlyAtDeadlineCompletes) {
  // Demand 1, exec time tuned to land exactly at the reporting deadline:
  // full allocation at t=0, deadline span 60 s, deterministic exec 60 s.
  // Both events fire at t=60; the response event was scheduled first in
  // the same handle_outcome call, and the event queue is FIFO among
  // same-time events, so the round completes and the deadline is a no-op.
  // This pins the boundary semantics: "at the deadline" counts.
  const double exec = 60.0 / Device(DeviceId(9), {1.0, 1.0}, {}).speed();
  ASSERT_DOUBLE_EQ(exec, 60.0);
  auto devices = always_on(1, {1.0, 1.0}, kDay);
  const RunResult r = run(std::move(devices),
                          {one_job(1, 1, 0.0, 60.0, /*deadline=*/exec)});
  ASSERT_EQ(r.finished_jobs(), 1u);
  EXPECT_EQ(r.jobs[0].total_aborts, 0);
  EXPECT_NEAR(r.jobs[0].rounds[0].response_collection, exec, 1e-9);
}

TEST(Coordinator, AbortMidComputationStragglerDisposition) {
  // Demand 2: a fast device responds at t=60, a weak device's exec (500 s)
  // overruns the 300 s reporting deadline — the abort fires while it is
  // mid-computation. The two protocols dispose of that straggler
  // differently:
  //   sync       — the device stays charged for the day; the retry finds
  //                an empty pool and the job never finishes (2 lifetime
  //                assignments).
  //   overcommit — the abort releases it (budget refunded), the retry's
  //                sweep re-acquires it immediately (>= 3 assignments),
  //                and the release is visible in the wasted-work counters.
  for (const bool overcommit : {false, true}) {
    std::vector<Device> devices;
    devices.emplace_back(DeviceId(0), DeviceSpec{1.0, 1.0},
                         std::vector<Session>{{0.0, kDay}});
    devices.emplace_back(DeviceId(1), DeviceSpec{0.0, 0.0},
                         std::vector<Session>{{0.0, kDay}});  // exec 500 s
    sim::Engine engine(1);
    ResourceManager mgr(std::make_unique<FifoScheduler>());
    const protocol::SyncProtocol sync_proto;
    const protocol::OvercommitProtocol oc_proto(1.0);  // selection = demand
    AssignmentLog log;
    mgr.add_observer(&log);
    CoordinatorConfig cfg;
    cfg.horizon = 0.9 * kDay;  // no day-boundary budget reset
    cfg.protocol = overcommit
                       ? static_cast<const protocol::RoundProtocol*>(&oc_proto)
                       : &sync_proto;
    Coordinator coord(engine, mgr, std::move(devices),
                      {one_job(1, 2, 0.0, 60.0, /*deadline=*/300.0)}, cfg);
    coord.run();
    const RunResult r = collect_results(coord, "FIFO");

    EXPECT_EQ(r.finished_jobs(), 0u) << "overcommit=" << overcommit;
    EXPECT_GE(r.jobs[0].total_aborts, 1) << "overcommit=" << overcommit;
    if (overcommit) {
      EXPECT_GE(r.protocol.stragglers_released, 1u);
      EXPECT_GE(log.entries.size(), 3u);
      // The straggler was re-acquired at the abort instant, same day.
      bool reacquired_after_abort = false;
      for (const auto& [dev, at] : log.entries) {
        reacquired_after_abort |= (dev == DeviceId(1) && at > 60.0);
      }
      EXPECT_TRUE(reacquired_after_abort);
    } else {
      EXPECT_EQ(r.protocol.stragglers_released, 0u);
      EXPECT_EQ(log.entries.size(), 2u);
    }
  }
}

// Pool positions are consistent: exactly idle_pool_size() devices carry a
// nonzero idle_pos, and those positions are distinct slots 1..size.
::testing::AssertionResult idle_positions_consistent(const Coordinator& c) {
  const auto& pos = c.hot_state().idle_pos;
  std::vector<bool> taken(c.idle_pool_size() + 1, false);
  std::size_t parked = 0;
  for (std::size_t d = 0; d < pos.size(); ++d) {
    if (pos[d] == 0) continue;
    ++parked;
    if (pos[d] > c.idle_pool_size() || taken[pos[d]]) {
      return ::testing::AssertionFailure()
             << "device " << d << " holds bad or duplicate position "
             << pos[d] << " (pool size " << c.idle_pool_size() << ")";
    }
    taken[pos[d]] = true;
  }
  if (parked != c.idle_pool_size()) {
    return ::testing::AssertionFailure()
           << parked << " devices parked, pool size " << c.idle_pool_size();
  }
  return ::testing::AssertionSuccess();
}

TEST(Coordinator, StragglerReleaseReparksKeepPoolPositionsConsistent) {
  // Over-selection cuts stragglers off at every commit and re-parks them
  // into the idle pool with their day budget refunded; the re-parks and
  // the sweep's deferred erases must leave the dense pool and the
  // hot-state position column in agreement throughout the run.
  std::vector<Device> devices;
  Rng rng(5);
  for (int i = 0; i < 600; ++i) {
    // Spread of speeds so over-selected cohorts always have stragglers.
    const double score = 0.2 + 0.6 * rng.uniform();
    devices.emplace_back(DeviceId(i), DeviceSpec{score, score},
                         std::vector<Session>{{0.0, 14.0 * kDay}});
  }
  std::vector<trace::JobSpec> jobs;
  for (int j = 0; j < 4; ++j) {
    trace::JobSpec s = one_job(3, 40, 100.0 * j, 300.0, 600.0);
    s.task_cv = 0.4;
    jobs.push_back(s);
  }
  sim::Engine engine(9);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  const protocol::OvercommitProtocol overcommit(1.5);
  CoordinatorConfig cfg;
  cfg.horizon = 7.0 * kDay;
  cfg.seed = 9;
  cfg.protocol = &overcommit;
  Coordinator coord(engine, mgr, std::move(devices), std::move(jobs), cfg);
  coord.setup();
  std::size_t peak_pool = 0;
  for (int slice = 1; slice <= 8; ++slice) {
    engine.run_until(cfg.horizon * slice / 8);
    EXPECT_TRUE(idle_positions_consistent(coord)) << "slice " << slice;
    peak_pool = std::max(peak_pool, coord.idle_pool_size());
  }
  EXPECT_GT(coord.protocol_stats().stragglers_released, 0u);
  EXPECT_GT(peak_pool, 0u);
}

TEST(Coordinator, RejectsZeroShards) {
  // shards sizes the snapshot's per-range idle counts; zero ranges cannot
  // hold a pool member.
  sim::Engine engine(1);
  ResourceManager mgr(std::make_unique<FifoScheduler>());
  CoordinatorConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(Coordinator(engine, mgr, always_on(4, {0.5, 0.5}, kDay),
                           {one_job(1, 2)}, cfg),
               std::invalid_argument);
}

// Property sweep: under arbitrary seeds, protocol invariants hold for a
// mixed population and several jobs.
class ProtocolInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolInvariantTest, RoundAccountingConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  trace::HardwareConfig hw;
  trace::AvailabilityConfig av;
  av.horizon = 14 * kDay;
  std::vector<Device> devices;
  for (int i = 0; i < 400; ++i) {
    devices.emplace_back(DeviceId(i), trace::sample_spec(hw, rng),
                         trace::generate_sessions(av, rng));
  }
  std::vector<trace::JobSpec> jobs;
  for (int j = 0; j < 5; ++j) {
    trace::JobSpec s = one_job(1 + static_cast<int>(rng.index(4)),
                               2 + static_cast<int>(rng.index(10)),
                               rng.uniform(0.0, kDay));
    s.task_cv = 0.3;
    jobs.push_back(s);
  }
  const RunResult r = run(std::move(devices), jobs);
  for (const auto& j : r.jobs) {
    EXPECT_LE(j.completed_rounds, j.spec.rounds);
    EXPECT_EQ(static_cast<int>(j.rounds.size()), j.completed_rounds);
    if (j.finished) {
      EXPECT_EQ(j.completed_rounds, j.spec.rounds);
      double lower = 0.0;
      for (const auto& round : j.rounds) {
        EXPECT_GE(round.scheduling_delay, -1e-9);
        EXPECT_GE(round.response_collection, -1e-9);
        EXPECT_LE(round.response_collection, j.spec.deadline_s + 1e-6);
        lower += round.scheduling_delay + round.response_collection;
      }
      EXPECT_GE(j.jct + 1e-6, lower);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolInvariantTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace venn
