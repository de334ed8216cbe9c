// Simulation coordinator: drives the CL protocol end to end.
//
// Replays the device availability trace and the job workload against a
// ResourceManager (the paper's "high-fidelity simulator that replays client
// and job traces", §5.1):
//
//   job arrival  -> register + submit round-0 resource request
//   session open -> device checks in; assigned or parked in the idle pool
//   assignment   -> device computes (log-normal exec time); fails if its
//                   session ends first (ephemerality)
//   responses    -> the round protocol decides completion; under the
//                   default sync protocol a round completes at >= 80% of
//                   target reports (§5.1) and the reporting deadline
//                   (5-15 min, from full allocation) aborts and resubmits
//                   otherwise
//   round done   -> next round submitted immediately; last round records JCT
//
// Each device participates in at most one job per day (§5.1 realism rule).
//
// The round lifecycle — selection target, completion predicate, deadline
// behavior, straggler disposition — is pluggable via
// `CoordinatorConfig::protocol` (src/protocol/): `sync` reproduces the
// paper byte-identically, `overcommit` over-selects and releases
// stragglers at commit/abort (budget refunded, work wasted), `async` runs
// FedBuff-style buffered aggregation (continuous admission, a commit every
// B responses, per-response staleness tracked, no deadline).
//
// Two workload modes compose with the closed-loop replay above:
//
//   streaming churn — when `CoordinatorConfig::churn` is set, devices carry
//     NO pre-materialized session vectors; each device pulls its next
//     session lazily from a workload::ChurnStream (seeded per device via
//     Rng::derive) and self-reschedules through the engine. Memory is
//     O(devices), not O(devices × horizon).
//   open loop — when `arrival` + `mix` are set, jobs are admitted mid-run
//     from the arrival stream (the paper's dynamic-arrival setting) instead
//     of coming from a pre-built spec list.
//
// Supply estimation and idle-pool sweeps run against an incremental
// eligibility index (core/elig_index.h). Its supply aggregates, signatures
// and the manager's wants mask are checked for exact equality against a
// test-only brute-force reference (tests/reference/brute_force.h).
//
// Every fleet pass runs serially on the engine's thread. The `shards=N`
// scenario knob is accepted for journal compatibility and changes no
// execution: it only sets how many per-range idle-pool counts a snapshot
// records (CoordinatorConfig::shards).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/elig_index.h"
#include "core/resource_manager.h"
#include "device/fleet_partition.h"
#include "journal/sink.h"
#include "journal/snapshot.h"
#include "protocol/protocol.h"
#include "sim/engine.h"
#include "topology/topology.h"
#include "trace/job_trace.h"
#include "workload/arrival.h"
#include "workload/churn.h"
#include "workload/mix.h"

namespace venn {

struct CoordinatorConfig {
  SimTime horizon = 28.0 * kDay;  // hard stop for the simulation

  // Open-loop workload: non-null `arrival` admits jobs mid-run (requires
  // `mix`), capped at `max_jobs` admissions (0 = unbounded until horizon).
  const workload::ArrivalProcess* arrival = nullptr;
  const workload::JobMixSampler* mix = nullptr;
  std::size_t max_jobs = 0;

  // Churn model of the device population, when one is configured. Always
  // used for the analytic supply-rate / session statistics behind
  // solo_jct_estimate, so stream_sessions=0 and =1 estimate identically.
  // With `stream_sessions` set, sessions are additionally pulled lazily
  // from the model and the devices passed to the constructor must carry
  // empty session vectors (specs only).
  const workload::ChurnModel* churn = nullptr;
  bool stream_sessions = false;

  // Round protocol driving the request lifecycle (src/protocol/). Null
  // keeps the paper's synchronous protocol (protocol::sync_protocol()),
  // byte-identical to the pre-extraction coordinator. The caller retains
  // ownership and must keep the protocol alive for the run.
  const protocol::RoundProtocol* protocol = nullptr;

  // Base seed for the arrival/mix/churn streams. Derive it from the
  // scenario seed (NOT the engine's), so every policy replays the same
  // world.
  std::uint64_t seed = 0;

  // Durability hook (src/journal/): every external event — check-ins,
  // check-outs, submissions, admissions, assignments, responses,
  // commits/aborts, straggler releases, finishes — is mirrored into this
  // sink. Purely observational (no state mutation, no randomness), so a
  // null sink (the default) and a live one produce byte-identical runs.
  // Caller retains ownership for the duration of the run.
  journal::JournalSink* journal = nullptr;
  // Capture a state snapshot into the sink every N protocol commits
  // (0 = off). Only meaningful with a journal sink installed.
  std::size_t snapshot_every = 0;

  // Coordination topology (src/topology/). With `topo.hier`, the fleet is
  // split into contiguous regional ranges: supply-rate queries aggregate
  // exact per-region partials, per-region protocol activity is counted in
  // TopologyStats, device results ride a region→global uplink of
  // `topo.sync_latency` seconds, and (in streaming mode) each region's
  // sessions are shifted by its diurnal phase offset. At sync_latency=0
  // and phase_spread=0 a hier run is byte-identical to flat — the
  // equivalence the topology differential wall enforces.
  topology::TopologySpec topo;

  // The scenario's `shards=` value, [1, 64]. Sets only the number S of
  // per-range counts in the snapshot's idle-pool section (pool members
  // counted per FleetPartition(devices, S) range at capture), the layout
  // journals have always carried. Runs are identical at every value.
  std::size_t shards = 1;
};

class Coordinator {
 public:
  // `devices` are fully generated (specs + sessions). `specs` define the
  // workload. The coordinator owns the resulting Job objects.
  Coordinator(sim::Engine& engine, ResourceManager& manager,
              std::vector<Device> devices, std::vector<trace::JobSpec> specs,
              CoordinatorConfig cfg = {});

  // Non-movable: the devices are bound as views over the hot-state store's
  // participation column (stable addresses for the run's lifetime).
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Schedules all trace events and runs the engine until every job finishes
  // or the horizon is reached. Equivalent to setup() + run_until(horizon).
  void run();

  // --- live service hooks (src/service/) --------------------------------
  // Schedules all trace events WITHOUT running the engine: the live daemon
  // (and the replay driver for journals carrying external commands) paces
  // the run itself through Engine::run_until, interleaving the external
  // events below at its sim-clock cursor. Batch runs never call these, so
  // their trajectories are untouched.
  void setup();

  // Grants `dev` an out-of-trace session [now, now+duration) and attempts
  // a check-in. Deterministic no-op (returns false) when the device is
  // already online — live refusals must replay identically.
  bool external_checkin(std::size_t dev, double duration);
  // Ends the device's external session now and retires any idle-pool entry
  // (also works for a device parked on a trace session). Returns false
  // when there was nothing to end.
  bool external_checkout(std::size_t dev);
  // Registers and submits a fully specified job now (arrival is forced to
  // the current sim time). Returns the assigned id.
  JobId external_submit(trace::JobSpec spec);
  // One open-loop admission drawn from the configured mix (requires an
  // open-loop scenario; returns false otherwise).
  bool external_admit();
  // Delivers the in-flight computation of `dev` early, as if the device
  // responded now. Deterministic no-op when the device is not computing.
  bool external_response(std::size_t dev);

  // Status accessors for the daemon's admin surface and the inspector.
  [[nodiscard]] std::size_t idle_pool_size() const { return idle_vec_.size(); }
  [[nodiscard]] std::size_t unfinished_jobs() const { return unfinished_jobs_; }
  [[nodiscard]] std::uint64_t external_submitted() const {
    return ext_submitted_;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Job>>& jobs() const {
    return jobs_;
  }
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] SimTime horizon() const { return cfg_.horizon; }

  // Contention-free JCT estimate sd_i for a job spec given this device
  // population (rounds x (solo scheduling delay + expected response time)).
  // Used for the §4.4 fairness bound and the Fig. 14b metric.
  [[nodiscard]] double solo_jct_estimate(const trace::JobSpec& spec) const;

  // --- streaming accounting (churn mode) --------------------------------
  // Total sessions pulled from churn streams so far, and the number of
  // Session objects resident at once (one per device) — the allocation-count
  // evidence that streaming never materializes per-device session vectors.
  [[nodiscard]] std::uint64_t sessions_streamed() const {
    return sessions_streamed_;
  }
  [[nodiscard]] std::size_t resident_session_count() const;

  // --- hot-path accounting ----------------------------------------------
  // Per-event work evidence for the perf-regression harness: sweep offers
  // do not scale with fleet size (sweeps stop as soon as no request wants
  // devices and skip ineligible devices outright), and supply queries never
  // rescan devices.
  struct HotpathStats {
    std::uint64_t sweeps = 0;            // idle-pool sweep passes executed
    std::uint64_t sweep_visits = 0;      // idle devices visited across sweeps
    std::uint64_t sweep_offers = 0;      // offers actually made to the manager
    std::uint64_t sweep_skips = 0;       // visits skipped via the index
    std::uint64_t supply_queries = 0;    // supply_rate evaluations
    std::uint64_t resweeps = 0;          // reentrant sweep requests deferred
  };
  [[nodiscard]] const HotpathStats& hotpath_stats() const { return hstats_; }

  // The eligibility index. For tests and the inspector.
  [[nodiscard]] const EligibilityIndex& index() const { return *index_; }

  // The struct-of-arrays hot-state store backing the sweep filter, the
  // index rebuckets and the participation budgets. For tests (the
  // SoA-vs-live signature and idle-position checks read it).
  [[nodiscard]] const FleetHotState& hot_state() const { return hot_; }

  // The round protocol in effect (the configured one, or the sync default).
  [[nodiscard]] const protocol::RoundProtocol& round_protocol() const {
    return *protocol_;
  }

  // --- hierarchical topology --------------------------------------------
  // Hier telemetry (cross-region supply aggregations, uplink reports,
  // per-region protocol activity). Deliberately OUTSIDE RunResult: the
  // zero-latency equivalence contract compares hier results byte-for-byte
  // against flat runs, which have no regions. Empty per_region in flat
  // mode. The differential wall's vacuousness guards read these.
  [[nodiscard]] const topology::TopologyStats& topology_stats() const {
    return tstats_;
  }
  // The device→region map (regions=1 single range in flat mode).
  [[nodiscard]] const topology::RegionMap& region_map() const {
    return regions_;
  }
  // Per-region supply partials for a requirement, computed on first sight
  // (the per-device inputs are fixed at init) and cached. Hier supply
  // queries re-aggregate them across regions; the region-grouped sums
  // equal the flat index aggregates exactly (integer counts, integer-valued
  // double sums, maxima), which the topology wall checks against the
  // brute-force reference.
  [[nodiscard]] const std::vector<topology::RegionSupply>& region_supply(
      const Requirement& req) const;

  // --- durability -------------------------------------------------------
  // Serializes the coordinator's full mutable state — engine clock + RNG,
  // idle pool and its per-range counts, per-device participation budgets,
  // per-job round/request state, protocol and hot-path counters, open-loop
  // and streaming progress — into named snapshot sections. Called at the
  // `snapshot_every` cadence during journaled runs; public so tests can
  // compare live and re-executed coordinators directly. Deterministic:
  // two coordinators in identical states produce identical bytes.
  [[nodiscard]] journal::StateSnapshot capture_snapshot();

  // Idle-pool members per FleetPartition(devices, cfg.shards) range,
  // recounted on each call — O(pool). The snapshot's idle-pool section
  // and the inspector both print these counts.
  [[nodiscard]] std::vector<std::size_t> idle_range_counts() const;

  // --- protocol accounting ----------------------------------------------
  // Aggregate round-protocol counters: commits, response staleness
  // (buffered aggregation) and wasted work (over-selection straggler
  // releases, results discarded after a round ended). Surfaced into
  // RunResult::protocol by collect_results.
  struct ProtocolStats {
    std::uint64_t commits = 0;         // rounds committed across all jobs
    std::uint64_t responses = 0;       // responses counted toward a round
    std::uint64_t wasted_responses = 0;  // results discarded (round ended)
    std::uint64_t stragglers_released = 0;  // devices cut off mid-compute
    double wasted_work_s = 0.0;        // compute-seconds thrown away
    std::uint64_t staleness_sum = 0;   // total staleness over responses
    std::uint64_t stale_responses = 0;  // responses with staleness >= 1
  };
  [[nodiscard]] const ProtocolStats& protocol_stats() const { return pstats_; }

  // Assignment accounting (the Fig. 8a matrix) is no longer baked in here;
  // install an AssignmentMatrixObserver (core/observer.h) on the
  // ResourceManager instead — the api::Experiment run path does so
  // automatically.

 private:
  void schedule_job_arrival(std::size_t job_idx);
  void submit_request(Job* job);
  // Open-loop admission: create + register a job sampled from the mix.
  void admit_job();
  // Streaming churn: pull the device's next session and arm its check-in /
  // advance events. Called at setup and at each session end.
  void advance_device(std::size_t dev_idx);
  // End of the session covering `now` for this device (streamed or
  // materialized), or a negative value when the device is offline.
  [[nodiscard]] SimTime active_session_end(std::size_t dev_idx,
                                           SimTime now) const;
  // Device checks in if a session covers `now` and today's participation
  // budget is unspent; otherwise re-arms at the next day boundary while the
  // session lasts (multi-day sessions — e.g. plugged-in desktops — regain
  // their one-job-per-day budget at midnight).
  void attempt_checkin(std::size_t dev_idx);
  void handle_outcome(std::size_t dev_idx, const AssignOutcome& outcome);
  // Reentrancy-guarded entry point: runs sweeps until no follow-up is
  // pending; a call arriving while a sweep is in flight only flags one.
  void offer_idle_pool(SimTime now);
  // One pass over the idle pool. Only offer_idle_pool may call this.
  void sweep_idle_pool(SimTime now);
  void on_response(JobId job, RequestId request, std::size_t dev_idx,
                   int assigned_round, double response_time);
  void maybe_complete(Job* job);
  void on_deadline(JobId job, RequestId request);
  void finish_job(Job* job);
  // Straggler disposition: release every device still computing for
  // request `rid` of `job` back to the idle pool (day budget refunded,
  // in-flight work counted as wasted). Returns the number released. Only
  // called for protocols with releases_stragglers(), after the request has
  // been committed or aborted (a released device must not be re-offerable
  // to the round that just cut it off). Takes the Job pointer, not an id:
  // a release deferred past finish_job must still reach observers, and the
  // Job object outlives its by_id_ entry.
  std::size_t release_stragglers(Job* job, RequestId rid, SimTime now);

  // Estimated eligible check-in rate (devices/sec, daily average) for a
  // requirement, computed once from the generated population.
  [[nodiscard]] double supply_rate(const Requirement& req) const;

  // Bitmask of requirement indices proven identical between the index's and
  // the manager's registration orders (a prefix; verified incrementally,
  // each bit once). The sweep skip only trusts index signatures on aligned
  // bits — alignment is checked structurally, not assumed from the
  // register-with-index-before-manager call convention.
  [[nodiscard]] std::uint64_t aligned_requirement_mask();

  sim::Engine& engine_;
  ResourceManager& manager_;
  std::vector<Device> devices_;
  std::vector<trace::JobSpec> specs_;
  CoordinatorConfig cfg_;

  std::vector<std::unique_ptr<Job>> jobs_;
  std::unordered_map<JobId, Job*> by_id_;

  // Struct-of-arrays hot state (device/fleet_partition.h): eligibility
  // signatures (written by the index), idle-pool positions, participation
  // budgets (Device objects are views over that column), dense spec and
  // session columns read by index rebuckets and the hier region partials.
  // Initialized in the constructor; array addresses are stable for the run.
  FleetHotState hot_;

  // Idle pool as a dense vector + position map (hot_.idle_pos): O(1)
  // insert / erase / membership without hashing, and an O(k)
  // lazy-Fisher-Yates draw of the first k sweep positions. Vector order is
  // an implementation detail but fully deterministic (it depends only on
  // the event sequence).
  std::vector<std::size_t> idle_vec_;   // members, arbitrary order
  void idle_insert(std::size_t d);
  void idle_erase(std::size_t d);
  // Session-end retirement of a pool entry — the journal's check-out
  // event. Assignment-side erases are NOT check-outs (they are recorded
  // as assignments), so the three session-end sites call this instead.
  void retire_idle(std::size_t d);

  // --- hierarchical topology state --------------------------------------
  // Region partition (1 region in flat mode), the uplink latency every
  // region→global result report rides (0.0 in flat mode — and x + 0.0 == x
  // keeps zero-latency hier event times bit-identical to flat), hier
  // telemetry, and the per-requirement region supply cache.
  topology::RegionMap regions_;
  double uplink_ = 0.0;
  mutable topology::TopologyStats tstats_;
  mutable std::vector<std::pair<Requirement, std::vector<topology::RegionSupply>>>
      region_supply_cache_;

  std::size_t unfinished_jobs_ = 0;
  double mean_exec_factor_ = 1.0;  // population mean of 1/speed
  std::uint64_t sweep_counter_ = 0;  // seeds the per-sweep selection stream

  // Sweep reentrancy guard: a round that completes synchronously mid-sweep
  // (handle_outcome -> maybe_complete -> submit_request) would otherwise
  // start a nested sweep over a pool snapshot the outer sweep still holds.
  bool sweeping_ = false;
  bool resweep_ = false;
  // True exactly while one sweep_idle_pool pass executes. Straggler
  // releases arriving then are deferred (idle_insert would be defeated by
  // the pass's end-of-loop erase of the just-assigned device); the
  // offer_idle_pool driver drains them between passes. Unreachable for the
  // built-in protocols (overcommit commits in the response event, never in
  // a sweep's allocation), but an external sync-style protocol with
  // releases_stragglers() can commit mid-sweep.
  bool in_sweep_pass_ = false;
  struct PendingRelease {
    Job* job = nullptr;
    RequestId rid;
  };
  std::vector<PendingRelease> deferred_releases_;

  // Incremental eligibility/availability index, built in the constructor
  // and never null. Mutable mechanics live behind the pointer:
  // supply_rate() is const but lazily registers requirements with the
  // index on first sight.
  std::unique_ptr<EligibilityIndex> index_;
  std::size_t aligned_bits_ = 0;  // verified prefix, aligned_requirement_mask
  mutable HotpathStats hstats_;

  // Round protocol in effect: cfg_.protocol or the sync default. Never
  // null after construction.
  const protocol::RoundProtocol* protocol_ = nullptr;
  ProtocolStats pstats_;

  // Devices currently computing, per job — the straggler set a release
  // disposition acts on. Entries are added at assignment and removed when
  // the response or the in-session failure fires; the per-job vector stays
  // selection-target sized.
  struct InFlight {
    RequestId rid;
    std::size_t dev = 0;
    SimTime started = 0.0;
    int round = 0;  // round the device was assigned to (staleness basis)
  };
  // Entries removed by a straggler release stop being tracked; the
  // cut-off computation's still-scheduled response/failure event then
  // finds nothing to remove and must not be accounted a second time —
  // inflight_remove reports whether the computation was still tracked.
  std::unordered_map<JobId, std::vector<InFlight>> inflight_;
  bool inflight_remove(JobId jid, RequestId rid, std::size_t dev);

  [[nodiscard]] bool streaming_churn() const {
    return cfg_.churn != nullptr && cfg_.stream_sessions;
  }

  // Streaming-churn state: one lazy stream and at most one resident
  // session per device.
  struct DeviceStream {
    std::unique_ptr<workload::ChurnStream> stream;
    Session current{0.0, 0.0};
    bool has_session = false;
  };
  std::vector<DeviceStream> streams_;
  std::uint64_t sessions_streamed_ = 0;

  // Open-loop state: job specs sampled as arrivals fire.
  Rng mix_rng_{0};
  std::size_t admitted_ = 0;

  // External-session state (live service mode). Lazily sized on the first
  // external_checkin so batch runs carry no trace of it — including in
  // snapshots, whose ext-sessions section only exists once this is live.
  std::vector<SimTime> ext_session_end_;
  std::uint64_t ext_submitted_ = 0;
  [[nodiscard]] bool ext_sessions_live() const {
    return !ext_session_end_.empty();
  }
};

}  // namespace venn
