#include "core/coordinator.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/logging.h"

namespace venn {

namespace {
// Sweep length after which the permutation switches to a flat snapshot.
constexpr std::size_t kSnapshotAfter = 2048;

// One sweep's lazily-drawn Fisher-Yates permutation over a stable pool
// vector. Short sweeps keep draw-displaced positions in a side map (no
// pool copy); materialize() switches to a flat snapshot once a sweep
// proves long (cheaper per draw from then on). The pool vector must not
// change for the object's lifetime — the sweeping_/in_sweep_pass_ guards
// ensure that.
class SweepOrder {
 public:
  explicit SweepOrder(const std::vector<std::size_t>& pool) : pool_(pool) {}

  [[nodiscard]] bool materialized() const { return use_flat_; }

  void materialize() {
    flat_ = pool_;
    // Stale entries for already-emitted positions are harmless: positions
    // before the current draw index are never re-read.
    for (const auto& [pos, val] : displaced_) flat_[pos] = val;
    displaced_.clear();
    use_flat_ = true;
  }

  // Realizes the swap of positions i and j (j >= i) and returns the
  // device emitted at position i.
  std::size_t draw(std::size_t i, std::size_t j) {
    if (use_flat_) {
      std::swap(flat_[i], flat_[j]);
      return flat_[i];
    }
    const auto it = displaced_.find(j);
    const std::size_t d = it != displaced_.end() ? it->second : pool_[j];
    if (j != i) {  // position i is never re-read; j might be
      const auto ii = displaced_.find(i);
      displaced_[j] = ii != displaced_.end() ? ii->second : pool_[i];
    }
    return d;
  }

 private:
  const std::vector<std::size_t>& pool_;
  std::unordered_map<std::size_t, std::size_t> displaced_;
  std::vector<std::size_t> flat_;
  bool use_flat_ = false;
};

}  // namespace

Coordinator::Coordinator(sim::Engine& engine, ResourceManager& manager,
                         std::vector<Device> devices,
                         std::vector<trace::JobSpec> specs,
                         CoordinatorConfig cfg)
    : engine_(engine),
      manager_(manager),
      devices_(std::move(devices)),
      specs_(std::move(specs)),
      cfg_(cfg),
      protocol_(cfg.protocol != nullptr ? cfg.protocol
                                        : &protocol::sync_protocol()) {
  if (cfg_.arrival != nullptr && cfg_.mix == nullptr) {
    throw std::invalid_argument(
        "Coordinator: open-loop arrivals require a job-mix sampler");
  }
  if (streaming_churn()) {
    for (const auto& d : devices_) {
      if (d.has_sessions()) {
        throw std::invalid_argument(
            "Coordinator: streaming churn requires devices without "
            "pre-materialized sessions");
      }
    }
  }
  if (!devices_.empty()) {
    double acc = 0.0;
    for (const auto& d : devices_) acc += 1.0 / d.speed();
    mean_exec_factor_ = acc / static_cast<double>(devices_.size());
  }
  if (cfg_.shards == 0) {
    throw std::invalid_argument("Coordinator: shards must be >= 1");
  }

  // Hierarchical topology: the immutable contiguous device→region
  // partition, the region→global uplink latency, and per-region
  // telemetry. Flat mode keeps one region and a 0.0 uplink; both are also
  // exactly what hier mode resolves to at regions' boundaries
  // (x + 0.0 == x), which is the zero-latency equivalence contract the
  // topology differential wall pins.
  regions_ = topology::RegionMap(devices_.size(),
                                 cfg_.topo.hier ? cfg_.topo.regions : 1);
  uplink_ = cfg_.topo.hier ? cfg_.topo.sync_latency : 0.0;
  if (cfg_.topo.hier) tstats_.per_region.assign(regions_.regions(), {});

  // Struct-of-arrays hot state: one dense column per field the scheduling
  // loops touch. Devices become views over the participation column (their
  // budget API now reads/writes hot_.participation_day), and the
  // eligibility index below maintains hot_.signature in place.
  hot_.init(std::span<const Device>(devices_));
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    devices_[d].bind_participation_slot(&hot_.participation_day[d]);
  }

  index_ = std::make_unique<EligibilityIndex>(hot_);
  // Durability: the manager emits the submit records (it owns request-id
  // assignment); everything else journals from here.
  manager_.set_journal(cfg_.journal);
}

void Coordinator::idle_insert(std::size_t d) {
  if (hot_.idle_pos[d] != 0) return;
  idle_vec_.push_back(d);
  hot_.idle_pos[d] = static_cast<std::uint32_t>(idle_vec_.size());
}

void Coordinator::idle_erase(std::size_t d) {
  const std::uint32_t pos = hot_.idle_pos[d];
  if (pos == 0) return;
  const std::size_t last = idle_vec_.back();
  idle_vec_[pos - 1] = last;
  hot_.idle_pos[last] = pos;
  idle_vec_.pop_back();
  hot_.idle_pos[d] = 0;
}

void Coordinator::retire_idle(std::size_t d) {
  if (hot_.idle_pos[d] == 0) return;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_checkout(engine_.now(), d);
  }
  idle_erase(d);
}

std::vector<std::size_t> Coordinator::idle_range_counts() const {
  const FleetPartition ranges(devices_.size(), cfg_.shards);
  std::vector<std::size_t> counts(cfg_.shards, 0);
  for (const std::size_t d : idle_vec_) ++counts[ranges.shard_of(d)];
  return counts;
}

std::size_t Coordinator::resident_session_count() const {
  if (streaming_churn()) {
    // Actual measurement: streams currently holding a session (≤ 1 each).
    std::size_t n = 0;
    for (const auto& st : streams_) n += st.has_session ? 1 : 0;
    return n;
  }
  std::size_t n = 0;
  for (const auto& d : devices_) n += d.sessions().size();
  return n;
}

const std::vector<topology::RegionSupply>& Coordinator::region_supply(
    const Requirement& req) const {
  for (const auto& [cached, partials] : region_supply_cache_) {
    if (cached == req) return partials;
  }
  // First sight of this requirement: scan each region's contiguous range
  // of the hot columns once. The per-device inputs never change after
  // construction, so the partials are a pure function of (req, fleet).
  const std::size_t nregions = regions_.regions();
  std::vector<topology::RegionSupply> partials(nregions);
  const DeviceSpec* specs = hot_.spec.data();
  const double* session_counts = hot_.session_checkins.data();
  const SimTime* last_ends = hot_.session_last_end.data();
  for (std::size_t r = 0; r < nregions; ++r) {
    topology::RegionSupply& p = partials[r];
    const std::size_t end = regions_.end(r);
    for (std::size_t d = regions_.begin(r); d < end; ++d) {
      p.span = std::max(p.span, last_ends[d]);
      if (!req.eligible(specs[d])) continue;
      ++p.eligible;
      p.checkins += session_counts[d];
    }
  }
  region_supply_cache_.emplace_back(req, std::move(partials));
  return region_supply_cache_.back().second;
}

double Coordinator::supply_rate(const Requirement& req) const {
  ++hstats_.supply_queries;
  // Registration is idempotent and also keeps the signature column and the
  // alignment prefix in step with every requirement seen — hier must pay
  // it too or its sweep filter would degrade relative to flat.
  const std::size_t g = index_->register_requirement(req);
  std::uint64_t eligible = 0;
  double checkins = 0.0;
  SimTime span = 0.0;
  if (cfg_.topo.hier) {
    // Hierarchical topology: the global coordinator aggregates exact
    // per-region partials (each regional coordinator reports its own
    // eligible count / check-in sum / span). The region-grouped sums equal
    // the flat values EXACTLY — eligible counts are integers, per-device
    // check-in counts are integer-valued doubles (so partial sums are
    // associative), and the span is a max — which is what keeps hier
    // byte-identical to flat at zero sync latency.
    ++tstats_.cross_region_supply_aggs;
    for (const topology::RegionSupply& p : region_supply(req)) {
      eligible += p.eligible;
      checkins += p.checkins;
      span = std::max(span, p.span);
    }
  } else {
    // Eligible supply from the per-signature atom buckets: O(#atoms).
    eligible = index_->eligible_count(g);
    checkins = index_->eligible_session_checkins(g);
    span = index_->session_span();
  }
  if (cfg_.churn != nullptr) {
    // Analytic rate from the churn model — used whether or not sessions
    // are streamed, so both modes produce identical solo estimates.
    const double rate = static_cast<double>(eligible) *
                        cfg_.churn->mean_sessions_per_day() / kDay;
    return std::max(rate, 1e-9);
  }
  // Daily-averaged check-in rate of eligible devices: one check-in per
  // session, averaged over the span the sessions cover.
  if (span <= 0.0 || checkins <= 0.0) return 1e-9;
  return checkins / span;
}

double Coordinator::solo_jct_estimate(const trace::JobSpec& spec) const {
  const Requirement req = requirement_for(spec.category);
  const double rate = supply_rate(req);

  // A contention-free job draws from the idle pool; by Little's law the pool
  // holds roughly (eligible check-in rate x mean session duration) devices,
  // so requests up to the pool size fill near-instantly and only the excess
  // waits for fresh check-ins.
  double mean_session = kHour;
  if (cfg_.churn != nullptr) {
    mean_session = cfg_.churn->mean_session_seconds();
  } else if (hot_.session_count > 0.0) {
    // The hot store accumulated the device-order sums once at
    // construction; the sessions never change after that (the index's
    // accessors are views of the very same fields).
    mean_session = hot_.session_time / hot_.session_count;
  }
  const double pool = rate * mean_session;
  const double excess = std::max(0.0, static_cast<double>(spec.demand) - pool);
  const double sched = excess / rate;

  // Expected response collection: mean execution over the population with a
  // tail factor (collection ends at the ~80th percentile responder).
  const double resp = spec.nominal_task_s * mean_exec_factor_ *
                      (1.0 + 1.5 * spec.task_cv);
  return static_cast<double>(spec.rounds) * (sched + resp);
}

void Coordinator::run() {
  setup();
  engine_.run_until(cfg_.horizon);
}

void Coordinator::setup() {
  // Job arrivals from the pre-built spec list (closed loop).
  jobs_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    jobs_.push_back(std::make_unique<Job>(JobId(static_cast<int64_t>(i)),
                                          specs_[i]));
    by_id_[jobs_.back()->id()] = jobs_.back().get();
  }
  unfinished_jobs_ = jobs_.size();
  for (std::size_t i = 0; i < jobs_.size(); ++i) schedule_job_arrival(i);

  // Open-loop arrivals: one pending self-rescheduling event pulls the
  // arrival stream; each firing admits a job sampled from the mix.
  if (cfg_.arrival != nullptr) {
    mix_rng_ = Rng(Rng::derive(cfg_.seed, "open-loop-mix"));
    auto arrivals =
        cfg_.arrival->stream(Rng(Rng::derive(cfg_.seed, "open-loop-arrival")));
    auto next_at = [this, arrivals = std::shared_ptr<workload::ArrivalStream>(
                              std::move(arrivals)),
                    last_t = SimTime(-1.0), stuck = std::uint64_t(0)]() mutable
        -> std::optional<SimTime> {
      if (cfg_.max_jobs != 0 && admitted_ >= cfg_.max_jobs) {
        return std::nullopt;
      }
      const auto t = arrivals->next();
      if (!t || *t >= cfg_.horizon) return std::nullopt;
      // Livelock guard for unbounded admission: a batch process that never
      // advances time (e.g. arrival=static with no spacing) would otherwise
      // admit forever at one timestamp.
      if (cfg_.max_jobs == 0) {
        stuck = (*t == last_t) ? stuck + 1 : 0;
        last_t = *t;
        if (stuck > 65536) {
          throw std::runtime_error(
              "open-loop arrival process is not advancing time; cap "
              "admissions with jobs=N or use a spaced arrival process");
        }
      }
      return *t;
    };
    const auto first = next_at();
    engine_.stream(first, [this, next_at]() mutable -> std::optional<SimTime> {
      admit_job();
      return next_at();
    });
  }

  // Device session starts.
  if (streaming_churn()) {
    // Streaming: one lazy stream per device, advanced session by session.
    streams_.resize(devices_.size());
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      streams_[d].stream = cfg_.churn->stream(
          workload::device_stream_ctx(cfg_.seed, d, cfg_.horizon));
      advance_device(d);
    }
  } else {
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      for (const auto& session : devices_[d].sessions()) {
        const SimTime t = session.start;
        if (t > cfg_.horizon) break;
        engine_.at(t, [this, d] { attempt_checkin(d); });
      }
    }
  }
}

bool Coordinator::external_checkin(std::size_t dev, double duration) {
  const SimTime now = engine_.now();
  if (dev >= devices_.size() || duration <= 0.0) return false;
  if (ext_session_end_.empty()) ext_session_end_.resize(devices_.size(), -1.0);
  if (active_session_end(dev, now) >= 0.0) return false;  // already online
  ext_session_end_[dev] = now + duration;
  attempt_checkin(dev);
  // The grant expires on its own clock: clear the slot and retire any pool
  // entry. attempt_checkin's non-streaming retire covers the pool, but the
  // slot itself (and streaming mode) needs this event.
  engine_.at(std::min(now + duration, cfg_.horizon), [this, dev] {
    if (ext_session_end_[dev] >= 0.0 && ext_session_end_[dev] <= engine_.now()) {
      ext_session_end_[dev] = -1.0;
      retire_idle(dev);
    }
  });
  return true;
}

bool Coordinator::external_checkout(std::size_t dev) {
  if (dev >= devices_.size()) return false;
  bool any = false;
  if (ext_sessions_live() && ext_session_end_[dev] > engine_.now()) {
    // End the grant now; the pending expiry event finds the slot cleared.
    ext_session_end_[dev] = -1.0;
    any = true;
  }
  if (hot_.idle_pos[dev] != 0) {
    retire_idle(dev);  // journals the check-out
    any = true;
  }
  return any;
}

JobId Coordinator::external_submit(trace::JobSpec spec) {
  spec.arrival = engine_.now();
  const auto idx = static_cast<std::int64_t>(jobs_.size());
  jobs_.push_back(std::make_unique<Job>(JobId(idx), spec));
  Job* job = jobs_.back().get();
  by_id_[job->id()] = job;
  ++unfinished_jobs_;
  ++ext_submitted_;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_admission(engine_.now(), job->id(), spec);
  }
  manager_.register_job(job, solo_jct_estimate(spec));
  submit_request(job);
  return job->id();
}

bool Coordinator::external_admit() {
  // Needs the open-loop mix stream (and its deterministically seeded RNG,
  // initialized in setup alongside the arrival stream).
  if (cfg_.mix == nullptr || cfg_.arrival == nullptr) return false;
  admit_job();
  return true;
}

bool Coordinator::external_response(std::size_t dev) {
  if (dev >= devices_.size()) return false;
  // Find the device's in-flight computation in job-creation order (the
  // inflight_ map's hashing order must not decide anything observable).
  for (const auto& jp : jobs_) {
    const auto it = inflight_.find(jp->id());
    if (it == inflight_.end()) continue;
    for (const InFlight& f : it->second) {
      if (f.dev != dev) continue;
      // Deliver now. on_response removes the in-flight entry; the
      // originally scheduled response/failure event then finds the
      // computation untracked and returns without double-counting.
      on_response(jp->id(), f.rid, dev, f.round, engine_.now() - f.started);
      return true;
    }
  }
  return false;
}

void Coordinator::admit_job() {
  trace::JobSpec spec = cfg_.mix->sample(mix_rng_);
  spec.arrival = engine_.now();
  const auto idx = static_cast<std::int64_t>(jobs_.size());
  jobs_.push_back(std::make_unique<Job>(JobId(idx), spec));
  Job* job = jobs_.back().get();
  by_id_[job->id()] = job;
  ++unfinished_jobs_;
  ++admitted_;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_admission(engine_.now(), job->id(), spec);
  }
  manager_.register_job(job, solo_jct_estimate(spec));
  submit_request(job);
}

void Coordinator::advance_device(std::size_t dev_idx) {
  auto& st = streams_[dev_idx];
  st.has_session = false;
  // Hierarchical topology: the region's diurnal phase shifts every
  // streamed session — the streaming twin of the materialized path's
  // apply_region_phases (api/builder.cc), so stream=0 and stream=1 see
  // the same shifted world. Exactly 0.0 at phase_spread=0, leaving the
  // flat trajectory bit-for-bit untouched.
  const double phase =
      cfg_.topo.hier
          ? topology::phase_offset(cfg_.topo, regions_.region_of(dev_idx))
          : 0.0;
  while (st.stream) {
    auto s = st.stream->next();
    if (s && phase != 0.0) {
      s->start += phase;
      s->end += phase;
    }
    if (!s || s->start >= cfg_.horizon) {
      st.stream.reset();
      return;
    }
    if (s->end <= s->start) continue;
    ++sessions_streamed_;
    st.current = *s;
    st.has_session = true;
    engine_.at(std::max(s->start, engine_.now()),
               [this, dev_idx] { attempt_checkin(dev_idx); });
    // One event retires the session AND pulls the next one — the stream
    // stays one session ahead, never materialized.
    engine_.at(std::min(s->end, cfg_.horizon), [this, dev_idx] {
      retire_idle(dev_idx);
      advance_device(dev_idx);
    });
    return;
  }
}

SimTime Coordinator::active_session_end(std::size_t dev_idx,
                                        SimTime now) const {
  // External grants (live service mode) take precedence over the trace.
  // Empty unless external_checkin ever ran, so batch runs skip this.
  if (!ext_session_end_.empty() && ext_session_end_[dev_idx] > now) {
    return ext_session_end_[dev_idx];
  }
  if (streaming_churn()) {
    const auto& st = streams_[dev_idx];
    if (st.has_session && st.current.contains(now)) return st.current.end;
    return -1.0;
  }
  for (const auto& s : devices_[dev_idx].sessions()) {
    if (s.contains(now)) return s.end;
    if (s.start > now) break;
  }
  return -1.0;
}

void Coordinator::schedule_job_arrival(std::size_t job_idx) {
  Job* job = jobs_[job_idx].get();
  engine_.at(job->spec().arrival, [this, job] {
    manager_.register_job(job, solo_jct_estimate(job->spec()));
    submit_request(job);
  });
}

void Coordinator::submit_request(Job* job) {
  const int demand = job->spec().demand;
  manager_.open_request(job->id(), engine_.now(), engine_.rng().uniform(),
                        protocol_->selection_target(demand),
                        protocol_->commit_threshold(demand));
  // A new request may be satisfiable from devices already idling.
  offer_idle_pool(engine_.now());
}

void Coordinator::offer_idle_pool(SimTime now) {
  // A round can complete synchronously mid-sweep (handle_outcome ->
  // maybe_complete -> submit_request lands back here when >= 80% of
  // responses arrived before full allocation). A nested sweep would read
  // the outer sweep's pool snapshot while idle_erase shrinks and reorders
  // idle_vec_ under it, and could re-offer devices the outer sweep already
  // assigned (their erases are deferred). Reentrant calls therefore only
  // flag a follow-up; the outermost call drains the flag after its own
  // sweep — and its deferred erases — have finished.
  if (sweeping_) {
    resweep_ = true;
    ++hstats_.resweeps;
    return;
  }
  sweeping_ = true;
  do {
    resweep_ = false;
    in_sweep_pass_ = true;
    sweep_idle_pool(now);
    in_sweep_pass_ = false;
    if (!deferred_releases_.empty()) {
      // Straggler releases that arrived mid-pass (external sync-style
      // protocols committing inside a sweep's allocating offer): the pool
      // is stable again — release for real, then sweep once more so the
      // refunded devices are immediately re-offerable.
      const std::vector<PendingRelease> pending =
          std::move(deferred_releases_);
      deferred_releases_.clear();
      std::size_t released = 0;
      for (const PendingRelease& p : pending) {
        released += release_stragglers(p.job, p.rid, now);
      }
      if (released > 0) resweep_ = true;
    }
  } while (resweep_);
  sweeping_ = false;
}

void Coordinator::sweep_idle_pool(SimTime now) {
  if (idle_vec_.empty()) return;
  ++hstats_.sweeps;
  // Sweep order is a uniformly random permutation of the pool, generated
  // lazily (Fisher-Yates position by position) from a per-sweep stream
  // derived from the scenario seed. Randomness therefore costs one draw per
  // device *visited*, and the early stop cannot perturb any other
  // subsystem: the engine stream never sees sweep draws.
  Rng sweep_rng(
      Rng::derive(Rng::derive(cfg_.seed, "idle-sweep"), sweep_counter_++));
  // The pool is visited in a lazily-drawn Fisher-Yates permutation,
  // realized through SweepOrder. It starts on the implicit displaced-map
  // snapshot — a sweep costs O(devices visited), not O(pool), and the
  // usual early break keeps "visited" tiny — then materializes a flat
  // snapshot once the sweep proves long (a flat copy beats a hash-map
  // lookup per draw from then on). idle_vec_ itself must not change
  // mid-sweep for either snapshot to stay valid, so erases of assigned
  // devices are deferred to the end of the loop. The deferral is safe
  // because nothing else mutates the pool while the loop runs: session
  // events are queue-deferred, and the sweeping_ guard in offer_idle_pool
  // converts any synchronous resubmission (a round completing mid-sweep)
  // into a follow-up sweep instead of a nested one.
  SweepOrder order(idle_vec_);
  std::vector<std::size_t> assigned;
  const std::size_t n = idle_vec_.size();
  // Hoisted filter state. The wants mask and the aligned-bits prefix can
  // only change inside manager_.offer / handle_outcome — a skipped visit
  // calls neither — so both are refreshed only after an offer lands
  // instead of through two out-of-line calls per visit, and the skip
  // test itself is one AND over the hot store's contiguous signature
  // column. When every manager requirement bit is proven aligned, the
  // offer also passes the cached signature down (masked to the manager's
  // bit space — provably the very bits signature_of would recompute).
  const std::uint64_t* sig = hot_.signature.data();
  std::uint64_t wants = manager_.wants_mask();
  std::uint64_t aligned = aligned_requirement_mask();
  std::size_t mgr_bits = manager_.signatures().size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!order.materialized() && i >= kSnapshotAfter) order.materialize();
    const std::size_t j = i + sweep_rng.index(n - i);
    const std::size_t d = order.draw(i, j);
    ++hstats_.sweep_visits;
    // Offers past this point are provably no-ops once nothing wants
    // devices (empty candidate set, no randomness consumed), so stopping
    // — or skipping a device whose cached signature misses every pending
    // group — is byte-identical to scanning on.
    if (wants == 0) break;
    // The index normally mirrors the manager's requirement registration
    // order (it registers each job's requirement during the solo-JCT
    // estimate that precedes manager registration), but that is a
    // convention, not a structural guarantee — a solo_jct_estimate probe
    // for a category that never becomes a job would shift the index's
    // bits. The two spaces are verified requirement-by-requirement (each
    // bit checked once, then cached) and the skip is disabled for any
    // wanted bit not yet proven aligned, rather than risk a false
    // negative.
    if ((wants & ~aligned) == 0 && (sig[d] & wants) == 0) {
      ++hstats_.sweep_skips;
      continue;
    }
    ++hstats_.sweep_offers;
    const auto outcome =
        aligned_bits_ >= mgr_bits
            ? manager_.offer(devices_[d],
                             sig[d] & (mgr_bits >= 64
                                           ? ~0ULL
                                           : (1ULL << mgr_bits) - 1),
                             now)
            : manager_.offer(devices_[d], now);
    if (outcome) {
      assigned.push_back(d);
      handle_outcome(d, *outcome);
      wants = manager_.wants_mask();
      aligned = aligned_requirement_mask();
      mgr_bits = manager_.signatures().size();
    }
  }
  for (const std::size_t d : assigned) idle_erase(d);
}

std::uint64_t Coordinator::aligned_requirement_mask() {
  const std::size_t n =
      std::min(index_->num_requirements(), manager_.signatures().size());
  while (aligned_bits_ < n &&
         index_->requirement(aligned_bits_) ==
             manager_.signatures().requirement(aligned_bits_)) {
    ++aligned_bits_;
  }
  return aligned_bits_ >= 64 ? ~0ULL : (1ULL << aligned_bits_) - 1;
}

void Coordinator::attempt_checkin(std::size_t dev_idx) {
  Device& dev = devices_[dev_idx];
  const SimTime now = engine_.now();

  const SimTime session_end = active_session_end(dev_idx, now);
  if (session_end < 0.0) return;  // no active session

  if (dev.participated_on_day(Device::day_of(now))) {
    // Budget spent: re-arm when it resets, if the session is still open.
    const SimTime next_day = (Device::day_of(now) + 1) * kDay;
    if (next_day < session_end && next_day < cfg_.horizon) {
      engine_.at(next_day, [this, dev_idx] { attempt_checkin(dev_idx); });
    }
    return;
  }
  // Note a deliberate (pre-protocol, seed-era) modeling simplification the
  // sync byte-identity guarantee preserves: a device whose computation
  // spans midnight regains its budget at the boundary and may accept a
  // second task while the first is still running — the one-job-per-day
  // rule is a budget, not a mutex.

  const auto outcome = manager_.device_checkin(dev, now);
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_checkin(now, dev_idx, outcome.has_value());
  }
  if (cfg_.topo.hier) {
    ++tstats_.per_region[regions_.region_of(dev_idx)].checkins;
  }
  if (outcome) {
    // The device may already be parked in the idle pool: a straggler
    // release re-parks a device that still has this day-boundary re-arm
    // pending. Assigning it must retire the pool entry, or a later sweep
    // would offer the busy device a second time.
    idle_erase(dev_idx);
    handle_outcome(dev_idx, *outcome);
    return;
  }
  // Park in the idle pool until the session ends. In streaming mode the
  // session's advance event retires the pool entry.
  idle_insert(dev_idx);
  if (!streaming_churn()) {
    engine_.at(std::min(session_end, cfg_.horizon),
               [this, dev_idx] { retire_idle(dev_idx); });
  }
}

void Coordinator::handle_outcome(std::size_t dev_idx,
                                 const AssignOutcome& outcome) {
  Device& dev = devices_[dev_idx];
  const SimTime now = engine_.now();
  dev.mark_participation(Device::day_of(now));
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_assignment(now, dev_idx, outcome.job, outcome.request,
                                outcome.round);
  }
  if (cfg_.topo.hier) {
    ++tstats_.per_region[regions_.region_of(dev_idx)].assignments;
  }

  // A device whose session outlasts today regains its participation budget
  // at the next day boundary.
  engine_.at((Device::day_of(now) + 1) * kDay,
             [this, dev_idx] { attempt_checkin(dev_idx); });

  Job* job = by_id_.at(outcome.job);
  const double exec = dev.sample_exec_time(job->spec().nominal_task_s,
                                           job->spec().task_cv,
                                           engine_.rng());

  // The device's current session must outlast the computation, otherwise the
  // task fails when the device goes offline (ephemerality).
  SimTime session_end = active_session_end(dev_idx, now);
  if (session_end < 0.0) session_end = cfg_.horizon;

  const RequestId rid = outcome.request;
  const JobId jid = outcome.job;
  const int assigned_round = outcome.round;
  inflight_[jid].push_back({rid, dev_idx, now, assigned_round});
  // Hierarchical topology: the result (or the end-of-session failure
  // report) is held by the device's regional coordinator for `uplink_`
  // seconds before the global coordinator sees it. The uplink rides the
  // SAME scheduling call sites as flat (uplink_ is 0.0 there, and
  // x + 0.0 == x for finite doubles), so zero-latency hier events land at
  // bit-identical times in identical seq order — the equivalence
  // contract. The success condition stays `now + exec <= session_end`:
  // the device finishes computing locally before its session ends; only
  // the report's delivery is delayed.
  if (cfg_.topo.hier) ++tstats_.uplink_reports;
  if (now + exec <= session_end) {
    engine_.after(exec + uplink_,
                  [this, jid, rid, dev_idx, assigned_round, exec] {
      on_response(jid, rid, dev_idx, assigned_round, exec);
    });
  } else {
    engine_.at(session_end + uplink_, [this, jid, rid, dev_idx] {
      // Untracked = the computation already resolved (straggler release or
      // an early external response); this timer is then a phantom.
      if (!inflight_remove(jid, rid, dev_idx)) return;
      Job* j = by_id_.count(jid) ? by_id_.at(jid) : nullptr;
      if (j == nullptr || !j->request() || j->request()->id != rid) return;
      RoundRequest& req = j->mutable_request();
      if (req.state == RequestState::kCompleted ||
          req.state == RequestState::kAborted) {
        return;
      }
      ++req.failures;
      // A pre-allocation failure reopens one unit of demand; under
      // continuous admission an allocated slot frees the same way.
      if (req.state == RequestState::kPending ||
          (protocol_->continuous_admission() &&
           req.state == RequestState::kAllocated)) {
        --req.assigned;  // reopen one unit of demand
        req.state = RequestState::kPending;
        manager_.assignment_failed(jid, engine_.now());
        offer_idle_pool(engine_.now());
      }
    });
  }

  if (outcome.fully_allocated) {
    // The round may already be completable if enough responses landed
    // while the tail of devices was acquired.
    maybe_complete(job);
  }
  if (protocol_->deadline_aborts() && job->request() &&
      job->request()->id == rid) {
    RoundRequest& req = job->mutable_request();
    // Arm the reporting deadline once. Sync arms at full allocation (the
    // paper's rule). A commit-while-pending protocol (over-selection) arms
    // as soon as a committable cohort is in flight: its inflated selection
    // target may exceed the eligible fleet and never fully allocate, and
    // without this the round would hang unaborted when responders die.
    const bool ready =
        outcome.fully_allocated ||
        (protocol_->commit_while_pending() &&
         req.assigned >= req.needed_responses());
    if (ready && !req.deadline_armed) {
      req.deadline_armed = true;
      engine_.after(outcome.deadline,
                    [this, jid, rid] { on_deadline(jid, rid); });
    }
  }
}

void Coordinator::on_response(JobId jid, RequestId rid, std::size_t dev_idx,
                              int assigned_round, double response_time) {
  const bool tracked = inflight_remove(jid, rid, dev_idx);
  auto it = by_id_.find(jid);
  Job* job = it != by_id_.end() ? it->second : nullptr;
  if (job == nullptr || !job->request() || job->request()->id != rid ||
      job->request()->state == RequestState::kCompleted ||
      job->request()->state == RequestState::kAborted) {
    // The round this device computed for no longer exists (committed,
    // aborted, or the job finished): the result is discarded. Under sync
    // these are the >= 80% rule's ignored stragglers. A computation no
    // longer tracked was cut off by a straggler release — its waste was
    // charged then (the elapsed span) and the device stopped computing;
    // this phantom event must not charge it again.
    if (tracked) {
      ++pstats_.wasted_responses;
      pstats_.wasted_work_s += response_time;
    }
    return;
  }
  if (!tracked) {
    // The round is still live but this computation was already delivered
    // (an early external response): the original timer event is a phantom
    // and must not count the response twice. Unreachable in batch runs —
    // a live round's in-flight entry is only ever removed by its own
    // response/failure event or by external_response.
    return;
  }
  RoundRequest& req = job->mutable_request();
  ++req.responses;
  ++pstats_.responses;
  if (cfg_.topo.hier) {
    ++tstats_.per_region[regions_.region_of(dev_idx)].responses;
  }
  // Staleness: round commits between this device's assignment and its
  // response. Zero unless the protocol advances the round in place
  // (buffered aggregation).
  const int staleness = std::max(0, req.round - assigned_round);
  pstats_.staleness_sum += static_cast<std::uint64_t>(staleness);
  if (staleness > 0) ++pstats_.stale_responses;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_response(engine_.now(), jid, rid, dev_idx, staleness);
  }
  manager_.notify_response(jid, devices_[dev_idx].spec().capacity(),
                           response_time, engine_.now(), staleness);
  if (protocol_->continuous_admission()) {
    // The response frees its slot: the long-lived request re-opens one
    // unit of demand and the scheduler may admit another device.
    --req.assigned;
    req.state = RequestState::kPending;
    manager_.release_assignment(jid, engine_.now());
  }
  maybe_complete(job);
  if (protocol_->continuous_admission()) {
    offer_idle_pool(engine_.now());
  }
}

void Coordinator::maybe_complete(Job* job) {
  if (!job->request()) return;
  RoundRequest& req = job->mutable_request();
  if (req.state != RequestState::kAllocated &&
      !(protocol_->commit_while_pending() &&
        req.state == RequestState::kPending)) {
    return;
  }
  if (req.responses < req.needed_responses()) return;

  const SimTime now = engine_.now();
  const JobId jid = job->id();
  const RequestId rid = req.id;
  ++pstats_.commits;
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_commit(now, jid, rid, req.round, req.responses);
    // Snapshot cadence rides the commit count — commits are the journal's
    // flush boundaries, so a snapshot always lands on durable ground.
    if (cfg_.snapshot_every != 0 &&
        pstats_.commits % cfg_.snapshot_every == 0) {
      cfg_.journal->on_snapshot(capture_snapshot());
    }
  }

  if (protocol_->keeps_request_open()) {
    // Buffered-aggregation commit: the request survives; in-flight devices
    // keep computing toward later commits (their responses arrive stale).
    const SimTime resp_time = now - job->buffer_epoch();
    manager_.notify_round_complete(jid, 0.0, resp_time, now);
    job->commit_round_buffered(now);
    if (job->finished()) {
      manager_.close_request(jid, now);
      finish_job(job);
    }
    return;
  }

  // An early cutoff (over-selection) can commit before the selection
  // target was ever fully assigned; the never-reached allocation instant
  // is the commit instant.
  if (req.fully_allocated < 0.0) req.fully_allocated = now;
  req.completed = now;
  const SimTime sched_delay = req.scheduling_delay();
  const SimTime resp_time = now - req.fully_allocated;

  manager_.notify_round_complete(jid, sched_delay, resp_time, now);
  job->complete_round(now);
  manager_.close_request(jid, now);

  std::size_t released = 0;
  if (protocol_->releases_stragglers()) {
    released = release_stragglers(job, rid, now);
  }
  if (job->finished()) {
    finish_job(job);
    // Released devices are re-offerable right away; without a next-round
    // submission, sweep for the other jobs explicitly.
    if (released > 0) offer_idle_pool(now);
  } else {
    submit_request(job);
  }
}

void Coordinator::on_deadline(JobId jid, RequestId rid) {
  auto it = by_id_.find(jid);
  if (it == by_id_.end()) return;
  Job* job = it->second;
  if (!job->request() || job->request()->id != rid) return;
  RoundRequest& req = job->mutable_request();
  // Sync deadlines only fire on allocated rounds; commit-while-pending
  // protocols also abort a round still acquiring devices (their deadline
  // arms before full allocation — which may never come).
  if (req.state != RequestState::kAllocated &&
      !(protocol_->commit_while_pending() &&
        req.state == RequestState::kPending)) {
    return;  // completed already
  }

  VENN_DEBUG << "job " << jid << " round " << req.round << " aborted ("
             << req.responses << "/" << req.needed_responses() << ")";
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_abort(engine_.now(), jid, rid, req.round, req.responses);
  }
  job->abort_request();
  manager_.close_request(jid, engine_.now());
  if (protocol_->releases_stragglers()) {
    // The aborted round's devices are still computing; release them before
    // the retry is submitted so its sweep can re-acquire them.
    release_stragglers(job, rid, engine_.now());
  }
  submit_request(job);
}

std::size_t Coordinator::release_stragglers(Job* job, RequestId rid,
                                            SimTime now) {
  if (in_sweep_pass_) {
    // A release inside an active sweep pass would insert into the pool the
    // sweep is iterating — and the just-assigned straggler's deferred
    // idle_erase would then silently drop it again. Defer to the
    // offer_idle_pool driver, which drains between passes.
    deferred_releases_.push_back({job, rid});
    return 0;
  }
  auto it = inflight_.find(job->id());
  if (it == inflight_.end()) return 0;
  std::size_t released = 0;
  auto& entries = it->second;
  for (std::size_t i = 0; i < entries.size();) {
    if (entries[i].rid != rid) {
      ++i;
      continue;
    }
    const InFlight entry = entries[i];
    entries[i] = entries.back();
    entries.pop_back();
    ++released;
    ++pstats_.stragglers_released;
    if (cfg_.topo.hier) {
      ++tstats_.per_region[regions_.region_of(entry.dev)].stragglers_released;
    }
    pstats_.wasted_work_s += now - entry.started;
    if (cfg_.journal != nullptr) {
      cfg_.journal->on_straggler_release(now, entry.dev, job->id());
    }
    Device& dev = devices_[entry.dev];
    // Refund the day budget charged at assignment; the already-scheduled
    // response/failure event for the cut-off computation fires into a
    // stale request id and is ignored.
    dev.refund_participation(Device::day_of(entry.started));
    manager_.notify_straggler_released(dev, *job, now);
    const SimTime session_end = active_session_end(entry.dev, now);
    if (session_end >= 0.0 && !dev.participated_on_day(Device::day_of(now))) {
      // The disjointness invariant — a computing straggler cannot already
      // be parked — holds only within the assignment's own day: the
      // midnight-budget rule (see attempt_checkin) re-parks a device whose
      // computation spans a day boundary, so a release after that boundary
      // legitimately finds the pool entry already there, with its retire
      // timer armed by whoever parked it. Keep that entry. Same-day, a
      // pool entry can only mean this InFlight entry went stale, and a
      // silent no-op insert would hide that. Throw instead.
      if (hot_.idle_pos[entry.dev] != 0) {
        if (Device::day_of(now) > Device::day_of(entry.started)) continue;
        throw std::logic_error(
            "Coordinator: straggler release found device " +
            std::to_string(entry.dev) +
            " already parked (stale in-flight entry)");
      }
      idle_insert(entry.dev);
      if (!streaming_churn()) {
        // Mirror attempt_checkin's parking rule: the pool entry retires
        // with the session. (Streaming mode's advance event does this.)
        const std::size_t d = entry.dev;
        engine_.at(std::min(session_end, cfg_.horizon),
                   [this, d] { retire_idle(d); });
      }
    }
  }
  if (entries.empty()) inflight_.erase(it);
  return released;
}

bool Coordinator::inflight_remove(JobId jid, RequestId rid, std::size_t dev) {
  auto it = inflight_.find(jid);
  if (it == inflight_.end()) return false;
  auto& entries = it->second;
  bool removed = false;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].rid == rid && entries[i].dev == dev) {
      entries[i] = entries.back();
      entries.pop_back();
      removed = true;
      break;
    }
  }
  if (entries.empty()) inflight_.erase(it);
  return removed;
}

void Coordinator::finish_job(Job* job) {
  job->set_completion_time(engine_.now());
  if (cfg_.journal != nullptr) {
    cfg_.journal->on_job_finish(engine_.now(), job->id(),
                                engine_.now() - job->spec().arrival);
  }
  manager_.deregister_job(job->id());
  // inflight_ entries for the finished job stay: each drains when its
  // response/failure event fires, and keeping them classifies the final
  // round's stragglers as wasted responses (they were never released).
  by_id_.erase(job->id());
  if (unfinished_jobs_ > 0) --unfinished_jobs_;
}

journal::StateSnapshot Coordinator::capture_snapshot() {
  journal::StateSnapshot snap;
  snap.commits = pstats_.commits;
  snap.clock = engine_.now();
  auto add = [&snap](const char* name, journal::Encoder& e) {
    snap.sections.emplace_back(name, e.take());
  };

  {
    journal::Encoder e;
    e.f64(engine_.now());
    e.u64(engine_.events_executed());
    add("clock", e);
  }
  {
    // The Mersenne Twister's canonical text serialization — byte-exact and
    // portable, which is all the drift check needs.
    std::ostringstream os;
    os << engine_.rng().engine();
    journal::Encoder e;
    e.str(os.str());
    add("engine-rng", e);
  }
  {
    journal::Encoder e;
    e.u64(sweep_counter_);
    e.u64(static_cast<std::uint64_t>(admitted_));
    e.u64(sessions_streamed_);
    e.u64(static_cast<std::uint64_t>(unfinished_jobs_));
    e.u64(static_cast<std::uint64_t>(aligned_bits_));
    add("coordinator", e);
  }
  {
    journal::Encoder e;
    e.u64(pstats_.commits);
    e.u64(pstats_.responses);
    e.u64(pstats_.wasted_responses);
    e.u64(pstats_.stragglers_released);
    e.f64(pstats_.wasted_work_s);
    e.u64(pstats_.staleness_sum);
    e.u64(pstats_.stale_responses);
    add("protocol", e);
  }
  {
    journal::Encoder e;
    e.u64(hstats_.sweeps);
    e.u64(hstats_.sweep_visits);
    e.u64(hstats_.sweep_offers);
    e.u64(hstats_.sweep_skips);
    e.u64(hstats_.supply_queries);
    e.u64(hstats_.resweeps);
    const auto& mh = manager_.hotpath_stats();
    e.u64(mh.offers);
    e.u64(mh.candidates_scanned);
    e.u64(mh.view_builds);
    add("hotpath", e);
  }
  {
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(idle_vec_.size()));
    for (const std::size_t d : idle_vec_) e.u64(static_cast<std::uint64_t>(d));
    // Per-range pool counts, recounted here: the layout every journal
    // carries (u64 pool size, ids, u64 S, S counts) with S = cfg.shards.
    const std::vector<std::size_t> counts = idle_range_counts();
    e.u64(static_cast<std::uint64_t>(counts.size()));
    for (const std::size_t c : counts) e.u64(static_cast<std::uint64_t>(c));
    add("idle-pool", e);
  }
  {
    // Participation budgets from the hot store's dense column — the very
    // slots the devices' budget API reads and writes (they are views over
    // it), so the bytes are identical to a per-device walk.
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(devices_.size()));
    for (const std::int32_t day : hot_.participation_day) e.i32(day);
    add("devices", e);
  }
  {
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(jobs_.size()));
    for (const auto& jp : jobs_) {
      const Job& j = *jp;
      e.i64(j.id().value());
      e.i32(j.completed_rounds());
      e.i32(j.pending_aborts());
      e.i32(j.total_aborts());
      e.f64(j.completion_time());
      e.f64(j.buffer_epoch());
      const auto& req = j.request();
      e.u8(req.has_value() ? 1 : 0);
      if (req) {
        e.i64(req->id.value());
        e.i32(req->round);
        e.i32(req->demand);
        e.i32(req->target_responses);
        e.i32(req->assigned);
        e.i32(req->responses);
        e.i32(req->failures);
        e.f64(req->submitted);
        e.f64(req->fully_allocated);
        e.f64(req->completed);
        e.f64(req->deadline);
        e.u8(req->deadline_armed ? 1 : 0);
        e.i32(static_cast<std::int32_t>(req->state));
      }
    }
    add("jobs", e);
  }
  {
    // In-flight computations, iterated in job-creation order (inflight_ is
    // an unordered_map; hashing order must not leak into the bytes).
    journal::Encoder e;
    for (const auto& jp : jobs_) {
      const auto it = inflight_.find(jp->id());
      if (it == inflight_.end() || it->second.empty()) continue;
      e.i64(jp->id().value());
      e.u64(static_cast<std::uint64_t>(it->second.size()));
      for (const InFlight& f : it->second) {
        e.i64(f.rid.value());
        e.u64(static_cast<std::uint64_t>(f.dev));
        e.f64(f.started);
        e.i32(f.round);
      }
    }
    add("inflight", e);
  }
  {
    journal::Encoder e;
    e.i64(manager_.next_request_id());
    add("manager", e);
  }
  if (streaming_churn()) {
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(streams_.size()));
    for (const auto& st : streams_) {
      e.u8(st.stream != nullptr ? 1 : 0);
      e.u8(st.has_session ? 1 : 0);
      e.f64(st.current.start);
      e.f64(st.current.end);
    }
    add("streams", e);
  }
  if (cfg_.arrival != nullptr) {
    std::ostringstream os;
    os << mix_rng_.engine();
    journal::Encoder e;
    e.str(os.str());
    add("mix-rng", e);
  }
  if (cfg_.topo.hier) {
    // Hier runs carry their topology telemetry in the drift-check surface;
    // only present in hier mode, so flat snapshots (and every pre-topology
    // journal) are byte-unchanged. A journaled hier run replays hier
    // (to_kv carries the topology knobs), so the section appears in both
    // captures or neither.
    journal::Encoder e;
    e.u64(static_cast<std::uint64_t>(regions_.regions()));
    e.f64(cfg_.topo.sync_latency);
    e.f64(cfg_.topo.phase_spread_h);
    e.u64(tstats_.cross_region_supply_aggs);
    e.u64(tstats_.uplink_reports);
    for (const topology::RegionCounters& rc : tstats_.per_region) {
      e.u64(rc.checkins);
      e.u64(rc.assignments);
      e.u64(rc.responses);
      e.u64(rc.stragglers_released);
    }
    add("topology", e);
  }
  if (ext_sessions_live()) {
    // Only present once the live service granted a session, so batch
    // snapshots (and pre-service journals) are byte-unchanged. A replayed
    // command stream goes live at the same record, so the section appears
    // in both captures or neither.
    journal::Encoder e;
    e.u64(ext_submitted_);
    e.u64(static_cast<std::uint64_t>(ext_session_end_.size()));
    for (const SimTime t : ext_session_end_) e.f64(t);
    add("ext-sessions", e);
  }
  return snap;
}

}  // namespace venn
