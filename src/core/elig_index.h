// Incremental eligibility/availability index over a device population.
//
// The scheduling hot path used to rescan the whole fleet on every supply
// query: `Coordinator::supply_rate` walked all devices (and, without a churn
// model, all of their sessions) per job registration, and every idle-pool
// sweep offered every parked device to the manager regardless of whether any
// pending job could take it. This index makes those costs incremental:
//
//   * each device carries a cached *eligibility signature* — the bitmask of
//     registered job requirements it satisfies, the same ≤64-group atoms
//     `compute_irs_plan` consumes — updated only when a new distinct
//     requirement arrives (job arrival), never per scheduling decision;
//   * devices are bucketed per signature into *atom buckets* holding the
//     device count and the total materialized-session check-in count, so
//     eligible-supply queries are O(#atoms) instead of O(devices);
//   * population session statistics (span, mean session seconds) are
//     computed once at construction in device order.
//
// The index is the only production path for these quantities. Its counts,
// check-in sums, span and per-device signatures are checked for exact
// equality against a test-only brute-force reference that reads Device
// objects directly (tests/reference/brute_force.h).
//
// Storage note: the per-device columns the index maintains — the signature
// cache, the dense spec copy the rebucket predicate reads, the per-device
// session counts — live in the fleet's struct-of-arrays FleetHotState
// (device/fleet_partition.h), not in this class. The coordinator owns that
// store and shares it by reference, so the sweep filter can AND the very
// same contiguous `signature` array against the manager's wants mask with
// no per-device indirection; a standalone index (tests, benches) owns a
// private store instead. Either way the index is the sole writer of the
// signature column.
//
// Requirement bit indices are assigned in first-seen order, exactly like
// `SignatureSpace::register_requirement`; when the coordinator registers
// each job's requirement here immediately before the resource manager
// registers the same requirement in its own space (which the job
// registration path does), the two bit spaces stay aligned and a device
// signature from this index can be intersected directly with the manager's
// pending-group mask. The coordinator does not trust that call-order
// convention blindly: it compares the two spaces requirement-by-requirement
// (`Coordinator::aligned_requirement_mask`) and only applies the sweep skip
// to bits proven aligned, so a stray registration (e.g. a solo-JCT probe
// for a category that never becomes a job) degrades to plain offering
// instead of silently skipping eligible devices.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "device/device.h"
#include "device/eligibility.h"
#include "device/fleet_partition.h"

namespace venn {

class EligibilityIndex {
 public:
  // One eligibility atom: the devices sharing a signature.
  struct Atom {
    std::size_t device_count = 0;
    // Total number of materialized sessions (= daily-averaged check-ins
    // numerator) of the bucket's devices. Integer-valued, stored as double;
    // every partial sum is exact, so any summation order gives the same
    // double.
    double session_checkins = 0.0;
  };

  struct MaintenanceStats {
    std::uint64_t requirement_registrations = 0;  // distinct requirements
    std::uint64_t device_rescans = 0;  // device visits across registrations
  };

  // Builds the index over a fixed population with a privately owned
  // hot-state store. Devices are identified by their position in `devices`
  // for the index's lifetime; specs and session vectors must not change
  // afterwards (sessions may be absent for streaming-churn populations).
  explicit EligibilityIndex(std::span<const Device> devices);

  // Builds the index over an externally owned, already-initialized store
  // (the coordinator's FleetHotState). The index becomes the sole writer of
  // `hot.signature` and reads `hot.spec` / `hot.session_checkins`; `hot`
  // must outlive the index and must have been init'ed over the same device
  // population.
  explicit EligibilityIndex(FleetHotState& hot);

  // Registers `req` (idempotent), returns its bit index. A new distinct
  // requirement rebuckets the population once — O(devices) per *distinct*
  // requirement, O(#requirements) afterwards — instead of every supply
  // query paying a fleet scan.
  std::size_t register_requirement(const Requirement& req);

  [[nodiscard]] std::size_t num_requirements() const { return reqs_.size(); }
  [[nodiscard]] const Requirement& requirement(std::size_t idx) const {
    return reqs_.at(idx);
  }

  // Cached signature of the device at `dev_idx` over the registered
  // requirements (bit g set iff requirement g is satisfied).
  [[nodiscard]] std::uint64_t signature(std::size_t dev_idx) const {
    return hot_->signature[dev_idx];
  }

  [[nodiscard]] std::size_t num_devices() const {
    return hot_->signature.size();
  }

  // Eligible-device count for requirement bit `group`: O(#atoms).
  [[nodiscard]] std::size_t eligible_count(std::size_t group) const;

  // Total materialized-session count of eligible devices for requirement
  // bit `group` (the supply rate's check-in numerator): O(#atoms).
  [[nodiscard]] double eligible_session_checkins(std::size_t group) const;

  // --- population session statistics (accumulated once at store init) -----
  // Latest session end over all devices (the supply rate's averaging span).
  [[nodiscard]] SimTime session_span() const { return hot_->session_span; }
  // Total session time / count over all devices, accumulated in device
  // order.
  [[nodiscard]] double total_session_seconds() const {
    return hot_->session_time;
  }
  [[nodiscard]] double total_session_count() const {
    return hot_->session_count;
  }
  [[nodiscard]] bool has_sessions() const { return hot_->session_count > 0.0; }
  [[nodiscard]] double mean_session_seconds() const {
    return hot_->session_time / hot_->session_count;
  }

  // Atom buckets keyed by signature (signature 0 = devices eligible for no
  // registered requirement). Exposed for tests and benches.
  [[nodiscard]] const std::unordered_map<std::uint64_t, Atom>& atoms() const {
    return atoms_;
  }

  [[nodiscard]] const MaintenanceStats& maintenance_stats() const {
    return mstats_;
  }

 private:
  // Seeds the signature-0 bucket from the store's columns (everything
  // starts eligible for no requirement).
  void seed_zero_bucket();

  std::vector<Requirement> reqs_;
  std::unique_ptr<FleetHotState> owned_;  // standalone-construction fallback
  FleetHotState* hot_ = nullptr;          // the store (owned_ or external)
  std::unordered_map<std::uint64_t, Atom> atoms_;

  MaintenanceStats mstats_;
};

}  // namespace venn
