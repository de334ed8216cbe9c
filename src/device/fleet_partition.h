// FleetPartition: an immutable split of a device fleet into contiguous
// index ranges — and FleetHotState, the struct-of-arrays store of the
// per-device state the scheduling hot path actually touches.
//
// FleetPartition(n, k) gives part s the range [n·s/k, n·(s+1)/k). It is a
// pure function of (num_devices, parts) — no state, no registration
// order — so every user agrees by construction: topology::RegionMap
// builds the hier device→region map on it, and snapshot capture counts
// the idle pool per range of the scenario's `shards=` value (the
// idle-pool section keeps the per-range counts journals have always
// carried; see Coordinator::capture_snapshot).
//
// FleetHotState is the fleet's hot-state layout. `Device` objects
// carry cold state (id, spec, the materialized session vector) and are
// ~80 bytes plus a heap allocation each; iterating them for the per-visit
// sweep filter, the per-registration index rebucket or the hier region
// supply partials strides over memory the loop mostly does not read. The hot
// state those loops DO read — the cached eligibility signature, the
// idle-pool position (the availability flag), the one-job-per-day
// participation budget, the spec scores and the per-device session
// statistics — lives here instead, one dense array per field, indexed by
// device position:
//
//   * `signature[d]`   — the ≤64-bit requirement bitmask the eligibility
//                        index maintains (core/elig_index.cc writes it on
//                        registration rebuckets; the sweep filter ANDs it
//                        against the manager's wants mask). Contiguous
//                        uint64s, so a skipped sweep visit is one load
//                        and one AND.
//   * `idle_pos[d]`    — idle-pool position + 1; 0 = not parked. The
//                        coordinator's dense pool keeps its vector of
//                        members; this is the membership/position side.
//   * `participation_day[d]` — last day the device participated
//                        (Device::kNeverParticipated = never/refunded; -1
//                        is a real day under floor semantics). Device
//                        objects become views over
//                        this array (Device::bind_participation_slot), so
//                        the budget API is unchanged while snapshots and
//                        hot loops read one int32 array.
//   * `spec[d]`, `session_checkins[d]`, `session_last_end[d]` — the exact
//                        per-device quantities the index rebucket (spec,
//                        check-ins) and the hier region supply partials
//                        (all three) read, densely packed so those fleet
//                        passes never touch a Device object.
//
// The arrays are plain data with no invariants of their own: the
// coordinator owns the store, the eligibility index writes the signature
// column, and every consumer indexes by device position. Aggregate
// session statistics are accumulated in device order at init (double sums
// are order-sensitive, so the order is fixed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "device/eligibility.h"
#include "util/ids.h"

namespace venn {

class Device;

struct FleetPartition {
  std::size_t num_devices = 0;
  std::size_t shards = 1;

  FleetPartition() = default;
  FleetPartition(std::size_t devices, std::size_t shard_count)
      : num_devices(devices), shards(shard_count) {}

  // Device-index range of part s: [begin(s), end(s)).
  [[nodiscard]] std::size_t begin(std::size_t s) const {
    return num_devices * s / shards;
  }
  [[nodiscard]] std::size_t end(std::size_t s) const {
    return num_devices * (s + 1) / shards;
  }

  // Part owning device d — the inverse of begin/end: shard_of(d) == s
  // exactly when begin(s) <= d < end(s) (tests/topology_differential_test.cc
  // checks the two agree over degenerate and non-dividing sizes).
  [[nodiscard]] std::size_t shard_of(std::size_t d) const {
    return ((d + 1) * shards - 1) / num_devices;
  }
};

// Struct-of-arrays hot state of one device fleet. See the file comment for
// the field-by-field story. Owned by the Coordinator; shared by reference
// with the EligibilityIndex (which maintains `signature`) and read by the
// sweep filter and the hier region supply partials.
class FleetHotState {
 public:
  FleetHotState() = default;

  // Lays out the arrays for `devices` and accumulates the population
  // session statistics in device order (a fixed order — double sums are
  // order-sensitive).
  void init(std::span<const Device> devices);

  [[nodiscard]] std::size_t size() const { return spec.size(); }

  // --- hot columns, indexed by device position --------------------------
  std::vector<std::uint64_t> signature;   // eligibility signature cache
  std::vector<std::uint32_t> idle_pos;    // pool position + 1; 0 = absent
  std::vector<std::int32_t> participation_day;  // last day participated
  std::vector<DeviceSpec> spec;           // dense spec copy (eligibility)
  std::vector<double> session_checkins;   // materialized sessions, integer-
                                          // valued (supply numerator)
  std::vector<SimTime> session_last_end;  // last session end; 0 = none

  // --- population session aggregates (device-order accumulation) --------
  SimTime session_span = 0.0;   // max session_last_end over the fleet
  double session_time = 0.0;    // total session seconds
  double session_count = 0.0;   // total session count (integer-valued)
};

}  // namespace venn
