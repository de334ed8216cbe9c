// Hierarchical, geo-distributed coordination topology.
//
// `topology=flat` (the default) is the paper's single coordinator loop.
// `topology=hier` models N regional edge coordinators, each owning a
// contiguous FleetPartition device range with its own diurnal phase,
// feeding the global coordinator through the round-protocol interface:
//
//   * RegionMap — the immutable device→region partition. It reuses the
//     FleetPartition math, so region r owns [n·r/R, n·(r+1)/R) and every
//     subsystem that mentions a home region agrees by construction.
//   * Per-region diurnal phase — region r's devices have their availability
//     sessions shifted by phase_offset(r) = phase_spread_h·kHour·r/R,
//     modeling timezone spread across a geo-distributed fleet.
//   * Cross-region supply aggregation — supply-rate queries aggregate
//     per-region partial sums (eligible counts, session check-ins, span
//     maxima) instead of one flat fleet scan. The merged quantities are
//     integer counts, integer-valued double sums and maxima, so the
//     region-grouped result equals the flat scan EXACTLY, in any
//     summation order.
//   * Inter-region sync latency — each region holds a device's result for
//     `sync_latency` seconds of uplink before the global coordinator sees
//     it (success responses and end-of-session failure reports). The
//     control plane (check-ins, assignments, round commits) is modeled as
//     globally synchronous.
//
// Equivalence contract: at sync_latency=0 and phase_spread=0 a hier run is
// byte-identical to the flat run — uplinks are scheduled through the SAME
// call sites with `+ latency` (and x + 0.0 == x for finite doubles), phase
// shifting is skipped when the offset is exactly zero, and the aggregation
// identities above cover the supply path. tests/topology_differential_test.cc
// enforces this point-for-point (RunResult + TSDB streams) across
// protocols, with vacuousness guards on TopologyStats so the hier
// machinery provably ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "device/fleet_partition.h"
#include "util/ids.h"

namespace venn::topology {

// Resolved topology configuration (ScenarioSpec's `topology=` / `topo.*`
// knobs after defaulting). Flat scenarios keep hier=false and the rest
// unread.
struct TopologySpec {
  bool hier = false;
  std::size_t regions = 4;      // regional coordinators (hier), [2, 64]
  double sync_latency = 0.0;    // region→global uplink latency, seconds
  double phase_spread_h = 0.0;  // diurnal peak spread across regions, hours
};

// Immutable device→region map: contiguous FleetPartition ranges.
class RegionMap {
 public:
  RegionMap() = default;
  RegionMap(std::size_t num_devices, std::size_t regions)
      : part_(num_devices, regions) {}

  [[nodiscard]] std::size_t regions() const { return part_.shards; }
  [[nodiscard]] std::size_t num_devices() const { return part_.num_devices; }
  [[nodiscard]] std::size_t begin(std::size_t r) const {
    return part_.begin(r);
  }
  [[nodiscard]] std::size_t end(std::size_t r) const { return part_.end(r); }
  [[nodiscard]] std::size_t region_of(std::size_t dev) const {
    return part_.shard_of(dev);
  }

 private:
  FleetPartition part_;
};

// Diurnal phase offset of region r: the spread is divided evenly so region
// 0 keeps the base phase and region R-1 peaks spread·(R-1)/R hours later.
// Exactly 0.0 when the spread is 0 (the equivalence contract relies on
// callers skipping the shift in that case).
[[nodiscard]] double phase_offset(const TopologySpec& spec, std::size_t r);

// Per-region protocol activity, mirrored from the same call sites that
// feed the global protocol counters. Lives OUTSIDE RunResult so flat and
// hier results can compare equal while hier still exposes its telemetry.
struct RegionCounters {
  std::uint64_t checkins = 0;
  std::uint64_t assignments = 0;
  std::uint64_t responses = 0;
  std::uint64_t stragglers_released = 0;
};

// Aggregate hier telemetry. The differential wall's vacuousness guards
// read these: a hier run that never aggregated across regions or never
// routed a response through the uplink path would make the zero-latency
// equivalence test meaningless.
struct TopologyStats {
  // Supply-rate queries answered by aggregating per-region partials.
  std::uint64_t cross_region_supply_aggs = 0;
  // Responses / failure reports scheduled through the region→global uplink.
  std::uint64_t uplink_reports = 0;
  std::vector<RegionCounters> per_region;
};

// One region's cached supply partials for a single requirement. The
// per-device inputs (spec eligibility, session check-in counts, session
// end maxima) are fixed at fleet init, so the partials are computed once
// per distinct requirement and re-aggregated across regions per query.
struct RegionSupply {
  std::uint64_t eligible = 0;  // devices in the region matching the req
  double checkins = 0.0;       // Σ session check-ins over eligible devices
  SimTime span = 0.0;          // max session end over the region (all devs)
};

}  // namespace venn::topology
