// Test-only brute-force reference for the eligibility index.
//
// The eligibility index (src/core/elig_index.h) is the only production
// path for supply aggregates, device signatures and the sweep's skip
// filter. This header recomputes each of those quantities the slow,
// obvious way — straight from Device::spec() and Device::sessions() and
// the manager's pending view, never from the FleetHotState columns the
// index maintains — so tests can demand exact equality:
//
//   * per requirement: eligible-device count, the integer-valued session
//     check-in sum, and the population session span;
//   * per device: the signature bits over index().requirement(g);
//   * the manager's wants mask, as the OR of pending_view() groups;
//   * in hier mode: the per-region supply partials summed across regions.
//
// Calling pending_view() bumps the manager's view_builds counter, so check
// only where that counter is not part of what the test compares.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/live.h"
#include "venn/venn.h"

namespace venn::reference {

struct Supply {
  std::uint64_t eligible = 0;
  double checkins = 0.0;  // materialized sessions of eligible devices
  SimTime span = 0.0;     // latest session end over every device
};

inline Supply supply(std::span<const Device> devices, const Requirement& req) {
  Supply s;
  for (const Device& d : devices) {
    for (const Session& session : d.sessions()) {
      s.span = std::max(s.span, session.end);
    }
    if (!req.eligible(d.spec())) continue;
    ++s.eligible;
    s.checkins += static_cast<double>(d.sessions().size());
  }
  return s;
}

inline std::uint64_t signature(const EligibilityIndex& index,
                               const DeviceSpec& spec) {
  std::uint64_t sig = 0;
  for (std::size_t g = 0; g < index.num_requirements(); ++g) {
    if (index.requirement(g).eligible(spec)) sig |= 1ULL << g;
  }
  return sig;
}

inline std::uint64_t wants_mask(const ResourceManager& manager) {
  std::uint64_t mask = 0;
  for (const PendingJob& pj : manager.pending_view()) mask |= 1ULL << pj.group;
  return mask;
}

// Every index quantity of `coord` against the reference, plus the wants
// mask of the manager driving it. Reports the first mismatch.
inline ::testing::AssertionResult index_matches(
    const Coordinator& coord, const ResourceManager& manager) {
  const EligibilityIndex& index = coord.index();
  const std::span<const Device> devices(coord.devices());
  if (index.num_devices() != devices.size()) {
    return ::testing::AssertionFailure()
           << "index covers " << index.num_devices() << " devices, fleet has "
           << devices.size();
  }
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const std::uint64_t want = signature(index, devices[d].spec());
    if (index.signature(d) != want) {
      return ::testing::AssertionFailure()
             << "device " << d << " signature " << index.signature(d)
             << ", reference " << want;
    }
  }
  for (std::size_t g = 0; g < index.num_requirements(); ++g) {
    const Requirement& req = index.requirement(g);
    const Supply ref = supply(devices, req);
    if (index.eligible_count(g) != ref.eligible ||
        index.eligible_session_checkins(g) != ref.checkins ||
        index.session_span() != ref.span) {
      return ::testing::AssertionFailure()
             << "requirement " << g << ": index eligible/checkins/span "
             << index.eligible_count(g) << '/'
             << index.eligible_session_checkins(g) << '/'
             << index.session_span() << ", reference " << ref.eligible << '/'
             << ref.checkins << '/' << ref.span;
    }
    if (coord.region_map().regions() > 1) {
      Supply sum;
      for (const topology::RegionSupply& p : coord.region_supply(req)) {
        sum.eligible += p.eligible;
        sum.checkins += p.checkins;
        sum.span = std::max(sum.span, p.span);
      }
      if (sum.eligible != ref.eligible || sum.checkins != ref.checkins ||
          sum.span != ref.span) {
        return ::testing::AssertionFailure()
               << "requirement " << g << ": region partials sum to "
               << sum.eligible << '/' << sum.checkins << '/' << sum.span
               << ", reference " << ref.eligible << '/' << ref.checkins
               << '/' << ref.span;
      }
    }
  }
  const std::uint64_t wants = wants_mask(manager);
  if (manager.wants_mask() != wants) {
    return ::testing::AssertionFailure()
           << "wants mask " << manager.wants_mask() << ", reference " << wants;
  }
  return ::testing::AssertionSuccess();
}

// Runs the experiment as a LiveSession, checking the index against the
// reference after each of `slices` equal advance_to steps and once more at
// the end. Slicing is invisible to the simulation, so the result equals
// the batch run's (which is the same session with no intermediate stops).
inline RunResult run_checked(const ScenarioSpec& sc, const PolicySpec& policy,
                             int slices, const std::string& label) {
  const Experiment ex = ExperimentBuilder().scenario(sc).policy(policy).build();
  api::LiveSession live(ex,
                        PolicyRegistry::instance().create(
                            policy.name, policy.params,
                            ex.stream_seed("scheduler")),
                        {}, nullptr);
  live.start();
  for (int k = 1; k <= slices; ++k) {
    live.advance_to(sc.horizon * k / (slices + 1));
    EXPECT_TRUE(index_matches(live.coordinator(), live.manager()))
        << label << " slice " << k;
  }
  live.advance_to(sc.horizon);
  EXPECT_TRUE(index_matches(live.coordinator(), live.manager()))
      << label << " at the horizon";
  return live.finish();
}

}  // namespace venn::reference
