#include "device/fleet_partition.h"

#include <algorithm>

#include "device/device.h"

namespace venn {

void FleetHotState::init(std::span<const Device> devices, std::size_t shards) {
  const std::size_t n = devices.size();
  partition = FleetPartition(n, shards);

  signature.assign(n, 0);
  idle_pos.assign(n, 0);
  participation_day.assign(n, Device::kNeverParticipated);
  spec.clear();
  spec.reserve(n);
  session_checkins.clear();
  session_checkins.reserve(n);
  session_last_end.clear();
  session_last_end.reserve(n);

  session_span = 0.0;
  session_time = 0.0;
  session_count = 0.0;

  // One pass in device order: a fixed accumulation order, so every double
  // aggregate is reproducible bit for bit.
  for (const Device& d : devices) {
    spec.push_back(d.spec());
    session_checkins.push_back(static_cast<double>(d.sessions().size()));
    SimTime last_end = 0.0;
    if (!d.sessions().empty()) {
      last_end = d.sessions().back().end;
      session_span = std::max(session_span, last_end);
    }
    session_last_end.push_back(last_end);
    for (const Session& s : d.sessions()) {
      session_time += s.duration();
      session_count += 1.0;
    }
  }
}

}  // namespace venn
