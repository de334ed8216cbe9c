#include "core/elig_index.h"

#include <stdexcept>

namespace venn {

EligibilityIndex::EligibilityIndex(std::span<const Device> devices)
    : owned_(std::make_unique<FleetHotState>()), hot_(owned_.get()) {
  owned_->init(devices);
  seed_zero_bucket();
}

EligibilityIndex::EligibilityIndex(FleetHotState& hot) : hot_(&hot) {
  seed_zero_bucket();
}

void EligibilityIndex::seed_zero_bucket() {
  // Everything starts in the signature-0 bucket; requirement registrations
  // move devices to their atoms incrementally.
  Atom& zero = atoms_[0];
  zero.device_count = hot_->size();
  for (double c : hot_->session_checkins) zero.session_checkins += c;
}

std::size_t EligibilityIndex::register_requirement(const Requirement& req) {
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    if (reqs_[i] == req) return i;
  }
  if (reqs_.size() >= SignatureSpace::kMaxRequirements) {
    throw std::length_error("EligibilityIndex: too many distinct requirements");
  }
  const std::size_t bit = reqs_.size();
  reqs_.push_back(req);
  ++mstats_.requirement_registrations;

  // The one full pass this structure ever pays per distinct requirement:
  // flip the new bit on eligible devices and move them between buckets.
  // Dense column scans (spec + signature side by side in the hot store)
  // instead of chasing per-device pointers.
  const std::uint64_t mask = 1ULL << bit;
  const DeviceSpec* specs = hot_->spec.data();
  std::uint64_t* sigs = hot_->signature.data();
  const double* checkins = hot_->session_checkins.data();
  const std::size_t n = hot_->size();
  for (std::size_t d = 0; d < n; ++d) {
    ++mstats_.device_rescans;
    if (!req.eligible(specs[d])) continue;
    const std::uint64_t old_sig = sigs[d];
    const std::uint64_t new_sig = old_sig | mask;
    sigs[d] = new_sig;

    Atom& from = atoms_.at(old_sig);
    --from.device_count;
    from.session_checkins -= checkins[d];
    Atom& to = atoms_[new_sig];
    ++to.device_count;
    to.session_checkins += checkins[d];
    if (from.device_count == 0) atoms_.erase(old_sig);
  }
  return bit;
}

std::size_t EligibilityIndex::eligible_count(std::size_t group) const {
  std::size_t n = 0;
  for (const auto& [sig, atom] : atoms_) {
    if ((sig >> group) & 1ULL) n += atom.device_count;
  }
  return n;
}

double EligibilityIndex::eligible_session_checkins(std::size_t group) const {
  // Each bucket total is an exact integer (sums of session counts), so the
  // cross-bucket sum equals a per-device accumulation regardless of order
  // (the brute-force reference in tests/ checks exactly that).
  double n = 0.0;
  for (const auto& [sig, atom] : atoms_) {
    if ((sig >> group) & 1ULL) n += atom.session_checkins;
  }
  return n;
}

}  // namespace venn
