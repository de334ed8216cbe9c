#include "api/live.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "device/eligibility.h"
#include "util/parse.h"

namespace venn::api {

namespace {

// Shortest-exact double formatting: 17 significant digits round-trip any
// IEEE-754 double through text, keeping canonical() a byte-stable key.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(std::move(tok));
  return out;
}

std::unique_ptr<Scheduler> require_scheduler(std::unique_ptr<Scheduler> s,
                                             std::string* label) {
  if (!s) {
    throw std::invalid_argument("LiveSession: scheduler must not be null");
  }
  if (label->empty()) *label = s->name();
  return s;
}

void need_args(const std::vector<std::string>& tok, std::size_t n) {
  if (tok.size() != n + 1) {
    throw std::invalid_argument("command \"" + tok[0] + "\" takes " +
                                std::to_string(n) + " argument(s), got " +
                                std::to_string(tok.size() - 1));
  }
}

}  // namespace

std::string TrafficCommand::canonical() const {
  switch (kind) {
    case Kind::kAdvance:
      return "advance " + fmt_double(target);
    case Kind::kCheckin:
      return "checkin " + std::to_string(dev) + " " + fmt_double(duration);
    case Kind::kCheckout:
      return "checkout " + std::to_string(dev);
    case Kind::kSubmit:
      return "submit " + std::to_string(spec.rounds) + " " +
             std::to_string(spec.demand) + " " +
             std::to_string(static_cast<int>(spec.category)) + " " +
             fmt_double(spec.nominal_task_s) + " " + fmt_double(spec.task_cv) +
             " " + fmt_double(spec.deadline_s);
    case Kind::kAdmit:
      return "admit";
    case Kind::kRespond:
      return "respond " + std::to_string(dev);
    case Kind::kSnapshotNow:
      return "snapshot-now";
  }
  throw std::logic_error("TrafficCommand: unknown kind");
}

bool TrafficCommand::is_traffic_verb(const std::string& verb) {
  return verb == "advance" || verb == "checkin" || verb == "checkout" ||
         verb == "submit" || verb == "admit" || verb == "respond" ||
         verb == "snapshot-now";
}

TrafficCommand TrafficCommand::parse(const std::string& line) {
  const auto tok = tokenize(line);
  if (tok.empty()) throw std::invalid_argument("empty command");
  TrafficCommand cmd;
  const std::string& verb = tok[0];
  if (verb == "advance") {
    need_args(tok, 1);
    cmd.kind = Kind::kAdvance;
    cmd.target = internal::parse_double("advance.target", tok[1]);
    if (!(cmd.target >= 0.0)) {
      throw std::invalid_argument("advance.target must be >= 0");
    }
  } else if (verb == "checkin") {
    need_args(tok, 2);
    cmd.kind = Kind::kCheckin;
    cmd.dev = internal::parse_size("checkin.dev", tok[1]);
    cmd.duration = internal::parse_positive("checkin.duration", tok[2]);
  } else if (verb == "checkout") {
    need_args(tok, 1);
    cmd.kind = Kind::kCheckout;
    cmd.dev = internal::parse_size("checkout.dev", tok[1]);
  } else if (verb == "submit") {
    need_args(tok, 6);
    cmd.kind = Kind::kSubmit;
    cmd.spec.rounds = internal::parse_int("submit.rounds", tok[1]);
    cmd.spec.demand = internal::parse_int("submit.demand", tok[2]);
    if (cmd.spec.rounds < 1 || cmd.spec.demand < 1) {
      throw std::invalid_argument("submit: rounds and demand must be >= 1");
    }
    const int cat = internal::parse_int("submit.category", tok[3]);
    if (cat < 0 || cat >= kNumCategories) {
      throw std::invalid_argument("submit.category must be in [0, " +
                                  std::to_string(kNumCategories - 1) + "]");
    }
    cmd.spec.category = static_cast<ResourceCategory>(cat);
    cmd.spec.nominal_task_s =
        internal::parse_positive("submit.task_s", tok[4]);
    cmd.spec.task_cv = internal::parse_double("submit.task_cv", tok[5]);
    if (cmd.spec.task_cv < 0.0) {
      throw std::invalid_argument("submit.task_cv must be >= 0");
    }
    cmd.spec.deadline_s = internal::parse_positive("submit.deadline_s", tok[6]);
  } else if (verb == "admit") {
    need_args(tok, 0);
    cmd.kind = Kind::kAdmit;
  } else if (verb == "respond") {
    need_args(tok, 1);
    cmd.kind = Kind::kRespond;
    cmd.dev = internal::parse_size("respond.dev", tok[1]);
  } else if (verb == "snapshot-now") {
    need_args(tok, 0);
    cmd.kind = Kind::kSnapshotNow;
  } else {
    throw std::invalid_argument("unknown traffic command \"" + verb + "\"");
  }
  return cmd;
}

LiveSession::LiveSession(const Experiment& ex,
                         std::unique_ptr<Scheduler> scheduler,
                         std::string label, journal::JournalSink* sink)
    : label_(std::move(label)),
      sink_(sink),
      horizon_(ex.scenario().horizon),
      open_loop_(ex.scenario().open_loop),
      num_devices_(ex.inputs().devices.size()),
      engine_(ex.stream_seed("engine")),
      manager_(require_scheduler(std::move(scheduler), &label_)) {
  // Construction mirrors the historical run_with_sink body step for step —
  // matrix before user observers, observers notified before the
  // coordinator exists. Byte-identity of batch runs rides on this order.
  manager_.add_observer(&matrix_);
  for (RunObserver* obs : ex.observers()) {
    obs->on_run_start();
    manager_.add_observer(obs);
  }

  CoordinatorConfig ccfg;
  ccfg.horizon = ex.scenario().horizon;
  ccfg.seed = ex.scenario().seed;
  ccfg.protocol = &ex.round_protocol();
  const auto& gen = ex.generators();
  if (gen.churn) {
    ccfg.churn = gen.churn.get();
    ccfg.stream_sessions = ex.scenario().streaming;
  }
  if (ex.scenario().open_loop) {
    ccfg.arrival = gen.arrival.get();
    ccfg.mix = gen.mix.get();
    ccfg.max_jobs = ex.scenario().num_jobs;
  }
  ccfg.journal = sink;
  ccfg.snapshot_every = ex.scenario().snapshot_every;
  ccfg.topo = ex.scenario().topology_spec();
  ccfg.shards = ex.scenario().shards;
  coord_ = std::make_unique<Coordinator>(engine_, manager_,
                                         ex.inputs().devices, ex.inputs().jobs,
                                         ccfg);
}

LiveSession::~LiveSession() = default;

void LiveSession::start() { coord_->setup(); }

void LiveSession::advance_to(SimTime t) {
  t = std::min(t, horizon_);
  if (t > cursor_) cursor_ = t;
  engine_.run_until(cursor_);
}

std::optional<std::string> LiveSession::validate(
    const TrafficCommand& cmd) const {
  using Kind = TrafficCommand::Kind;
  switch (cmd.kind) {
    case Kind::kAdvance:
      if (cmd.target < cursor_) {
        return "advance target " + std::to_string(cmd.target) +
               " is behind the cursor " + std::to_string(cursor_);
      }
      return std::nullopt;
    case Kind::kCheckin:
    case Kind::kCheckout:
    case Kind::kRespond:
      if (cmd.dev >= num_devices_) {
        return "device " + std::to_string(cmd.dev) +
               " out of range (fleet size " + std::to_string(num_devices_) +
               ")";
      }
      return std::nullopt;
    case Kind::kAdmit:
      if (!open_loop_) {
        return "admit requires an open-loop scenario (arrival= and mix=)";
      }
      return std::nullopt;
    case Kind::kSubmit:
    case Kind::kSnapshotNow:
      return std::nullopt;
  }
  return "unknown command kind";
}

bool LiveSession::apply(const TrafficCommand& cmd) {
  using Kind = TrafficCommand::Kind;
  if (cmd.kind == Kind::kAdvance) {
    advance_to(cmd.target);
    return true;
  }
  // Traffic lands at the cursor THROUGH the event queue, so its cascade
  // interleaves with same-time trace events in seq order — identically
  // when the journaled command is re-applied on replay.
  bool accepted = true;
  engine_.at(cursor_, [this, &cmd, &accepted] {
    switch (cmd.kind) {
      case Kind::kCheckin:
        accepted = coord_->external_checkin(cmd.dev, cmd.duration);
        break;
      case Kind::kCheckout:
        accepted = coord_->external_checkout(cmd.dev);
        break;
      case Kind::kSubmit:
        (void)coord_->external_submit(cmd.spec);
        break;
      case Kind::kAdmit:
        accepted = coord_->external_admit();
        break;
      case Kind::kRespond:
        accepted = coord_->external_response(cmd.dev);
        break;
      case Kind::kSnapshotNow:
        if (sink_ != nullptr) sink_->on_snapshot(coord_->capture_snapshot());
        break;
      case Kind::kAdvance:
        break;  // handled above
    }
  });
  engine_.run_until(cursor_);
  return accepted;
}

RunResult LiveSession::finish() {
  if (finished_) throw std::logic_error("LiveSession::finish called twice");
  finished_ = true;
  advance_to(horizon_);
  if (sink_ != nullptr) sink_->on_run_end(engine_.now());
  RunResult result = collect_results(*coord_, label_);
  result.assignment_matrix = matrix_.matrix();
  return result;
}

}  // namespace venn::api
