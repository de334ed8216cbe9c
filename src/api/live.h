// LiveSession: an Experiment run opened up for external pacing.
//
// Batch runs (Experiment::run*) construct the engine/manager/coordinator
// stack, call Coordinator::run() and collect results in one breath. The
// live service (src/service/) and the replay driver for journals carrying
// external commands need the same stack held OPEN: schedule the trace,
// then advance the sim clock in steps and interleave external traffic
// commands at the current cursor. LiveSession is that shape — it mirrors
// Experiment::run_with_sink's construction order EXACTLY (run_with_sink
// itself delegates here, so the two cannot drift) and exposes:
//
//   start()        — observers + Coordinator::setup(), no engine run
//   advance_to(t)  — run the engine to sim time t; cursor := t
//   apply(cmd)     — apply a TrafficCommand at the cursor
//   finish()       — advance to the horizon, close the sink, collect
//
// Determinism contract: the final state (and every journaled event) is a
// pure function of the accepted (cursor, command) sequence. The engine's
// clock trails the cursor (run_until stops at the last executed event), so
// commands are scheduled at the cursor through the event queue — their
// cascades interleave with pending trace events in seq order, identically
// on the live and the replay side.
//
// TrafficCommand is the canonical form of one external event. Its text
// line (canonical()) is what the daemon journals in kExternal records and
// what the wire codec parses — parse(canonical(cmd)) == cmd, which the
// codec property tests pin.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "api/builder.h"
#include "core/coordinator.h"
#include "core/observer.h"
#include "core/resource_manager.h"
#include "sim/engine.h"
#include "trace/job_trace.h"

namespace venn::api {

// One external traffic command, in canonical form. Doubles round-trip
// through the text form as shortest-exact decimal (%.17g), so canonical()
// is a byte-stable key for the journal.
struct TrafficCommand {
  enum class Kind {
    kAdvance,      // advance <t>          — run the sim clock to t
    kCheckin,      // checkin <dev> <dur>  — grant an external session
    kCheckout,     // checkout <dev>       — end session / retire from pool
    kSubmit,       // submit <rounds> <demand> <cat> <task_s> <cv> <dl_s>
    kAdmit,        // admit                — one open-loop mix admission
    kRespond,      // respond <dev>        — deliver in-flight result early
    kSnapshotNow,  // snapshot-now         — capture + persist a snapshot
  };

  Kind kind = Kind::kAdvance;
  std::size_t dev = 0;       // checkin / checkout / respond
  double duration = 0.0;     // checkin session length (s)
  double target = 0.0;       // advance target (absolute sim seconds)
  trace::JobSpec spec{};     // submit

  [[nodiscard]] std::string canonical() const;

  // Parses a canonical (or hand-typed) command line. Throws
  // std::invalid_argument naming the offending token on anything
  // malformed; unknown verbs are NOT traffic commands (the service codec
  // routes those to the admin surface or rejects them).
  [[nodiscard]] static TrafficCommand parse(const std::string& line);

  // True if `verb` (the first token of a line) names a traffic command.
  [[nodiscard]] static bool is_traffic_verb(const std::string& verb);
};

class LiveSession {
 public:
  // Mirrors run_with_sink: engine seeded from the experiment's "engine"
  // stream, matrix + user observers installed in order. `sink` may be
  // null (dry runs). The experiment, observers and sink must outlive the
  // session.
  LiveSession(const Experiment& ex, std::unique_ptr<Scheduler> scheduler,
              std::string label, journal::JournalSink* sink);
  ~LiveSession();

  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  // Schedules the whole trace (Coordinator::setup). Call exactly once.
  void start();

  // Runs the engine to min(t, horizon) and moves the cursor there. The
  // cursor never moves backward.
  void advance_to(SimTime t);

  // Validates a command against static experiment facts (device range,
  // open-loop availability, monotone advance). Returns an error message,
  // or nullopt when the command is applicable. The daemon rejects invalid
  // commands BEFORE journaling them; replay therefore never sees one.
  [[nodiscard]] std::optional<std::string> validate(
      const TrafficCommand& cmd) const;

  // Applies a command at the cursor. Returns true if it took effect,
  // false for a deterministic no-op (e.g. checkin of an online device) —
  // identical on the live and replay side. Commands run through the event
  // queue at the cursor time.
  bool apply(const TrafficCommand& cmd);

  // Advances to the horizon, closes the sink (on_run_end) and collects
  // results. Call at most once; the session is read-only afterwards.
  [[nodiscard]] RunResult finish();

  [[nodiscard]] SimTime cursor() const { return cursor_; }
  [[nodiscard]] SimTime horizon() const { return horizon_; }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] Coordinator& coordinator() { return *coord_; }
  [[nodiscard]] const Coordinator& coordinator() const { return *coord_; }
  [[nodiscard]] const ResourceManager& manager() const { return manager_; }

 private:
  std::string label_;
  journal::JournalSink* sink_;
  SimTime horizon_;
  SimTime cursor_ = 0.0;
  bool open_loop_;
  std::size_t num_devices_;
  bool finished_ = false;

  sim::Engine engine_;
  ResourceManager manager_;
  AssignmentMatrixObserver matrix_;
  std::unique_ptr<Coordinator> coord_;
};

}  // namespace venn::api
