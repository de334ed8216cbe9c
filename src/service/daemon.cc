#include "service/daemon.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "api/rebuild.h"
#include "api/registry.h"
#include "service/codec.h"
#include "service/dump.h"
#include "util/build_info.h"
#include "util/logging.h"

namespace venn::service {

namespace {

std::string write_text_file(const std::string& path,
                            const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  if (!content.empty() &&
      std::fwrite(content.data(), 1, content.size(), f) != content.size()) {
    std::fclose(f);
    throw std::runtime_error("short write to " + path);
  }
  std::fclose(f);
  return path;
}

}  // namespace

CoordinatorDaemon::CoordinatorDaemon(DaemonOptions opts) {
  if (opts.resume) {
    construct_resume(opts);
  } else {
    construct_fresh(opts);
  }
  VENN_INFO << "coordinatord " << (resumed_ ? "resumed" : "started") << ": "
            << build_info_line() << "; journal " << path_ << "; label "
            << label_ << "; seq " << seq_;
}

CoordinatorDaemon::~CoordinatorDaemon() = default;

void CoordinatorDaemon::construct_fresh(DaemonOptions& opts) {
  // Mirror Experiment::run's journaled entry point: same header, same
  // canonical path, same construction order — a daemon journal is replayed
  // by the same Experiment::replay that replays batch journals.
  ex_ = std::make_unique<api::Experiment>(
      opts.scenario, api::build_inputs(opts.scenario),
      std::vector<RunObserver*>{&recorder_});
  auto scheduler = api::PolicyRegistry::instance().create(
      opts.policy.name, opts.policy.params, ex_->stream_seed("scheduler"));
  label_ = scheduler->name();
  path_ = opts.journal_path.empty()
              ? api::journal_file_path(opts.scenario, label_)
              : opts.journal_path;

  journal::JournalHeader header;
  header.seed = opts.scenario.seed;
  header.scenario_kv = opts.scenario.to_kv();
  header.policy_kv = opts.policy.to_kv();
  header.label = label_;
  header.inputs_digest = api::inputs_digest(ex_->inputs());

  const auto parent = std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  writer_ = std::make_unique<journal::JournalWriter>(path_, header);
  session_ = std::make_unique<api::LiveSession>(*ex_, std::move(scheduler),
                                                label_, writer_.get());
  session_->start();
  // Drain time-zero trace events before the first command can be
  // journaled: the tape-order invariant (events at the cursor precede the
  // kExternal accepted there) starts holding at t=0.
  session_->advance_to(0.0);
}

void CoordinatorDaemon::construct_resume(DaemonOptions& opts) {
  resumed_ = true;
  path_ = opts.journal_path;
  if (path_.empty()) {
    throw std::runtime_error("resume requires a journal path");
  }

  // Recover the valid prefix. A torn final stretch is the expected shape
  // of a crashed journal (the writer died mid-append), so the scan is
  // always tolerant here; strict verification still guards every recovered
  // byte below.
  journal::JournalScan scan;
  {
    const journal::JournalReader probe(path_, /*tolerate_torn_tail=*/true);
    scan = probe.scan();
  }
  if (scan.has_run_end) {
    throw std::runtime_error(
        "journal " + path_ +
        " records a completed run (kRunEnd footer); nothing to resume");
  }
  const auto file_size =
      static_cast<std::size_t>(std::filesystem::file_size(path_));
  if (scan.prefix_end < file_size) {
    VENN_INFO << "journal " << path_ << ": torn tail; truncating to the "
              << scan.prefix_end << "-byte recovered prefix (" << scan.records
              << " records, " << scan.commits << " commits, dropping "
              << (file_size - scan.prefix_end) << " bytes)";
    std::filesystem::resize_file(path_, scan.prefix_end);
  }

  reader_ = std::make_unique<journal::JournalReader>(
      path_, /*tolerate_torn_tail=*/true);
  api::RebuiltRun run =
      api::rebuild_from_header(reader_->header(), {&recorder_});
  label_ = reader_->header().label;
  auto scheduler = api::rebuilt_scheduler(run);
  ex_ = std::make_unique<api::Experiment>(std::move(run.experiment));

  if (scan.last_snapshot_commits) {
    snapshot_ = journal::read_snapshot_file(
        journal::snapshot_path(path_, *scan.last_snapshot_commits));
  }
  verifier_ = std::make_unique<journal::JournalVerifier>(
      *reader_, journal::JournalVerifier::Mode::kResume,
      snapshot_ ? &*snapshot_ : nullptr);
  writer_ = std::make_unique<journal::JournalWriter>(
      path_, journal::JournalWriter::AppendExisting{
                 scan.records, scan.commits, scan.snapshots});
  sink_ = std::make_unique<VerifyThenAppendSink>(verifier_.get(),
                                                 writer_.get());
  session_ = std::make_unique<api::LiveSession>(*ex_, std::move(scheduler),
                                                label_, sink_.get());

  // Byte-verified restore: re-execute the recovered prefix, re-applying
  // every journaled external command at its recorded cursor. Any drift
  // from the dead process throws here instead of corrupting the tail.
  session_->start();
  session_->advance_to(0.0);
  for (const journal::ExternalEvent& ext : scan.externals) {
    session_->advance_to(ext.time);
    verifier_->take_external(ext);
    session_->apply(api::TrafficCommand::parse(ext.command));
  }
  seq_ = scan.last_external_seq;
  recovered_seq_ = scan.last_external_seq;
}

std::string CoordinatorDaemon::dispatch(const std::string& line) {
  if (done_) return err_reply("daemon is shut down");
  if (const auto err = frame_error(line)) return err_reply(*err);
  const std::string verb = first_token(line);
  if (is_admin_verb(verb)) return dispatch_admin(verb);
  if (!api::TrafficCommand::is_traffic_verb(verb)) {
    return err_reply("unknown command \"" + verb + "\"");
  }
  api::TrafficCommand cmd;
  try {
    cmd = api::TrafficCommand::parse(line);
  } catch (const std::exception& e) {
    return err_reply(e.what());
  }
  if (const auto err = session_->validate(cmd)) return err_reply(*err);
  return accept_traffic(cmd);
}

std::string CoordinatorDaemon::accept_traffic(const api::TrafficCommand& cmd) {
  // Acceptance order is the durability contract: (1) the engine is already
  // drained to the cursor (every apply/advance leaves it so), (2) journal
  // the command and flush — ack-after-durable, (3) apply. A kill between
  // (2) and (3) re-applies the command on resume; a kill before (2) loses
  // a command the client never saw acked.
  const double at = session_->cursor();
  const std::uint64_t seq = seq_ + 1;
  writer_->append_external(at, seq, cmd.canonical());
  seq_ = seq;
  const bool took = session_->apply(cmd);
  return ok_reply(std::to_string(seq) + (took ? "" : " noop"));
}

std::string CoordinatorDaemon::dispatch_admin(const std::string& verb) {
  if (verb == "ping") return ok_reply("pong");
  if (verb == "version") return ok_reply(build_info_line());
  if (verb == "seq") return ok_reply(std::to_string(seq_));
  if (verb == "status") return ok_reply(status_json());
  if (verb == "drain") return drain();
  // shutdown: stop without finalizing. Unflushed events are discarded by
  // the writer (the crash model); the journal stays resumable.
  done_ = true;
  return ok_reply("shutting down");
}

std::string CoordinatorDaemon::drain() {
  // Clean exit: finish the run (horizon), append the kRunEnd footer and
  // write the deterministic result dump next to the journal — the artifact
  // the crash-recovery differential compares against an uninterrupted
  // in-process run.
  const RunResult result = session_->finish();
  const std::string out = write_text_file(result_path(),
                                          dump_run(result, &recorder_));
  done_ = true;
  return ok_reply("drained " + out);
}

std::string CoordinatorDaemon::status_json() const {
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                          std::chrono::steady_clock::now() - started_)
                          .count();
  const Coordinator& coord = session_->coordinator();
  const auto& p = coord.protocol_stats();
  std::string s = "{";
  s += "\"build\":\"" + json_escape(build_info_line()) + "\",";
  s += "\"label\":\"" + json_escape(label_) + "\",";
  s += "\"uptime_s\":" + std::to_string(uptime) + ",";
  s += "\"resumed\":" + std::string(resumed_ ? "true" : "false") + ",";
  s += "\"cursor\":" + fmt_double(session_->cursor()) + ",";
  s += "\"horizon\":" + fmt_double(session_->horizon()) + ",";
  s += "\"fleet\":" + std::to_string(coord.devices().size()) + ",";
  s += "\"idle\":" + std::to_string(coord.idle_pool_size()) + ",";
  s += "\"jobs\":" + std::to_string(coord.jobs().size()) + ",";
  s += "\"unfinished_jobs\":" + std::to_string(coord.unfinished_jobs()) + ",";
  s += "\"ext_submitted\":" + std::to_string(coord.external_submitted()) + ",";
  s += "\"protocol\":{";
  s += "\"commits\":" + std::to_string(p.commits) + ",";
  s += "\"responses\":" + std::to_string(p.responses) + ",";
  s += "\"wasted_responses\":" + std::to_string(p.wasted_responses) + ",";
  s += "\"stragglers_released\":" + std::to_string(p.stragglers_released);
  s += "},";
  s += "\"journal\":{";
  s += "\"path\":\"" + json_escape(path_) + "\",";
  s += "\"records\":" + std::to_string(writer_->records_written()) + ",";
  s += "\"commits\":" + std::to_string(writer_->commits_written()) + ",";
  s += "\"snapshots\":" + std::to_string(writer_->snapshots_written()) + ",";
  s += "\"last_seq\":" + std::to_string(seq_) + ",";
  s += "\"recovered_seq\":" + std::to_string(recovered_seq_);
  s += "}}";
  return s;
}

}  // namespace venn::service
