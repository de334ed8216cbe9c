#include "service/inspect.h"

#include <filesystem>
#include <stdexcept>

#include "api/live.h"
#include "api/rebuild.h"
#include "core/coordinator.h"
#include "core/elig_index.h"
#include "journal/reader.h"
#include "journal/snapshot.h"
#include "journal/verifier.h"
#include "service/dump.h"

namespace venn::service {

namespace {

void dump_state(std::string& out, const std::string& path,
                const std::string& label, std::uint64_t commit,
                api::LiveSession& live) {
  const Coordinator& coord = live.coordinator();
  out += "journal " + path + "\n";
  out += "label " + label + "\n";
  out += "commit " + std::to_string(commit) + "\n";
  out += "clock " + fmt_double(live.engine().now()) + "\n";

  // Per-range counts over the scenario's shards= value; the "segments"
  // label is part of the dump's stable format.
  out += "idle-pool " + std::to_string(coord.idle_pool_size()) + " segments";
  for (const std::size_t n : coord.idle_range_counts()) {
    out += ' ' + std::to_string(n);
  }
  out += '\n';

  out += "jobs " + std::to_string(coord.jobs().size()) + " unfinished " +
         std::to_string(coord.unfinished_jobs()) + " ext-submitted " +
         std::to_string(coord.external_submitted()) + "\n";
  for (const auto& job : coord.jobs()) {
    out += "  job " + std::to_string(job->id().value()) + " cat=" +
           std::to_string(static_cast<int>(job->spec().category)) +
           " rounds=" + std::to_string(job->completed_rounds()) + "/" +
           std::to_string(job->spec().rounds) +
           " aborts=" + std::to_string(job->total_aborts());
    if (job->request()) {
      const RoundRequest& r = *job->request();
      out += " open-request rid=" + std::to_string(r.id.value()) +
             " round=" + std::to_string(r.round) +
             " demand=" + std::to_string(r.demand) +
             " assigned=" + std::to_string(r.assigned) +
             " responses=" + std::to_string(r.responses) + "/" +
             std::to_string(r.needed_responses()) + " state=" +
             std::to_string(static_cast<int>(r.state));
    }
    out += '\n';
  }

  const auto& p = coord.protocol_stats();
  out += "protocol commits=" + std::to_string(p.commits) +
         " responses=" + std::to_string(p.responses) +
         " released=" + std::to_string(p.stragglers_released) +
         " wasted=" + std::to_string(p.wasted_responses) + "\n";

  const EligibilityIndex& index = coord.index();
  out += "eligibility-index requirements=" +
         std::to_string(index.num_requirements()) + " devices=" +
         std::to_string(index.num_devices()) + " eligible";
  for (std::size_t g = 0; g < index.num_requirements(); ++g) {
    out += ' ' + std::to_string(index.eligible_count(g));
  }
  out += '\n';
}

}  // namespace

InspectReport inspect_journal(const std::string& journal_path,
                              const InspectOptions& opts) {
  journal::JournalReader reader(journal_path, /*tolerate_torn_tail=*/true);
  const journal::JournalScan scan = reader.scan();
  if (scan.commits == 0) {
    throw std::runtime_error("journal " + journal_path +
                             " has no commits to seek to");
  }
  const std::uint64_t target =
      opts.seek_commit == 0 ? scan.commits : opts.seek_commit;
  if (target > scan.commits) {
    throw std::runtime_error(
        "cannot seek to commit " + std::to_string(target) + ": journal has "
        "only " + std::to_string(scan.commits) + " commits");
  }

  api::RebuiltRun run = api::rebuild_from_header(reader.header());
  journal::JournalVerifier verifier(reader,
                                    journal::JournalVerifier::Mode::kResume);
  verifier.set_seek_commits(target);
  api::LiveSession live(run.experiment, api::rebuilt_scheduler(run),
                        reader.header().label, &verifier);

  InspectReport report;
  report.commit = target;
  bool reached = false;
  try {
    live.start();
    for (const journal::ExternalEvent& ext : scan.externals) {
      live.advance_to(ext.time);
      verifier.take_external(ext);
      live.apply(api::TrafficCommand::parse(ext.command));
    }
    live.advance_to(live.horizon());
  } catch (const journal::SeekReached&) {
    reached = true;
  }
  if (!reached) {
    throw std::runtime_error(
        "seek to commit " + std::to_string(target) +
        " never triggered during replay (journal/verifier disagree)");
  }

  dump_state(report.text, journal_path, reader.header().label, target, live);

  // Zero-drift check: when the journal stored a snapshot at exactly this
  // commit, the replayed coordinator must reproduce it byte for byte.
  const std::string snap_path = journal::snapshot_path(journal_path, target);
  if (std::filesystem::exists(snap_path)) {
    const journal::StateSnapshot stored =
        journal::read_snapshot_file(snap_path);
    const journal::StateSnapshot captured =
        live.coordinator().capture_snapshot();
    if (stored.clock != captured.clock) {
      // A snapshot-now issued later within the same commit count overwrote
      // the cadence file; the stored state is from that later instant, not
      // the commit point — comparable only by clock, so just say so.
      report.text += "snapshot at commit " + std::to_string(target) +
                     ": stored at a later instant (clock " +
                     fmt_double(stored.clock) + " vs " +
                     fmt_double(captured.clock) + "); comparison skipped\n";
    } else {
      if (const auto mismatch =
              journal::describe_mismatch(stored, captured)) {
        throw std::runtime_error("snapshot drift at commit " +
                                 std::to_string(target) + ": " + *mismatch);
      }
      report.snapshot_compared = true;
      report.text += "snapshot at commit " + std::to_string(target) +
                     ": verified byte-identical (" + snap_path + ")\n";
    }
  } else {
    report.text += "snapshot at commit " + std::to_string(target) +
                   ": none stored\n";
  }
  return report;
}

}  // namespace venn::service
