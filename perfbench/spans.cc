// Span log, Chrome trace-event output, the scheduler timing decorator and
// small statistics helpers.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(std::min<std::size_t>(capacity, 1 << 16));
}

std::int64_t SpanLog::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::uint32_t SpanLog::add(const char* name, std::uint32_t parent,
                           Clock::time_point start, Clock::time_point end,
                           std::uint64_t request, int thread) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back({name, parent, ns(start), ns(end), request, thread});
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent,
                            Clock::time_point start) {
  return add(name, parent, start, start);
}

void SpanLog::finish(std::uint32_t id, Clock::time_point end) {
  if (id != 0) spans_[id - 1].end_ns = ns(end);
}

bool SpanLog::write_chrome_json(const std::string& path,
                                const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Complete ("X") events; ts/dur in microseconds as the format wants.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%u,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "],\"metadata\":%s}\n", metadata_json.c_str());
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

TimedScheduler::TimedScheduler(std::unique_ptr<venn::Scheduler> inner,
                               SpanLog* spans, const std::uint32_t* parent)
    : inner_(std::move(inner)), spans_(spans), parent_(parent) {}

Clock::time_point TimedScheduler::record(Method m, Clock::time_point t0) {
  const Clock::time_point t1 = Clock::now();
  stats_[m].calls += 1;
  stats_[m].seconds += seconds_between(t0, t1);
  return t1;
}

void TimedScheduler::on_device_checkin(const venn::DeviceView& dev,
                                       venn::SimTime now) {
  const auto t0 = Clock::now();
  inner_->on_device_checkin(dev, now);
  record(kCheckin, t0);
}

void TimedScheduler::on_queue_change(std::span<const venn::PendingJob> pending,
                                     venn::SimTime now) {
  const auto t0 = Clock::now();
  inner_->on_queue_change(pending, now);
  const auto t1 = record(kQueueChange, t0);
  if (spans_ != nullptr) {
    spans_->add("scheduler.queue_change", *parent_, t0, t1);
  }
}

void TimedScheduler::on_response(venn::JobId job, double capacity,
                                 double response_time, venn::SimTime now) {
  const auto t0 = Clock::now();
  inner_->on_response(job, capacity, response_time, now);
  record(kResponse, t0);
}

void TimedScheduler::on_round_complete(venn::JobId job,
                                       venn::SimTime sched_delay,
                                       venn::SimTime response_time,
                                       venn::SimTime now) {
  const auto t0 = Clock::now();
  inner_->on_round_complete(job, sched_delay, response_time, now);
  record(kRoundComplete, t0);
}

std::optional<std::size_t> TimedScheduler::assign(
    const venn::DeviceView& dev, std::span<const venn::PendingJob> candidates,
    venn::SimTime now) {
  const auto t0 = Clock::now();
  const auto pick = inner_->assign(dev, candidates, now);
  record(kAssign, t0);
  return pick;
}

double TimedScheduler::total_seconds() const {
  double s = 0.0;
  for (const Stat& st : stats_) s += st.seconds;
  return s;
}

}  // namespace perfbench
