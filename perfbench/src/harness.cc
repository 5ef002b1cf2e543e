#include "harness.h"

#include <sys/resource.h>

#include <cstring>

namespace perfbench {

using cxl::telemetry::TraceBuffer;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

Digest& Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Add(bits);
}

Digest& Digest::Add(std::string_view s) {
  for (const char c : s) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ull;
  }
  return Add(static_cast<uint64_t>(s.size()));
}

Digest& Digest::Add(const cxl::Histogram& h) {
  Add(h.count()).Add(h.sum()).Add(h.min()).Add(h.max());
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    Add(h.ValueAtQuantile(q));
  }
  return *this;
}

double Fact(const std::vector<std::string>& labels, const std::vector<CellOutcome>& cells,
            std::string_view label, const char* name) {
  for (size_t i = 0; i < labels.size() && i < cells.size(); ++i) {
    if (labels[i] == label) {
      const auto it = cells[i].facts.find(name);
      return it == cells[i].facts.end() ? kNaN : it->second;
    }
  }
  return kNaN;
}

Probe::Probe(int cell, TraceBuffer* trace, Clock::time_point origin)
    : cell_(cell), trace_(trace), origin_(origin) {
  if (trace_ != nullptr) {
    track_ = trace_->Track("host-time");
  }
}

Probe::Scope::Scope(Probe& probe, Phase phase, std::string_view metric, const char* span)
    : probe_(probe), phase_(phase), metric_(metric), span_(span), id_(probe.next_id_++),
      parent_(probe.open_.empty() ? PhaseSpan(phase) : probe.open_.back()),
      start_(Clock::now()) {
  probe_.open_.push_back(id_);
}

Probe::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  probe_.open_.pop_back();
  const int p = static_cast<int>(phase_);
  // Nested calls are already inside their parent's interval.
  if (probe_.open_.empty()) {
    probe_.phase_s_[p] += Seconds(end - start_);
    if (!probe_.phase_seen_[p]) {
      probe_.phase_first_[p] = start_;
      probe_.phase_seen_[p] = true;
    }
    probe_.phase_last_[p] = end;
  }
  if (!metric_.empty()) {
    probe_.Add(metric_, Seconds(end - start_));
  }
  probe_.Record(span_, id_, parent_, start_, end);
}

void Probe::Child(const char* span, Clock::time_point start, Clock::time_point end) {
  if (trace_ == nullptr) {
    return;
  }
  Record(span, next_id_++, open_.empty() ? PhaseSpan(Phase::kRun) : open_.back(), start, end);
}

void Probe::Add(std::string_view metric, double value) {
  auto it = layers_.find(metric);
  if (it == layers_.end()) {
    it = layers_.emplace(std::string(metric), 0.0).first;
  }
  it->second += value;
}

void Probe::Record(const char* span, int id, int parent, Clock::time_point start,
                   Clock::time_point end) {
  if (trace_ == nullptr) {
    return;
  }
  const double start_ms = Seconds(start - origin_) * 1e3;
  const double dur_ms = Seconds(end - start) * 1e3;
  trace_->Span(track_, span, start_ms, dur_ms,
               {{"cell", cell_}, {"id", id}, {"parent", parent}});
}

void Probe::Finish(const char* span, Clock::time_point start, Clock::time_point end) {
  static constexpr const char* kPhaseNames[] = {"setup", "run", "teardown"};
  for (int p = 0; p < 3; ++p) {
    if (phase_seen_[p]) {
      Record(kPhaseNames[p], PhaseSpan(static_cast<Phase>(p)), kCellSpan, phase_first_[p],
             phase_last_[p]);
    }
  }
  Record(span, kCellSpan, 0, start, end);
}

PassResult RunPass(Workload& workload, int jobs, bool traced, uint64_t seed) {
  PassResult pass;
  pass.jobs = jobs;
  pass.traced = traced;
  const std::vector<std::string>& labels = workload.labels();
  const Clock::time_point origin = Clock::now();
  const double cpu0 = ProcessCpuSeconds();

  TraceBuffer pass_trace;
  Probe pass_probe(-1, traced ? &pass_trace : nullptr, origin);
  pass.setup_digest = pass_probe.Time(Phase::kSetup, "", "workload.setup",
                                      [&] { return workload.SetUp(seed, pass_probe); });

  std::vector<size_t> indexes(labels.size());
  for (size_t i = 0; i < indexes.size(); ++i) {
    indexes[i] = i;
  }
  std::vector<TraceBuffer> cell_traces(traced ? labels.size() : 0);
  cxl::runner::SweepOptions options;
  options.jobs = jobs;
  options.base_seed = seed;
  options.cell_labels = labels;
  const auto run_cell = [&](const size_t& index,
                            uint64_t cell_seed) -> cxl::StatusOr<CellRecord> {
    Probe probe(static_cast<int>(index), traced ? &cell_traces[index] : nullptr, origin);
    const Clock::time_point start = Clock::now();
    CellRecord record;
    record.outcome = workload.RunCell(index, cell_seed, probe);
    const Clock::time_point end = Clock::now();
    probe.Finish("cell", start, end);
    record.setup_s = probe.phase_s(Phase::kSetup);
    record.total_s = Seconds(end - start);
    record.layers = probe.layers();
    return record;
  };
  auto records = pass_probe.Time(Phase::kRun, "", "sweep", [&] {
    return cxl::runner::RunSweep(indexes, run_cell, options, &pass.sweep);
  });
  // Cells report failures as oracle violations, so the sweep itself fails
  // only on a harness bug.
  if (!records.ok()) {
    CellRecord failed;
    failed.outcome.violations.push_back("sweep: " + records.status().ToString());
    pass.cells.assign(labels.size(), failed);
  } else {
    pass.cells = std::move(records).value();
  }

  pass.finish_digest = pass_probe.Time(Phase::kRun, "", "workload.finish",
                                       [&] { return workload.Finish(pass_probe); });
  std::vector<CellOutcome> outcomes;
  outcomes.reserve(pass.cells.size());
  for (const CellRecord& cell : pass.cells) {
    outcomes.push_back(cell.outcome);
  }
  pass.claims = workload.Claims(outcomes);
  const Clock::time_point end = Clock::now();
  pass_probe.Finish("pass", origin, end);
  pass.wall_s = Seconds(end - origin);
  pass.cpu_s = ProcessCpuSeconds() - cpu0;

  pass.setup_s = pass_probe.phase_s(Phase::kSetup);
  pass.layers = pass_probe.layers();
  for (const CellRecord& cell : pass.cells) {
    pass.setup_s += cell.setup_s;
    for (const auto& [name, value] : cell.layers) {
      pass.layers[name] += value;
    }
  }
  if (traced) {
    pass.trace.MergeFrom(pass_trace, "pass/");
    for (size_t i = 0; i < cell_traces.size(); ++i) {
      pass.trace.MergeFrom(cell_traces[i], labels[i] + "/");
    }
  }
  return pass;
}

}  // namespace perfbench
