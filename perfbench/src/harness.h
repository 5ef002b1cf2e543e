// Measurement harness of the repository benchmark.
//
// A workload is a fixed grid of simulator cells. One *pass* builds and runs
// every cell once through runner::RunSweep at a fixed thread count and
// records, from outside the simulator:
//   - host wall and CPU time of the whole pass;
//   - per cell, the host time of each timed call into a layer, split into
//     set-up (construction, before simulated time advances), run and
//     teardown;
//   - a digest of every simulated result, and the oracle verdicts;
//   - in traced passes, one span per timed call (Chrome trace events on a
//     host-time track of the cell's own TraceBuffer).
// The simulator itself is not instrumented: a layer that is only reached
// from inside another call is timed through a public decorator seam (see
// kv_cell.h).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/runner/sweep.h"
#include "src/telemetry/trace.h"
#include "src/util/histogram.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;  // cxl-lint: allow(CXL-D001) the benchmark measures host time

// Value of a claim whose inputs are missing (a failed cell): never in band.
inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double Seconds(Clock::duration d);

// Process user+sys CPU seconds (all threads).
double ProcessCpuSeconds();

// Peak resident set size of the process, MiB.
double PeakRssMiB();

// FNV-1a over the exact bit patterns of simulated results: two runs digest
// equal only if every hashed statistic is bit-identical.
class Digest {
 public:
  Digest& Add(uint64_t v);
  Digest& Add(double v);
  Digest& Add(std::string_view s);
  // Count, sum, extremes and the quantiles the figures print.
  Digest& Add(const cxl::Histogram& h);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

enum class Phase { kSetup = 0, kRun = 1, kTeardown = 2 };

// Host-time probe of one cell (or of a pass's own set-up and finish work).
// Single-threaded: each sweep cell owns its probe.
class Probe {
 public:
  // `trace` is null in untraced passes. `cell` is the span attribute that
  // ties every span to its cell (-1 for pass-level work).
  Probe(int cell, cxl::telemetry::TraceBuffer* trace, Clock::time_point origin);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool traced() const { return trace_ != nullptr; }

  // Runs fn() and charges its host time to `phase` and, unless `metric` is
  // empty, to that per-layer metric. Traced probes record a span named
  // `span`, child of the innermost open Time() call or else of the phase.
  template <typename Fn>
  decltype(auto) Time(Phase phase, std::string_view metric, const char* span, Fn&& fn) {
    const Scope scope(*this, phase, metric, span);
    return fn();
  }

  // Records an interval timed by a decorator as a span under the innermost
  // open Time() call (no phase or metric accounting).
  void Child(const char* span, Clock::time_point start, Clock::time_point end);

  // Adds to a per-layer accumulator (seconds or counts).
  void Add(std::string_view metric, double value);

  // Emits the cell span and its set-up / run / teardown spans; call once,
  // after the last Time().
  void Finish(const char* span, Clock::time_point start, Clock::time_point end);

  double phase_s(Phase phase) const { return phase_s_[static_cast<int>(phase)]; }
  const std::map<std::string, double, std::less<>>& layers() const { return layers_; }

 private:
  class Scope {
   public:
    Scope(Probe& probe, Phase phase, std::string_view metric, const char* span);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe& probe_;
    Phase phase_;
    std::string_view metric_;
    const char* span_;
    int id_;
    int parent_;
    Clock::time_point start_;
  };

  // Span ids: 1 = cell, 2..4 = phases, 5.. = timed calls.
  static constexpr int kCellSpan = 1;
  static int PhaseSpan(Phase phase) { return 2 + static_cast<int>(phase); }
  void Record(const char* span, int id, int parent, Clock::time_point start,
              Clock::time_point end);

  int cell_;
  cxl::telemetry::TraceBuffer* trace_;
  cxl::telemetry::TraceBuffer::TrackId track_ = 0;
  Clock::time_point origin_;
  double phase_s_[3] = {0.0, 0.0, 0.0};
  // First start / last end of the timed calls in each phase (the phase
  // span's extent).
  Clock::time_point phase_first_[3];
  Clock::time_point phase_last_[3];
  bool phase_seen_[3] = {false, false, false};
  std::vector<int> open_;  // Ids of the open Time() spans, innermost last.
  int next_id_ = 5;
  std::map<std::string, double, std::less<>> layers_;
};

// What one cell reports back besides its host times.
struct CellOutcome {
  uint64_t digest = 0;
  // Oracle failures; empty when the cell passed every check.
  std::vector<std::string> violations;
  // Simulated quantities the workload's claims read, by name.
  std::map<std::string, double> facts;
};

// The fact `name` of the cell labelled `label`, or kNaN when the cell or the
// fact is missing (a failed cell).
double Fact(const std::vector<std::string>& labels, const std::vector<CellOutcome>& cells,
            std::string_view label, const char* name);

// One paper claim or CHECK verdict, evaluated on a pass's cells.
struct Claim {
  std::string id;
  std::string band;  // Human-readable band, e.g. "1.2-1.5x".
  double value = 0.0;
  bool in_band = false;
  // Non-empty: a documented deviation from the paper. It still counts as
  // off band; it does not make the run incorrect.
  std::string known_deviation;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const std::vector<std::string>& labels() const = 0;

  // Per-pass work before the sweep (charged to set-up), seeded from the
  // pass seed. Returns a digest of its simulated results, or 0 when it
  // computes none.
  virtual uint64_t SetUp(uint64_t /*seed*/, Probe& /*probe*/) { return 0; }

  // Builds, runs and tears down cell `index`. Called concurrently for
  // distinct indexes.
  virtual CellOutcome RunCell(size_t index, uint64_t seed, Probe& probe) = 0;

  // Per-pass work after the sweep, in cell order. Returns a digest or 0.
  virtual uint64_t Finish(Probe& /*probe*/) { return 0; }

  // Claims measured by this workload, from the pass's cells in label order.
  virtual std::vector<Claim> Claims(const std::vector<CellOutcome>& cells) const = 0;
};

std::unique_ptr<Workload> MakeKvYcsb();
std::unique_ptr<Workload> MakeTieringStream();
std::unique_ptr<Workload> MakePoolFleet();

struct CellRecord {
  CellOutcome outcome;
  double setup_s = 0.0;  // The cell's set-up phase.
  double total_s = 0.0;  // Whole cell, untimed glue included.
  std::map<std::string, double, std::less<>> layers;
};

struct PassResult {
  int jobs = 0;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;  // Pass set-up plus every cell's set-up phase.
  uint64_t setup_digest = 0;
  uint64_t finish_digest = 0;
  cxl::runner::SweepStats sweep;
  std::vector<CellRecord> cells;  // Label order.
  // Per-layer accumulators summed over the pass's cells and its own work.
  std::map<std::string, double, std::less<>> layers;
  std::vector<Claim> claims;
  cxl::telemetry::TraceBuffer trace;  // Traced passes only.
};

// Runs one pass of `workload`. Cell seeds derive from `seed` exactly as a
// sweep with that base seed assigns them.
PassResult RunPass(Workload& workload, int jobs, bool traced, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
