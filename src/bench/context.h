// Unified bench context: the flag surface every bench_* binary shares.
//
// One FromArgs call parses every shared flag, so all benches accept the
// same contract (--jobs through runner::JobsFromArgs, the rest in one pass):
//
//   --jobs N | -jN | -j N     worker threads for sweeps (0 = auto)
//   --metrics-out FILE        metrics JSON (or CSV when FILE ends in .csv)
//   --trace-out FILE          Chrome trace-event JSON
//   --bench-json FILE         one-line machine-readable bench summary
//   --events-out FILE         structured event log, JSONL (cxl-events-v1):
//                             fault windows, promote/demote decisions,
//                             degradation responses, SLO violations,
//                             anomalies — tools/report/cxl_report input
//   --events-ring N           keep only the most recent N events per cell
//                             (flight-recorder mode; default: full log)
//   --tiering-policy NAME     promotion policy for experiments that run the
//                             tiering daemon (os::TieringPolicyNames():
//                             hot-page-selection, mru-balancing, tpp-like,
//                             adaptive-feedback); unset keeps each bench's
//                             default
//   --faults SPEC             fault plan: "storm" or an event list, e.g.
//                             "downtrain@2+3=8,poison=1e-4"
//                             (see fault::FaultPlan::Parse / docs/faults.md)
//   --fault-seed N            fault injector seed (default 1)
//   --fault-knob K=V          override a fault.* tunable (repeatable, applied
//                             in order through fault::SetFaultTunable)
//   --profile-epochs          print a per-phase wall-clock breakdown of the
//                             epoch hot path (solver/scan/telemetry/workload)
//                             to stderr at Write(); stdout is unchanged
//
// All flags are stripped from argv. With none given the context is inert:
// no telemetry sink, empty fault plan, stdout byte-identical to a bench
// that never parsed these flags.
//
// Usage in a bench main:
//
//   auto ctx = bench::Context::FromArgs(&argc, argv);
//   auto& bench_telemetry = ctx.telemetry();
//   ...
//   auto grid = runner::RunSweep(cells, fn, ctx.Sweep(seed), &stats);
//   ...
//   if (!ctx.Write("bench_fig5_keydb_ycsb")) return 1;
#ifndef CXL_EXPLORER_SRC_BENCH_CONTEXT_H_
#define CXL_EXPLORER_SRC_BENCH_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/experiment.h"
#include "src/fault/fault.h"
#include "src/runner/sweep.h"
#include "src/telemetry/bench_io.h"
#include "src/telemetry/epoch_profiler.h"

namespace cxl::bench {

class Context {
 public:
  // Parses and strips the shared bench flags, leaving every other argument
  // in argv in order. A flag missing its value, or a malformed --faults
  // spec, --fault-seed, --fault-knob, --events-ring or --tiering-policy,
  // prints the error to stderr and exits with status 2 — a bench must not
  // run a half-understood configuration.
  static Context FromArgs(int* argc, char** argv);

  // Worker threads requested via --jobs/-j (0 = auto).
  int jobs() const { return jobs_; }

  // Telemetry outputs (--metrics-out/--trace-out/--bench-json). Write() also
  // prints the --profile-epochs breakdown to stderr when enabled.
  telemetry::BenchTelemetry& telemetry() { return telemetry_; }
  telemetry::MetricRegistry* sink() { return telemetry_.sink(); }
  bool Write(const std::string& bench_name);

  // Epoch profiler (--profile-epochs), or nullptr when not requested.
  telemetry::EpochProfiler* profiler() { return profiler_.get(); }
  bool profile_epochs() const { return profiler_ != nullptr; }

  // Fault-injection surface (--faults/--fault-seed/--fault-knob).
  const fault::FaultPlan& faults() const { return faults_; }
  uint64_t fault_seed() const { return fault_seed_; }
  const fault::FaultTunables& fault_tunables() const { return fault_tunables_; }
  bool faults_enabled() const { return !faults_.empty(); }

  // --tiering-policy (validated against os::TieringPolicyNames(); empty
  // when the flag was not given).
  const std::string& tiering_policy() const { return tiering_policy_; }

  // Shared experiment environment carrying this context's jobs, sink and
  // fault plan (plus the caller's base seed) into a Run*Experiment call.
  core::ExperimentEnv Env(uint64_t seed = 1);

  // Sweep options pre-filled with the parsed --jobs value.
  runner::SweepOptions Sweep(uint64_t base_seed = 1) const;

 private:
  int jobs_ = 0;
  // Allocated when --profile-epochs is given (EpochProfiler holds atomics,
  // so it lives behind a pointer to keep Context movable).
  std::unique_ptr<telemetry::EpochProfiler> profiler_;
  telemetry::BenchTelemetry telemetry_;
  fault::FaultPlan faults_;
  uint64_t fault_seed_ = 1;
  fault::FaultTunables fault_tunables_;
  std::string tiering_policy_;
};

}  // namespace cxl::bench

#endif  // CXL_EXPLORER_SRC_BENCH_CONTEXT_H_
