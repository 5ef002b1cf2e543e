#include "src/bench/context.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "src/os/policy_registry.h"

namespace cxl::bench {

namespace {

[[noreturn]] void DieUsage(const std::string& message) {
  std::cerr << "bench: " << message << "\n";
  std::exit(2);
}

// Matches `--flag=VALUE` or `--flag VALUE`; advances *i past a consumed
// separate value. Returns true when `out` was filled. A `--flag` with no
// argument after it exits 2, as a missing --jobs value does.
bool TakeFlag(const char* flag, int* i, int argc, char** argv, std::string* out) {
  const char* arg = argv[*i];
  const size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) {
    return false;
  }
  if (arg[flag_len] == '=') {
    *out = arg + flag_len + 1;
    return true;
  }
  if (arg[flag_len] == '\0') {
    if (*i + 1 >= argc) {
      DieUsage(std::string("missing value for ") + flag);
    }
    *out = argv[++*i];
    return true;
  }
  return false;
}

// Parses a whole decimal count (no sign) or exits 2 naming `flag`.
uint64_t ParseCountOrDie(const char* flag, const std::string& text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    DieUsage(std::string("bad ") + flag + " value: " + text);
  }
  return value;
}

}  // namespace

Context Context::FromArgs(int* argc, char** argv) {
  Context ctx;
  telemetry::BenchOutputs outputs;
  std::string faults_spec;
  std::string fault_seed_str;
  std::string events_ring_str;
  std::vector<std::string> knob_args;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string knob;
    if (std::strcmp(argv[i], "--profile-epochs") == 0) {
      if (ctx.profiler_ == nullptr) {
        ctx.profiler_ = std::make_unique<telemetry::EpochProfiler>();
      }
      continue;
    }
    if (TakeFlag("--fault-knob", &i, *argc, argv, &knob)) {
      knob_args.push_back(std::move(knob));
      continue;
    }
    if (TakeFlag("--faults", &i, *argc, argv, &faults_spec) ||
        TakeFlag("--fault-seed", &i, *argc, argv, &fault_seed_str) ||
        TakeFlag("--tiering-policy", &i, *argc, argv, &ctx.tiering_policy_) ||
        TakeFlag("--metrics-out", &i, *argc, argv, &outputs.metrics_path) ||
        TakeFlag("--trace-out", &i, *argc, argv, &outputs.trace_path) ||
        TakeFlag("--bench-json", &i, *argc, argv, &outputs.bench_json_path) ||
        TakeFlag("--events-out", &i, *argc, argv, &outputs.events_path) ||
        TakeFlag("--events-ring", &i, *argc, argv, &events_ring_str)) {
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  // --jobs keeps its own grammar (it also accepts -j N and -jN).
  ctx.jobs_ = runner::JobsFromArgs(argc, argv);

  if (!faults_spec.empty()) {
    auto plan = fault::FaultPlan::Parse(faults_spec);
    if (!plan.ok()) {
      DieUsage("bad --faults spec: " + plan.status().message());
    }
    ctx.faults_ = std::move(plan).value();
  }
  if (!fault_seed_str.empty()) {
    ctx.fault_seed_ = ParseCountOrDie("--fault-seed", fault_seed_str);
  }
  for (const std::string& kv : knob_args) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      DieUsage("bad --fault-knob (want KEY=VALUE): " + kv);
    }
    const std::string key = kv.substr(0, eq);
    const std::string value_str = kv.substr(eq + 1);
    char* value_end = nullptr;
    const double value = std::strtod(value_str.c_str(), &value_end);
    if (value_end == value_str.c_str() || *value_end != '\0') {
      DieUsage("bad --fault-knob value: " + kv);
    }
    const Status set = fault::SetFaultTunable(&ctx.fault_tunables_, key, value);
    if (set.code() == StatusCode::kNotFound) {
      DieUsage("unknown fault knob \"" + key + "\" (see fault::FaultTunables)");
    }
    if (!set.ok()) {
      DieUsage("bad --fault-knob: " + set.message());
    }
  }
  if (!events_ring_str.empty()) {
    outputs.events_ring = ParseCountOrDie("--events-ring", events_ring_str);
  }
  ctx.telemetry_ = telemetry::BenchTelemetry(std::move(outputs));
  const std::vector<std::string> policies = os::TieringPolicyNames();
  if (!ctx.tiering_policy_.empty() &&
      std::find(policies.begin(), policies.end(), ctx.tiering_policy_) == policies.end()) {
    std::string known;
    for (const auto& name : policies) {
      known += known.empty() ? name : ", " + name;
    }
    DieUsage("unknown --tiering-policy \"" + ctx.tiering_policy_ + "\" (known: " + known + ")");
  }
  return ctx;
}

core::ExperimentEnv Context::Env(uint64_t seed) {
  core::ExperimentEnv env;
  env.seed = seed;
  env.jobs = jobs_;
  env.telemetry = sink();
  env.profiler = profiler_.get();
  env.faults = faults_;
  env.fault_seed = fault_seed_;
  env.fault_tunables = fault_tunables_;
  env.tiering_policy = tiering_policy_;
  return env;
}

bool Context::Write(const std::string& bench_name) {
  if (profiler_ != nullptr) {
    // Stderr so table output on stdout stays byte-identical with and
    // without the flag (same contract as SweepStats::Summary).
    std::cerr << bench_name << " " << profiler_->Report(profiler_->WallMsSinceBirth()) << "\n";
  }
  return telemetry_.Write(bench_name);
}

runner::SweepOptions Context::Sweep(uint64_t base_seed) const {
  runner::SweepOptions options;
  options.jobs = jobs_;
  options.base_seed = base_seed;
  return options;
}

}  // namespace cxl::bench
