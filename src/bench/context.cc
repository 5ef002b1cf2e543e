#include "src/bench/context.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "src/os/policy_registry.h"

namespace cxl::bench {

namespace {

// Matches `--flag=VALUE` or `--flag VALUE`; advances *i past a consumed
// separate value. Returns true when `out` was filled. (Same contract as the
// parsers in runner::JobsFromArgs / telemetry::BenchTelemetry.)
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
    if (*i + 1 < argc) {
      *out = argv[++*i];
    }
    return true;
  }
  return false;
}

[[noreturn]] void DieUsage(const std::string& message) {
  std::cerr << "bench: " << message << "\n";
  std::exit(2);
}

}  // namespace

Context Context::FromArgs(int* argc, char** argv) {
  Context ctx;
  fault::DeclareFaultKnobs(ctx.knobs_);

  std::string faults_spec;
  std::string fault_seed_str;
  std::vector<std::string> knob_args;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--profile-epochs") == 0) {
      if (ctx.profiler_ == nullptr) {
        ctx.profiler_ = std::make_unique<telemetry::EpochProfiler>();
      }
      continue;
    }
    if (TakeFlag("--faults", &i, *argc, argv, &value)) {
      faults_spec = value;
      continue;
    }
    if (TakeFlag("--fault-seed", &i, *argc, argv, &value)) {
      fault_seed_str = value;
      continue;
    }
    if (TakeFlag("--fault-knob", &i, *argc, argv, &value)) {
      knob_args.push_back(value);
      continue;
    }
    if (TakeFlag("--tiering-policy", &i, *argc, argv, &value)) {
      ctx.tiering_policy_ = value;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;

  // The jobs and telemetry parsers strip their own flags from the compacted
  // argv; order does not matter (they skip unrelated arguments).
  ctx.jobs_ = runner::JobsFromArgs(argc, argv);
  ctx.telemetry_ = telemetry::BenchTelemetry::FromArgs(argc, argv);

  if (!faults_spec.empty()) {
    auto plan = fault::FaultPlan::Parse(faults_spec);
    if (!plan.ok()) {
      DieUsage("bad --faults spec: " + plan.status().message());
    }
    ctx.faults_ = std::move(plan).value();
  }
  if (!fault_seed_str.empty()) {
    uint64_t seed = 0;
    const char* begin = fault_seed_str.data();
    const char* end = begin + fault_seed_str.size();
    const auto [ptr, ec] = std::from_chars(begin, end, seed);
    if (ec != std::errc() || ptr != end) {
      DieUsage("bad --fault-seed value: " + fault_seed_str);
    }
    ctx.fault_seed_ = seed;
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
    const Status set = ctx.knobs_.Set(key, value);
    if (!set.ok()) {
      DieUsage("unknown fault knob \"" + key + "\" (see fault::DeclareFaultKnobs)");
    }
  }
  auto tunables = fault::FaultTunablesFromKnobs(ctx.knobs_);
  if (!tunables.ok()) {
    DieUsage("bad --fault-knob: " + tunables.status().message());
  }
  ctx.fault_tunables_ = std::move(tunables).value();
  if (!ctx.tiering_policy_.empty() &&
      !os::PolicyRegistry::BuiltIns().Has(ctx.tiering_policy_)) {
    std::string known;
    for (const auto& name : os::PolicyRegistry::BuiltIns().Names()) {
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
