// perfbench: the repository benchmark binary.
//
//   perfbench --workload kv-ycsb|tiering-stream|pool-fleet --seed N
//             --seconds S --trace 0|1 [--reference FILE] [--trace-out FILE]
//
// One invocation runs a one-thread reference pass and a warm-up pass, then
// timed passes at kJobs sweep threads until --seconds have passed (at least
// three).
// Every pass must reproduce the reference pass's cell digests. With
// --trace 1, untraced and traced passes alternate: end-to-end numbers come
// from the untraced ones, per-layer numbers from the traced ones. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). See perfbench/README.md for the metric catalogue.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"

namespace perfbench {
namespace {

// Seed the checked-in reference digests were recorded with.
constexpr uint64_t kReferenceSeed = 1;
// Sweep threads of every timed pass, fixed so that host times compare
// across runs and machines.
constexpr int kJobs = 4;
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},         {"cpu_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},  {"claims_in_band", "count"}, {"ok_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"runner.serial_s", "s"},
    {"runner.slowest_cell_s", "s"},
    {"runner.cell_s_p50", "s"},
    {"runner.parallel_eff", "ratio"},
    {"setup.platform_s", "s"},
    {"os.alloc_create_s", "s"},
    {"os.alloc_free_s", "s"},
    {"os.pages_allocated", "count"},
    {"workload.next_calls", "count"},
    {"workload.next_s", "s"},
    {"kv.run_s", "s"},
    {"kv.run_self_s", "s"},
    {"kv.sim_ops", "count"},
    {"kv.epochs", "count"},
    {"kv.host_ns_per_sim_op", "ns/op"},
    {"kv.solver_s", "s"},
    {"tiering.ticks", "count"},
    {"tiering.skipped_ticks", "count"},
    {"tiering.decide_s", "s"},
    {"tiering.tick_body_s", "s"},
    {"tiering.candidates", "count"},
    {"tiering.promoted_pages", "count"},
    {"tiering.demoted_pages", "count"},
    {"tiering.migrated_gb", "GB"},
    {"tiering.recent_promoted", "count"},
    {"tiering.reaccess_ratio", "ratio"},
    {"tiering.ping_pong_pages", "count"},
    {"spark.ctor_s", "s"},
    {"spark.query_s.hot_promote", "s"},
    {"spark.query_s.static", "s"},
    {"spark.queries", "count"},
    {"spark.migrated_gb", "GB"},
    {"spark.spilled_gb", "GB"},
    {"fault.run_ratio", "ratio"},
    {"fault.reexecuted_partitions", "count"},
    {"fault.shed_ops", "count"},
    {"pool.economics_s", "s"},
    {"pool.rack_ctor_s", "s"},
    {"fleet.ctor_s", "s"},
    {"fleet.run_s", "s"},
    {"fleet.steps", "count"},
    {"pool.grow_requests", "count"},
    {"pool.spill_grants", "count"},
    {"pool.balloon_reclaims", "count"},
    {"pool.grows_denied", "count"},
    {"fleet.reshard_events", "count"},
    {"telemetry.events", "count"},
    {"telemetry.merge_s", "s"},
    {"telemetry.export_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string reference;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0 && args->seconds <= 600.0)) {
        *error = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
      if (args->trace < 0) {
        *error = "--trace must be 0 or 1";
        return false;
      }
    } else if (flag == "--reference") {
      args->reference = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "malformed value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty() || !have_seed || args->seconds <= 0.0 || args->trace < 0) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "kv-ycsb") {
    return MakeKvYcsb();
  }
  if (name == "tiering-stream") {
    return MakeTieringStream();
  }
  if (name == "pool-fleet") {
    return MakePoolFleet();
  }
  return nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Hex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// The per-layer metrics of one traced pass.
std::map<std::string, double> LayerMetrics(const PassResult& pass,
                                           const std::vector<std::string>& labels) {
  const auto layer = [&pass](const char* name) {
    const auto it = pass.layers.find(name);
    return it == pass.layers.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> m;
  for (const MetricDef& def : kPerLayer) {
    m[def.name] = layer(def.name);
  }
  std::vector<double> cell_s;
  for (const auto& record : pass.sweep.cell_records) {
    cell_s.push_back(record.ms * 1e-3);
  }
  m["runner.serial_s"] = pass.sweep.serial_ms * 1e-3;
  m["runner.slowest_cell_s"] = pass.sweep.max_cell_ms * 1e-3;
  m["runner.cell_s_p50"] = Median(cell_s);
  m["runner.parallel_eff"] =
      pass.sweep.wall_ms > 0.0 ? pass.sweep.serial_ms / (pass.sweep.wall_ms * pass.jobs) : 0.0;
  // KvServerSim::Run minus the op-source and daemon time measured inside it.
  m["kv.run_self_s"] = layer("kv.run_s") - layer("workload.next_s") - layer("tiering.decide_s") -
                       layer("tiering.tick_body_s");
  const double ops = layer("kv.sim_ops");
  m["kv.host_ns_per_sim_op"] = ops > 0.0 ? layer("kv.run_s") / ops * 1e9 : 0.0;
  const double recent = layer("tiering.recent_promoted");
  m["tiering.reaccess_ratio"] = recent > 0.0 ? layer("tiering.recent_promoted_hot") / recent : 0.0;
  // Host time of each faulted cell over its healthy twin's.
  std::vector<double> ratios;
  for (size_t i = 0; i < labels.size(); ++i) {
    const size_t at = labels[i].find("/downtrain");
    if (at == std::string::npos) {
      continue;
    }
    const std::string twin = labels[i].substr(0, at) + "/healthy" + labels[i].substr(at + 10);
    const auto it = std::find(labels.begin(), labels.end(), twin);
    if (it != labels.end()) {
      const double healthy = pass.cells[static_cast<size_t>(it - labels.begin())].total_s;
      if (healthy > 0.0) {
        ratios.push_back(pass.cells[i].total_s / healthy);
      }
    }
  }
  m["fault.run_ratio"] = Median(ratios);
  return m;
}

// Total and self time per span name. A span's self time is its duration
// minus the durations of its direct children (spans whose "parent" is its
// "id" within the same cell); children nest inside their parent.
void PrintSelfTimes(const cxl::telemetry::TraceBuffer& trace) {
  const auto arg = [](const cxl::telemetry::TraceBuffer::Event& e, const char* key) {
    for (const auto& [k, v] : e.args) {
      if (k == key) {
        return static_cast<int>(v);
      }
    }
    return 0;
  };
  std::map<std::pair<int, int>, double> child_ms;
  for (const auto& e : trace.events()) {
    child_ms[{arg(e, "cell"), arg(e, "parent")}] += e.dur_ms;
  }
  struct Agg {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const auto& e : trace.events()) {
    Agg& agg = by_name[e.name];
    ++agg.count;
    agg.total_ms += e.dur_ms;
    const auto it = child_ms.find({arg(e, "cell"), arg(e, "id")});
    agg.self_ms += e.dur_ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  std::cout << "\nspan self time (last traced pass, summed over cells)\n";
  std::cout << std::left << std::setw(24) << "span" << std::right << std::setw(8) << "count"
            << std::setw(14) << "total ms" << std::setw(14) << "self ms" << "\n";
  for (const auto& [name, agg] : by_name) {
    std::cout << std::left << std::setw(24) << name << std::right << std::setw(8) << agg.count
              << std::fixed << std::setprecision(1) << std::setw(14) << agg.total_ms
              << std::setw(14) << agg.self_ms << "\n";
  }
  std::cout.unsetf(std::ios::fixed);
}

// "<workload>\t<label>\t<hex digest>" lines; missing file = empty map.
std::map<std::string, std::string> LoadReference(const std::string& path,
                                                 const std::string& workload) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string w, label, hex;
    if (std::getline(fields, w, '\t') && std::getline(fields, label, '\t') &&
        std::getline(fields, hex) && w == workload) {
      out[label] = hex;
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload " << args.workload
              << " (kv-ycsb, tiering-stream, pool-fleet)\n";
    return 2;
  }
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << " jobs=" << kJobs
            << "\n";
  const auto print_pass = [](const char* kind, const PassResult& p) {
    std::cout << std::fixed << std::setprecision(3) << kind << " pass: jobs=" << p.jobs
              << " wall=" << p.wall_s << "s cpu=" << p.cpu_s << "s setup=" << p.setup_s
              << "s sweep-serial=" << p.sweep.serial_ms * 1e-3
              << "s slowest-cell=" << p.sweep.max_cell_ms * 1e-3 << "s\n";
    std::cout.unsetf(std::ios::fixed);
  };

  // Reference pass: one thread, untraced. Every timed pass must reproduce
  // its digests (thread-count and tracing invariance).
  const PassResult reference = RunPass(*workload, 1, false, args.seed);
  print_pass("reference", reference);
  // Warm-up pass at the benchmark's thread count: the first multi-threaded
  // pass pays for per-thread allocator arenas and fresh pages, which later
  // passes reuse. Checked like the others, left out of the medians.
  const PassResult warmup = RunPass(*workload, kJobs, false, args.seed);
  print_pass("warm-up", warmup);

  std::vector<PassResult> passes;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  int untraced = 0;
  int traced = 0;
  while (true) {
    const bool trace_this = args.trace == 1 && passes.size() % 2 == 1;
    passes.push_back(RunPass(*workload, kJobs, trace_this, args.seed));
    print_pass(trace_this ? "traced" : "timed", passes.back());
    ++(trace_this ? traced : untraced);
    const bool enough = untraced >= kMinPasses && (args.trace == 0 || traced >= kMinTracedPasses);
    if (enough && Clock::now() >= deadline) {
      break;
    }
  }

  // Oracles: per-cell verdicts, digest equality with the reference pass and,
  // on the reference seed, with the checked-in digests.
  const std::vector<std::string>& labels = workload->labels();
  std::map<std::string, std::string> golden;
  if (!args.reference.empty() && args.seed == kReferenceSeed) {
    golden = LoadReference(args.reference, args.workload);
  }
  struct Entry {
    std::string label;
    uint64_t digest;
    std::vector<std::string> violations;
  };
  const auto entries = [&labels](const PassResult& p) {
    std::vector<Entry> out;
    for (size_t i = 0; i < labels.size(); ++i) {
      out.push_back({labels[i], p.cells[i].outcome.digest, p.cells[i].outcome.violations});
    }
    out.push_back({"(setup)", p.setup_digest, {}});
    out.push_back({"(finish)", p.finish_digest, {}});
    return out;
  };
  const std::vector<Entry> ref_entries = entries(reference);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::string> first_failure;
  const auto check = [&](const PassResult& p) {
    std::vector<Entry> es = entries(p);
    for (size_t i = 0; i < es.size(); ++i) {
      Entry& e = es[i];
      if (i >= labels.size() && ref_entries[i].digest == 0) {
        continue;  // The workload has no pass-level work of this kind.
      }
      ++attempted;
      if (e.digest != ref_entries[i].digest) {
        e.violations.push_back("digest " + Hex(e.digest) + " differs from the one-thread pass");
      }
      if (args.seed == kReferenceSeed && !args.reference.empty()) {
        const auto it = golden.find(e.label);
        if (it == golden.end()) {
          e.violations.push_back("no reference digest in " + args.reference);
        } else if (it->second != Hex(e.digest)) {
          e.violations.push_back("digest " + Hex(e.digest) + " differs from reference " +
                                 it->second);
        }
      }
      if (!e.violations.empty()) {
        ++failed;
        first_failure.emplace(e.label, e.violations.front());
      }
    }
  };
  check(reference);
  check(warmup);
  for (const PassResult& p : passes) {
    check(p);
  }

  // Claims (every pass computes them from identical digests; report the
  // last one's).
  const std::vector<Claim>& claims = passes.back().claims;
  int in_band = 0;
  int unexpected_off_band = 0;
  std::cout << "\nclaims\n";
  for (const Claim& c : claims) {
    const char* status = c.in_band ? "in band" : c.known_deviation.empty() ? "OFF BAND"
                                                                            : "known deviation";
    std::cout << "  " << std::left << std::setw(48) << c.id << std::right << std::setw(12)
              << std::setprecision(4) << c.value << "  band " << c.band << "  " << status;
    if (!c.in_band && !c.known_deviation.empty()) {
      std::cout << " (" << c.known_deviation << ")";
    }
    std::cout << "\n";
    in_band += c.in_band ? 1 : 0;
    unexpected_off_band += !c.in_band && c.known_deviation.empty() ? 1 : 0;
  }
  std::cout << "claims_off_band=" << claims.size() - static_cast<size_t>(in_band)
            << " (unexpected " << unexpected_off_band << ")\n";
  std::cout << "\ncell failures: " << failed << " of " << attempted << " attempted\n";
  for (const auto& [label, message] : first_failure) {
    std::cout << "  FAIL " << label << ": " << message << "\n";
  }
  std::cout << "\ncell digests (one-thread pass)\n";
  for (const Entry& e : ref_entries) {
    if (e.digest != 0) {
      std::cout << "digest\t" << args.workload << "\t" << e.label << "\t" << Hex(e.digest) << "\n";
    }
  }

  std::vector<double> wall, cpu, setup, traced_wall;
  for (const PassResult& p : passes) {
    (p.traced ? traced_wall : wall).push_back(p.wall_s);
    if (!p.traced) {
      cpu.push_back(p.cpu_s);
      setup.push_back(p.setup_s);
    }
  }
  std::map<std::string, double> metrics;
  const MetricDef* defs = kEndToEnd;
  size_t def_count = std::size(kEndToEnd);
  if (args.trace == 0) {
    metrics["wall_s"] = Median(wall);
    metrics["cpu_s"] = Median(cpu);
    metrics["setup_s"] = Median(setup);
    metrics["peak_rss_mb"] = PeakRssMiB();
    metrics["claims_in_band"] = in_band;
    metrics["ok_frac"] = attempted > 0 ? static_cast<double>(attempted - failed) /
                                             static_cast<double>(attempted)
                                       : 0.0;
  } else {
    defs = kPerLayer;
    def_count = std::size(kPerLayer);
    std::map<std::string, std::vector<double>> samples;
    const PassResult* last_traced = nullptr;
    for (const PassResult& p : passes) {
      if (p.traced) {
        for (const auto& [name, value] : LayerMetrics(p, labels)) {
          samples[name].push_back(value);
        }
        last_traced = &p;
      }
    }
    for (const auto& [name, values] : samples) {
      metrics[name] = Median(values);
    }
    metrics["trace.overhead_frac"] = Median(traced_wall) / Median(wall) - 1.0;
    PrintSelfTimes(last_traced->trace);
    if (!args.trace_out.empty()) {
      cxl::telemetry::MetricRegistry registry;
      registry.trace().MergeFrom(last_traced->trace);
      std::ofstream out(args.trace_out);
      cxl::telemetry::WriteChromeTrace(out, registry);
      std::cout << "trace written to " << args.trace_out << "\n";
    }
  }

  std::cout << "\nmetrics (" << (args.trace == 0 ? "end to end, untraced passes"
                                                 : "per layer, traced passes")
            << ")\n";
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 && unexpected_off_band == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < def_count; ++i) {
    const double value = metrics[defs[i].name];
    std::cout << "  " << std::left << std::setw(30) << defs[i].name << std::right
              << std::setw(18) << std::setprecision(6) << value << " " << defs[i].unit << "\n";
    json << (i > 0 ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": " << JsonNumber(value)
         << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
