// Calibration gate: sweeps every memory-path profile, queue model, CXL link
// efficiency stack, end-to-end TrafficModel path and the bandwidth solver's
// fairness contract through the paper-anchored tolerance bands in src/check.
//
// Prints a pass/fail table (band, paper reference, tolerance, measured) and
// exits non-zero if any band is violated, so ctest and the CI
// calibration-gate job fail loudly when a refactor nudges the model off the
// paper's measurements.
//
//   ./bench_calibration            table + summary, exit 1 on any failure
//   ./bench_calibration --fails    print only violated bands
//
// The shared bench flags (--jobs, --bench-json, ...) are accepted as in
// every other bench; the bands run serially, so --jobs changes nothing.
// Any other argument is a usage error (exit 2).
#include <cstring>
#include <iostream>

#include "src/bench/context.h"
#include "src/check/calibration.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  auto ctx = cxl::bench::Context::FromArgs(&argc, argv);
  bool fails_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fails") == 0) {
      fails_only = true;
    } else {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }

  cxl::PrintSection(std::cout, "Calibration gate — paper-anchored tolerance bands");
  const cxl::check::CalibrationReport report = cxl::check::RunAllCalibrationChecks();

  int failures = 0;
  if (fails_only) {
    cxl::check::CalibrationReport filtered;
    for (const auto& r : report.results()) {
      if (!r.pass) {
        filtered.Check(r.band, r.measured);
      }
    }
    if (filtered.results().empty()) {
      std::cout << "all " << report.results().size() << " bands in tolerance\n";
    } else {
      failures = filtered.PrintTable(std::cout);
    }
  } else {
    failures = report.PrintTable(std::cout);
  }
  if (!ctx.Write("bench_calibration")) {
    return 1;
  }
  return failures > 0 ? 1 : 0;
}
