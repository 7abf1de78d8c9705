// fledabench: one workload of the fleda benchmark per process.
//
//   fledabench --workload paper_flnet|paper_routenet|fleet_10k
//              --seed N --seconds S --trace 0|1 --work-dir DIR
//   fledabench --self-test
//
// --trace 0 measures the end-to-end metrics with the in-program profiler
// off; --trace 1 runs the workload's unit once with the profiler on and
// then the replay ledger, and reports the per-layer metrics. The last
// line of stdout is the run's report as one JSON object; run.py turns it
// into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <sys/resource.h>

#include "harness.hpp"
#include "obs/profiler.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "fledabench: %s\nusage: fledabench --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir DIR | --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fledabench::RunArgs args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  // End-to-end numbers are measured untraced; traced units switch the
  // profiler on for themselves.
  fleda::Profiler::set_enabled(false);
  fleda::set_log_level(fleda::LogLevel::kWarn);
  if (self_test) return fledabench::ledger_self_test() ? 0 : 1;
  if (args.work_dir.empty()) return usage("--work-dir is required");
  std::filesystem::create_directories(args.work_dir);

  fledabench::Report report;
  try {
    if (args.workload == "paper_flnet") {
      fledabench::run_paper(args, fleda::ModelKind::kFLNet, report);
    } else if (args.workload == "paper_routenet") {
      fledabench::run_paper(args, fleda::ModelKind::kRouteNet, report);
    } else if (args.workload == "fleet_10k") {
      fledabench::run_fleet(args, report);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
    if (args.trace) {
      fledabench::run_ledger(args, report);
    } else {
      report.metric("peak_rss_mb", fledabench::peak_rss_mb(), "MB");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fledabench: %s\n", e.what());
    return 1;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  report.fact("cpu_s", fledabench::json_number(seconds(usage.ru_utime) +
                                               seconds(usage.ru_stime)));
  report.fact("threads", std::to_string(fleda::ThreadPool::global().size()));
  report.fact("compiler", fledabench::json_string(__VERSION__));
  report.fact("build_type", fledabench::json_string(FLEDABENCH_BUILD_TYPE));
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
