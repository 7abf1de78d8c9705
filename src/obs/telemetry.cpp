#include "obs/telemetry.hpp"

#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace fleda {

namespace {

const char* const kGuardTripCounter = "fleda.agg.nonfinite_guard_trips";

}  // namespace

void StalenessHistogram::observe(int staleness) {
  int bucket;
  if (staleness <= 0) {
    bucket = 0;
  } else if (staleness == 1) {
    bucket = 1;
  } else if (staleness == 2) {
    bucket = 2;
  } else if (staleness <= 4) {
    bucket = 3;
  } else if (staleness <= 8) {
    bucket = 4;
  } else {
    bucket = 5;
  }
  counts[static_cast<std::size_t>(bucket)] += 1;
}

std::uint64_t StalenessHistogram::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t c : counts) sum += c;
  return sum;
}

const char* StalenessHistogram::bucket_label(int bucket) {
  static const char* const kLabels[kBuckets] = {"0", "1", "2",
                                                "3-4", "5-8", "9+"};
  return (bucket >= 0 && bucket < kBuckets) ? kLabels[bucket] : "?";
}

std::string RoundTelemetry::to_json() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "{\"round\":%d,\"sim_time_s\":%.6f,\"cohort_size\":%d,"
                "\"attackers_true\":%d,\"attackers_detected\":%d,"
                "\"uplink_bytes\":%llu,"
                "\"downlink_bytes\":%llu,\"staleness\":{",
                round, sim_time_s, cohort_size, attackers_true,
                attackers_detected,
                static_cast<unsigned long long>(uplink_bytes),
                static_cast<unsigned long long>(downlink_bytes));
  out += buf;
  for (int i = 0; i < StalenessHistogram::kBuckets; ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", i == 0 ? "" : ",",
                  StalenessHistogram::bucket_label(i),
                  static_cast<unsigned long long>(
                      staleness.counts[static_cast<std::size_t>(i)]));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\"aggregate_ms\":%.3f,\"guard_trips\":%llu}", aggregate_ms,
                static_cast<unsigned long long>(guard_trips));
  out += buf;
  return out;
}

TelemetrySink::TelemetrySink() { capture_baselines(); }

TelemetrySink::TelemetrySink(const std::string& jsonl_path) {
  if (!jsonl_path.empty()) {
    file_ = std::fopen(jsonl_path.c_str(), "a");
    if (file_ == nullptr) {
      throw std::runtime_error("TelemetrySink: cannot open '" + jsonl_path +
                               "' for append");
    }
  }
  capture_baselines();
}

TelemetrySink::~TelemetrySink() {
  if (file_ != nullptr) std::fclose(file_);
}

void TelemetrySink::capture_baselines() {
  aggregate_total_ms_ = Profiler::report().total_seconds(phase::kAggregate) *
                        1e3;
  guard_trips_total_ =
      MetricsRegistry::global().counter(kGuardTripCounter).value();
}

void TelemetrySink::record_cohort(int size, int attackers) {
  open_.cohort_size += size;
  open_.attackers_true += attackers;
}

void TelemetrySink::record_detected(int count) {
  open_.attackers_detected += count;
}

void TelemetrySink::record_staleness(int staleness) {
  open_.staleness.observe(staleness);
}

void TelemetrySink::close_round(int round, double sim_time_s,
                                std::uint64_t uplink_bytes,
                                std::uint64_t downlink_bytes) {
  open_.round = round;
  open_.sim_time_s = sim_time_s;
  open_.uplink_bytes = uplink_bytes;
  open_.downlink_bytes = downlink_bytes;

  // aggregate_ms is 0.0 when FLEDA_PROFILE=0 — documented behavior;
  // the phase total only advances while the profiler records spans.
  const double agg_total =
      Profiler::report().total_seconds(phase::kAggregate) * 1e3;
  open_.aggregate_ms = agg_total > aggregate_total_ms_
                           ? agg_total - aggregate_total_ms_
                           : 0.0;
  aggregate_total_ms_ = agg_total;

  const std::uint64_t trips =
      MetricsRegistry::global().counter(kGuardTripCounter).value();
  open_.guard_trips = trips - guard_trips_total_;
  guard_trips_total_ = trips;

  if (file_ != nullptr) {
    const std::string line = open_.to_json();
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
  }
  rounds_.push_back(open_);
  open_ = RoundTelemetry{};
}

std::string TelemetrySink::env_path() {
  // Where telemetry goes; a pure output.
  const char* env =
      std::getenv("FLEDA_TELEMETRY_FILE");  // fleda-lint: allow(env-knob)
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace fleda
