// Shared plumbing of the fleda benchmark: the report every run prints,
// per-run seed derivation, medians, peak RSS, model fingerprints, and
// the one-pool-task wrapper that replays run inside.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fl/parameters.hpp"

namespace fledabench {

// Everything one run produces: metrics by name with unit, the attempted
// and failed operation counts (an operation is one paper-table row, one
// fleet run, or one replay check), the reasons of each failure, and
// string facts (fingerprints, per-row AUCs, the in-program profile).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Counts one operation; a false `ok` counts it failed and keeps `why`.
  void operation(bool ok, const std::string& why);
  // `json` must already be a valid JSON value.
  void fact(const std::string& key, const std::string& json);

  int attempted() const { return attempted_; }
  int failed() const { return static_cast<int>(failures_.size()); }
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<std::string> failures_;
  int attempted_ = 0;
};

std::string json_string(const std::string& text);
std::string json_number(double value);

// Independent sub-seed of the workload seed for one consumer (`tag`).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

double median(std::vector<double> values);

// The process's peak resident set (VmHWM) in MB; -1 without /proc.
double peak_rss_mb();

// FNV-1a over every tensor byte of a snapshot.
std::uint64_t fingerprint(const fleda::ModelParameters& params);
std::string hex64(std::uint64_t value);

// Runs `fn` as one task of the global pool, the way a federated round
// runs one client: kernels nested inside it run serially.
void in_one_pool_task(const std::function<void()>& fn);

// Median milliseconds of `fn` inside one pool task: two warm-up calls,
// then at least five timed calls and at least `min_ms` of timed work.
double replay_ms(const std::function<void()>& fn, double min_ms = 60.0);

// Same, called from the coordinator thread (for round-level calls that
// spread their own work over the pool).
double coordinator_ms(const std::function<void()>& fn, double min_ms = 60.0);

}  // namespace fledabench
