#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace fledabench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::operation(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) failures_.push_back(why);
}

void Report::fact(const std::string& key, const std::string& json) {
  facts_.emplace_back(key, json);
}

std::string Report::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed()) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? "," : "") + json_string(failures_[i]);
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? "," : "") + json_string(m.name) +
           ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  out += "},\"facts\":{";
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    out += (i ? "," : "") + json_string(facts_[i].first) + ":" +
           facts_[i].second;
  }
  return out + "}}";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 over (seed, tag).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

std::uint64_t fingerprint(const fleda::ModelParameters& params) {
  std::uint64_t h = 1469598103934665603ull;
  for (const fleda::ParameterEntry& e : params.entries()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(e.value.data());
    const std::size_t n = static_cast<std::size_t>(e.value.numel()) * sizeof(float);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void in_one_pool_task(const std::function<void()>& fn) {
  // A two-chunk parallel_for marks whichever thread takes chunk 0 as
  // inside a parallel region, so every parallel_for nested in `fn`
  // degrades to its serial loop; chunk 1 is empty.
  fleda::parallel_for(2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (i == 0) fn();
    }
  });
}

namespace {

std::vector<double> timed_samples(const std::function<void()>& fn,
                                  double min_ms) {
  fn();
  fn();
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 5 || (total < min_ms && samples.size() < 400)) {
    fleda::StopWatch sw;
    fn();
    samples.push_back(sw.millis());
    total += samples.back();
  }
  return samples;
}

}  // namespace

double replay_ms(const std::function<void()>& fn, double min_ms) {
  std::vector<double> samples;
  in_one_pool_task([&] { samples = timed_samples(fn, min_ms); });
  return median(samples);
}

double coordinator_ms(const std::function<void()>& fn, double min_ms) {
  return median(timed_samples(fn, min_ms));
}

}  // namespace fledabench
