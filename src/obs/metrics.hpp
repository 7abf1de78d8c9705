// MetricsRegistry: named counters with a JSON snapshot — the
// structured, always-cheap complement to the scoped profiler (which
// answers "where did the time go"; metrics answer "how much of
// everything happened").
//
// Naming scheme: "fleda.<subsystem>.<metric>", lowercase, dot-
// separated — e.g. fleda.comm.uplink_bytes, fleda.pool.acquires,
// fleda.agg.nonfinite_guard_trips. Registration (the name -> metric
// lookup) takes a mutex; the returned references are stable for the
// registry's lifetime, so hot call sites cache them in a local static
// and every subsequent update is a handful of relaxed atomics.
//
// Counters are sharded across cache lines by thread-id hash so eight
// pool workers incrementing the same counter do not serialize on one
// cache line; value() sums the shards. reset() zeroes values but never
// unregisters metrics — cached references stay valid forever.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fleda {

inline constexpr std::size_t kMetricShards = 8;

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1);
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  // The process-wide registry the library's built-in metrics live in.
  static MetricsRegistry& global();

  // Find-or-create by name. The returned reference is valid for the
  // registry's lifetime.
  Counter& counter(const std::string& name);

  // All registered names, sorted.
  std::vector<std::string> names() const;

  // {"counters":{...}} with sorted names and fixed formatting.
  std::string snapshot_json() const;

  // Zeroes every metric's value; registrations (and references) stay.
  void reset();

 private:
  struct Impl;
  Impl* impl() const;
  // Lazily created via an acquire/CAS publish: counter() may race on a
  // fresh registry, and a plain pointer here was a genuine data race
  // (two threads could both observe nullptr, both allocate, and
  // leak/tear the pointer).
  mutable std::atomic<Impl*> impl_{nullptr};
};

}  // namespace fleda
