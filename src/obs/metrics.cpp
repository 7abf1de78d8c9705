#include "obs/metrics.hpp"

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "util/thread_safety.hpp"

namespace fleda {

namespace {

// Stable per-thread shard index: hash the thread id once, cache it.
std::size_t thread_shard() {
  thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMetricShards;
  return shard;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

void Counter::add(std::uint64_t delta) {
  shards_[thread_shard()].value.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.value.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// unique_ptr-valued map: references returned to callers stay pinned
// as the map grows under new registrations. The mutex guards the
// map structure only — the counters themselves are internally atomic,
// so cached references update them without ever touching the lock.
struct MetricsRegistry::Impl {
  mutable Mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters
      FLEDA_GUARDED_BY(mutex);
};

MetricsRegistry::Impl* MetricsRegistry::impl() const {
  Impl* im = impl_.load(std::memory_order_acquire);
  if (im != nullptr) return im;
  // First use may race: publish with a CAS and discard the loser so
  // every caller agrees on one Impl (fixes the lazy-init data race a
  // plain pointer check had).
  Impl* fresh = new Impl();
  if (impl_.compare_exchange_strong(im, fresh, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;
  return im;
}

MetricsRegistry::~MetricsRegistry() {
  delete impl_.load(std::memory_order_acquire);
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked so metrics recorded from detached/exiting threads during
  // static destruction never touch a dead registry.
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& im = *impl();
  MutexLock lock(im.mutex);
  auto& slot = im.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

std::vector<std::string> MetricsRegistry::names() const {
  Impl& im = *impl();
  MutexLock lock(im.mutex);
  std::vector<std::string> out;
  out.reserve(im.counters.size());
  for (const auto& [name, _] : im.counters) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::string MetricsRegistry::snapshot_json() const {
  Impl& im = *impl();
  MutexLock lock(im.mutex);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : im.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_u64(out, counter->value());
  }
  out += "}}";
  return out;
}

void MetricsRegistry::reset() {
  Impl& im = *impl();
  MutexLock lock(im.mutex);
  for (auto& [_, counter] : im.counters) counter->reset();
}

}  // namespace fleda
