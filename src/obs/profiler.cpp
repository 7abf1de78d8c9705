#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "util/thread_safety.hpp"

namespace fleda {
namespace {

// One phase's accumulator inside a thread slab. Written by exactly one
// thread; report() reads cross-thread (quiescent-consistent by
// contract, see the header).
struct PhaseSlot {
  const char* name = nullptr;  // static-storage phase name, the key
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;
  std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ns = 0;
};

// Fixed-capacity open-addressing table keyed by pointer identity. 64
// slots is an order of magnitude above the instrumented phase count;
// a full table drops further (new-phase) spans rather than allocating.
struct ThreadSlab {
  static constexpr std::size_t kCapacity = 64;
  PhaseSlot slots[kCapacity];

  PhaseSlot* find_or_insert(const char* name) {
    std::size_t i =
        (reinterpret_cast<std::uintptr_t>(name) >> 3) % kCapacity;
    for (std::size_t probe = 0; probe < kCapacity; ++probe) {
      PhaseSlot& slot = slots[i];
      if (slot.name == name) return &slot;
      if (slot.name == nullptr) {
        slot.name = name;
        return &slot;
      }
      i = (i + 1) % kCapacity;
    }
    return nullptr;  // table full: drop the span
  }
};

struct SlabRegistry {
  Mutex mutex;
  // shared_ptr keeps slabs alive past thread exit so report() still
  // sees the work finished threads recorded. The mutex guards the
  // vector of slab pointers only; slab *contents* are written lock-free
  // by their owning thread and read quiescent-consistently by report()
  // (see the header contract).
  std::vector<std::shared_ptr<ThreadSlab>> slabs FLEDA_GUARDED_BY(mutex);
};

SlabRegistry& registry() {
  static SlabRegistry* r = new SlabRegistry();
  return *r;
}

ThreadSlab& thread_slab() {
  thread_local std::shared_ptr<ThreadSlab> slab = [] {
    auto s = std::make_shared<ThreadSlab>();
    SlabRegistry& r = registry();
    MutexLock lock(r.mutex);
    r.slabs.push_back(s);
    return s;
  }();
  return *slab;
}

bool initial_enabled() {
  // Profiling is time-only; finals are bit-identical on or off.
  const char* env =
      std::getenv("FLEDA_PROFILE");  // fleda-lint: allow(env-knob)
  return env == nullptr || std::strcmp(env, "0") != 0;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{initial_enabled()};
  return flag;
}

// The innermost live scope on this thread, for self-time accounting.
thread_local ProfileScope* t_current_scope = nullptr;

double to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

bool Profiler::enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void Profiler::set_enabled(bool enabled) {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

ProfileReport Profiler::report() {
  struct Merged {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_ns = 0;
  };
  std::map<std::string, Merged> merged;  // sorted output for free
  SlabRegistry& r = registry();
  {
    MutexLock lock(r.mutex);
    for (const auto& slab : r.slabs) {
      for (const PhaseSlot& slot : slab->slots) {
        if (slot.name == nullptr || slot.count == 0) continue;
        Merged& m = merged[slot.name];
        m.count += slot.count;
        m.total_ns += slot.total_ns;
        m.child_ns += slot.child_ns;
        m.min_ns = std::min(m.min_ns, slot.min_ns);
        m.max_ns = std::max(m.max_ns, slot.max_ns);
      }
    }
  }
  ProfileReport report;
  report.phases.reserve(merged.size());
  for (const auto& [name, m] : merged) {
    PhaseReport p;
    p.name = name;
    p.count = m.count;
    p.total_ms = to_ms(m.total_ns);
    p.self_ms = to_ms(std::max<std::int64_t>(0, m.total_ns - m.child_ns));
    p.min_ms = to_ms(m.min_ns);
    p.max_ms = to_ms(m.max_ns);
    report.phases.push_back(std::move(p));
  }
  return report;
}

void Profiler::reset() {
  SlabRegistry& r = registry();
  MutexLock lock(r.mutex);
  for (const auto& slab : r.slabs) {
    for (PhaseSlot& slot : slab->slots) {
      if (slot.name == nullptr) continue;
      slot.count = 0;
      slot.total_ns = 0;
      slot.child_ns = 0;
      slot.min_ns = std::numeric_limits<std::int64_t>::max();
      slot.max_ns = 0;
    }
  }
}

ProfileScope::ProfileScope(const char* name) {
  if (!Profiler::enabled()) return;  // disabled: no clock, no slab
  slot_ = thread_slab().find_or_insert(name);
  if (slot_ == nullptr) return;
  parent_ = t_current_scope;
  t_current_scope = this;
  start_ = StopWatch::now_ns();
}

ProfileScope::~ProfileScope() {
  if (slot_ == nullptr) return;
  const std::int64_t elapsed = StopWatch::now_ns() - start_;
  PhaseSlot& slot = *static_cast<PhaseSlot*>(slot_);
  slot.count += 1;
  slot.total_ns += elapsed;
  slot.child_ns += child_ns_;
  slot.min_ns = std::min(slot.min_ns, elapsed);
  slot.max_ns = std::max(slot.max_ns, elapsed);
  if (parent_ != nullptr) parent_->child_ns_ += elapsed;
  t_current_scope = parent_;
}

double ProfileScope::seconds() const {
  if (slot_ == nullptr) return 0.0;
  return static_cast<double>(StopWatch::now_ns() - start_) * 1e-9;
}

const PhaseReport* ProfileReport::find(std::string_view name) const {
  for (const PhaseReport& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

double ProfileReport::total_seconds(std::string_view name) const {
  const PhaseReport* p = find(name);
  return p != nullptr ? p->total_ms * 1e-3 : 0.0;
}

std::string ProfileReport::to_json() const {
  std::string out = "{\"phases\":[";
  char buf[256];
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseReport& p = phases[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"count\":%llu,\"total_ms\":%.3f,"
                  "\"self_ms\":%.3f,\"min_ms\":%.3f,\"max_ms\":%.3f}",
                  i == 0 ? "" : ",", p.name.c_str(),
                  static_cast<unsigned long long>(p.count), p.total_ms,
                  p.self_ms, p.min_ms, p.max_ms);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace fleda
