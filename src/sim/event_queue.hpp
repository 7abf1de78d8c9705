// Deterministic discrete-event core of the federated simulation
// engine. SimClock is a monotone virtual clock (seconds of simulated
// wall time, unrelated to host time); EventQueue is a priority queue of
// timestamped callbacks. Ties are broken by insertion order, so for a
// fixed schedule the execution order — and therefore everything the
// events compute — is reproducible bit-for-bit, independent of host
// thread count or load. Every other part of src/sim is built on these
// two types.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace fleda {

class SimClock {
 public:
  double now() const { return now_; }

  // Moves the clock forward. Throws std::logic_error on an attempt to
  // move it backwards — a scheduling bug, never a legal schedule.
  void advance_to(double t);

 private:
  double now_ = 0.0;
};

using EventFn = std::function<void()>;

class EventQueue {
 public:
  // Enqueues `fn` to run at virtual time `time` (>= the time of the
  // event currently executing; enforced by run via SimClock).
  void schedule(double time, EventFn fn);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t processed() const { return processed_; }

  // Pops the earliest event (ties in insertion order), advances the
  // clock to its timestamp and runs it. Returns false when no event
  // was pending.
  bool run_next(SimClock& clock);

  // Drains the queue. `max_events` bounds runaway self-scheduling
  // loops; exceeding it throws std::runtime_error.
  void run_all(SimClock& clock, std::uint64_t max_events = 100'000'000ull);

 private:
  struct Entry {
    double time = 0.0;
    std::uint64_t seq = 0;  // insertion order, the deterministic tiebreak
    EventFn fn;
  };
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // A std::vector-based heap instead of std::priority_queue so the
  // callback can be moved out of the popped entry.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace fleda
