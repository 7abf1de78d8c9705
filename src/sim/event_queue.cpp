#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/profiler.hpp"

namespace fleda {

void SimClock::advance_to(double t) {
  if (t < now_) {
    throw std::logic_error("SimClock: time would go backwards (" +
                           std::to_string(t) + " < " + std::to_string(now_) +
                           ")");
  }
  now_ = t;
}

void EventQueue::schedule(double time, EventFn fn) {
  if (!(time >= 0.0) || !std::isfinite(time)) {
    throw std::invalid_argument("EventQueue: non-finite or negative time " +
                                std::to_string(time));
  }
  heap_.push_back(Entry{time, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), After{});
}

bool EventQueue::run_next(SimClock& clock) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  clock.advance_to(entry.time);
  ++processed_;
  // The callback may schedule further events; it runs after the pop so
  // the heap is consistent during reentrant schedule() calls. The
  // dispatch span covers the callback — nested phases (training, codec
  // work triggered by the event) subtract out as child time.
  ProfileScope dispatch(phase::kEventDispatch);
  if (entry.fn) entry.fn();
  return true;
}

void EventQueue::run_all(SimClock& clock, std::uint64_t max_events) {
  const std::uint64_t start = processed_;
  while (run_next(clock)) {
    if (processed_ - start > max_events) {
      throw std::runtime_error(
          "EventQueue: exceeded " + std::to_string(max_events) +
          " events — runaway self-scheduling loop?");
    }
  }
}

}  // namespace fleda
