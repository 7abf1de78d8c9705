#include "util/logging.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <vector>

#include "util/thread_safety.hpp"

namespace fleda {
namespace {

std::atomic<int> g_level{-1};  // -1 = uninitialized

// The process-wide sink slot. The mutex both guards the pointer and
// serializes sink invocations, so a swap can never race a write and
// two threads' lines never interleave inside one sink call.
struct SinkSlot {
  Mutex mutex;
  LogSink sink FLEDA_GUARDED_BY(mutex) = nullptr;  // nullptr = stderr
};

SinkSlot& sink_slot() {
  // Leaked: messages logged from exiting threads during static
  // destruction must never touch a destroyed mutex.
  static SinkSlot* slot = new SinkSlot();
  return *slot;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

LogLevel init_from_env() {
  // Log verbosity only; never changes a result.
  const char* env =
      std::getenv("FLEDA_LOG_LEVEL");  // fleda-lint: allow(env-knob)
  if (env == nullptr) return LogLevel::kInfo;
  return parse_log_level(env);
}

}  // namespace

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  return LogLevel::kInfo;
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  int v = g_level.load(std::memory_order_relaxed);
  if (v < 0) {
    LogLevel from_env = init_from_env();
    g_level.store(static_cast<int>(from_env), std::memory_order_relaxed);
    return from_env;
  }
  return static_cast<LogLevel>(v);
}

void log_message(LogLevel level, const char* file, int line, const char* fmt,
                 ...) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;

  // Strip directories from __FILE__ for compact output.
  const char* base = std::strrchr(file, '/');
  base = (base != nullptr) ? base + 1 : file;

  char body[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(body, sizeof(body), fmt, args);
  va_end(args);

  char head[160];
  std::snprintf(head, sizeof(head), "[%s %s:%d] ", level_name(level), base,
                line);

  char out[1224];
  int n = std::snprintf(out, sizeof(out), "%s%s\n", head, body);
  if (n < 0) return;
  const std::size_t len =
      std::min(static_cast<std::size_t>(n), sizeof(out) - 1);

  SinkSlot& slot = sink_slot();
  MutexLock lock(slot.mutex);
  if (slot.sink != nullptr) {
    slot.sink(out, len);
  } else {
    std::fwrite(out, 1, len, stderr);
  }
}

LogSink set_log_sink(LogSink sink) {
  SinkSlot& slot = sink_slot();
  MutexLock lock(slot.mutex);
  LogSink previous = slot.sink;
  slot.sink = sink;
  return previous;
}

}  // namespace fleda
