// Tests for the src/obs/ observability layer: scoped-profiler span
// accounting (nesting, self-time, min/max, disabled-mode cost),
// metrics-registry semantics (sharded counters under contention,
// histogram bucketing, name collisions, snapshot stability), per-round
// telemetry (bucket mapping, JSONL round-trip through a real file),
// the SimTrace HTML renderer (byte-stable against a golden file), and
// the mid-run trace-enable bugfix (the gap is declared, not silent).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_html.hpp"
#include "sim/engine.hpp"
#include "sim/profile.hpp"
#include "util/thread_pool.hpp"

// Global allocation counter for the disabled-mode cost test: the
// replacement operators count every heap allocation in the process, so
// a window with zero delta proves a code path allocation-free.
static std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fleda {
namespace {

// Spins the current thread for roughly `ms` of wall time — sleep-free
// so the span duration is always positive and roughly as requested.
void busy_wait_ms(double ms) {
  StopWatch watch;
  while (watch.millis() < ms) {
  }
}

// --- profiler --------------------------------------------------------

TEST(Profiler, CountsTotalsAndMinMax) {
  Profiler::set_enabled(true);
  Profiler::reset();
  static const char* kPhase = "test/three_spans";
  for (int i = 1; i <= 3; ++i) {
    ProfileScope scope(kPhase);
    busy_wait_ms(0.2 * i);
  }
  const ProfileReport report = Profiler::report();
  const PhaseReport* p = report.find(kPhase);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->count, 3u);
  EXPECT_GT(p->min_ms, 0.0);
  EXPECT_LE(p->min_ms, p->max_ms);
  EXPECT_GE(p->total_ms, p->min_ms + p->max_ms);
  EXPECT_LE(p->total_ms, 3.0 * p->max_ms + 1e-9);
  // No nesting: self time is total time.
  EXPECT_DOUBLE_EQ(p->self_ms, p->total_ms);
}

TEST(Profiler, SelfTimeExcludesNestedSpansExactly) {
  Profiler::set_enabled(true);
  Profiler::reset();
  static const char* kOuter = "test/outer";
  static const char* kInner = "test/inner";
  {
    ProfileScope outer(kOuter);
    busy_wait_ms(1.0);
    for (int i = 0; i < 2; ++i) {
      ProfileScope inner(kInner);
      busy_wait_ms(1.0);
    }
  }
  const ProfileReport report = Profiler::report();
  const PhaseReport* outer = report.find(kOuter);
  const PhaseReport* inner = report.find(kInner);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  // The parent's child-time accumulator is the same integer
  // nanoseconds the children recorded, so the identity
  // self = total - sum(children) holds to formatting precision.
  EXPECT_NEAR(outer->self_ms, outer->total_ms - inner->total_ms, 1e-6);
  EXPECT_GE(outer->self_ms, 0.9);   // the explicit 1 ms of own work
  EXPECT_GE(inner->total_ms, 1.8);  // two spans of ~1 ms each
}

TEST(Profiler, DisabledScopesRecordNothingAndNeverAllocate) {
  Profiler::set_enabled(true);
  Profiler::reset();
  static const char* kPhase = "test/disabled";
  {
    // Warm path once while enabled so the thread's slab exists.
    ProfileScope warm(kPhase);
  }
  Profiler::reset();
  Profiler::set_enabled(false);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    ProfileScope scope(kPhase);
    EXPECT_DOUBLE_EQ(scope.seconds(), 0.0);  // no clock was read
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);  // the disabled path is allocation-free
  Profiler::set_enabled(true);
  const ProfileReport report = Profiler::report();
  EXPECT_EQ(report.find(kPhase), nullptr);  // and recorded nothing
}

TEST(Profiler, ReportMergesSpansAcrossThreads) {
  Profiler::set_enabled(true);
  Profiler::reset();
  static const char* kPhase = "test/threads";
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 5; ++i) {
        ProfileScope scope(kPhase);
        busy_wait_ms(0.05);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ProfileReport report = Profiler::report();
  const PhaseReport* p = report.find(kPhase);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->count, 20u);  // slabs survive thread exit and merge
}

TEST(Profiler, ReportJsonHasFixedShape) {
  Profiler::set_enabled(true);
  Profiler::reset();
  static const char* kPhase = "test/json";
  {
    ProfileScope scope(kPhase);
    busy_wait_ms(0.1);
  }
  const std::string json = Profiler::report().to_json();
  EXPECT_NE(json.find("{\"phases\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test/json\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"self_ms\":"), std::string::npos);
}

// --- metrics registry ------------------------------------------------

TEST(Metrics, CounterIsExactUnderContention) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.contended");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.same");
  Counter& b = registry.counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // reset() zeroes values but never invalidates cached references.
  registry.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST(Metrics, SnapshotJsonListsEveryCounterSorted) {
  MetricsRegistry registry;
  registry.counter("test.c").add(2);
  registry.counter("test.a").add(1);
  EXPECT_EQ(registry.snapshot_json(),
            "{\"counters\":{\"test.a\":1,\"test.c\":2}}");
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"test.a", "test.c"}));
}

// --- telemetry -------------------------------------------------------

TEST(Telemetry, StalenessBucketMapping) {
  StalenessHistogram h;
  for (int s : {0, 1, 2, 3, 4, 5, 8, 9, 100}) h.observe(s);
  EXPECT_EQ(h.counts[0], 1u);  // 0
  EXPECT_EQ(h.counts[1], 1u);  // 1
  EXPECT_EQ(h.counts[2], 1u);  // 2
  EXPECT_EQ(h.counts[3], 2u);  // 3, 4
  EXPECT_EQ(h.counts[4], 2u);  // 5, 8
  EXPECT_EQ(h.counts[5], 2u);  // 9, 100
  EXPECT_EQ(h.total(), 9u);
  EXPECT_STREQ(StalenessHistogram::bucket_label(0), "0");
  EXPECT_STREQ(StalenessHistogram::bucket_label(3), "3-4");
  EXPECT_STREQ(StalenessHistogram::bucket_label(5), "9+");
}

TEST(Telemetry, SinkAccumulatesAndStreamsJsonl) {
  const std::string path = ::testing::TempDir() + "fleda_telemetry_test.jsonl";
  std::remove(path.c_str());
  {
    TelemetrySink sink(path);
    sink.record_cohort(20, 2);
    sink.record_detected(3);
    sink.record_staleness(0);
    sink.record_staleness(3);
    sink.close_round(0, 1.5, 1000, 2000);
    sink.record_cohort(18, 0);
    sink.close_round(1, 3.25, 900, 1800);

    ASSERT_EQ(sink.rounds().size(), 2u);
    const RoundTelemetry& r0 = sink.rounds()[0];
    EXPECT_EQ(r0.round, 0);
    EXPECT_DOUBLE_EQ(r0.sim_time_s, 1.5);
    EXPECT_EQ(r0.cohort_size, 20);
    EXPECT_EQ(r0.attackers_true, 2);
    EXPECT_EQ(r0.attackers_detected, 3);
    EXPECT_EQ(r0.uplink_bytes, 1000u);
    EXPECT_EQ(r0.downlink_bytes, 2000u);
    EXPECT_EQ(r0.staleness.counts[0], 1u);
    EXPECT_EQ(r0.staleness.counts[3], 1u);
    // close_round starts a fresh record: nothing leaks into round 1.
    EXPECT_EQ(sink.rounds()[1].cohort_size, 18);
    EXPECT_EQ(sink.rounds()[1].staleness.total(), 0u);
  }
  // One JSON object per line, in closing order, parseable fields.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line0, line1, extra;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line0)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line1)));
  EXPECT_FALSE(static_cast<bool>(std::getline(in, extra)));
  EXPECT_NE(line0.find("\"round\":0"), std::string::npos);
  EXPECT_NE(line0.find("\"cohort_size\":20"), std::string::npos);
  EXPECT_NE(line0.find("\"attackers_true\":2"), std::string::npos);
  EXPECT_NE(line0.find("\"attackers_detected\":3"), std::string::npos);
  EXPECT_NE(line0.find("\"uplink_bytes\":1000"), std::string::npos);
  EXPECT_NE(line0.find("\"3-4\":1"), std::string::npos);
  EXPECT_NE(line1.find("\"round\":1"), std::string::npos);
  EXPECT_NE(line1.find("\"sim_time_s\":3.250000"), std::string::npos);
  // The in-memory record and the streamed line agree byte-for-byte.
  TelemetrySink replay;
  replay.record_cohort(20, 2);
  replay.record_detected(3);
  replay.record_staleness(0);
  replay.record_staleness(3);
  replay.close_round(0, 1.5, 1000, 2000);
  EXPECT_EQ(replay.rounds()[0].to_json(), line0);
  std::remove(path.c_str());
}

// --- trace renderer --------------------------------------------------

// Three clients, hand-scheduled round: client 0 completes, client 1's
// upload is dropped inside its offline window, client 2 is a sign-flip
// attacker. Small, fully deterministic, and exercises every marker the
// renderer can draw.
SimReport tiny_trace(SimConfig* config_out) {
  SimConfig config = SimConfig::uniform(3);
  config.profiles[1].offline.push_back({1.6, 2.6});
  AttackSpec attack;
  attack.kind = AttackKind::kSignFlip;
  attack.scale = 10.0;
  config.profiles[2].attack = attack;

  SimEngine engine(config, CommConfig{}, 3);
  engine.set_trace_enabled(true);
  for (int k = 0; k < 3; ++k) {
    engine.schedule(0.0, SimEventKind::kDispatch, k, 0);
    engine.schedule(0.2 + 0.05 * k, SimEventKind::kDownlinkDone, k, 0);
  }
  engine.schedule(1.0, SimEventKind::kComputeDone, 0, 0);
  engine.schedule(1.3, SimEventKind::kUplinkDone, 0, 0);
  engine.schedule(1.5, SimEventKind::kComputeDone, 1, 0);
  engine.schedule(1.8, SimEventKind::kDropped, 1, 0);
  engine.schedule(2.0, SimEventKind::kComputeDone, 2, 0);
  engine.schedule(2.4, SimEventKind::kUplinkDone, 2, 0);
  engine.schedule(2.5, SimEventKind::kAggregate, -1, 0);
  engine.schedule(2.5, SimEventKind::kRoundEnd, -1, 0);
  engine.run_all();

  if (config_out != nullptr) *config_out = config;
  return engine.report();
}

std::string golden_path() {
  std::string path = __FILE__;
  path.resize(path.find_last_of('/') + 1);
  return path + "golden/tiny_trace.html";
}

TEST(TraceHtml, MatchesGoldenByteForByte) {
  SimConfig config;
  const SimReport report = tiny_trace(&config);
  TraceVizOptions viz;
  viz.title = "tiny trace golden";
  viz.width_px = 800;
  viz.lane_height_px = 12;
  viz.collapse_idle = false;
  const std::string html = render_trace_html(report, config, 3, viz);

  // The markers the scenario exists to produce.
  EXPECT_NE(html.find("class=\"compute\""), std::string::npos);
  EXPECT_NE(html.find("class=\"up\""), std::string::npos);
  EXPECT_NE(html.find("class=\"offline\""), std::string::npos);
  EXPECT_NE(html.find("class=\"drop\""), std::string::npos);
  EXPECT_NE(html.find("class=\"attacker-bg\""), std::string::npos);
  EXPECT_NE(html.find("class=\"agg\""), std::string::npos);

  const std::string path = golden_path();
  if (std::getenv("FLEDA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << html;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << path << " missing - run with FLEDA_UPDATE_GOLDEN=1 to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  // Byte equality is the whole point: the renderer's fixed snprintf
  // formats make the artifact diffable across machines, so any drift
  // here is a real rendering change, not noise.
  EXPECT_EQ(html, golden.str())
      << "trace HTML drifted from the golden; if the change is "
         "intentional, regenerate with FLEDA_UPDATE_GOLDEN=1";
}

TEST(TraceHtml, RenderIsDeterministicAcrossCalls) {
  SimConfig config;
  const SimReport report = tiny_trace(&config);
  const std::string a = render_trace_html(report, config, 3);
  const std::string b = render_trace_html(report, config, 3);
  EXPECT_EQ(a, b);
}

// --- mid-run trace enable (the bugfix) -------------------------------

TEST(SimEngine, MidRunTraceEnableDeclaresTheGap) {
  SimConfig config = SimConfig::uniform(2);
  SimEngine engine(config, CommConfig{}, 2);
  // Tracing off: the first round leaves no record.
  engine.schedule(1.0, SimEventKind::kDispatch, 0, 0);
  engine.schedule(2.0, SimEventKind::kUplinkDone, 0, 0);
  engine.run_all();
  EXPECT_TRUE(engine.trace().empty());

  // Flip tracing on mid-run: the enable time is stamped, and only
  // later events are recorded.
  engine.set_trace_enabled(true);
  engine.schedule(3.0, SimEventKind::kDispatch, 1, 1);
  engine.schedule(4.0, SimEventKind::kUplinkDone, 1, 1);
  engine.run_all();

  const SimReport report = engine.report();
  EXPECT_DOUBLE_EQ(report.trace_start_s, 2.0);  // the clock at enable
  ASSERT_EQ(report.trace.size(), 2u);
  EXPECT_EQ(report.trace[0].client, 1);
  EXPECT_EQ(report.trace[0].round, 1);

  // The renderer surfaces the gap instead of silently drawing a
  // partial timeline as if it were complete.
  const std::string html = render_trace_html(report, config, 2);
  EXPECT_NE(html.find("tracing enabled at"), std::string::npos);

  // Re-enabling while already on must not move the stamp.
  engine.set_trace_enabled(true);
  EXPECT_DOUBLE_EQ(engine.report().trace_start_s, 2.0);
}

TEST(SimEngine, TraceEnabledFromStartReportsZeroStart) {
  SimConfig config = SimConfig::uniform(1);
  SimEngine engine(config, CommConfig{}, 1);
  engine.set_trace_enabled(true);
  engine.schedule(1.0, SimEventKind::kDispatch, 0, 0);
  engine.run_all();
  const SimReport report = engine.report();
  EXPECT_DOUBLE_EQ(report.trace_start_s, 0.0);
  const std::string html = render_trace_html(report, config, 1);
  EXPECT_EQ(html.find("tracing enabled at"), std::string::npos);
}

}  // namespace
}  // namespace fleda
