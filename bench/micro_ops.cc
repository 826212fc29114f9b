// Microbenchmarks (google-benchmark): hot-path costs of the simulator —
// cache operations, scheduler throughput, mobility queries and a whole
// small simulation measured in simulated-events per second.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "src/core/link_cache.h"
#include "src/core/negative_cache.h"
#include "src/core/route_cache.h"
#include "src/mobility/mobility_model.h"
#include "src/mobility/waypoint.h"
#include "src/net/packet.h"
#include "src/phy/channel.h"
#include "src/phy/neighbor_index.h"
#include "src/phy/radio.h"
#include "src/prof/profiler.h"
#include "src/scenario/scenario.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"
#include "src/telemetry/trace.h"

namespace {

using namespace manet;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      sched.scheduleAt(sim::Time::micros(i), [&sum] { ++sum; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(100000);

// Random loop-free routes from node 0 over nodes 1..ids (1-8 hops).
std::vector<std::vector<net::NodeId>> randomRoutes(std::uint64_t seed,
                                                   int count, int ids = 100) {
  sim::Rng rng(seed);
  std::vector<std::vector<net::NodeId>> routes;
  for (int i = 0; i < count; ++i) {
    std::vector<net::NodeId> p{0};
    const int len = static_cast<int>(rng.uniformInt(1, 8));
    for (int j = 0; j < len; ++j) {
      net::NodeId next;
      do {
        next = static_cast<net::NodeId>(rng.uniformInt(1, ids));
      } while (std::find(p.begin(), p.end(), next) != p.end());
      p.push_back(next);
    }
    routes.push_back(std::move(p));
  }
  return routes;
}

// Inserts into a full path cache, cycling through twice its capacity in
// routes, so nearly every insert is new and evicts the oldest path. Arg =
// node-id space; 400 is the static_n400 churn.
void BM_RouteCacheInsert(benchmark::State& state) {
  const auto paths = randomRoutes(1, 256, static_cast<int>(state.range(0)));
  core::RouteCache cache(0, 128);
  std::size_t i = 0;
  for (; cache.size() < 128; ++i) {
    cache.insert(paths[i % paths.size()],
                 sim::Time::micros(static_cast<std::int64_t>(i)));
  }
  for (auto _ : state) {
    ++i;
    cache.insert(paths[i % paths.size()],
                 sim::Time::micros(static_cast<std::int64_t>(i)));
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCacheInsert)->Arg(100)->Arg(400);

void BM_RouteCacheFindRoute(benchmark::State& state) {
  sim::Rng rng(2);
  core::RouteCache cache(0, 128);
  for (int i = 0; i < 128; ++i) {
    std::vector<net::NodeId> p{0};
    for (int j = 0; j < 6; ++j) {
      p.push_back(static_cast<net::NodeId>(1 + i * 7 + j));
    }
    cache.insert(p, sim::Time::zero());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto r = cache.findRoute(static_cast<net::NodeId>(1 + (i++ % 800)));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCacheFindRoute);

void BM_RouteCacheRemoveLink(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::RouteCache cache(0, 128);
    for (int i = 0; i < 128; ++i) {
      cache.insert(std::vector<net::NodeId>{0, 1, static_cast<net::NodeId>(
                                                       2 + i)},
                   sim::Time::zero());
    }
    state.ResumeTiming();
    auto affected = cache.removeLink(net::LinkId{0, 1}, sim::Time::zero());
    benchmark::DoNotOptimize(affected);
  }
}
BENCHMARK(BM_RouteCacheRemoveLink);

// Inserts into a full link cache: most inserts add links and evict the
// oldest.
void BM_LinkCacheInsert(benchmark::State& state) {
  const auto routes = randomRoutes(3, 1024);
  core::LinkCache cache(0, 128);
  std::size_t i = 0;
  for (; cache.size() < 128; ++i) {
    cache.insert(routes[i % routes.size()],
                 sim::Time::micros(static_cast<std::int64_t>(i)));
  }
  for (auto _ : state) {
    ++i;
    cache.insert(routes[i % routes.size()],
                 sim::Time::micros(static_cast<std::int64_t>(i)));
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkCacheInsert);

// BFS lookups in a full link cache; Arg(1) adds a negative-cache filter, as
// DsrAgent::lookupRoute does with negative caching on.
void BM_LinkCacheLookup(benchmark::State& state) {
  const auto routes = randomRoutes(4, 1024);
  core::LinkCache cache(0, 128);
  for (std::size_t i = 0; cache.size() < 128; ++i) {
    cache.insert(routes[i % routes.size()],
                 sim::Time::micros(static_cast<std::int64_t>(i)));
  }
  core::NegativeCache neg(64, sim::Time::seconds(10));
  for (net::NodeId n = 1; n <= 20; ++n) {
    neg.insert(net::LinkId{n, n + 1}, sim::Time::zero());
  }
  const auto now = sim::Time::seconds(1);
  core::RouteCacheBase::LinkFilter filter;
  if (state.range(0) != 0) {
    filter = [&neg, now](net::LinkId l) { return !neg.contains(l, now); };
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto r = cache.lookup(static_cast<net::NodeId>(1 + (i++ % 100)), filter);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkCacheLookup)->Arg(0)->Arg(1);

// Loop check on a loop-free route (the common, full-length case) of
// Arg(0) nodes: on the stack up to 16 nodes, a hash set above.
void BM_RouteHasDuplicates(benchmark::State& state) {
  std::vector<net::NodeId> route;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    route.push_back(static_cast<net::NodeId>(i * 7 + 3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::routeHasDuplicates(route));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteHasDuplicates)->Arg(8)->Arg(24);

void BM_NegativeCacheOps(benchmark::State& state) {
  core::NegativeCache neg(64, sim::Time::seconds(10));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto now = sim::Time::millis(static_cast<std::int64_t>(i));
    neg.insert(net::LinkId{static_cast<net::NodeId>(i % 100),
                           static_cast<net::NodeId>((i + 1) % 100)},
               now);
    benchmark::DoNotOptimize(
        neg.contains(net::LinkId{static_cast<net::NodeId>((i / 2) % 100),
                                 static_cast<net::NodeId>((i / 2 + 1) % 100)},
                     now));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeCacheOps);

// NegativeCache primitive costs in isolation (BM_NegativeCacheOps above
// measures the mixed insert+contains workload the DSR agent produces).
void BM_NegativeCacheInsert(benchmark::State& state) {
  core::NegativeCache neg(64, sim::Time::seconds(10));
  std::uint64_t i = 0;
  for (auto _ : state) {
    neg.insert(net::LinkId{static_cast<net::NodeId>(i % 64),
                           static_cast<net::NodeId>((i + 1) % 64)},
               sim::Time::millis(static_cast<std::int64_t>(i)));
    ++i;
    benchmark::DoNotOptimize(neg.rawSize());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeCacheInsert);

void BM_NegativeCacheLookup(benchmark::State& state) {
  core::NegativeCache neg(64, sim::Time::seconds(10));
  const auto now = sim::Time::seconds(1);
  for (std::uint64_t i = 0; i < 64; ++i) {
    neg.insert(net::LinkId{static_cast<net::NodeId>(i),
                           static_cast<net::NodeId>(i + 1)},
               sim::Time::zero());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Alternate hits and misses; no entry expires at t=1 s so contains()
    // never triggers a sweep and measures lookup alone.
    benchmark::DoNotOptimize(
        neg.contains(net::LinkId{static_cast<net::NodeId>(i % 128),
                                 static_cast<net::NodeId>(i % 128 + 1)},
                     now));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeCacheLookup);

void BM_NegativeCacheExpirySweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::NegativeCache neg(128, sim::Time::seconds(10));
    for (std::uint64_t i = 0; i < 128; ++i) {
      neg.insert(net::LinkId{static_cast<net::NodeId>(i),
                             static_cast<net::NodeId>(i + 1)},
                 sim::Time::zero());
    }
    state.ResumeTiming();
    // All 128 entries are past their TTL: one full sweep.
    benchmark::DoNotOptimize(neg.size(sim::Time::seconds(20)));
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_NegativeCacheExpirySweep);

void BM_WaypointPositionQuery(benchmark::State& state) {
  mobility::RandomWaypoint::Params p;
  p.horizon = sim::Time::seconds(500);
  mobility::RandomWaypoint wp(sim::Rng(7), p);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wp.positionAt(sim::Time::millis(static_cast<std::int64_t>(
            (i++ * 37) % 500000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaypointPositionQuery);

scenario::ScenarioConfig smallSimConfig() {
  scenario::ScenarioConfig cfg;
  cfg.numNodes = 20;
  cfg.field = {800.0, 400.0};
  cfg.numFlows = 5;
  cfg.packetsPerSecond = 2.0;
  cfg.duration = sim::Time::seconds(10);
  cfg.mobilitySeed = 3;
  // Pin telemetry off regardless of MANET_* env so the baseline is stable.
  cfg.telemetry = telemetry::TelemetryConfig{};
  return cfg;
}

void BM_SmallSimulationEventsPerSec(benchmark::State& state) {
  for (auto _ : state) {
    const scenario::RunResult r = scenario::runScenario(smallSimConfig());
    state.counters["events"] = static_cast<double>(r.eventsExecuted);
    benchmark::DoNotOptimize(r.metrics.dataDelivered);
  }
}
BENCHMARK(BM_SmallSimulationEventsPerSec)->Unit(benchmark::kMillisecond);

// Same simulation with a ring sink attached: the cost of tracing when ON.
// Compare against BM_SmallSimulationEventsPerSec for the enabled overhead.
void BM_SmallSimulationTraced(benchmark::State& state) {
  for (auto _ : state) {
    scenario::ScenarioConfig cfg = smallSimConfig();
    cfg.telemetry.ringCapacity = 1 << 16;
    const scenario::RunResult r = scenario::runScenario(cfg);
    state.counters["events"] = static_cast<double>(r.eventsExecuted);
    benchmark::DoNotOptimize(r.metrics.dataDelivered);
  }
}
BENCHMARK(BM_SmallSimulationTraced)->Unit(benchmark::kMillisecond);

// The hook guard every trace site pays when tracing is disabled: a null
// check plus Tracer::enabled() (an empty-vector check). This is the cost
// added to the hot path when no sink is attached — it must stay ~free.
void BM_TracerDisabledHookGuard(benchmark::State& state) {
  telemetry::Tracer tracer;
  telemetry::Tracer* hook = &tracer;
  benchmark::DoNotOptimize(hook);
  std::uint64_t taken = 0;
  for (auto _ : state) {
    if (hook != nullptr && hook->enabled()) ++taken;
    benchmark::DoNotOptimize(taken);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerDisabledHookGuard);

// Cost of one enabled emit into the in-memory ring (record construction,
// dispatch, ring copy).
void BM_TracerRingEmit(benchmark::State& state) {
  telemetry::Tracer tracer;
  telemetry::RingBufferSink ring(4096);
  tracer.addSink(&ring);
  std::uint64_t i = 0;
  for (auto _ : state) {
    telemetry::TraceRecord r;
    r.at = sim::Time::micros(static_cast<std::int64_t>(++i));
    r.event = telemetry::TraceEvent::kPktForward;
    r.node = static_cast<net::NodeId>(i % 100);
    r.uid = i;
    r.src = 1;
    r.dst = 2;
    tracer.emit(r);
    benchmark::DoNotOptimize(ring.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerRingEmit);

void BM_ProfHistogramRecord(benchmark::State& state) {
  prof::LatencyHistogram hist;
  std::uint64_t i = 0;
  for (auto _ : state) {
    hist.record((i++ * 2654435761u) & 0xFFFFF);  // spread across octaves
    benchmark::DoNotOptimize(hist.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfHistogramRecord);

// Scheduler dispatch with a profiler installed and collecting — compare
// against BM_SchedulerScheduleRun for the per-event profiling overhead.
// Arg 0 gives every event one category (a single category run, the
// common same-category burst); arg 1 alternates two categories, so every
// dispatch closes a run and reads the clock, the profiler's worst case.
void BM_SchedulerDispatchProfiled(benchmark::State& state) {
  const int n = 100000;
  const bool alternate = state.range(0) != 0;
  prof::ProfConfig cfg;
  cfg.enabled = true;
  for (auto _ : state) {
    sim::Scheduler sched;
    prof::Profiler prof(cfg);
    sched.setProfiler(&prof);
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      sched.scheduleAt(sim::Time::micros(i), [&sum] { ++sum; },
                       alternate && i % 2 == 1 ? prof::Category::kPhy
                                               : prof::Category::kMac);
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerDispatchProfiled)->ArgName("alternate")->Arg(0)->Arg(1);

// --- Engine-core hot-path machinery (PR 10) -------------------------------

// Packet allocation (one make_shared) plus its release.
void BM_PacketMake(benchmark::State& state) {
  for (auto _ : state) {
    auto p = net::Packet::make();
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketMake);

// One neighborhood query against N radios: the full scan is O(N); the
// grid visits only the candidate block around the transmitter.
template <class Index>
void neighborQueryBench(benchmark::State& state, Index& index,
                        sim::Scheduler& sched,
                        std::vector<std::unique_ptr<phy::Radio>>& radios) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    const phy::Radio& tx = *radios[i++ % radios.size()];
    std::uint64_t inRange = 0;
    index.forEachInRange(tx.mobility().positionAt(sched.now()), 250.0,
                         sched.now(), &tx,
                         [&](phy::Radio&, double) { ++inRange; });
    benchmark::DoNotOptimize(inRange);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["radios"] = static_cast<double>(radios.size());
}

struct NeighborBenchField {
  sim::Scheduler sched;
  phy::PhyConfig cfg;
  phy::Channel channel{sched, cfg};
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobs;
  std::vector<std::unique_ptr<phy::Radio>> radios;

  explicit NeighborBenchField(int n) {
    sim::Rng rng(42);
    for (int i = 0; i < n; ++i) {
      mobs.push_back(std::make_unique<mobility::StaticMobility>(Vec2{
          rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)}));
      radios.push_back(std::make_unique<phy::Radio>(
          static_cast<net::NodeId>(i), *mobs.back(), channel, sched));
    }
  }
};

void BM_NeighborQueryScan(benchmark::State& state) {
  NeighborBenchField f(static_cast<int>(state.range(0)));
  phy::ScanNeighborIndex scan(f.sched);
  for (auto& r : f.radios) scan.attach(r.get());
  neighborQueryBench(state, scan, f.sched, f.radios);
}
BENCHMARK(BM_NeighborQueryScan)->Arg(50)->Arg(500);

void BM_NeighborQueryGrid(benchmark::State& state) {
  NeighborBenchField f(static_cast<int>(state.range(0)));
  phy::GridNeighborIndex grid(f.sched, 250.0, 20.0, sim::Time::seconds(1));
  for (auto& r : f.radios) grid.attach(r.get());
  neighborQueryBench(state, grid, f.sched, f.radios);
}
BENCHMARK(BM_NeighborQueryGrid)->Arg(50)->Arg(500);

// The same query on moving random-waypoint radios at the paper's density
// (2200x600 m per 100 radios, the field scaled by sqrt(N/100)), pause 0,
// 20 m/s. Sim time advances 300 us per query, about the paper run's
// transmission rate, so the grid advances cached trajectory pieces and
// re-buckets once per simulated second as it does in a run.
void BM_NeighborQueryGridWaypoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double scale = std::sqrt(n / 100.0);
  sim::Scheduler sched;
  phy::Channel channel{sched, phy::PhyConfig{}};
  mobility::RandomWaypoint::Params p;
  p.field = {2200.0 * scale, 600.0 * scale};
  p.maxSpeed = 20.0;
  p.pause = sim::Time::zero();
  p.horizon = sim::Time::seconds(3000);
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobs;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < n; ++i) {
    mobs.push_back(std::make_unique<mobility::RandomWaypoint>(
        sim::Rng(static_cast<std::uint64_t>(i) + 1), p));
    radios.push_back(std::make_unique<phy::Radio>(
        static_cast<net::NodeId>(i), *mobs.back(), channel, sched));
  }
  phy::GridNeighborIndex grid(sched, 250.0, 20.0, sim::Time::seconds(1));
  for (auto& r : radios) grid.attach(r.get());
  std::uint64_t i = 0;
  std::uint64_t inRange = 0;
  for (auto _ : state) {
    sched.runUntil(sched.now() + sim::Time::micros(300));
    const phy::Radio& tx = *radios[i++ % radios.size()];
    grid.forEachInRange(grid.positionAt(tx.id(), sched.now()), 250.0,
                        sched.now(), &tx,
                        [&](phy::Radio&, double) { ++inRange; });
  }
  benchmark::DoNotOptimize(inRange);
  state.SetItemsProcessed(state.iterations());
  state.counters["radios"] = static_cast<double>(n);
  state.counters["in_range"] =
      static_cast<double>(inRange) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_NeighborQueryGridWaypoint)->Arg(100)->Arg(400);

// Scheduler throughput: schedule n events up front, then drain them. The
// workload mixes ties and spread-out timers like a real MAC/timer mix. At
// n = 100000 the pending set is ~100x deeper than any perfbench workload
// ever gets; BM_SchedulerHold models the depths that occur.
void BM_SchedulerDispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      sched.scheduleAt(sim::Time::micros((i * 7) % (n / 4 + 1)),
                       [&sum] { ++sum; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerDispatch)->Arg(100000);

// Steady-state hold model: `depth` events stay pending (the perfbench
// workloads peak at 292-990), and each dispatch schedules one successor at
// a clumpy horizon: mostly the ~1 us phy propagation delay (ties galore),
// some MAC-scale waits and a few second-scale protocol timers. Closures
// carry a 48-byte payload, close to the channel's per-frame closure.
class HoldModel {
 public:
  explicit HoldModel(int depth) {
    for (int i = 0; i < depth; ++i) scheduleNext();
  }
  sim::Scheduler& sched() { return sched_; }
  std::uint64_t sum() const { return sum_; }

 private:
  sim::Time horizon() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    const auto r = static_cast<std::int64_t>(x_ >> 8);
    switch (x_ % 16) {
      case 0:
        return sim::Time::millis(100 + r % 2000);  // protocol timer
      case 1:
      case 2:
      case 3:
        return sim::Time::micros(10 + r % 1000);  // MAC backoff / timeout
      default:
        return sim::Time::nanos(1000);  // phy fan-out
    }
  }
  void scheduleNext() {
    const std::array<std::uint64_t, 6> payload{x_, 1, 2, 3, 4, 5};
    sched_.scheduleAfter(horizon(), [this, payload] {
      sum_ += payload[0] + payload[5];
      scheduleNext();
    });
  }

  sim::Scheduler sched_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t sum_ = 0;
};

void BM_SchedulerHold(benchmark::State& state) {
  HoldModel m(static_cast<int>(state.range(0)));
  m.sched().runUntil(sim::Time::seconds(1));  // reach the steady state
  const std::uint64_t before = m.sched().executedCount();
  for (auto _ : state) {
    m.sched().runUntil(m.sched().now() + sim::Time::millis(10));
  }
  benchmark::DoNotOptimize(m.sum());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(m.sched().executedCount() - before));
}
BENCHMARK(BM_SchedulerHold)->Arg(1000);

// Phy fan-out shape: `chains` transmitters take turns on the air. Each
// transmission dispatch schedules 16 interleaved (rxStart, rxEnd) pairs,
// at now + 1 us and at end + 1 us, as Channel::transmit does for 16
// receivers, plus the chain's next transmission after the frame and a
// backoff. Equal-time keys arrive in bursts, which the queue's runs absorb.
class FanoutModel {
 public:
  explicit FanoutModel(int chains) {
    for (int i = 0; i < chains; ++i) transmit();
  }
  sim::Scheduler& sched() { return sched_; }
  std::uint64_t sum() const { return sum_; }

 private:
  static constexpr int kReceivers = 16;

  std::int64_t draw(std::int64_t n) {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return static_cast<std::int64_t>((x_ >> 8) % static_cast<std::uint64_t>(n));
  }
  void transmit() {
    const sim::Time start = sched_.now() + sim::Time::micros(1);
    const sim::Time end = start + sim::Time::micros(100 + draw(2000));
    for (int r = 0; r < kReceivers; ++r) {
      sched_.scheduleAt(start, [this, r] { sum_ += static_cast<unsigned>(r); });
      const std::array<std::uint64_t, 5> frame{x_, 1, 2, 3, 4};
      sched_.scheduleAt(end, [this, frame] { sum_ += frame[0] + frame[4]; });
    }
    sched_.scheduleAt(end + sim::Time::micros(10 + draw(600)),
                      [this] { transmit(); });
  }

  sim::Scheduler sched_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t sum_ = 0;
};

void BM_SchedulerFanout(benchmark::State& state) {
  FanoutModel m(static_cast<int>(state.range(0)));
  m.sched().runUntil(sim::Time::seconds(1));  // reach the steady state
  const std::uint64_t before = m.sched().executedCount();
  for (auto _ : state) {
    m.sched().runUntil(m.sched().now() + sim::Time::millis(10));
  }
  benchmark::DoNotOptimize(m.sum());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(m.sched().executedCount() - before));
}
BENCHMARK(BM_SchedulerFanout)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
