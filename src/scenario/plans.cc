#include "src/scenario/plans.h"

#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/transport/reliable.h"
#include "src/util/stats.h"

namespace manet::scenario {

namespace {

__attribute__((format(printf, 1, 2))) std::string format(const char* fmt,
                                                         ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// The line a plan prints before its first sweep.
std::string header(const char* title, const ScenarioConfig& base,
                   const BenchScale& s) {
  return format("%s — %d nodes, %d flows, %.0f s, %d seeds%s\n", title,
                base.numNodes, base.numFlows, base.duration.toSeconds(),
                s.replications, s.full ? " (full scale)" : "");
}

// The standard metric columns. Each plan names its own columns, so CSV
// headers stay what the paper's artifacts have always been called.
double delivery(const AggregateResult& a) { return a.deliveryFraction.mean(); }
double delay(const AggregateResult& a) { return a.avgDelaySec.mean(); }
double overhead(const AggregateResult& a) {
  return a.normalizedOverhead.mean();
}
double goodReplies(const AggregateResult& a) { return a.goodReplyPct.mean(); }
double invalidHits(const AggregateResult& a) {
  return a.invalidCacheHitPct.mean();
}

/// Axis over protocol variants, by default the paper's five (base DSR,
/// each technique, ALL).
std::vector<AxisValue> variantAxis(
    std::initializer_list<core::Variant> variants = {
        core::Variant::kBase, core::Variant::kWiderError,
        core::Variant::kAdaptiveExpiry, core::Variant::kNegCache,
        core::Variant::kAll}) {
  std::vector<AxisValue> values;
  for (core::Variant v : variants) {
    values.push_back({core::toString(v), [v](ScenarioConfig& cfg) {
                        cfg.dsr = core::makeVariantConfig(v);
                      }});
  }
  return values;
}

/// Pause times as fractions of the run length (the paper used 0..500 s
/// over 500 s runs), labelled in whole seconds.
std::vector<AxisValue> pauseAxis(const ScenarioConfig& base,
                                 std::initializer_list<double> fractions) {
  std::vector<AxisValue> values;
  for (double frac : fractions) {
    const double pauseSec = frac * base.duration.toSeconds();
    values.push_back(
        {Table::num(pauseSec, 0), [pauseSec](ScenarioConfig& cfg) {
           cfg.pause = sim::Time::fromSeconds(pauseSec);
         }});
  }
  return values;
}

PlanTable pointsTable(std::string title, std::string csvName) {
  return {std::move(title), std::move(csvName), pointTable};
}

PlanTable pivot(std::string metric, std::string title, std::string csvName) {
  return {std::move(title), std::move(csvName),
          [metric = std::move(metric)](const ExperimentPlan& plan,
                                       const SweepResult& result) {
            return pivotTable(plan, result, metric);
          }};
}

PlanSweep sweep(ExperimentPlan plan, std::vector<PlanTable> tables) {
  return {std::move(plan), std::move(tables), {}, {}};
}

// Fig. 1 — metrics vs the route-expiry timeout at pause 0, 3 pkt/s, with
// the no-timeout (base DSR) and adaptive values as references. Expected: a
// too-small timeout is worse than none at all (active routes keep being
// invalidated under the sender), performance peaks at a well-chosen
// timeout and decays back to base as it grows; adaptive lands near the
// static optimum.
BenchPlan fig1(const BenchScale& s) {
  const ScenarioConfig base = paperScenario(s);
  std::vector<AxisValue> timeouts;
  timeouts.push_back({"none", [](ScenarioConfig& cfg) {
                        cfg.dsr = core::makeVariantConfig(core::Variant::kBase);
                      }});
  for (double t : {0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    timeouts.push_back({Table::num(t, 2), [t](ScenarioConfig& cfg) {
                          cfg.dsr = core::makeVariantConfig(
                              core::Variant::kStaticExpiry,
                              sim::Time::fromSeconds(t));
                        }});
  }
  timeouts.push_back({"adaptive", [](ScenarioConfig& cfg) {
                        cfg.dsr = core::makeVariantConfig(
                            core::Variant::kAdaptiveExpiry);
                      }});
  ExperimentPlan plan("fig1", base);
  plan.axis("timeout_s", std::move(timeouts))
      .metric("delivery_fraction", delivery)
      .metric("avg_delay_s", delay)
      .metric("normalized_overhead", overhead, 2)
      .metric("good_replies_pct", goodReplies, 1)
      .metric("invalid_hits_pct", invalidHits, 1);
  BenchPlan out{header("Fig. 1: timeout sweep", base, s), {}};
  out.sweeps.push_back(sweep(
      std::move(plan),
      {pointsTable("Fig. 1 — metrics vs route expiry timeout (pause 0, 3 "
                   "pkt/s)",
                   "fig1_timeout_sweep.csv")}));
  return out;
}

// Fig. 2 — pause time (constant motion to none) x protocol variant at
// 3 pkt/s. Expected: ALL beats base DSR on delivery, delay and overhead at
// low pause times (paper: ~16 % delivery, ~40 % delay, ~22 % overhead at
// pause 0); the gap closes as mobility vanishes.
BenchPlan fig2(const BenchScale& s) {
  const ScenarioConfig base = paperScenario(s);
  ExperimentPlan plan("fig2", base);
  plan.axis("pause_s", pauseAxis(base, {0.0, 0.25, 0.5, 0.75, 1.0}))
      .axis("protocol", variantAxis())
      .metric("delivery", delivery)
      .metric("delay_s", delay)
      .metric("overhead", overhead, 2);
  BenchPlan out{header("Fig. 2: mobility sweep", base, s), {}};
  out.sweeps.push_back(sweep(
      std::move(plan),
      {pivot("delivery", "Fig. 2(a) — packet delivery fraction vs pause time",
             "fig2a_delivery.csv"),
       pivot("delay_s", "Fig. 2(b) — average delay (s) vs pause time",
             "fig2b_delay.csv"),
       pivot("overhead", "Fig. 2(c) — normalized overhead vs pause time",
             "fig2c_overhead.csv")}));
  return out;
}

/// Share of invalid cache hits whose stale entry was learned through one
/// of `origins` (the causal trace layer's provenance), in percent.
double invalidShare(const AggregateResult& a,
                    std::initializer_list<net::RouteOrigin> origins) {
  using O = net::RouteOrigin;
  const double all = a.meanInvalidHits(
      {O::kTargetReply, O::kCachedReply, O::kGratuitous, O::kReverseRequest,
       O::kForwarded, O::kDelivered, O::kSnooped, O::kSeeded, O::kNone});
  return all > 0.0 ? 100.0 * a.meanInvalidHits(origins) / all : 0.0;
}

// Table 3 (Fig. 3 in the text) — cache metrics per variant at pause 0:
// good replies (the reported route was valid when received) and invalid
// cache hits (a hit handed out a route with a dead link). Expected: every
// technique raises reply quality and lowers invalid hits; ALL is best.
// The last two columns attribute invalid hits to route replies vs passive
// learning (snooping, forwarding, delivery, reverse request paths).
BenchPlan table3(const BenchScale& s) {
  using O = net::RouteOrigin;
  const ScenarioConfig base = paperScenario(s);
  ExperimentPlan plan("table3", base);
  plan.axis("protocol", variantAxis())
      .metric("good_replies_pct", goodReplies, 1)
      .metric("invalid_routes_pct", invalidHits, 1)
      .metric("cache_hits",
              [](const AggregateResult& a) { return a.cacheHits.mean(); }, 0)
      .metric("link_breaks",
              [](const AggregateResult& a) { return a.linkBreaks.mean(); }, 0)
      .metric("inv_from_replies_pct",
              [](const AggregateResult& a) {
                return invalidShare(
                    a, {O::kTargetReply, O::kCachedReply, O::kGratuitous});
              },
              1)
      .metric("inv_from_passive_pct",
              [](const AggregateResult& a) {
                return invalidShare(a, {O::kReverseRequest, O::kForwarded,
                                        O::kDelivered, O::kSnooped});
              },
              1);
  BenchPlan out{header("Table 3: cache metrics", base, s), {}};
  out.sweeps.push_back(
      sweep(std::move(plan),
            {pointsTable("Table 3 — cache-related metrics at pause 0",
                         "table3_cache_metrics.csv")}));
  return out;
}

// Fig. 4 — per-flow CBR rate x protocol variant at pause 0. Expected: ALL
// outperforms base DSR across loads; the negative cache's benefit grows
// with load (in-flight stale routes pollute caches at high rates).
BenchPlan fig4(const BenchScale& s) {
  const ScenarioConfig base = paperScenario(s);
  const std::vector<double> rates = {1.0, 2.0, 3.0, 5.0, 8.0};
  BenchPlan out{header("Fig. 4: load sweep", base, s), {}};
  for (double rate : rates) {
    out.header += format("  %.0f pkt/s per flow = %.0f kb/s offered\n", rate,
                         rate * base.numFlows * base.payloadBytes * 8.0 /
                             1000.0);
  }
  ExperimentPlan plan("fig4", base);
  plan.axis(
          "rate_pkt_s", rates,
          [](ScenarioConfig& cfg, double rate) { cfg.packetsPerSecond = rate; },
          /*labelPrecision=*/0)
      .axis("protocol", variantAxis())
      .metric("throughput_kbps",
              [](const AggregateResult& a) { return a.throughputKbps.mean(); },
              1)
      .metric("delay_s", delay)
      .metric("overhead", overhead, 2);
  out.sweeps.push_back(sweep(
      std::move(plan),
      {pivot("throughput_kbps",
             "Fig. 4(a) — received throughput (kb/s) vs offered load",
             "fig4a_throughput.csv"),
       pivot("delay_s", "Fig. 4(b) — average delay (s) vs offered load",
             "fig4b_delay.csv"),
       pivot("overhead", "Fig. 4(c) — normalized overhead vs offered load",
             "fig4c_overhead.csv")}));
  return out;
}

/// One single-table ablation sweep with the ablations' metric columns.
PlanSweep ablation(ExperimentPlan plan, std::string title,
                   std::string csvName) {
  plan.metric("delivery", delivery)
      .metric("delay_s", delay)
      .metric("overhead", overhead, 2)
      .metric("good_pct", goodReplies, 1)
      .metric("invalid_pct", invalidHits, 1);
  return sweep(std::move(plan),
               {pointsTable(std::move(title), std::move(csvName))});
}

// Ablations (beyond the paper) of the design knobs DESIGN.md calls out:
// adaptive alpha (unreadable in the paper), negative cache size and Nt,
// route cache capacity (small FIFO caches mask staleness), path vs link
// cache (the paper's footnote 1), freshness tagging (its future work),
// and whether originating over a route counts as using it (the paper's
// wording says no, which is what makes tiny timeouts expensive). Six
// plans run back to back; --filter narrows whichever has the named axis.
BenchPlan ablations(const BenchScale& s) {
  const ScenarioConfig base = paperScenario(s);
  BenchPlan out{header("Ablations", base, s), {}};

  ScenarioConfig cfg = base;
  cfg.dsr = core::makeVariantConfig(core::Variant::kAdaptiveExpiry);
  ExperimentPlan alpha("ablation_alpha", cfg);
  alpha.axis(
      "alpha", {0.5, 1.0, 2.0, 4.0, 8.0},
      [](ScenarioConfig& c, double a) { c.dsr.adaptiveAlpha = a; },
      /*labelPrecision=*/1);
  out.sweeps.push_back(ablation(std::move(alpha),
                                "Ablation 1 — adaptive timeout alpha",
                                "ablation_alpha.csv"));

  cfg.dsr = core::makeVariantConfig(core::Variant::kNegCache);
  struct Knob {
    std::size_t cap;
    double nt;
  };
  std::vector<AxisValue> knobs;
  for (Knob k : {Knob{16, 10}, Knob{64, 10}, Knob{256, 10}, Knob{64, 3},
                 Knob{64, 30}}) {
    knobs.push_back(
        {"cap=" + std::to_string(k.cap) + ",Nt=" + Table::num(k.nt, 0),
         [k](ScenarioConfig& c) {
           c.dsr.negCacheCapacity = k.cap;
           c.dsr.negCacheTtl = sim::Time::fromSeconds(k.nt);
         }});
  }
  ExperimentPlan negcache("ablation_negcache", cfg);
  negcache.axis("negcache", std::move(knobs));
  out.sweeps.push_back(ablation(std::move(negcache),
                                "Ablation 2 — negative cache size / Nt",
                                "ablation_negcache.csv"));

  cfg.dsr = core::makeVariantConfig(core::Variant::kBase);
  std::vector<AxisValue> caps;
  for (std::size_t cap : {32u, 64u, 128u, 256u, 1024u}) {
    caps.push_back({std::to_string(cap), [cap](ScenarioConfig& c) {
                      c.dsr.routeCacheCapacity = cap;
                    }});
  }
  ExperimentPlan capacity("ablation_capacity", cfg);
  capacity.axis("capacity", std::move(caps));
  out.sweeps.push_back(
      ablation(std::move(capacity),
               "Ablation 3 — route cache capacity (base DSR)",
               "ablation_capacity.csv"));

  std::vector<AxisValue> structures;
  for (core::CacheStructure cs :
       {core::CacheStructure::kPath, core::CacheStructure::kLink}) {
    structures.push_back({core::toString(cs), [cs](ScenarioConfig& c) {
                            c.dsr.cacheStructure = cs;
                            // A link cache stores individual links, not
                            // whole paths: give it a comparable budget.
                            c.dsr.routeCacheCapacity =
                                cs == core::CacheStructure::kLink ? 512 : 128;
                          }});
  }
  std::vector<AxisValue> variants;
  for (core::Variant v : {core::Variant::kBase, core::Variant::kAll}) {
    // makeVariantConfig replaces the whole dsr block, so this mutator
    // (applied after the structure axis) re-applies the structure knobs
    // it would otherwise wipe.
    variants.push_back({core::toString(v), [v](ScenarioConfig& c) {
                          const core::CacheStructure keep =
                              c.dsr.cacheStructure;
                          const std::size_t cap = c.dsr.routeCacheCapacity;
                          c.dsr = core::makeVariantConfig(v);
                          c.dsr.cacheStructure = keep;
                          c.dsr.routeCacheCapacity = cap;
                        }});
  }
  ExperimentPlan structure("ablation_structure", base);
  structure.axis("structure", std::move(structures))
      .axis("structure_variant", std::move(variants));
  out.sweeps.push_back(
      ablation(std::move(structure),
               "Ablation 4 — cache structure (path vs link)",
               "ablation_structure.csv"));

  cfg.dsr = core::makeVariantConfig(core::Variant::kAll);
  ExperimentPlan freshness("ablation_freshness", cfg);
  freshness.axis(
      "freshness",
      {AxisValue{"ALL",
                 [](ScenarioConfig& c) { c.dsr.freshnessTagging = false; }},
       AxisValue{"ALL+freshness_tags",
                 [](ScenarioConfig& c) { c.dsr.freshnessTagging = true; }}});
  out.sweeps.push_back(ablation(
      std::move(freshness),
      "Ablation 5 — route freshness tagging (future-work extension)",
      "ablation_freshness.csv"));

  cfg.dsr = core::makeVariantConfig(core::Variant::kStaticExpiry,
                                    sim::Time::fromSeconds(1));
  ExperimentPlan use("ablation_use_semantics", cfg);
  use.axis("use_semantics",
           {AxisValue{"T=1s_forwarded-only_(paper)",
                      [](ScenarioConfig& c) {
                        c.dsr.expiryCountsOrigination = false;
                      }},
            AxisValue{"T=1s_origination_counts", [](ScenarioConfig& c) {
                        c.dsr.expiryCountsOrigination = true;
                      }}});
  out.sweeps.push_back(ablation(std::move(use),
                                "Ablation 6 — expiry 'use' semantics at T=1s",
                                "ablation_use_semantics.csv"));
  return out;
}

/// Transport counters for one (point, seed) run: one sample per flow.
struct TcpRunStats {
  std::vector<double> goodputKbps;
  std::vector<double> acked;
  std::vector<double> retransmissions;
  std::vector<double> timeouts;
};

// Extension (beyond the paper's figures): TCP-like transfers per caching
// strategy under mobility. After Holland & Vaidya (MobiCom'99), stale
// routes hurt feedback-controlled traffic most: every stale-route loss
// looks like congestion and collapses the window. Expected: the
// techniques' goodput gain over base DSR is at least their CBR delivery
// gain, and retransmissions drop. Each (variant, seed) cell runs its own
// senders and writes its counters into a private slot, so cells stay
// race-free under --jobs > 1.
BenchPlan tcpExtension(const BenchScale& s) {
  constexpr int kTcpFlows = 5;
  ScenarioConfig base = paperScenario(s);
  base.numFlows = 0;  // no CBR: transport generates all traffic
  BenchPlan out{
      format("TCP extension — %d nodes, %d TCP flows, %.0f s, %d seeds%s\n",
             base.numNodes, kTcpFlows, base.duration.toSeconds(),
             s.replications, s.full ? " (full scale)" : ""),
      {}};
  ExperimentPlan plan("tcp", base);
  plan.axis("variant", variantAxis());

  // Sized for the unfiltered grid: --filter only removes points, so every
  // point index stays in range.
  const auto reps = static_cast<std::size_t>(s.replications);
  auto cells =
      std::make_shared<std::vector<TcpRunStats>>(plan.pointCount() * reps);
  PlanSweep tcp = sweep(std::move(plan), {});
  tcp.runFn = [cells, reps](const SweepPoint& point, int rep,
                            const ScenarioConfig& cfg) -> RunResult {
    Scenario sc(cfg);
    net::Network& net = sc.network();
    // Long-lived TCP flows between fixed endpoint pairs.
    sim::Rng trafficRng(cfg.trafficSeed);
    std::vector<std::unique_ptr<transport::ReliableReceiver>> receivers;
    std::vector<std::unique_ptr<transport::ReliableSender>> senders;
    for (int f = 0; f < kTcpFlows; ++f) {
      net::NodeId src, dst;
      do {
        src = static_cast<net::NodeId>(
            trafficRng.uniformInt(0, cfg.numNodes - 1));
        dst = static_cast<net::NodeId>(
            trafficRng.uniformInt(0, cfg.numNodes - 1));
      } while (src == dst);
      const auto connId = static_cast<std::uint32_t>(f + 1);
      receivers.push_back(std::make_unique<transport::ReliableReceiver>(
          net.node(dst).dsr(), connId));
      senders.push_back(std::make_unique<transport::ReliableSender>(
          net.node(src).dsr(), net.scheduler(), dst, connId,
          /*totalSegments=*/1u << 30));  // saturating
      transport::ReliableSender* tx = senders.back().get();
      net.scheduler().scheduleAt(
          sim::Time::millis(1 + 10 * f), [tx] { tx->start(); },
          prof::Category::kTransport);
    }
    RunResult r = sc.run();
    TcpRunStats& cell =
        (*cells)[point.index * reps + static_cast<std::size_t>(rep)];
    for (auto& tx : senders) {
      cell.goodputKbps.push_back(tx->goodputKbps(net.scheduler().now()));
      cell.acked.push_back(static_cast<double>(tx->acked()));
      cell.retransmissions.push_back(
          static_cast<double>(tx->retransmissions()));
      cell.timeouts.push_back(static_cast<double>(tx->timeouts()));
    }
    return r;
  };
  tcp.tables.push_back(
      {"Extension — TCP-like flows vs caching strategy (pause 0)",
       "tcp_extension.csv",
       [cells, reps](const ExperimentPlan&, const SweepResult& result) {
         Table table({"variant", "goodput_kbps_per_flow", "segments_acked",
                      "retransmissions", "timeouts"});
         for (const PointResult& p : result.points) {
           util::RunningStats goodput, acked, retx, tmo;
           for (std::size_t rep = 0; rep < reps; ++rep) {
             const TcpRunStats& cell = (*cells)[p.point.index * reps + rep];
             for (double v : cell.goodputKbps) goodput.add(v);
             for (double v : cell.acked) acked.add(v);
             for (double v : cell.retransmissions) retx.add(v);
             for (double v : cell.timeouts) tmo.add(v);
           }
           table.addRow({p.point.coordinates[0], Table::num(goodput.mean(), 1),
                         Table::num(acked.mean(), 0),
                         Table::num(retx.mean(), 1),
                         Table::num(tmo.mean(), 1)});
         }
         return table;
       }});
  out.sweeps.push_back(std::move(tcp));
  return out;
}

// Extension after the paper's companion study (Das, Perkins & Royer,
// INFOCOM 2000): DSR (base and ALL) vs AODV across mobility. AODV's
// sequence-numbered single-entry routes degrade more gracefully than DSR's
// unguarded path caches; the techniques close much of that gap. AODV-noIR
// (no intermediate replies) is AODV without cache-like behaviour.
BenchPlan protocolComparison(const BenchScale& s) {
  const ScenarioConfig base = paperScenario(s);
  struct Proto {
    const char* name;
    net::Protocol protocol;
    core::Variant variant;     // DSR only
    bool intermediateReplies;  // AODV only
  };
  std::vector<AxisValue> protocols;
  for (const Proto p :
       {Proto{"DSR-base", net::Protocol::kDsr, core::Variant::kBase, true},
        Proto{"DSR-ALL", net::Protocol::kDsr, core::Variant::kAll, true},
        Proto{"AODV", net::Protocol::kAodv, core::Variant::kBase, true},
        Proto{"AODV-noIR", net::Protocol::kAodv, core::Variant::kBase,
              false}}) {
    protocols.push_back({p.name, [p](ScenarioConfig& cfg) {
                           cfg.protocol = p.protocol;
                           cfg.dsr = core::makeVariantConfig(p.variant);
                           cfg.aodv.intermediateReplies =
                               p.intermediateReplies;
                         }});
  }
  ExperimentPlan plan("proto", base);
  plan.axis("pause_s", pauseAxis(base, {0.0, 0.5, 1.0}))
      .axis("protocol", std::move(protocols))
      .metric("delivery", delivery)
      .metric("overhead", overhead, 2);
  BenchPlan out{header("Protocol comparison", base, s), {}};
  out.sweeps.push_back(sweep(
      std::move(plan),
      {pivot("delivery", "Protocol comparison — delivery fraction vs pause "
                         "time",
             "protocol_comparison_delivery.csv"),
       pivot("overhead", "Protocol comparison — normalized overhead vs pause "
                         "time",
             "protocol_comparison_overhead.csv")}));
  return out;
}

// Robustness under node churn: a crash invalidates every cached route
// through the node at once, a harsher staleness source than mobility.
// Churn intensity (fraction of nodes cycling up/down, 30 s mean up, 5 s
// mean down) x cache strategy. The fault plan is set here, not from
// MANET_FAULT_*, so rows stay comparable.
BenchPlan faultSweep(const BenchScale& s) {
  ScenarioConfig base = paperScenario(s);
  base.fault = {};
  base.fault.churn.meanUpTimeSec = 30.0;
  base.fault.churn.meanDownTimeSec = 5.0;
  ExperimentPlan plan("fault_sweep", base);
  plan.axis(
          "churn_fraction", {0.0, 0.05, 0.1, 0.2},
          [](ScenarioConfig& cfg, double fraction) {
            cfg.fault.churn.fraction = fraction;
          })
      .axis("protocol",
            variantAxis({core::Variant::kBase, core::Variant::kWiderError,
                         core::Variant::kAdaptiveExpiry,
                         core::Variant::kNegCache}))
      .metric("delivery_pct",
              [](const AggregateResult& a) { return delivery(a) * 100.0; }, 1)
      .metric("delay_ms",
              [](const AggregateResult& a) { return delay(a) * 1000.0; }, 1)
      .metric("norm_overhead", overhead, 2);
  BenchPlan out{header("Fault sweep: churn x strategy", base, s), {}};

  // Crash counts live on the per-run metrics, not the aggregate; the
  // merge-order observer collects them. Sized like the unfiltered grid.
  auto crashes = std::make_shared<std::vector<double>>(plan.pointCount());
  PlanSweep faults = sweep(std::move(plan), {});
  faults.onRun = [crashes](const SweepPoint& point, int, const RunResult& r) {
    (*crashes)[point.index] += static_cast<double>(r.metrics.faultNodeCrashes);
  };
  faults.tables.push_back(
      {"Fault sweep — delivery under node churn", "fault_sweep.csv",
       [crashes](const ExperimentPlan& p, const SweepResult& result) {
         Table table({"churn_fraction", "protocol", "delivery_pct",
                      "delay_ms", "norm_overhead", "crashes"});
         for (const PointResult& pr : result.points) {
           std::vector<std::string> row = pr.point.coordinates;
           for (const MetricColumn& m : p.metrics()) {
             row.push_back(Table::num(m.fn(pr.agg), m.precision));
           }
           row.push_back(Table::num(
               (*crashes)[pr.point.index] / result.replications, 1));
           table.addRow(row);
         }
         return table;
       }});
  out.sweeps.push_back(std::move(faults));
  return out;
}

constexpr PlanEntry kPlans[] = {
    {"fig1_timeout_sweep", fig1},
    {"fig2_mobility_sweep", fig2},
    {"table3_cache_metrics", table3},
    {"fig4_load_sweep", fig4},
    {"ablation_knobs", ablations},
    {"tcp_extension", tcpExtension},
    {"protocol_comparison", protocolComparison},
    {"fault_sweep", faultSweep},
};

}  // namespace

std::span<const PlanEntry> planRegistry() { return kPlans; }

SweepResult runSweep(const PlanSweep& sweep, RunnerOptions opts) {
  opts.runFn = sweep.runFn;
  opts.onRun = sweep.onRun;
  return runPlan(sweep.plan, opts);
}

}  // namespace manet::scenario
