// Extension experiment (beyond the paper's figures): TCP-like transfers
// over DSR under mobility, per caching strategy.
//
// Motivated by the paper's related work (Holland & Vaidya, MobiCom'99):
// stale routes are particularly damaging to feedback-controlled traffic —
// every stale-route loss looks like congestion, collapsing the sender's
// window. Expected shape: the caching techniques' goodput advantage over
// base DSR is at least as large as their CBR delivery advantage, and
// retransmission counts drop.
//
// Uses the sweep runner's custom runFn hook: each (variant, seed) cell
// builds its own Scenario plus TCP senders/receivers and records the
// transport counters into its private slot of a preallocated grid, so the
// cells stay data-race-free under --jobs > 1.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/scenario/bench_cli.h"
#include "src/scenario/experiment.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"
#include "src/transport/reliable.h"
#include "src/util/stats.h"

namespace {

/// Transport counters for one (point, seed) run: one sample per flow.
struct TcpRunStats {
  std::vector<double> goodputKbps;
  std::vector<double> acked;
  std::vector<double> retransmissions;
  std::vector<double> timeouts;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace manet;
  using scenario::Table;

  const scenario::BenchCli cli(argc, argv, "tcp_extension");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  base.numFlows = 0;  // no CBR: transport generates all traffic
  const int tcpFlows = 5;
  std::printf("TCP extension — %d nodes, %d TCP flows, %.0f s, %d seeds%s\n",
              base.numNodes, tcpFlows, base.duration.toSeconds(),
              cli.replications(), scale.full ? " (full scale)" : "");

  std::vector<scenario::AxisValue> variants;
  for (core::Variant v :
       {core::Variant::kBase, core::Variant::kWiderError,
        core::Variant::kAdaptiveExpiry, core::Variant::kNegCache,
        core::Variant::kAll}) {
    variants.push_back({core::toString(v), [v](scenario::ScenarioConfig& cfg) {
                          cfg.dsr = core::makeVariantConfig(v);
                        }});
  }

  scenario::ExperimentPlan plan("tcp", base);
  plan.axis("variant", std::move(variants));
  cli.applyFilters(plan);

  // One private slot per (point, seed) cell; the merge below reads them in
  // deterministic plan order.
  const int reps = cli.replications();
  std::vector<TcpRunStats> cells(plan.pointCount() *
                                 static_cast<std::size_t>(reps));

  scenario::RunnerOptions opts = cli.runnerOptions();
  opts.runFn = [&cells, reps, tcpFlows](const scenario::SweepPoint& point,
                                        int rep,
                                        const scenario::ScenarioConfig& cfg)
      -> scenario::RunResult {
    scenario::Scenario s(cfg);
    net::Network& net = s.network();

    // Long-lived TCP flows between fixed endpoint pairs.
    sim::Rng trafficRng(cfg.trafficSeed);
    std::vector<std::unique_ptr<transport::ReliableReceiver>> receivers;
    std::vector<std::unique_ptr<transport::ReliableSender>> senders;
    for (int f = 0; f < tcpFlows; ++f) {
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
      net.scheduler().scheduleAt(sim::Time::millis(1 + 10 * f),
                                 [tx] { tx->start(); });
    }
    scenario::RunResult r = s.run();

    TcpRunStats& cell =
        cells[point.index * static_cast<std::size_t>(reps) +
              static_cast<std::size_t>(rep)];
    for (auto& tx : senders) {
      cell.goodputKbps.push_back(tx->goodputKbps(net.scheduler().now()));
      cell.acked.push_back(static_cast<double>(tx->acked()));
      cell.retransmissions.push_back(
          static_cast<double>(tx->retransmissions()));
      cell.timeouts.push_back(static_cast<double>(tx->timeouts()));
    }
    return r;
  };

  const scenario::SweepResult result = scenario::runPlan(plan, opts);

  Table table({"variant", "goodput_kbps_per_flow", "segments_acked",
               "retransmissions", "timeouts"});
  for (const scenario::PointResult& p : result.points) {
    util::RunningStats goodput, acked, retx, tmo;
    for (int rep = 0; rep < reps; ++rep) {
      const TcpRunStats& cell =
          cells[p.point.index * static_cast<std::size_t>(reps) +
                static_cast<std::size_t>(rep)];
      for (double v : cell.goodputKbps) goodput.add(v);
      for (double v : cell.acked) acked.add(v);
      for (double v : cell.retransmissions) retx.add(v);
      for (double v : cell.timeouts) tmo.add(v);
    }
    table.addRow({p.point.coordinates[0], Table::num(goodput.mean(), 1),
                  Table::num(acked.mean(), 0), Table::num(retx.mean(), 1),
                  Table::num(tmo.mean(), 1)});
  }
  table.print("Extension — TCP-like flows vs caching strategy (pause 0)",
              "tcp_extension.csv");
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
  return 0;
}
