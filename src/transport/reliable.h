// Reliable (TCP-like) transport over DSR — extension beyond the paper.
//
// The paper's related work (Holland & Vaidya, MobiCom'99) showed that stale
// DSR routes hit TCP especially hard: every stale-route loss looks like
// congestion to TCP, which then collapses its window. This module provides
// a compact TCP Tahoe-style transport so the caching techniques can be
// evaluated under feedback-controlled traffic:
//   * cumulative ACKs with out-of-order buffering at the receiver,
//   * RTT estimation (Jacobson SRTT/RTTVAR, Karn's rule) and exponential
//     RTO backoff,
//   * slow start / congestion avoidance with ssthresh, Tahoe-style reaction
//     (retransmit + cwnd = 1) on timeout, and fast retransmit on three
//     duplicate ACKs.
// Segments are numbered in whole segments (not bytes) for simplicity.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/core/dsr_agent.h"
#include "src/sim/scheduler.h"

namespace manet::transport {

struct ReliableConfig {
  std::uint32_t segmentBytes = 512;   // payload per segment (paper's MTU)
  std::uint32_t ackBytes = 40;
  double initialCwnd = 1.0;
  double initialSsthresh = 32.0;
  double maxCwnd = 64.0;
  sim::Time initialRto = sim::Time::seconds(3);
  sim::Time minRto = sim::Time::millis(200);
  sim::Time maxRto = sim::Time::seconds(60);
  int dupAckThreshold = 3;
};

/// Receiving side: installs a delivery handler on the destination's DSR
/// agent, buffers out-of-order segments and answers every data segment with
/// a cumulative ACK.
class ReliableReceiver {
 public:
  ReliableReceiver(core::DsrAgent& agent, std::uint32_t connId);

  std::uint64_t nextExpected() const { return nextExpected_; }
  std::uint64_t segmentsReceived() const { return segmentsReceived_; }

 private:
  void onSegment(const net::Packet& p);
  /// `causeUid` chains the ACK to the data segment it acknowledges.
  void sendAck(net::NodeId to, std::uint64_t causeUid);

  core::DsrAgent& agent_;
  std::uint32_t connId_;
  std::uint64_t nextExpected_ = 0;
  std::uint64_t segmentsReceived_ = 0;
  std::set<std::uint64_t> outOfOrder_;
};

/// Sending side: paced by the congestion window and ACK clock.
class ReliableSender {
 public:
  /// Streams `totalSegments` segments to `peer` (the receiver must exist
  /// for the connId). Use a large count for a saturating flow.
  ReliableSender(core::DsrAgent& agent, sim::Scheduler& sched,
                 net::NodeId peer, std::uint32_t connId,
                 std::uint64_t totalSegments, const ReliableConfig& cfg = {});

  void start();

  // --- introspection ---
  std::uint64_t acked() const { return sndUna_; }
  bool finished() const { return sndUna_ >= totalSegments_; }
  double cwnd() const { return cwnd_; }
  sim::Time currentRto() const { return rto_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t timeouts() const { return timeouts_; }
  /// Acked payload bytes per second of elapsed time since start().
  double goodputKbps(sim::Time now) const;

 private:
  void onDelivery(const net::Packet& p);
  void onAck(std::uint64_t ackNo);
  void trySend();
  void sendSegment(std::uint64_t seq, bool isRetransmit);
  void armTimer();
  void onTimeout();
  void updateRtt(sim::Time sample);

  core::DsrAgent& agent_;
  sim::Scheduler& sched_;
  net::NodeId peer_;
  std::uint32_t connId_;
  std::uint64_t totalSegments_;
  ReliableConfig cfg_;

  std::uint64_t sndUna_ = 0;   // oldest unacked segment
  std::uint64_t sndNext_ = 0;  // next segment to send (rewinds on loss)
  std::uint64_t sndMax_ = 0;   // high-water mark: seqs below were sent before
  double cwnd_;
  double ssthresh_;
  int dupAcks_ = 0;

  sim::Time rto_;
  bool rttValid_ = false;
  double srttSec_ = 0.0;
  double rttvarSec_ = 0.0;
  sim::EventId timer_ = sim::kInvalidEvent;
  sim::Time startedAt_;
  std::optional<sim::Time> finishedAt_;
  /// Send times for RTT sampling; retransmitted seqs are removed (Karn).
  std::unordered_map<std::uint64_t, sim::Time> sendTimes_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace manet::transport
