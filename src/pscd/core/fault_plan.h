// Deterministic fault injection for the simulator (DESIGN.md section 9):
// a FaultConfig describes failure processes (proxy crash/restart, link
// down/up, per-operation push loss and fetch failure) plus the recovery
// policy (bounded retries with exponential backoff, degraded stale
// serving, publisher failover, cold vs. warm restart), and
// buildFaultPlan() expands the stochastic part into a FaultPlan — a
// time-sorted schedule of crash/restart and link events derived from
// the config seed alone, so identical seeds reproduce identical
// failures regardless of scheduling (the --jobs determinism contract).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "pscd/topology/graph.h"
#include "pscd/util/types.h"

namespace pscd {

class Network;

/// Bounded-retry policy for failed publisher fetches. Attempt k
/// (0-based) that fails is followed by a backoff of
/// backoffBaseMs * backoffFactor^k charged to the request's latency;
/// after maxRetries retries the fetch is abandoned and the request is
/// served stale from the cache (if a copy exists) or fails.
struct RetryPolicy {
  std::uint32_t maxRetries = 3;
  double backoffBaseMs = 50.0;
  double backoffFactor = 2.0;

  /// Backoff after failed attempt `attempt` (0-based), in ms.
  double backoffMs(std::uint32_t attempt) const;
  /// Sum of the backoffs of `attempts` consecutive failed attempts.
  double totalBackoffMs(std::uint32_t attempts) const;

  /// Throws CheckFailure unless maxRetries <= 64, backoffBaseMs is
  /// finite and >= 0, and backoffFactor is finite and >= 1.
  void validate() const;

  friend auto operator<=>(const RetryPolicy&, const RetryPolicy&) = default;
};

/// Complete failure model of one simulation run. All rates are mean
/// event counts per simulated day; downtimes are exponential with the
/// given means. The default-constructed config is the ideal overlay
/// (enabled() == false) and makes the failure layer a strict no-op.
struct FaultConfig {
  /// Seed of the fault schedule and the per-operation loss draws;
  /// independent of the workload/topology seeds.
  std::uint64_t seed = 0;

  /// Proxy crash process: each proxy crashes proxyFailuresPerDay times
  /// per day on average and stays down for an exponential downtime with
  /// mean proxyMeanDowntimeHours.
  double proxyFailuresPerDay = 0.0;
  double proxyMeanDowntimeHours = 1.0;
  /// Warm restart keeps the proxy's cache across the crash; cold
  /// restart (the default) wipes it — the ablation the paper never ran.
  bool warmRestart = false;

  /// Link failure process, applied independently to every overlay edge.
  double linkFailuresPerDay = 0.0;
  double linkMeanDowntimeHours = 0.5;

  /// Probability that one push transfer to one proxy is lost in flight.
  double pushLossProbability = 0.0;
  /// Probability that one publisher fetch attempt fails (before
  /// retries; retries re-draw independently).
  double fetchFailureProbability = 0.0;

  /// When the local proxy is down, let the user fetch straight from the
  /// publisher (slow but available) instead of failing outright.
  bool publisherFailover = true;

  RetryPolicy retry{};

  /// True when any failure process is active; false means the simulator
  /// takes the exact pre-failure-layer code path.
  bool enabled() const;

  /// Throws CheckFailure on non-finite or out-of-range parameters
  /// (negative rates/downtimes, probabilities outside [0, 1], bad retry
  /// policy).
  void validate() const;

  /// Field-wise, so every parameter tells two failure models apart (the
  /// experiment memo keys cells on this).
  friend auto operator<=>(const FaultConfig&, const FaultConfig&) = default;
};

enum class FaultEventKind : std::uint8_t {
  kProxyDown,
  kProxyUp,
  kLinkDown,
  kLinkUp,
};

struct FaultEvent {
  SimTime time = 0.0;
  FaultEventKind kind = FaultEventKind::kProxyDown;
  /// Entity: proxy id for kProxy*, edge endpoints for kLink*.
  ProxyId proxy = 0;
  NodeId linkA = 0;
  NodeId linkB = 0;
};

/// Expanded, time-sorted fault schedule. Every entity's events
/// alternate down -> up starting from the up state; a trailing down
/// with no matching up means the entity stays failed to the end of the
/// run.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Throws CheckFailure unless events are time-sorted with finite
  /// non-negative times, reference entities that exist in `network`
  /// (proxies in range, links present in the seed graph), and alternate
  /// down/up per entity.
  void checkInvariants(const Network& network) const;
};

/// Samples the crash/restart and link schedules of `config` over
/// [0, horizon). Deterministic in (config, network topology) alone:
/// every entity draws from a private SplitMix64-derived stream, so the
/// plan is independent of evaluation order and stable across runs.
FaultPlan buildFaultPlan(const FaultConfig& config, const Network& network,
                         SimTime horizon);

}  // namespace pscd
