// ContentDistributionEngine: the public API tying together the pub/sub
// broker (matching + notification), the overlay network, and one content
// distribution strategy instance per proxy. This is the "content
// delivery engine" the paper adds to the classic publish/subscribe
// architecture (figure 1, flow 3').
//
// Usage: subscribe users (predicate subscriptions or aggregated counts),
// publish pages as they are produced, and route user requests through
// request(). The engine performs match-time pushing and access-time
// caching according to the configured strategy and accounts the traffic
// between publisher and proxies.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "pscd/cache/strategy.h"
#include "pscd/cache/strategy_factory.h"
#include "pscd/pubsub/broker.h"
#include "pscd/topology/network.h"
#include "pscd/util/types.h"

namespace pscd {

/// How pushed content travels from the publisher to a proxy (section
/// 5.6). Always-Pushing transfers every matched page; Pushing-When-
/// Necessary first exchanges meta-information and transfers only pages
/// the proxy decides to store.
enum class PushScheme { kAlwaysPushing, kPushingWhenNecessary };

struct EngineConfig {
  StrategyKind strategy = StrategyKind::kGDStar;
  double beta = 1.0;
  double dcInitialPcFraction = 0.5;
  double dcMinPcFraction = 0.25;
  double dcMaxPcFraction = 0.75;
  PushScheme pushScheme = PushScheme::kAlwaysPushing;
  /// Cache capacity per proxy; must match the network's proxy count.
  std::vector<Bytes> proxyCapacities;
};

/// Accounting of one publish event.
struct PublishSummary {
  std::uint32_t proxiesNotified = 0;  // proxies with >= 1 match
  std::uint32_t proxiesStored = 0;    // proxies that stored the page
  std::uint64_t pagesTransferred = 0;
  Bytes bytesTransferred = 0;
  /// Pushes that never arrived (down proxy, partition, or in-flight
  /// loss); always 0 on the fault-free path.
  std::uint64_t pagesLost = 0;
  Bytes bytesLost = 0;
};

/// Accounting of one request.
struct RequestSummary {
  bool hit = false;
  bool stale = false;  // a stale copy was cached at request time
  /// Publisher -> proxy bytes (page size on a miss, 0 on a hit).
  Bytes bytesTransferred = 0;
  /// Failure-layer accounting; all zero/false on the fault-free path.
  std::uint32_t retries = 0;   // failed fetch attempts that were retried
  bool servedStale = false;    // degraded: stale cache copy served after
                               // the publisher fetch failed
  bool failover = false;       // served via direct publisher fetch while
                               // the local proxy was down
  bool unavailable = false;    // the request could not be served at all
};

/// Per-publish fault decisions supplied by the failure layer. lost() is
/// called once per notified push-capable proxy, in ascending proxy
/// order (the determinism contract: any randomness inside must be
/// consumed in exactly that order).
struct PushFaults {
  std::function<bool(ProxyId)> lost;
};

/// Per-request fault decisions supplied by the failure layer.
struct RequestFaults {
  /// The local proxy process is down (crashed, not yet restarted).
  bool proxyDown = false;
  /// A residual network path publisher -> proxy exists.
  bool pathToPublisher = true;
  /// Serve a down proxy's users straight from the publisher when
  /// possible instead of failing the request.
  bool publisherFailover = true;
  /// Bounded-retry budget for failed fetch attempts.
  std::uint32_t maxRetries = 0;
  /// One Bernoulli draw per fetch attempt; true = the attempt failed.
  /// Consulted only when pathToPublisher (partitions fail without
  /// drawing). Null means attempts never fail randomly.
  std::function<bool()> fetchAttemptFails;
};

class ContentDistributionEngine {
 public:
  /// The network defines the proxy count and fetch costs; capacities in
  /// config must have one entry per proxy.
  ContentDistributionEngine(const Network& network, EngineConfig config);

  Broker& broker() { return broker_; }
  const Broker& broker() const { return broker_; }

  std::uint32_t numProxies() const {
    return static_cast<std::uint32_t>(proxies_.size());
  }

  /// Publishes a page version: matches it against all subscriptions and
  /// runs the push-time placement at every notified proxy. With
  /// `faults`, pushes reported lost never reach the proxy (no store, no
  /// transfer; under Always-Pushing the wasted publisher->proxy bytes
  /// are accounted as lost).
  PublishSummary publish(const PublishEvent& event,
                         const ContentAttributes& attrs,
                         const PushFaults* faults = nullptr);

  /// Convenience overload using page-id-only attributes.
  PublishSummary publish(const PublishEvent& event,
                         const PushFaults* faults = nullptr);

  /// A user attached to `proxy` requests `page`. The page must have been
  /// published before (throws std::out_of_range otherwise).
  ///
  /// With `faults`, the failure-recovery path runs: a down proxy fails
  /// over to a direct publisher fetch (when allowed and a path exists);
  /// a miss retries failed fetches up to maxRetries times; an abandoned
  /// fetch serves a stale cached copy when one exists (degraded, cache
  /// state untouched) and fails otherwise. Without `faults` the
  /// behaviour is bit-identical to the pre-failure-layer engine.
  RequestSummary request(ProxyId proxy, PageId page, SimTime now,
                         const RequestFaults* faults = nullptr);

  /// Crash/restart model: a cold restart (warm = false) replaces the
  /// proxy's strategy with a freshly constructed one, wiping the cache
  /// and all bookkeeping (L, access history, dual-cache partition); a
  /// warm restart keeps the strategy untouched.
  void restartProxy(ProxyId proxy, bool warm);

  /// True once `page` has been published: the non-throwing check a
  /// server makes before request(), latestVersion() or pageSize().
  bool published(PageId page) const { return findPage(page) != nullptr; }

  /// Latest published version/size of a page; throws if never published.
  Version latestVersion(PageId page) const;
  Bytes pageSize(PageId page) const;

  const DistributionStrategy& strategy(ProxyId proxy) const;
  DistributionStrategy& strategy(ProxyId proxy);

  /// Deep validation: broker/matcher invariants, every proxy strategy's
  /// internal invariants, and the published-page table (positive sizes,
  /// per-page notification lists sorted by proxy). Throws CheckFailure
  /// on any violation.
  void checkInvariants() const;

 private:
  struct PageState {
    Version version = 0;
    Bytes size = 0;
    /// Match counts from the page's most recent publish, sorted by
    /// proxy; consulted at request time for the subscription factor.
    std::vector<Notification> matches;
  };

  /// The page's state, or nullptr if it was never published.
  const PageState* findPage(PageId page) const;
  /// findPage() that throws std::out_of_range for an unknown page.
  const PageState& pageState(PageId page) const;
  std::uint32_t matchCount(const PageState& state, ProxyId proxy) const;

  EngineConfig config_;
  Broker broker_;
  /// Construction parameters of each proxy's strategy, kept so a cold
  /// restart can rebuild it from scratch.
  std::vector<StrategyParams> strategyParams_;
  std::vector<std::unique_ptr<DistributionStrategy>> proxies_;
  std::unordered_map<PageId, PageState> pages_;
};

}  // namespace pscd
