// Broker: the publish/subscribe brokering system of figure 1. It owns
// the matching engine, accepts subscriptions (either as full predicate
// subscriptions or pre-aggregated per-proxy counts, mirroring the
// "subscription aggregator" each proxy runs), and on publish produces
// the per-proxy notification fan-out consumed by the content
// distribution engine.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pscd/pubsub/attributes.h"
#include "pscd/pubsub/matcher.h"
#include "pscd/pubsub/subscription.h"
#include "pscd/util/types.h"

namespace pscd {

struct Notification {
  ProxyId proxy = 0;
  /// Number of end-user subscriptions at this proxy matching the page.
  std::uint32_t matchCount = 0;

  friend bool operator==(const Notification&, const Notification&) = default;
};

class Broker {
 public:
  explicit Broker(std::uint32_t numProxies);

  std::uint32_t numProxies() const { return numProxies_; }

  /// Registers one end-user subscription (predicate form).
  SubscriptionId subscribe(Subscription sub);

  bool unsubscribe(SubscriptionId id);

  /// Registers `count` end-user subscriptions at `proxy` that match
  /// exactly page `page`; counts accumulate across calls. This is the
  /// aggregated form a proxy's subscription aggregator reports upstream.
  /// Throws std::overflow_error, leaving the count unchanged, when the
  /// total would not fit in 32 bits.
  void subscribeAggregated(ProxyId proxy, PageId page, std::uint32_t count);

  /// Removes up to `count` aggregated subscriptions (clamping at zero);
  /// returns the number actually removed. Supports subscription churn.
  std::uint32_t unsubscribeAggregated(ProxyId proxy, PageId page,
                                      std::uint32_t count);

  /// Matches a publish event against all subscriptions; returns the
  /// per-proxy notification list sorted by proxy id (proxies with zero
  /// matches are omitted). A proxy's aggregated plus predicate count
  /// saturates at UINT32_MAX. Updates fan-out statistics.
  std::vector<Notification> publish(const ContentAttributes& attrs);

  /// Total subscriptions matching `page` at `proxy` via the aggregated
  /// path (the predicate path is dynamic and not included).
  std::uint32_t aggregatedCount(ProxyId proxy, PageId page) const;

  std::uint64_t publishCount() const { return publishCount_; }
  std::uint64_t notificationCount() const { return notificationCount_; }

  const MatchingEngine& engine() const { return engine_; }

  /// Validates the matching engine plus the aggregated-subscription
  /// tables (sorted per page, positive counts, proxies in range).
  /// Throws CheckFailure on any violation.
  void checkInvariants() const;

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  std::uint32_t numProxies_;
  MatchingEngine engine_;
  // page -> (proxy -> count), kept sorted by proxy id.
  std::unordered_map<PageId, std::vector<Notification>> aggregated_;
  std::uint64_t publishCount_ = 0;
  std::uint64_t notificationCount_ = 0;
};

}  // namespace pscd
