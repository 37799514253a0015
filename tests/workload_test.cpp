#include "pscd/workload/workload.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>

namespace pscd {
namespace {

WorkloadParams tinyParams(std::uint64_t seed = 42) {
  WorkloadParams p = newsTraceParams();
  p.publishing.numPages = 300;
  p.publishing.numUpdatedPages = 120;
  p.publishing.maxVersionsPerPage = 20;
  p.request.totalRequests = 8000;
  p.request.numProxies = 10;
  p.request.minServerPool = 2;
  p.seed = seed;
  return p;
}

TEST(WorkloadTest, BuildsValidWorkload) {
  const Workload w = buildWorkload(tinyParams());
  EXPECT_NO_THROW(w.validate());
  EXPECT_EQ(w.numPages(), 300u);
  EXPECT_EQ(w.numProxies(), 10u);
  EXPECT_EQ(w.requests.size(), 8000u);
  EXPECT_GT(w.publishes.size(), 300u);  // originals + modifications
}

TEST(WorkloadTest, DeterministicPerSeed) {
  const Workload a = buildWorkload(tinyParams(7));
  const Workload b = buildWorkload(tinyParams(7));
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].page, b.requests[i].page);
    EXPECT_EQ(a.requests[i].proxy, b.requests[i].proxy);
  }
  EXPECT_EQ(a.subEntries.size(), b.subEntries.size());
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  const Workload a = buildWorkload(tinyParams(1));
  const Workload b = buildWorkload(tinyParams(2));
  bool different = a.requests.size() != b.requests.size();
  for (std::size_t i = 0; !different && i < a.requests.size(); ++i) {
    different = a.requests[i].page != b.requests[i].page;
  }
  EXPECT_TRUE(different);
}

TEST(WorkloadTest, SubscriptionLookupMatchesCsr) {
  const Workload w = buildWorkload(tinyParams());
  for (PageId page = 0; page < w.numPages(); ++page) {
    for (const auto& n : w.subscriptions(page)) {
      EXPECT_EQ(w.subscriptionCount(page, n.proxy), n.matchCount);
    }
  }
  EXPECT_EQ(w.subscriptionCount(0, 9999u % w.numProxies()),
            w.subscriptionCount(0, 9999u % w.numProxies()));
  EXPECT_THROW(w.subscriptions(w.numPages()), std::out_of_range);
}

TEST(WorkloadTest, PerfectQualityTotalsEqualRequests) {
  const Workload w = buildWorkload(tinyParams());
  EXPECT_EQ(w.totalSubscriptions(), w.requests.size());
}

TEST(WorkloadTest, EveryRequestedPairHasSubscription) {
  const Workload w = buildWorkload(tinyParams());
  std::set<std::pair<PageId, ProxyId>> pairs;
  for (const auto& r : w.requests) pairs.insert({r.page, r.proxy});
  for (const auto& [page, proxy] : pairs) {
    EXPECT_GE(w.subscriptionCount(page, proxy), 1u);
  }
}

TEST(WorkloadTest, UniqueBytesConsistent) {
  const Workload w = buildWorkload(tinyParams());
  // Recompute independently.
  std::vector<Bytes> expect(w.numProxies(), 0);
  std::set<std::pair<PageId, ProxyId>> seen;
  for (const auto& r : w.requests) {
    if (seen.insert({r.page, r.proxy}).second) {
      expect[r.proxy] += w.pages[r.page].size;
    }
  }
  for (ProxyId p = 0; p < w.numProxies(); ++p) {
    EXPECT_EQ(w.uniqueBytesRequested[p], expect[p]);
    EXPECT_GT(w.uniqueBytesRequested[p], 0u);
  }
}

// The same recount on the paper-scale NEWS trace with half of the
// requests not notification-driven: 6000 pages x 100 proxies exercises
// the whole (page, proxy) table that buildWorkload marks.
TEST(WorkloadTest, UniqueBytesConsistentAtPaperScale) {
  WorkloadParams p = newsTraceParams();
  p.request.notificationDrivenFraction = 0.5;
  const Workload w = buildWorkload(p);
  std::vector<Bytes> expect(w.numProxies(), 0);
  std::set<std::pair<PageId, ProxyId>> seen;
  for (const auto& r : w.requests) {
    if (seen.insert({r.page, r.proxy}).second) {
      expect[r.proxy] += w.pages[r.page].size;
    }
  }
  EXPECT_EQ(w.uniqueBytesRequested, expect);
}

/// FNV-1a over every request field, the subscription entries and the
/// per-proxy unique bytes.
std::uint64_t fingerprint(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  add(w.requests.size());
  for (const RequestEvent& r : w.requests) {
    add(std::bit_cast<std::uint64_t>(r.time));
    add(r.page);
    add(r.proxy);
    add(r.notificationDriven ? 1 : 0);
  }
  add(w.subEntries.size());
  for (const Notification& n : w.subEntries) {
    add(n.proxy);
    add(n.matchCount);
  }
  for (const Bytes b : w.uniqueBytesRequested) add(b);
  return h;
}

// Golden fingerprints of the paper-scale traces at seed 42. A change to
// RequestEvent's layout or to the generator's speed must leave every
// generated value and the RNG consumption order unchanged.
TEST(WorkloadTest, GoldenFingerprintNews) {
  EXPECT_EQ(fingerprint(buildWorkload(newsTraceParams())),
            0x051e72ba5b302305ull);
}

TEST(WorkloadTest, GoldenFingerprintAlternative) {
  EXPECT_EQ(fingerprint(buildWorkload(alternativeTraceParams())),
            0xfe37f3c050a2b147ull);
}

TEST(WorkloadTest, GoldenFingerprintHalfNotificationDriven) {
  WorkloadParams p = newsTraceParams();
  p.request.notificationDrivenFraction = 0.5;
  EXPECT_EQ(fingerprint(buildWorkload(p)), 0xb658583a50181e44ull);
}

TEST(WorkloadTest, TraceParamsDifferOnlyInAlpha) {
  const auto news = newsTraceParams();
  const auto alt = alternativeTraceParams();
  EXPECT_DOUBLE_EQ(news.request.zipfAlpha, 1.5);
  EXPECT_DOUBLE_EQ(alt.request.zipfAlpha, 1.0);
  EXPECT_EQ(news.publishing.numPages, alt.publishing.numPages);
}

TEST(WorkloadTest, ValidateCatchesCorruption) {
  Workload w = buildWorkload(tinyParams());
  w.subOffsets.back() += 1;
  EXPECT_THROW(w.validate(), std::logic_error);
}

TEST(WorkloadTest, ValidateCatchesUnsortedRequests) {
  Workload w = buildWorkload(tinyParams());
  ASSERT_GT(w.requests.size(), 2u);
  std::swap(w.requests.front(), w.requests.back());
  EXPECT_THROW(w.validate(), std::logic_error);
}

}  // namespace
}  // namespace pscd
