#include "pscd/workload/requests.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "pscd/util/distributions.h"

namespace pscd {

std::uint8_t popularityClassForRank(std::uint32_t rank, double alpha) {
  if (rank == 0) throw std::invalid_argument("rank must be >= 1");
  // rate(rank) / rate(1) = rank^-alpha; class k while the ratio is above
  // 10^-(k+1).
  const double drop = alpha * std::log10(static_cast<double>(rank));
  if (drop < 1.0) return 0;
  if (drop < 2.0) return 1;
  if (drop < 3.0) return 2;
  return 3;
}

namespace {

/// Diurnal intensity factor in [1-A, 1+A], peaking at params.diurnalPeak.
double diurnalFactor(const RequestParams& params, SimTime t) {
  if (params.diurnalAmplitude <= 0) return 1.0;
  const double phase =
      2.0 * std::numbers::pi * (std::fmod(t, kDay) - params.diurnalPeak) /
      kDay;
  return 1.0 + params.diurnalAmplitude * std::cos(phase);
}

/// Samples a request time for a page: age-decayed from the first publish
/// time, thinned by the diurnal factor (rejection sampling).
SimTime sampleRequestTime(const RequestParams& params,
                          const TruncatedPowerLawAge& ageDist,
                          SimTime firstPublish, Rng& rng) {
  const double maxFactor = 1.0 + params.diurnalAmplitude;
  SimTime t = firstPublish;
  for (int attempt = 0; attempt < 64; ++attempt) {
    t = firstPublish + ageDist.sample(rng);
    if (rng.uniform() * maxFactor <= diurnalFactor(params, t)) return t;
  }
  return t;  // extremely unlikely; keep the last candidate
}

/// Per-page daily pool of candidate proxies (eq. 6 + the 60% overlap
/// rule). Pools are generated lazily per day.
class ServerPool {
 public:
  ServerPool(std::uint32_t poolSize, std::uint32_t numProxies,
             double affinityAlpha, Rng& rng)
      : poolSize_(std::min(poolSize, numProxies)), numProxies_(numProxies) {
    pool_.reserve(poolSize_);
    member_.assign(numProxies_, false);
    while (pool_.size() < poolSize_) addRandomNonMember(rng);
    day_ = 0;
    // Pool position i carries affinity weight (i+1)^-alpha: the pool is
    // in random order, so the "high affinity" proxies of each page are
    // random, and requests split non-uniformly across the pool.
    cumWeight_.resize(poolSize_);
    double acc = 0.0;
    for (std::uint32_t i = 0; i < poolSize_; ++i) {
      acc += std::pow(static_cast<double>(i + 1), -affinityAlpha);
      cumWeight_[i] = acc;
    }
  }

  ProxyId pick(std::uint32_t day, Rng& rng, double overlap) {
    while (day_ < day) {
      advanceDay(rng, overlap);
      ++day_;
    }
    const double u = rng.uniform() * cumWeight_.back();
    const auto it = std::lower_bound(cumWeight_.begin(), cumWeight_.end(), u);
    return pool_[static_cast<std::size_t>(it - cumWeight_.begin())];
  }

 private:
  void addRandomNonMember(Rng& rng) {
    for (;;) {
      const auto cand = static_cast<ProxyId>(rng.uniformInt(numProxies_));
      if (!member_[cand]) {
        member_[cand] = true;
        pool_.push_back(cand);
        return;
      }
    }
  }

  void advanceDay(Rng& rng, double overlap) {
    // Replace (1 - overlap) of the pool with proxies not currently in it.
    const auto keep = static_cast<std::uint32_t>(
        std::lround(overlap * static_cast<double>(pool_.size())));
    const std::uint32_t replace =
        static_cast<std::uint32_t>(pool_.size()) - keep;
    if (replace == 0 || poolSize_ >= numProxies_) return;
    // Shuffle, drop the tail, then refill with non-members.
    for (std::uint32_t i = static_cast<std::uint32_t>(pool_.size()) - 1; i > 0;
         --i) {
      std::swap(pool_[i],
                pool_[rng.uniformInt(static_cast<std::uint64_t>(i) + 1)]);
    }
    for (std::uint32_t i = 0; i < replace; ++i) {
      member_[pool_.back()] = false;
      pool_.pop_back();
    }
    while (pool_.size() < poolSize_) addRandomNonMember(rng);
  }

  std::uint32_t poolSize_;
  std::uint32_t numProxies_;
  std::uint32_t day_ = 0;
  std::vector<ProxyId> pool_;
  std::vector<bool> member_;
  std::vector<double> cumWeight_;
};

}  // namespace

std::vector<RequestEvent> generateRequests(const RequestParams& params,
                                           SimTime horizon,
                                           std::vector<PageInfo>& pages,
                                           Rng& rng) {
  const auto numPages = static_cast<std::uint32_t>(pages.size());
  if (numPages == 0 || params.numProxies == 0) {
    throw std::invalid_argument("generateRequests: empty pages/proxies");
  }
  if (params.numProxies > kMaxRequestProxies) {
    throw std::invalid_argument(
        "generateRequests: more proxies than RequestEvent can hold (2^31)");
  }

  // 1. Popularity ranks are planned by the publishing generator (they
  //    are correlated with update behaviour); derive the Zipf weights.
  std::vector<double> weight(numPages);
  for (PageId page = 0; page < numPages; ++page) {
    if (pages[page].popularityRank == 0 ||
        pages[page].popularityRank > numPages) {
      throw std::invalid_argument("generateRequests: pages lack ranks");
    }
    weight[page] = std::pow(static_cast<double>(pages[page].popularityRank),
                            -params.zipfAlpha);
  }

  // 2. Multinomial assignment of the total request volume to pages.
  const DiscreteSampler pageSampler(weight);
  std::vector<std::uint32_t> perPage(numPages, 0);
  for (std::uint64_t r = 0; r < params.totalRequests; ++r) {
    ++perPage[pageSampler.sample(rng)];
  }
  std::uint32_t maxCount = 0;
  for (PageId page = 0; page < numPages; ++page) {
    pages[page].requestCount = perPage[page];
    maxCount = std::max(maxCount, perPage[page]);
  }
  if (maxCount == 0) return {};

  // 3. Request times and server pools, page by page. The version
  //    tables and the time buffer are reused across pages.
  std::vector<RequestEvent> requests;
  requests.reserve(params.totalRequests);
  std::vector<double> versionWeight;
  std::vector<TruncatedPowerLawAge> versionAge;
  std::vector<SimTime> times;
  for (PageId page = 0; page < numPages; ++page) {
    const std::uint32_t n = perPage[page];
    if (n == 0) continue;
    const PageInfo& info = pages[page];

    // Eq. 6: maximum number of servers requesting the page in a day.
    const double share = static_cast<double>(n) / maxCount;
    const auto poolSize = static_cast<std::uint32_t>(std::max<std::int64_t>(
        params.minServerPool,
        std::lround(params.numProxies *
                    std::pow(share, params.serverPoolExponent))));
    ServerPool pool(poolSize, params.numProxies, params.poolAffinityAlpha,
                    rng);

    // Request times: every modified version rekindles interest ("most
    // news pages are requested when they are fresh"), but under a
    // lifecycle envelope that dies off over the page's lifetime — a
    // story is read most around its early versions and fades even while
    // it keeps being edited. A request picks a version under the
    // envelope and then decays from that version's publish time.
    const double gamma = params.classGamma[info.popularityClass];
    versionWeight.resize(info.numVersions);
    versionAge.clear();
    for (std::uint32_t k = 0; k < info.numVersions; ++k) {
      const SimTime sincebirth = k * info.modificationInterval;
      versionWeight[k] = std::pow(
          1.0 + sincebirth / static_cast<double>(params.lifecycleTau),
          -params.lifecycleGamma);
      // Every request of version k shares its age sampler. The floor
      // keeps the sampler well-defined for pages published in the
      // horizon's last moments; the final clamp below keeps such
      // requests inside the simulated week.
      const SimTime versionTime =
          info.firstPublish + k * info.modificationInterval;
      versionAge.emplace_back(gamma, static_cast<double>(params.ageTau),
                              std::max(horizon - versionTime, kMinute));
    }
    const DiscreteSampler versionSampler(versionWeight);
    times.resize(n);
    for (auto& t : times) {
      const std::uint32_t version =
          info.numVersions > 1 ? versionSampler.sample(rng) : 0;
      const SimTime versionTime =
          info.firstPublish + version * info.modificationInterval;
      t = std::min(
          sampleRequestTime(params, versionAge[version], versionTime, rng),
          horizon);
    }
    std::sort(times.begin(), times.end());
    for (const SimTime t : times) {
      const auto day = static_cast<std::uint32_t>(t / kDay);
      RequestEvent ev;
      ev.time = t;
      ev.page = page;
      ev.proxy = pool.pick(day, rng, params.poolOverlap);
      ev.notificationDriven =
          params.notificationDrivenFraction >= 1.0 ||
          rng.bernoulli(params.notificationDrivenFraction);
      requests.push_back(ev);
    }
  }

  std::sort(requests.begin(), requests.end(),
            [](const RequestEvent& a, const RequestEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.page != b.page) return a.page < b.page;
              return a.proxy < b.proxy;
            });
  return requests;
}

}  // namespace pscd
