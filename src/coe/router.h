/**
 * @file
 * The Samba-CoE router (Section II, Fig 2): a specialist model that
 * assigns each prompt to an expert. The routing *decision* here is a
 * synthetic distribution (the accuracy of the real router is
 * irrelevant to systems behaviour); the routing *cost* is the real
 * router-model execution, charged by the serving simulator.
 */

#ifndef SN40L_COE_ROUTER_H
#define SN40L_COE_ROUTER_H

#include <string>
#include <vector>

#include "models/llm_config.h"
#include "sim/rng.h"

namespace sn40l::coe {

enum class RoutingDistribution {
    Uniform,    ///< every expert equally likely (paper's worst case)
    Zipf,       ///< few hot experts (deployment locality)
    RoundRobin, ///< adversarial for caching: maximal working set
};

const char *routingDistributionName(RoutingDistribution dist);

/**
 * Parse a distribution name ("uniform", "zipf", "round-robin") as
 * printed by routingDistributionName(). Throws FatalError on unknown
 * names, listing the accepted spellings.
 */
RoutingDistribution routingDistributionFromName(const std::string &name);

/**
 * Inverse-CDF lookup by guide table (Chen & Asau's indexed search):
 * O(1) expected compares per lookup, independent of the table length.
 */
class GuideTable
{
  public:
    GuideTable() = default;

    /** @param cdf non-empty and non-decreasing. */
    explicit GuideTable(std::vector<double> cdf);

    /**
     * The first i with u <= cdf[i], or the last index when u exceeds
     * every entry — exactly what a linear scan from 0 returns.
     * @p u must lie in [0, 1).
     */
    int find(double u) const;

    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
    /**
     * guide_[j] is the first i with cdf_[i] >= j/K, clamped to the last
     * index, for K = guide_.size(), the least power of two >= the CDF's
     * length.
     */
    std::vector<int> guide_;
};

class Router
{
  public:
    Router(int num_experts, RoutingDistribution dist,
           std::uint64_t seed = 1, double zipf_s = 1.0);

    /** Route the next prompt; returns an expert id. */
    int route();

    /** The Zipf sampler; empty for other routings. */
    const GuideTable &zipfTable() const { return zipf_; }

    int numExperts() const { return numExperts_; }
    const models::LlmConfig &model() const { return model_; }

  private:
    int numExperts_;
    RoutingDistribution dist_;
    sim::Rng rng_;
    int next_ = 0;                 ///< round-robin cursor
    GuideTable zipf_;              ///< Zipf inverse CDF
    models::LlmConfig model_;      ///< the router is itself a 7B model
};

} // namespace sn40l::coe

#endif // SN40L_COE_ROUTER_H
