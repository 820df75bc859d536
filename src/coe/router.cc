#include "coe/router.h"

#include <cmath>
#include <utility>

#include "sim/log.h"

namespace sn40l::coe {

const char *
routingDistributionName(RoutingDistribution dist)
{
    switch (dist) {
      case RoutingDistribution::Uniform: return "uniform";
      case RoutingDistribution::Zipf: return "zipf";
      case RoutingDistribution::RoundRobin: return "round-robin";
    }
    sim::panic("routingDistributionName: unknown distribution");
}

RoutingDistribution
routingDistributionFromName(const std::string &name)
{
    if (name == "uniform")
        return RoutingDistribution::Uniform;
    if (name == "zipf")
        return RoutingDistribution::Zipf;
    if (name == "round-robin" || name == "roundrobin")
        return RoutingDistribution::RoundRobin;
    sim::fatal("unknown routing distribution '" + name +
               "' (expected uniform, zipf, or round-robin)");
}

GuideTable::GuideTable(std::vector<double> cdf) : cdf_(std::move(cdf))
{
    // K is a power of two, so both j/K here and u*K in find() are
    // exact. For the draw's bucket j = floor(u*K), j/K <= u, so every
    // index below guide_[j] has cdf < j/K <= u, and a scan started at
    // guide_[j] returns exactly what a scan from 0 would.
    const std::size_t n = cdf_.size();
    std::size_t k = 1;
    while (k < n)
        k <<= 1;
    guide_.resize(k);
    std::size_t i = 0;
    for (std::size_t j = 0; j < k; ++j) {
        double edge = static_cast<double>(j) / static_cast<double>(k);
        while (i + 1 < n && cdf_[i] < edge)
            ++i;
        guide_[j] = static_cast<int>(i);
    }
}

int
GuideTable::find(double u) const
{
    auto i = static_cast<std::size_t>(guide_[static_cast<std::size_t>(
        u * static_cast<double>(guide_.size()))]);
    while (i + 1 < cdf_.size() && cdf_[i] < u)
        ++i;
    return static_cast<int>(i);
}

Router::Router(int num_experts, RoutingDistribution dist,
               std::uint64_t seed, double zipf_s)
    : numExperts_(num_experts), dist_(dist), rng_(seed),
      model_(models::LlmConfig::llama2_7b())
{
    if (num_experts <= 0)
        sim::fatal("Router: need at least one expert");
    model_.name = "samba-coe-router";

    if (dist_ == RoutingDistribution::Zipf) {
        std::vector<double> cdf(static_cast<std::size_t>(numExperts_));
        double sum = 0.0;
        for (std::size_t i = 0; i < cdf.size(); ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
            cdf[i] = sum;
        }
        for (double &v : cdf)
            v /= sum;
        zipf_ = GuideTable(std::move(cdf));
    }
}

int
Router::route()
{
    switch (dist_) {
      case RoutingDistribution::Uniform:
        return static_cast<int>(rng_.uniformInt(numExperts_));
      case RoutingDistribution::RoundRobin:
        return next_++ % numExperts_;
      case RoutingDistribution::Zipf:
        return zipf_.find(rng_.uniformDouble());
    }
    sim::panic("Router::route: unknown distribution");
}

} // namespace sn40l::coe
