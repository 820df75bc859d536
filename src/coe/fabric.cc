#include "coe/fabric.h"

#include <cmath>

#include "sim/log.h"
#include "sim/ticks.h"
#include "util/units.h"

namespace sn40l::coe {

void
validateFabricConfig(const FabricConfig &cfg)
{
    using sim::requireValue;
    if (!cfg.enabled)
        return;
    requireValue(cfg.linkGbps > 0.0 && std::isfinite(cfg.linkGbps),
                 "--link-gbps", cfg.linkGbps,
                 "must be a positive finite number");
    requireValue(sim::withinHorizon(cfg.linkLatencyUs * 1e-6),
                 "--link-latency-us", cfg.linkLatencyUs, sim::kTimeRule);
    requireValue(cfg.linkBufferFlits >= 1, "--link-buffer-flits",
                 cfg.linkBufferFlits, "must be at least 1");
    requireValue(cfg.flitBytes > 0.0, "flitBytes", cfg.flitBytes,
                 "must be positive");
    double flit_seconds = cfg.flitBytes / (cfg.linkGbps * 1e9 / 8.0);
    if (!(flit_seconds < sim::kHorizonSeconds))
        sim::fatal("fabric: at --link-gbps " +
                   util::formatGeneral(cfg.linkGbps) + " one " +
                   util::formatGeneral(cfg.flitBytes) +
                   "-byte flit takes longer than simulated time can "
                   "span; raise --link-gbps");
    requireValue(cfg.maxFlitsPerMessage >= 1, "maxFlitsPerMessage",
                 cfg.maxFlitsPerMessage, "must be at least 1");
    requireValue(cfg.requestOverheadBytes >= 0.0, "requestOverheadBytes",
                 cfg.requestOverheadBytes, "must be non-negative");
    requireValue(cfg.requestPayloadBytes >= 0.0, "requestPayloadBytes",
                 cfg.requestPayloadBytes, "must be non-negative");
}

sim::NetworkConfig
toNetworkConfig(const FabricConfig &cfg, int nodes)
{
    sim::NetworkConfig net;
    net.topology = cfg.topology;
    net.endpoints = nodes + 1; // + the dispatch hub
    net.linkBytesPerSec = cfg.linkGbps * 1e9 / 8.0;
    net.linkLatency = sim::fromUs(cfg.linkLatencyUs);
    net.bufferFlits = cfg.linkBufferFlits;
    net.flitBytes = cfg.flitBytes;
    net.maxFlitsPerMessage = cfg.maxFlitsPerMessage;
    return net;
}

ClusterFabric::ClusterFabric(sim::EventQueue &eq,
                             const FabricConfig &cfg, int nodes)
    : cfg_(cfg), nodes_(nodes), net_(eq, toNetworkConfig(cfg, nodes))
{
}

void
ClusterFabric::sendRequest(int node, double bytes,
                           Callback on_delivered)
{
    net_.send(nodes_, node, bytes + cfg_.requestOverheadBytes,
              std::move(on_delivered));
}

void
ClusterFabric::sendTransfer(int from, int to, double bytes,
                            Callback on_delivered)
{
    net_.send(from, to, bytes, std::move(on_delivered));
}

double
ClusterFabric::hubCongestion(int node)
{
    return net_.pathCongestion(nodes_, node);
}

void
ClusterFabric::degradeNode(int node, double factor)
{
    net_.setEndpointLinkFactor(node, factor);
}

} // namespace sn40l::coe
