#include "coe/fabric.h"

#include "sim/log.h"
#include "util/units.h"

namespace sn40l::coe {

void
validateFabricConfig(const FabricConfig &cfg)
{
    if (!cfg.enabled)
        return;
    // Written as !(x >= 0) so that NaN fails too.
    if (!(cfg.linkGbps > 0.0))
        sim::fatal("fabric: non-positive link bandwidth");
    if (!(cfg.linkLatencyUs >= 0.0))
        sim::fatal("fabric: --link-latency-us " +
                   util::formatGeneral(cfg.linkLatencyUs) +
                   " is not a non-negative number");
    if (!(cfg.linkLatencyUs * 1e-6 < sim::kHorizonSeconds))
        sim::fatal("fabric: --link-latency-us " +
                   util::formatGeneral(cfg.linkLatencyUs) +
                   " is longer than simulated time can span; lower "
                   "--link-latency-us");
    if (cfg.linkBufferFlits < 1)
        sim::fatal("fabric: need at least one link buffer flit");
    if (!(cfg.flitBytes > 0.0))
        sim::fatal("fabric: non-positive flit size");
    double flit_seconds = cfg.flitBytes / (cfg.linkGbps * 1e9 / 8.0);
    if (!(flit_seconds < sim::kHorizonSeconds))
        sim::fatal("fabric: at --link-gbps " +
                   util::formatGeneral(cfg.linkGbps) + " one " +
                   util::formatGeneral(cfg.flitBytes) +
                   "-byte flit takes longer than simulated time can "
                   "span; raise --link-gbps");
    if (cfg.maxFlitsPerMessage < 1)
        sim::fatal("fabric: need at least one flit per message");
    if (!(cfg.requestOverheadBytes >= 0.0))
        sim::fatal("fabric: request overhead is not a non-negative "
                   "number of bytes");
    if (!(cfg.requestPayloadBytes >= 0.0))
        sim::fatal("fabric: request payload is not a non-negative "
                   "number of bytes");
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
