/**
 * @file
 * Tests for the event-driven link/credit interconnect (sim/network.h)
 * and its cluster integration (coe/fabric.h): topology name tables and
 * config validation, route shapes per topology, credit-exhaustion
 * backpressure (stalls counted, nothing dropped, completion strictly
 * later than with deep buffers), same-tick round-robin arbitration
 * fairness at a shared switch, the zero-network identity contract
 * (fabric knobs are inert until enabled), networked serial-vs-parallel
 * determinism, link-degrade request conservation, and the RDN replay
 * entry point arch::simulatedCongestionFactor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "arch/rdn.h"
#include "coe/cluster.h"
#include "coe/faults.h"
#include "coe/serving.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/ticks.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

/** Cluster config used by the fabric integration tests (same shape as
 *  the test_cluster golden helper). */
ClusterConfig
clusterConfig(int nodes)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.placement = PlacementPolicy::FullReplication;
    cfg.node.mode = ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = 400;
    cfg.node.routing = RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.arrivalRatePerSec = 16.0 * nodes;
    cfg.node.seed = 11;
    return cfg;
}

/** Strict result equality: every integer counter and every derived
 *  double that the cluster goldens pin, plus the network counters. */
void
expectClusterIdentical(const ClusterResult &a, const ClusterResult &b)
{
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.stream.completed, b.stream.completed);
    EXPECT_EQ(a.stream.batches, b.stream.batches);
    EXPECT_EQ(a.stream.shed, b.stream.shed);
    EXPECT_EQ(a.stream.lost, b.stream.lost);
    EXPECT_DOUBLE_EQ(a.stream.p50LatencySeconds,
                     b.stream.p50LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.p95LatencySeconds,
                     b.stream.p95LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.p99LatencySeconds,
                     b.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.maxLatencySeconds,
                     b.stream.maxLatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.makespanSeconds, b.stream.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.stream.throughputRequestsPerSec,
                     b.stream.throughputRequestsPerSec);
    EXPECT_DOUBLE_EQ(a.stream.meanQueueDepth, b.stream.meanQueueDepth);
    EXPECT_DOUBLE_EQ(a.stream.maxQueueDepth, b.stream.maxQueueDepth);
    EXPECT_DOUBLE_EQ(a.stream.meanBatchOccupancy,
                     b.stream.meanBatchOccupancy);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_EQ(a.redispatched, b.redispatched);
    EXPECT_EQ(a.networkMessages, b.networkMessages);
    EXPECT_EQ(a.networkFlits, b.networkFlits);
    EXPECT_EQ(a.networkCreditStalls, b.networkCreditStalls);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
        EXPECT_EQ(a.nodes[n].dispatched, b.nodes[n].dispatched)
            << "node " << n;
        EXPECT_EQ(a.nodes[n].completed, b.nodes[n].completed)
            << "node " << n;
        EXPECT_EQ(a.nodes[n].batches, b.nodes[n].batches)
            << "node " << n;
    }
}

/** Serial vs parallel: same as above except the two cluster-wide
 *  running means (merge-order sensitive) are compared loosely. */
void
expectClusterEqualAcrossThreads(const ClusterResult &a,
                                const ClusterResult &b)
{
    expectClusterIdentical(a, b);
    EXPECT_NEAR(a.stream.meanLatencySeconds, b.stream.meanLatencySeconds,
                1e-9 * (1.0 + a.stream.meanLatencySeconds));
}

} // namespace

// ----------------------------------------------- names & validation

TEST(NetworkNames, TopologyRoundTripAndAliases)
{
    for (sim::Topology t :
         {sim::Topology::Star, sim::Topology::Mesh2D,
          sim::Topology::Torus2D, sim::Topology::FatTree})
        EXPECT_EQ(sim::topologyFromName(sim::topologyName(t)), t);
    EXPECT_EQ(sim::topologyFromName("mesh2d"), sim::Topology::Mesh2D);
    EXPECT_EQ(sim::topologyFromName("torus2d"), sim::Topology::Torus2D);
    EXPECT_EQ(sim::topologyFromName("fattree"), sim::Topology::FatTree);
    EXPECT_THROW(sim::topologyFromName("ring"), sim::FatalError);
}

TEST(NetworkNames, ConfigValidationRejectsNonsense)
{
    sim::NetworkConfig good;
    good.endpoints = 4;
    EXPECT_NO_THROW(sim::validateNetworkConfig(good));

    auto expect_fatal = [](auto mutate) {
        sim::NetworkConfig bad;
        bad.endpoints = 4;
        mutate(bad);
        EXPECT_THROW(sim::validateNetworkConfig(bad), sim::FatalError);
    };
    expect_fatal([](sim::NetworkConfig &c) { c.endpoints = 0; });
    expect_fatal([](sim::NetworkConfig &c) { c.linkBytesPerSec = 0.0; });
    expect_fatal([](sim::NetworkConfig &c) { c.linkLatency = -1; });
    expect_fatal([](sim::NetworkConfig &c) { c.bufferFlits = 0; });
    expect_fatal([](sim::NetworkConfig &c) { c.flitBytes = 0.0; });
    expect_fatal([](sim::NetworkConfig &c) { c.maxFlitsPerMessage = 0; });
    expect_fatal([](sim::NetworkConfig &c) { c.fatTreeSpines = 0; });
}

TEST(NetworkNames, NanRequestOverheadIsRejected)
{
    coe::FabricConfig on;
    on.enabled = true;
    on.requestOverheadBytes = std::nan("");
    EXPECT_THROW(coe::validateFabricConfig(on), sim::FatalError);
}

TEST(NetworkNames, NanRequestPayloadIsRejected)
{
    coe::FabricConfig on;
    on.enabled = true;
    on.requestPayloadBytes = std::nan("");
    EXPECT_THROW(coe::validateFabricConfig(on), sim::FatalError);
}

TEST(NetworkNames, FabricValidationOnlyBitesWhenEnabled)
{
    coe::FabricConfig off;
    off.linkGbps = -5.0; // inert: the fabric is disabled
    EXPECT_NO_THROW(coe::validateFabricConfig(off));

    coe::FabricConfig on;
    on.enabled = true;
    EXPECT_NO_THROW(coe::validateFabricConfig(on));
    on.linkGbps = -5.0;
    EXPECT_THROW(coe::validateFabricConfig(on), sim::FatalError);
}

// ------------------------------------------------------------ routes

TEST(NetworkRoute, StarAlwaysTwoHopsThroughTheHub)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 4;
    sim::Network net(eq, cfg);
    // 4 endpoints, one hub: a link each way per endpoint.
    EXPECT_EQ(net.linkCount(), 8);
    for (int s = 0; s < 4; ++s)
        for (int d = 0; d < 4; ++d) {
            if (s == d)
                continue;
            const std::vector<int> &path = net.route(s, d);
            ASSERT_EQ(path.size(), 2u) << s << "->" << d;
            EXPECT_EQ(net.linkTo(path[0]), 4);   // into the hub
            EXPECT_EQ(net.linkFrom(path[1]), 4); // out of the hub
        }
    EXPECT_EQ(net.nodeLabel(0), "ep0");
    EXPECT_EQ(net.nodeLabel(4), "sw0");
    EXPECT_THROW(net.route(0, 4), sim::FatalError); // hub is no endpoint
}

TEST(NetworkRoute, MeshUsesXYDimensionOrder)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::Mesh2D;
    cfg.endpoints = 9;
    cfg.meshCols = 3;
    sim::Network net(eq, cfg);
    // Corner to corner on a 3x3: 2 X hops then 2 Y hops.
    const std::vector<int> &path = net.route(0, 8);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(net.linkTo(path[0]), 1); // x first
    EXPECT_EQ(net.linkTo(path[1]), 2);
    EXPECT_EQ(net.linkTo(path[2]), 5); // then y
    EXPECT_EQ(net.linkTo(path[3]), 8);
}

TEST(NetworkRoute, TorusWrapShortensTheLongWay)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::Torus2D;
    cfg.endpoints = 9;
    cfg.meshCols = 3;
    sim::Network net(eq, cfg);
    // 0 -> 2 is two hops on a mesh but one wrap hop on the torus.
    EXPECT_EQ(net.route(0, 2).size(), 1u);
    EXPECT_EQ(net.route(0, 6).size(), 1u); // same in Y
}

TEST(NetworkRoute, FatTreeStaysInTheLeafWhenItCan)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.topology = sim::Topology::FatTree;
    cfg.endpoints = 8;
    cfg.fatTreeRadix = 4;
    cfg.fatTreeSpines = 2;
    sim::Network net(eq, cfg);
    EXPECT_EQ(net.route(0, 1).size(), 2u); // same leaf: up, down
    EXPECT_EQ(net.route(0, 4).size(), 4u); // cross leaf: via a spine
}

// ------------------------------------------------- delivery & credits

TEST(NetworkDelivery, LocalSendTouchesNoLink)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    sim::Network net(eq, cfg);
    bool delivered = false;
    net.send(0, 0, 1e9, [&delivered]() { delivered = true; });
    EXPECT_EQ(net.messagesInFlight(), 1);
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(net.messagesDelivered(), 1);
    EXPECT_EQ(net.flitsDelivered(), 0); // no link was crossed
    EXPECT_EQ(net.creditStalls(), 0);
}

TEST(NetworkDelivery, MessageArrivesWholeAndInFlightDrains)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    cfg.flitBytes = 64.0;
    sim::Network net(eq, cfg);
    sim::Tick done_at = 0;
    net.send(0, 1, 64.0 * 10, [&]() { done_at = eq.now(); });
    eq.run();
    EXPECT_EQ(net.messagesDelivered(), 1);
    EXPECT_EQ(net.messagesInFlight(), 0);
    EXPECT_EQ(net.flitsDelivered(), 10);
    // At least two hop latencies (ep -> hub -> ep) plus serialization.
    EXPECT_GE(done_at, 2 * cfg.linkLatency);
}

TEST(NetworkCredit, ExhaustionStallsButDeliversEverything)
{
    // 40 flits through 2-deep buffers: the transmitter must stall on
    // credits (counted), yet every flit lands. The same message
    // through 64-deep buffers never stalls and finishes strictly
    // earlier — the credit loop (return delay == link latency) is the
    // pacing mechanism, not a drop mechanism.
    const double bytes = 64.0 * 40;
    auto run_with_buffer = [&](int buffer_flits, std::int64_t &stalls,
                               std::int64_t &flits) {
        sim::EventQueue eq;
        sim::NetworkConfig cfg;
        cfg.endpoints = 2;
        cfg.flitBytes = 64.0;
        cfg.bufferFlits = buffer_flits;
        sim::Network net(eq, cfg);
        sim::Tick done_at = 0;
        net.send(0, 1, bytes, [&]() { done_at = eq.now(); });
        eq.run();
        stalls = net.creditStalls();
        flits = net.flitsDelivered();
        return done_at;
    };
    std::int64_t shallow_stalls = 0, shallow_flits = 0;
    std::int64_t deep_stalls = 0, deep_flits = 0;
    sim::Tick shallow_done =
        run_with_buffer(2, shallow_stalls, shallow_flits);
    sim::Tick deep_done = run_with_buffer(64, deep_stalls, deep_flits);

    EXPECT_EQ(shallow_flits, 40); // nothing dropped
    EXPECT_EQ(deep_flits, 40);
    EXPECT_EQ(shallow_stalls, 57);
    EXPECT_EQ(deep_stalls, 0);
    EXPECT_GT(shallow_done, deep_done);
}

TEST(NetworkCredit, UncontendedFlitsCostThreeEventsEach)
{
    // Over an uncontended two-hop star a flit costs a transmit and a
    // landing per hop, and the second hop transmits straight from its
    // landing: about three events per flit. Credit returns cost none,
    // since none finds its link starved or racing a transmit.
    const int flits = 40;
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    cfg.flitBytes = 64.0;
    sim::Network net(eq, cfg);
    net.send(0, 1, 64.0 * flits, nullptr);
    eq.run();
    EXPECT_EQ(net.flitsDelivered(), flits);
    EXPECT_EQ(net.creditStalls(), 0);
    EXPECT_LE(eq.executedCount(), 3u * flits + 4u);
}

TEST(NetworkDelivery, NanOrInfiniteMessageSizeIsFatal)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    sim::Network net(eq, cfg);
    EXPECT_THROW(net.send(0, 1, std::nan(""), nullptr), sim::FatalError);
    EXPECT_THROW(
        net.send(0, 1, std::numeric_limits<double>::infinity(), nullptr),
        sim::FatalError);
    EXPECT_THROW(net.send(0, 1, -1.0, nullptr), sim::FatalError);
    EXPECT_EQ(net.messagesSent(), 0);
    // A huge finite size caps at maxFlitsPerMessage without an
    // overflowing flit-count cast; its flits then outlast the tick
    // range, which is fatal too.
    EXPECT_THROW(net.send(0, 1, 1e300, nullptr), sim::FatalError);
}

TEST(NetworkDelivery, DrainedClockPassesTheLastCreditReturn)
{
    // The last credit return is never an event, yet a drained queue's
    // clock lands on it, as it did when every return was an event.
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 2;
    cfg.flitBytes = 64.0;
    sim::Network net(eq, cfg);
    sim::Tick done_at = 0;
    net.send(0, 1, 64.0, [&]() { done_at = eq.now(); });
    eq.run();
    EXPECT_EQ(eq.now(), done_at + cfg.linkLatency);
}

TEST(NetworkCredit, DegradedLinkAdvertisesItsStretchWhenIdle)
{
    // The capacity-aware congestion signal: an idle degraded path must
    // cost more than an idle healthy one, otherwise a topology-aware
    // dispatcher keeps trickling traffic onto the sick link until the
    // queue builds (and each trickle head-of-line blocks shared hops).
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 3;
    sim::Network net(eq, cfg);
    EXPECT_DOUBLE_EQ(net.pathCongestion(0, 1), 0.0);
    net.setEndpointLinkFactor(1, 40.0);
    EXPECT_GT(net.pathCongestion(0, 1), net.pathCongestion(0, 2));
    net.setEndpointLinkFactor(1, 1.0); // heal
    EXPECT_DOUBLE_EQ(net.pathCongestion(0, 1), 0.0);
    EXPECT_THROW(net.setEndpointLinkFactor(1, 0.5), sim::FatalError);
    EXPECT_THROW(net.setEndpointLinkFactor(1, std::nan("")),
                 sim::FatalError);
    EXPECT_THROW(net.setEndpointLinkFactor(9, 2.0), sim::FatalError);
}

TEST(NetworkArbitration, SameTickSendersInterleaveAtASharedSwitch)
{
    // Two equal 10-flit messages converge on ep2's hub link in the
    // same tick. Per-input-port round-robin must interleave them: when
    // the first message completes, the other has landed all but a
    // couple of its flits (the loser of the final arbitration round is
    // still crossing the wire). A single shared FIFO would drain one
    // message entirely first — 10 flits delivered at first completion.
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.endpoints = 3;
    cfg.flitBytes = 64.0;
    sim::Network net(eq, cfg);
    std::int64_t flits_at_first_completion = -1;
    auto on_done = [&]() {
        if (flits_at_first_completion < 0)
            flits_at_first_completion = net.flitsDelivered();
    };
    eq.schedule(0, [&]() {
        net.send(0, 2, 64.0 * 10, on_done);
        net.send(1, 2, 64.0 * 10, on_done);
    }, "inject");
    eq.run();
    EXPECT_EQ(net.flitsDelivered(), 20);
    EXPECT_GE(flits_at_first_completion, 18);
}

// ------------------------------------------------------------ goldens
//
// Bit-exact pins of the interconnect's observable behaviour, captured
// from the event-per-credit-return implementation. Any change to how
// credits, arbitration or serialization are scheduled must leave every
// value here unchanged.

namespace {

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

struct GoldenScenario
{
    sim::Topology topology;
    int endpoints;
    int bufferFlits;
    int messages;
    std::uint64_t seed;
    /** Link latency as a multiple of one 64-byte flit's wire time
     *  (0 keeps the 2 us default): credit returns then land on the
     *  same ticks as transmissions. */
    int latencyInFlits = 0;
    /** Only whole 64-byte flits, so every flit has the same wire
     *  time. */
    bool wholeFlits = false;
    /** One send in four carries 0 bytes: one flit with no wire time,
     *  so a link can send several flits within one tick. */
    bool zeroBytes = false;
    /** Upper bound of the gap between send ticks. */
    std::uint64_t maxGapTicks = 40'000;
};

struct GoldenResult
{
    std::uint64_t deliveryHash = 0; ///< (message, tick) in callback order
    std::int64_t deliveries = 0;
    std::int64_t creditStalls = 0;
    std::int64_t flitsDelivered = 0;
    std::uint64_t linkHash = 0; ///< every link's busy ticks and flits
    sim::Tick drainedNow = 0;
};

/**
 * A seeded message storm: bursts of same-tick sends between random
 * endpoint pairs (some local), 1-12 flits each, with one endpoint's
 * links degraded x3 for the middle of the run and healed after.
 */
GoldenResult
runGolden(const GoldenScenario &s)
{
    sim::EventQueue eq;
    sim::NetworkConfig cfg;
    cfg.topology = s.topology;
    cfg.endpoints = s.endpoints;
    cfg.bufferFlits = s.bufferFlits;
    cfg.flitBytes = 64.0;
    cfg.linkBytesPerSec = 32e9;
    cfg.fatTreeRadix = 2;
    if (s.latencyInFlits > 0)
        cfg.linkLatency = s.latencyInFlits *
            sim::transferTicks(cfg.flitBytes, cfg.linkBytesPerSec);
    sim::Network net(eq, cfg);
    sim::Rng rng(s.seed);
    GoldenResult r;
    Fnv deliveries;
    sim::Tick t = 0;
    for (int i = 0; i < s.messages; ++i) {
        // One in three sends shares the previous send's tick.
        if (rng.uniformInt(3) != 0)
            t += static_cast<sim::Tick>(rng.uniformInt(s.maxGapTicks));
        int src = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(s.endpoints)));
        int dst = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(s.endpoints)));
        double flits = static_cast<double>(1 + rng.uniformInt(12));
        double bytes = s.wholeFlits
            ? 64.0 * flits
            : 64.0 * flits - static_cast<double>(rng.uniformInt(64));
        if (s.zeroBytes && rng.uniformInt(4) == 0)
            bytes = 0.0;
        eq.schedule(t, [&net, &eq, &deliveries, &r, i, src, dst, bytes] {
            net.send(src, dst, bytes, [&eq, &deliveries, &r, i] {
                deliveries.add(static_cast<std::uint64_t>(i));
                deliveries.add(static_cast<std::uint64_t>(eq.now()));
                ++r.deliveries;
            });
        }, "golden.send");
    }
    const int sick = s.endpoints / 2;
    eq.schedule(t / 3, [&net, sick] { net.setEndpointLinkFactor(sick, 3.0); },
                "golden.degrade");
    eq.schedule(2 * t / 3,
                [&net, sick] { net.setEndpointLinkFactor(sick, 1.0); },
                "golden.heal");
    eq.run();
    Fnv links;
    for (int l = 0; l < net.linkCount(); ++l) {
        links.add(static_cast<std::uint64_t>(net.linkBusyTicks(l)));
        links.add(static_cast<std::uint64_t>(net.linkFlits(l)));
    }
    EXPECT_EQ(net.messagesInFlight(), 0);
    r.deliveryHash = deliveries.h;
    r.creditStalls = net.creditStalls();
    r.flitsDelivered = net.flitsDelivered();
    r.linkHash = links.h;
    r.drainedNow = eq.now();
    return r;
}

void
expectGolden(const GoldenScenario &s, const GoldenResult &want)
{
    GoldenResult got = runGolden(s);
    EXPECT_EQ(got.deliveryHash, want.deliveryHash);
    EXPECT_EQ(got.deliveries, want.deliveries);
    EXPECT_EQ(got.creditStalls, want.creditStalls);
    EXPECT_EQ(got.flitsDelivered, want.flitsDelivered);
    EXPECT_EQ(got.linkHash, want.linkHash);
    EXPECT_EQ(got.drainedNow, want.drainedNow);
}

} // namespace

TEST(NetworkGolden, StarShallowBuffers)
{
    expectGolden({sim::Topology::Star, 6, 1, 300, 7},
                 {3583279450721248227ULL, 300, 4133, 1640,
                  6895293942108315126ULL, 1978921337});
    expectGolden({sim::Topology::Star, 6, 3, 300, 8},
                 {11928708637210723434ULL, 300, 3194, 1550,
                  5001579506742009541ULL, 606297809});
}

TEST(NetworkGolden, MeshAndTorus)
{
    expectGolden({sim::Topology::Mesh2D, 9, 2, 300, 21},
                 {6736780861261088492ULL, 300, 4016, 1870,
                  4515850510802335847ULL, 650447293});
    expectGolden({sim::Topology::Torus2D, 12, 4, 300, 22},
                 {4692701847044538642ULL, 300, 2876, 1859,
                  4046222339033075789ULL, 195525098});
}

TEST(NetworkGolden, FatTree)
{
    expectGolden({sim::Topology::FatTree, 8, 2, 300, 31},
                 {15358295436879504987ULL, 300, 6375, 1653,
                  6390434756204301422ULL, 958502625});
}

TEST(NetworkGolden, LatencyAnExactMultipleOfTheFlitTime)
{
    // Credit returns land on the very ticks the transmitters free up:
    // the same-tick order of returns and transmissions decides who
    // wins each arbitration.
    expectGolden({sim::Topology::Star, 5, 2, 300, 41, 2, true},
                 {280086953705351722ULL, 300, 2518, 1618,
                  12750968768123929919ULL, 4075488});
    expectGolden({sim::Topology::Mesh2D, 6, 1, 300, 42, 1, true},
                 {6188007994460967715ULL, 300, 2890, 1750,
                  15721488013624345588ULL, 4044000});
    expectGolden({sim::Topology::FatTree, 8, 3, 300, 43, 3, true},
                 {13066512829300547634ULL, 300, 4177, 1761,
                  14654192826835754962ULL, 3908306});
}

TEST(NetworkGolden, ZeroByteMessagesTakeNoWireTime)
{
    expectGolden({sim::Topology::Star, 5, 2, 300, 51, 1, true, true},
                 {9640680281775986982ULL, 300, 1631, 1348,
                  6699201845896719418ULL, 3738762});
    // Dense sends: a link sends several zero-time flits in one tick,
    // each ahead of its armed transmit.
    expectGolden({sim::Topology::Star, 2, 4, 300, 60, 1, true, true, 200},
                 {1431681981998425071ULL, 300, 88, 863,
                  9674016710985692679ULL, 904772});
    expectGolden({sim::Topology::Star, 4, 4, 300, 56, 1, true, true, 2000},
                 {13734766163671404789ULL, 300, 429, 1055,
                  5203491561809668974ULL, 803201});
    expectGolden({sim::Topology::Torus2D, 9, 1, 300, 52, 2, true, true},
                 {18044459315298825293ULL, 300, 1740, 1347,
                  4083689406729383937ULL, 3778429});
}

TEST(NetworkGolden, ClusterFabricShape)
{
    // The benchmark's cluster_fabric shape at 1k requests: 8 nodes on
    // a 1 Gb/s star, round-robin, node 2's links x40 for the middle
    // half of the run.
    const int requests = 1000;
    const double rate = 64.0;
    ClusterConfig cfg;
    cfg.nodes = 8;
    cfg.placement = PlacementPolicy::FullReplication;
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.node.mode = ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = requests;
    cfg.node.arrivalRatePerSec = rate;
    cfg.node.routing = RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.node.seed = 1;
    cfg.fabric.enabled = true;
    cfg.fabric.topology = sim::Topology::Star;
    cfg.fabric.linkGbps = 1.0;
    const double duration = requests / rate;
    cfg.faults = std::make_shared<std::vector<FaultEvent>>(
        std::vector<FaultEvent>{{0.25 * duration, FaultKind::LinkDegrade,
                                 2, 40.0, 0.50 * duration}});
    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, requests);
    EXPECT_EQ(r.stream.p50LatencySeconds, 2.3411385408904999);
    EXPECT_EQ(r.stream.p95LatencySeconds, 4.8182651808147501);
    EXPECT_EQ(r.stream.p99LatencySeconds, 4.9509718388064297);
    EXPECT_EQ(r.stream.makespanSeconds, 16.270239824672998);
    EXPECT_EQ(r.nodeSecondsLive, 130.17311522540001);
    EXPECT_EQ(r.networkFlits, 245000);
    EXPECT_EQ(r.networkCreditStalls, 6255);
}

// ------------------------------------------------ cluster integration

TEST(FabricCluster, DisabledFabricKnobsAreInert)
{
    // The zero-network identity contract: setting every fabric knob
    // while leaving enabled == false must not perturb a single metric
    // relative to a config that never mentions the fabric.
    ClusterConfig plain = clusterConfig(3);
    ClusterConfig knobs = clusterConfig(3);
    knobs.fabric.topology = sim::Topology::FatTree;
    knobs.fabric.linkGbps = 1.0;
    knobs.fabric.linkLatencyUs = 500.0;
    knobs.fabric.linkBufferFlits = 2;
    knobs.fabric.requestPayloadBytes = 1e9;
    ASSERT_FALSE(knobs.fabric.enabled);

    ClusterResult a = ClusterSimulator(plain).run();
    ClusterResult b = ClusterSimulator(knobs).run();
    expectClusterIdentical(a, b);
    EXPECT_EQ(a.networkMessages, 0);
    EXPECT_DOUBLE_EQ(b.networkMaxLinkUtilization, 0.0);
}

TEST(FabricCluster, NetworkedRunMovesEveryRequestOverTheWire)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.fabric.enabled = true;
    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost, 400);
    // Every dispatch is one hub -> node message.
    EXPECT_GE(r.networkMessages, 400);
    EXPECT_GT(r.networkFlits, 0);
    EXPECT_GT(r.networkMaxLinkUtilization, 0.0);
    EXPECT_GE(r.networkMaxLinkUtilization,
              r.networkMeanLinkUtilization);
}

TEST(FabricCluster, NetworkedParallelMatchesSerial)
{
    for (sim::Topology topo :
         {sim::Topology::Star, sim::Topology::Mesh2D}) {
        ClusterConfig cfg = clusterConfig(3);
        cfg.fabric.enabled = true;
        cfg.fabric.topology = topo;
        ClusterResult serial = ClusterSimulator(cfg).run();
        ClusterConfig par = cfg;
        par.threads = 3;
        ClusterResult parallel = ClusterSimulator(par).run();
        SCOPED_TRACE(sim::topologyName(topo));
        EXPECT_GT(serial.networkMessages, 0);
        expectClusterEqualAcrossThreads(serial, parallel);
    }
}

TEST(FabricCluster, TopologyAwareDispatchNeedsTheFabric)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.dispatch = DispatchPolicy::TopologyAware;
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
    cfg.fabric.enabled = true;
    EXPECT_NO_THROW(ClusterSimulator{cfg});
}

TEST(FabricCluster, LinkDegradeScheduleNeedsTheFabric)
{
    ClusterConfig cfg = clusterConfig(3);
    cfg.faults = std::make_shared<std::vector<FaultEvent>>(
        std::vector<FaultEvent>{
            {1.0, FaultKind::LinkDegrade, 1, 40.0, 4.0}});
    EXPECT_THROW(ClusterSimulator{cfg}, sim::FatalError);
    cfg.fabric.enabled = true;
    EXPECT_NO_THROW(ClusterSimulator{cfg});
}

TEST(FabricCluster, LinkDegradeConservesRequests)
{
    // A mid-run link degrade slows traffic but must not leak requests:
    // everything that arrived is completed, shed, or counted lost.
    ClusterConfig cfg = clusterConfig(4);
    cfg.fabric.enabled = true;
    cfg.fabric.linkGbps = 1.0; // thin links so the degrade bites
    cfg.faults = std::make_shared<std::vector<FaultEvent>>(
        std::vector<FaultEvent>{
            {1.0, FaultKind::LinkDegrade, 2, 40.0, 3.0}});
    ClusterResult r = ClusterSimulator(cfg).run();
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(r.stream.completed + r.stream.shed + r.stream.lost, 400);
    EXPECT_EQ(r.faultsInjected, 1);
    EXPECT_EQ(r.crashes, 0);
}

// -------------------------------------------------- RDN replay bridge

TEST(RdnReplay, EmptyOrIdleFlowSetsCostNothing)
{
    EXPECT_DOUBLE_EQ(
        arch::simulatedCongestionFactor({}, 4, 4, 1e9), 1.0);
    // Zero-rate and self flows are skipped, not fatal.
    std::vector<arch::MeshFlow> idle = {
        {{0, 0}, {3, 3}, 0.0},
        {{1, 1}, {1, 1}, 5e9},
    };
    EXPECT_DOUBLE_EQ(
        arch::simulatedCongestionFactor(idle, 4, 4, 1e9), 1.0);
}

TEST(RdnReplay, OversubscriptionDilatesMonotonically)
{
    // Eight flows funneling through column x=0 at 4x the link rate
    // must dilate well past an undersubscribed copy of the same set.
    auto funnel = [](double rate) {
        std::vector<arch::MeshFlow> flows;
        for (int y = 0; y < 8; ++y)
            flows.push_back({{0, y}, {3, y}, rate});
        return flows;
    };
    const double link_bw = 1e9;
    double light =
        arch::simulatedCongestionFactor(funnel(1e8), 4, 8, link_bw);
    double heavy =
        arch::simulatedCongestionFactor(funnel(4e9), 4, 8, link_bw);
    EXPECT_GE(light, 1.0);
    EXPECT_GT(heavy, light);
    EXPECT_GT(heavy, 1.5);
    EXPECT_THROW(
        arch::simulatedCongestionFactor(funnel(1e9), 0, 8, link_bw),
        sim::FatalError);
}
