/**
 * @file
 * Tests for the event-driven CoE request-stream scheduler: scheduler
 * policies against the live LRU cache, latency-tail and saturation
 * behaviour, the closed-loop arrival process, the Distribution sample
 * recorder, bit-exactness of the legacy analytic mode against
 * values captured from the pre-refactor simulator, and the engine's
 * admission queue against an id-ordered std::map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "coe/admission_queue.h"
#include "coe/serving.h"
#include "coe/serving_engine.h"
#include "sim/log.h"
#include "sim/stats.h"

using namespace sn40l;
using namespace sn40l::coe;

namespace {

ServingConfig
streamConfig()
{
    ServingConfig cfg;
    cfg.mode = ServingMode::EventDriven;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 150;
    cfg.batch = 8;
    cfg.streamRequests = 400;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.arrivalRatePerSec = 60.0; // well past saturation: queue builds
    cfg.seed = 11;
    return cfg;
}

} // namespace

TEST(Distribution, QuantilesAndMoments)
{
    sim::Distribution d("lat");
    EXPECT_EQ(d.quantile(0.5), 0.0);
    for (int i = 1; i <= 100; ++i)
        d.record(static_cast<double>(i));
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
    EXPECT_NEAR(d.quantile(0.5), 50.5, 1e-12);
    EXPECT_NEAR(d.quantile(0.99), 99.01, 1e-9);
    // Recording after a quantile query invalidates the sorted cache.
    d.record(1000.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 1000.0);
    d.clear();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);
}

TEST(SchedulerPolicy, NamesRoundTrip)
{
    EXPECT_EQ(schedulerPolicyFromName("fifo"), SchedulerPolicy::Fifo);
    EXPECT_EQ(schedulerPolicyFromName("affinity"),
              SchedulerPolicy::ExpertAffinity);
    EXPECT_EQ(schedulerPolicyFromName("expert-affinity"),
              SchedulerPolicy::ExpertAffinity);
    EXPECT_THROW(schedulerPolicyFromName("lifo"), sim::FatalError);
    EXPECT_STREQ(schedulerPolicyName(SchedulerPolicy::Fifo), "fifo");
    EXPECT_STREQ(schedulerPolicyName(SchedulerPolicy::ExpertAffinity),
                 "affinity");
}

TEST(StreamScheduler, DeterministicPerSeed)
{
    ServingConfig cfg = streamConfig();
    ServingResult a = ServingSimulator(cfg).run();
    ServingResult b = ServingSimulator(cfg).run();
    EXPECT_DOUBLE_EQ(a.stream.p99LatencySeconds, b.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.stream.throughputRequestsPerSec,
                     b.stream.throughputRequestsPerSec);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
}

TEST(StreamScheduler, AffinityBeatsFifoMissesOnSkewedRouting)
{
    ServingConfig cfg = streamConfig();

    cfg.scheduler = SchedulerPolicy::Fifo;
    ServingSimulator fifo(cfg);
    ServingResult fifo_r = fifo.run();

    cfg.scheduler = SchedulerPolicy::ExpertAffinity;
    ServingSimulator affinity(cfg);
    ServingResult affinity_r = affinity.run();

    EXPECT_LT(affinity.stats().get("misses"), fifo.stats().get("misses"));
    EXPECT_LT(affinity_r.missRate, fifo_r.missRate);
    // Every request completes under both policies.
    EXPECT_EQ(fifo_r.stream.completed, cfg.streamRequests);
    EXPECT_EQ(affinity_r.stream.completed, cfg.streamRequests);
}

TEST(StreamScheduler, TailDominatesMedian)
{
    for (SchedulerPolicy policy :
         {SchedulerPolicy::Fifo, SchedulerPolicy::ExpertAffinity}) {
        ServingConfig cfg = streamConfig();
        cfg.scheduler = policy;
        ServingSimulator sim(cfg);
        ServingResult r = sim.run();
        EXPECT_GE(r.stream.p99LatencySeconds, r.stream.p95LatencySeconds);
        EXPECT_GE(r.stream.p95LatencySeconds, r.stream.p50LatencySeconds);
        EXPECT_GE(r.stream.maxLatencySeconds, r.stream.p99LatencySeconds);
        EXPECT_EQ(sim.latencySamples().count(),
                  static_cast<std::size_t>(cfg.streamRequests));
    }
}

TEST(StreamScheduler, ThroughputSaturatesPastServiceRate)
{
    auto throughput = [](double rate) {
        ServingConfig cfg = streamConfig();
        cfg.routing = RoutingDistribution::Uniform;
        cfg.arrivalRatePerSec = rate;
        return ServingSimulator(cfg).run().stream.throughputRequestsPerSec;
    };

    double low = throughput(2.0);
    double mid = throughput(64.0);
    double high = throughput(256.0);

    // Under light load throughput tracks the arrival rate...
    EXPECT_NEAR(low, 2.0, 0.5);
    // ...past saturation it clamps at the service rate: quadrupling
    // the offered load moves sustained throughput by under 5%.
    EXPECT_GT(mid, 4.0);
    EXPECT_NEAR(high / mid, 1.0, 0.05);

    // Queueing delay explodes across the saturation knee.
    ServingConfig cfg = streamConfig();
    cfg.routing = RoutingDistribution::Uniform;
    cfg.arrivalRatePerSec = 2.0;
    double p99_low = ServingSimulator(cfg).run().stream.p99LatencySeconds;
    cfg.arrivalRatePerSec = 256.0;
    double p99_high = ServingSimulator(cfg).run().stream.p99LatencySeconds;
    EXPECT_GT(p99_high, 5.0 * p99_low);
}

TEST(StreamScheduler, ClosedLoopKeepsClientsInFlight)
{
    ServingConfig cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.clients = 8;
    cfg.streamRequests = 96;
    cfg.thinkSeconds = 0.05;

    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, cfg.streamRequests);
    // In-flight work can never exceed the client pool.
    EXPECT_LE(r.stream.maxQueueDepth, static_cast<double>(cfg.clients));
    EXPECT_GT(r.stream.throughputRequestsPerSec, 0.0);
}

TEST(StreamScheduler, AffinityStarvationGuardServesColdExperts)
{
    // Round-robin over many experts with a tiny aging limit: every
    // expert, however cold, must still get served and the run drains.
    ServingConfig cfg = streamConfig();
    cfg.routing = RoutingDistribution::RoundRobin;
    cfg.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.affinityMaxSkips = 2;
    cfg.streamRequests = 200;
    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed, cfg.streamRequests);
}

TEST(StreamScheduler, StreamMetricsAreConsistent)
{
    ServingConfig cfg = streamConfig();
    ServingSimulator sim(cfg);
    ServingResult r = sim.run();

    EXPECT_EQ(r.stream.completed, cfg.streamRequests);
    EXPECT_GT(r.stream.batches, 0);
    EXPECT_LE(r.stream.meanBatchOccupancy,
              static_cast<double>(cfg.batch));
    EXPECT_NEAR(r.stream.throughputTokensPerSec,
                r.stream.throughputRequestsPerSec * cfg.outputTokens,
                1e-9);
    EXPECT_DOUBLE_EQ(sim.stats().get("completed"),
                     static_cast<double>(cfg.streamRequests));
    EXPECT_DOUBLE_EQ(sim.stats().get("hits") + sim.stats().get("misses"),
                     static_cast<double>(cfg.streamRequests));
}

/**
 * Legacy analytic mode must reproduce the pre-refactor ServingResult
 * bit for bit. The expected values below were captured from the seed
 * simulator (before the event-driven refactor) at full precision.
 */
TEST(LegacyAnalytic, BitIdenticalToPreRefactorResults)
{
    struct Golden
    {
        Platform platform;
        int experts, batch;
        RoutingDistribution routing;
        bool prefetch;
        double router, switches, exec, miss;
        int resident;
        double perPrompt;
    };
    const Golden goldens[] = {
        {Platform::Sn40l, 150, 8, RoutingDistribution::Uniform, false,
         0.071381331986999946, 0.080990572306249856, 0.30353325061599906,
         0.78125, 38, 0.037941656327000001},
        {Platform::Sn40l, 150, 1, RoutingDistribution::Zipf, true,
         0.0098736814430000052, 0.0017834058540937493,
         0.037941656327000001, 0.578125, 38, 0.037941656327000001},
        {Platform::DgxA100, 150, 8, RoutingDistribution::Uniform, false,
         0.21529729404278214, 2.5005839200000244, 0.90381248913024981,
         0.7421875, 45, 0.11297656114128235},
        {Platform::DgxH100, 64, 4, RoutingDistribution::RoundRobin, false,
         0.041411531070960489, 0.84230195200000557, 0.29321610899865513,
         1.0, 45, 0.073304027249663811},
    };

    for (const Golden &g : goldens) {
        ServingConfig cfg;
        cfg.mode = ServingMode::LegacyAnalytic;
        cfg.platform = g.platform;
        cfg.numExperts = g.experts;
        cfg.batch = g.batch;
        cfg.routing = g.routing;
        cfg.predictivePrefetch = g.prefetch;
        cfg.requests = 64;
        cfg.seed = 1;

        ServingResult r = ServingSimulator(cfg).run();
        EXPECT_FALSE(r.oom);
        EXPECT_DOUBLE_EQ(r.perBatch.routerSeconds, g.router);
        EXPECT_DOUBLE_EQ(r.perBatch.switchSeconds, g.switches);
        EXPECT_DOUBLE_EQ(r.perBatch.execSeconds, g.exec);
        EXPECT_DOUBLE_EQ(r.missRate, g.miss);
        EXPECT_EQ(r.residentCapacityExperts, g.resident);
        EXPECT_DOUBLE_EQ(r.expertSecondsPerPrompt, g.perPrompt);
    }
}

/**
 * The event-driven scheduler must also stay bit-identical across
 * engine work. These values were captured at full precision from the
 * engine as of PR 2 (shared_ptr-heap EventQueue, pre-drawn arrival
 * schedule, O(queue) batch formation); the pooled EventQueue,
 * closed-form channel booking, chained arrivals, indexed affinity
 * formation, and cost-model memoization all reproduce them exactly.
 * Run sizes sit below Distribution's reservoir threshold so quantiles
 * take the exact path.
 */
TEST(StreamScheduler, EventDrivenBitIdenticalToPr2Engine)
{
    ServingConfig base;
    base.mode = ServingMode::EventDriven;
    base.batch = 8;
    base.streamRequests = 384;
    base.arrivalRatePerSec = 16.0;
    base.routing = RoutingDistribution::Zipf;
    base.zipfS = 1.2;
    base.seed = 7;

    {
        ServingConfig cfg = base;
        cfg.scheduler = SchedulerPolicy::Fifo;
        ServingResult r = ServingSimulator(cfg).run();
        const StreamMetrics &m = r.stream;
        EXPECT_DOUBLE_EQ(m.p50LatencySeconds, 0.35731539149050001);
        EXPECT_DOUBLE_EQ(m.p95LatencySeconds, 0.64836733127539981);
        EXPECT_DOUBLE_EQ(m.p99LatencySeconds, 0.74342659457905025);
        EXPECT_DOUBLE_EQ(m.meanLatencySeconds, 0.37360555277126578);
        EXPECT_DOUBLE_EQ(m.maxLatencySeconds, 0.82763664012899996);
        EXPECT_DOUBLE_EQ(m.throughputRequestsPerSec, 16.516006801146176);
        EXPECT_DOUBLE_EQ(m.meanQueueDepth, 2.0606680190790523);
        EXPECT_DOUBLE_EQ(m.meanBatchOccupancy, 3.3684210526315788);
        EXPECT_DOUBLE_EQ(m.makespanSeconds, 23.250172067824);
        EXPECT_DOUBLE_EQ(r.missRate, 0.27083333333333331);
        EXPECT_EQ(m.batches, 114);
    }
    {
        ServingConfig cfg = base;
        cfg.scheduler = SchedulerPolicy::ExpertAffinity;
        ServingResult r = ServingSimulator(cfg).run();
        const StreamMetrics &m = r.stream;
        EXPECT_DOUBLE_EQ(m.p50LatencySeconds, 0.35731539149050001);
        EXPECT_DOUBLE_EQ(m.p99LatencySeconds, 0.75591874410116133);
        EXPECT_DOUBLE_EQ(m.maxLatencySeconds, 0.992359273323);
        EXPECT_DOUBLE_EQ(m.throughputRequestsPerSec, 16.516006801146176);
        EXPECT_DOUBLE_EQ(r.missRate, 0.27083333333333331);
        EXPECT_EQ(m.batches, 114);
    }
    {
        ServingConfig cfg = base;
        cfg.scheduler = SchedulerPolicy::ExpertAffinity;
        cfg.predictivePrefetch = true;
        cfg.prefetchDepth = 4;
        ServingResult r = ServingSimulator(cfg).run();
        EXPECT_DOUBLE_EQ(r.stream.p99LatencySeconds,
                         0.75591874410116133);
        EXPECT_DOUBLE_EQ(r.missRate, 0.19270833333333334);
        EXPECT_EQ(r.stream.batches, 114);
    }
    {
        ServingConfig cfg;
        cfg.mode = ServingMode::EventDriven;
        cfg.batch = 4;
        cfg.streamRequests = 256;
        cfg.arrival = ArrivalProcess::ClosedLoop;
        cfg.clients = 24;
        cfg.thinkSeconds = 0.25;
        cfg.routing = RoutingDistribution::Uniform;
        cfg.seed = 11;
        cfg.scheduler = SchedulerPolicy::ExpertAffinity;
        ServingResult r = ServingSimulator(cfg).run();
        const StreamMetrics &m = r.stream;
        EXPECT_DOUBLE_EQ(m.p50LatencySeconds, 1.0710945877325);
        EXPECT_DOUBLE_EQ(m.p95LatencySeconds, 1.2831636038100001);
        EXPECT_DOUBLE_EQ(m.p99LatencySeconds, 1.4539057563269999);
        EXPECT_DOUBLE_EQ(m.meanLatencySeconds, 0.87119944718866449);
        EXPECT_DOUBLE_EQ(m.throughputRequestsPerSec, 20.957721919665659);
        EXPECT_DOUBLE_EQ(m.meanQueueDepth, 14.288624085649671);
        EXPECT_DOUBLE_EQ(m.meanSwitchStallSeconds,
                         0.0040944381822615381);
        EXPECT_DOUBLE_EQ(m.p95SwitchStallSeconds, 0.017442405190399999);
        EXPECT_DOUBLE_EQ(r.missRate, 0.65625);
        EXPECT_EQ(m.batches, 65);
    }
}

TEST(StreamScheduler, RejectsBadStreamConfigs)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 0;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = streamConfig();
    cfg.arrivalRatePerSec = 0.0;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.clients = 0;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);

    cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.thinkSeconds = -0.5;
    EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
}

// ------------------------------------------------- admission queue

namespace {

using Queue = AdmissionQueue<EngineRequest>;
using Reference = std::map<int, EngineRequest>;

EngineRequest
request(int id, int expert)
{
    EngineRequest r;
    r.id = id;
    r.expert = expert;
    return r;
}

/** Same size, same front, and the same values in the same order. */
void
expectSameQueue(const Queue &q, const Reference &ref)
{
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty()) {
        EXPECT_EQ(q.front().id, ref.begin()->first);
        EXPECT_EQ(q.front().expert, ref.begin()->second.expert);
    }
    auto it = ref.begin();
    for (const EngineRequest &r : q) {
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(r.id, it->first);
        EXPECT_EQ(r.expert, it->second.expert);
        ++it;
    }
    EXPECT_EQ(it, ref.end());
}

/**
 * Drive @p ops seeded operations through the queue and a map. Ids
 * mostly arrive in order; @p out_of_order_pct of inserts reuse an
 * older id (a re-dispatch, or a duplicate when it is still queued).
 * Until @p depth requests are queued, inserts dominate.
 * @p peak receives the deepest the queue got.
 */
void
runAgainstMap(std::uint64_t seed, int ops, std::size_t depth,
              int out_of_order_pct, std::size_t &peak)
{
    sim::Rng rng(seed);
    Queue q;
    Reference ref;
    int next_id = 0;
    peak = 0;
    for (int op = 0; op < ops; ++op) {
        int pick = static_cast<int>(rng.uniformInt(100));
        int insert_pct = ref.size() < depth ? 70 : 40;
        if (pick < insert_pct || ref.empty()) {
            int id = next_id++;
            if (static_cast<int>(rng.uniformInt(100)) < out_of_order_pct)
                id = static_cast<int>(rng.uniformInt(
                    static_cast<std::uint64_t>(next_id)));
            EngineRequest r = request(id, op);
            bool want = ref.emplace(id, r).second;
            ASSERT_EQ(q.insert(id, r), want) << "insert " << id;
        } else if (pick < insert_pct + 15) {
            // Take the front (FIFO formation, pass 3).
            EngineRequest got = q.takeFront();
            EXPECT_EQ(got.id, ref.begin()->first);
            EXPECT_EQ(got.expert, ref.begin()->second.expert);
            ref.erase(ref.begin());
        } else if (pick < insert_pct + 40) {
            // Take by id from anywhere (affinity passes 1 and 2).
            auto it = ref.lower_bound(static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(next_id))));
            if (it == ref.end())
                it = std::prev(ref.end());
            EngineRequest got = q.take(it->first);
            EXPECT_EQ(got.id, it->first);
            EXPECT_EQ(got.expert, it->second.expert);
            ref.erase(it);
        } else {
            // Cancel an id that may or may not be queued (a hedge loser).
            int id = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(next_id)));
            auto it = ref.find(id);
            const EngineRequest *found = q.find(id);
            ASSERT_EQ(found != nullptr, it != ref.end()) << "find " << id;
            if (found) {
                EXPECT_EQ(found->expert, it->second.expert);
                EXPECT_EQ(q.take(id).expert, it->second.expert);
                ref.erase(it);
            }
        }
        peak = std::max(peak, ref.size());
        EXPECT_EQ(q.size(), ref.size());
        if (!ref.empty()) {
            EXPECT_EQ(q.front().id, ref.begin()->first);
        }
        if (op % 997 == 0)
            expectSameQueue(q, ref);
    }
    expectSameQueue(q, ref);
    std::vector<EngineRequest> drained = q.extract();
    ASSERT_EQ(drained.size(), ref.size());
    auto it = ref.begin();
    for (const EngineRequest &r : drained) {
        EXPECT_EQ(r.id, it->first);
        EXPECT_EQ(r.expert, it->second.expert);
        ++it;
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.begin() != q.end(), false);
    // The drained queue is reusable.
    ASSERT_TRUE(q.insert(7, request(7, 1)));
    EXPECT_FALSE(q.insert(7, request(7, 2)));
    EXPECT_EQ(q.front().expert, 1);
}

} // namespace

TEST(AdmissionQueue, MatchesMapInOrder)
{
    std::size_t peak = 0;
    for (std::uint64_t seed : {1u, 2u, 3u})
        runAgainstMap(seed, 20000, 64, 0, peak);
}

TEST(AdmissionQueue, MatchesMapOutOfOrderWithDuplicates)
{
    std::size_t peak = 0;
    for (std::uint64_t seed : {4u, 5u, 6u})
        runAgainstMap(seed, 20000, 64, 20, peak);
}

TEST(AdmissionQueue, MatchesMapDeep)
{
    // An overloaded node: over 10^4 queued while requests leave from
    // the front, the middle and by cancellation.
    std::size_t peak = 0;
    runAgainstMap(7, 60000, 12000, 5, peak);
    EXPECT_GE(peak, 10000u);
}

TEST(AdmissionQueue, RevivesATakenIdInPlace)
{
    Queue q;
    for (int id = 0; id < 4; ++id)
        ASSERT_TRUE(q.insert(id, request(id, id)));
    EXPECT_EQ(q.take(2).expert, 2);
    EXPECT_EQ(q.find(2), nullptr);
    ASSERT_TRUE(q.insert(2, request(2, 9))); // re-dispatched back here
    ASSERT_NE(q.find(2), nullptr);
    EXPECT_EQ(q.find(2)->expert, 9);
    std::vector<int> ids;
    for (const EngineRequest &r : q)
        ids.push_back(r.id);
    EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3}));
}
