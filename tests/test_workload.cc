/**
 * @file
 * Tests for the workload scenario subsystem (coe/workload.h):
 * trace record/replay round-trips (bit-identical metrics, corrupt
 * files FatalError), multi-tenant mixes, conversational sessions,
 * burst shaping, SLO admission control, and the RateShape arithmetic
 * the legacy drivers now route through.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/serving.h"
#include "coe/workload.h"
#include "sim/log.h"
#include "sim/ticks.h"
#include "tools/cli_config.h"

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
    cfg.streamRequests = 300;
    cfg.routing = RoutingDistribution::Zipf;
    cfg.arrivalRatePerSec = 24.0;
    cfg.scheduler = SchedulerPolicy::ExpertAffinity;
    cfg.seed = 11;
    return cfg;
}

/** RAII temp path that is removed on scope exit. */
struct TempFile
{
    explicit TempFile(const char *name)
        : path(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

void
expectStreamBitIdentical(const StreamMetrics &a, const StreamMetrics &b)
{
    EXPECT_DOUBLE_EQ(a.p50LatencySeconds, b.p50LatencySeconds);
    EXPECT_DOUBLE_EQ(a.p95LatencySeconds, b.p95LatencySeconds);
    EXPECT_DOUBLE_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_DOUBLE_EQ(a.maxLatencySeconds, b.maxLatencySeconds);
    EXPECT_DOUBLE_EQ(a.throughputRequestsPerSec,
                     b.throughputRequestsPerSec);
    EXPECT_DOUBLE_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_DOUBLE_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_DOUBLE_EQ(a.meanBatchOccupancy, b.meanBatchOccupancy);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.meanSwitchStallSeconds, b.meanSwitchStallSeconds);
    EXPECT_DOUBLE_EQ(a.p95SwitchStallSeconds, b.p95SwitchStallSeconds);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.shed, b.shed);
}

} // namespace

// ------------------------------------------------------- rate shape

TEST(RateShape, FlatLeavesBaseUntouched)
{
    RateShape shape;
    EXPECT_TRUE(shape.flat());
    // Not just equal: the flat path must not multiply at all, so the
    // legacy gap arithmetic stays bit-identical.
    EXPECT_DOUBLE_EQ(shape.instantaneous(7.3, 123.456), 7.3);
}

TEST(RateShape, BurstWindowsMultiplyInsideOnly)
{
    RateShape shape;
    shape.burstFactor = 4.0;
    shape.burstEverySeconds = 10.0;
    shape.burstSeconds = 2.0;
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 0.5), 32.0);
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 1.999), 32.0);
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 2.5), 8.0);
    EXPECT_DOUBLE_EQ(shape.instantaneous(8.0, 10.5), 32.0); // repeats
}

TEST(RateShape, DiurnalMatchesLegacyExpression)
{
    RateShape shape;
    shape.diurnalAmplitude = 0.9;
    shape.diurnalPeriodSeconds = 10.0;
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    double t = 3.7, base = 16.0;
    double want = base * (1.0 + 0.9 * std::sin(kTwoPi * t / 10.0));
    EXPECT_DOUBLE_EQ(shape.instantaneous(base, t), want);
}

// ------------------------------------------------- trace round trip

TEST(TraceRoundTrip, ServeRecordReplayIsBitIdentical)
{
    TempFile trace("serve_roundtrip.jsonl");
    ServingConfig rec = streamConfig();
    rec.workload.traceOut = trace.path;
    ServingResult recorded = ServingSimulator(rec).run();

    ServingConfig rep = streamConfig();
    rep.workload.traceIn = trace.path;
    ServingResult replayed = ServingSimulator(rep).run();

    expectStreamBitIdentical(recorded.stream, replayed.stream);
    EXPECT_DOUBLE_EQ(recorded.missRate, replayed.missRate);
}

TEST(TraceRoundTrip, SessionWorkloadRecordReplayIsBitIdentical)
{
    // Sessions are the hard case: follow-up arrivals are coupled to
    // completions in the recording run, and the trace must capture
    // the resulting stream exactly.
    TempFile trace("sessions_roundtrip.jsonl");
    ServingConfig rec = streamConfig();
    rec.workload.tenants = 4;
    rec.workload.sessionFollowProb = 0.5;
    rec.workload.sessionThinkSeconds = 0.2;
    rec.workload.sloSeconds = 3.0;
    rec.workload.traceOut = trace.path;
    ServingResult recorded = ServingSimulator(rec).run();

    ServingConfig rep = streamConfig();
    rep.workload.traceIn = trace.path;
    ServingResult replayed = ServingSimulator(rep).run();

    expectStreamBitIdentical(recorded.stream, replayed.stream);
    EXPECT_DOUBLE_EQ(recorded.missRate, replayed.missRate);
}

TEST(TraceRoundTrip, ClusterRecordReplayIsBitIdentical)
{
    TempFile trace("cluster_roundtrip.jsonl");
    ClusterConfig rec;
    rec.nodes = 3;
    rec.placement = PlacementPolicy::ReplicateHotPartitionCold;
    rec.dispatch = DispatchPolicy::LeastOutstanding;
    rec.node = streamConfig();
    rec.node.arrivalRatePerSec = 48.0;
    rec.node.workload.traceOut = trace.path;
    ClusterResult recorded = ClusterSimulator(rec).run();

    ClusterConfig rep = rec;
    rep.node.workload.traceOut.clear();
    rep.node.workload.traceIn = trace.path;
    ClusterResult replayed = ClusterSimulator(rep).run();

    expectStreamBitIdentical(recorded.stream, replayed.stream);
    EXPECT_DOUBLE_EQ(recorded.missRate, replayed.missRate);
    ASSERT_EQ(recorded.nodes.size(), replayed.nodes.size());
    for (std::size_t n = 0; n < recorded.nodes.size(); ++n) {
        EXPECT_EQ(recorded.nodes[n].completed,
                  replayed.nodes[n].completed);
        EXPECT_EQ(recorded.nodes[n].dispatched,
                  replayed.nodes[n].dispatched);
        EXPECT_EQ(recorded.nodes[n].misses, replayed.nodes[n].misses);
    }
}

TEST(TraceRoundTrip, ReplaySameTrafficAcrossConfigs)
{
    // The point of replay: two different serving configs fed the SAME
    // recorded traffic. Arrival streams must agree (completed counts
    // equal), behaviour may differ (miss rates move with the policy).
    TempFile trace("cross_config.jsonl");
    ServingConfig rec = streamConfig();
    rec.workload.traceOut = trace.path;
    ServingSimulator(rec).run();

    ServingConfig fifo = streamConfig();
    fifo.scheduler = SchedulerPolicy::Fifo;
    fifo.workload.traceIn = trace.path;
    ServingConfig affinity = streamConfig();
    affinity.workload.traceIn = trace.path;

    ServingResult f = ServingSimulator(fifo).run();
    ServingResult a = ServingSimulator(affinity).run();
    EXPECT_EQ(f.stream.completed, a.stream.completed);
    EXPECT_LE(a.missRate, f.missRate); // affinity groups same-expert work
}

TEST(TraceRoundTrip, ReplayUnderDifferentSloOverridesDeadlines)
{
    // One trace, three SLO settings: workload.sloSeconds overrides
    // the recorded per-request deadlines at replay, so admission
    // tightens monotonically while the traffic stays identical.
    TempFile trace("slo_sweep.jsonl");
    ServingConfig rec = streamConfig();
    rec.arrivalRatePerSec = 120.0; // overloaded: admission matters
    rec.workload.traceOut = trace.path;
    ServingSimulator(rec).run();

    auto shedWith = [&](double slo) {
        ServingConfig rep = streamConfig();
        rep.workload.traceIn = trace.path;
        rep.workload.sloSeconds = slo;
        return ServingSimulator(rep).run().stream.shed;
    };
    std::int64_t none = shedWith(0.0);   // recorded deadlines (none)
    std::int64_t loose = shedWith(10.0);
    std::int64_t tight = shedWith(0.5);
    EXPECT_EQ(none, 0);
    EXPECT_GT(tight, loose);
}

// ---------------------------------------------------- trace parsing

TEST(TraceFormat, RoundTripsEveryField)
{
    TempFile trace("fields.jsonl");
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 3; ++i) {
        TraceEntry e;
        e.request.id = i;
        e.tick = 1000000LL * (i + 1) + i;
        e.request.tenant = i % 2;
        e.request.expert = 17 + i;
        e.request.session = i == 1 ? 4 : -1;
        e.request.turn = i == 1 ? 3 : 0;
        e.request.promptLen = 512 * i;
        e.request.outputTokens = 20 + i;
        e.request.priority = i;
        e.request.deadlineSeconds = i == 2 ? 1.2345678901234567 : 0.0;
        entries.push_back(e);
    }
    writeTrace(trace.path, entries);
    std::vector<TraceEntry> back = loadTrace(trace.path);
    ASSERT_EQ(back.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(back[i].tick, entries[i].tick);
        EXPECT_EQ(back[i].request.tenant, entries[i].request.tenant);
        EXPECT_EQ(back[i].request.expert, entries[i].request.expert);
        EXPECT_EQ(back[i].request.session, entries[i].request.session);
        EXPECT_EQ(back[i].request.turn, entries[i].request.turn);
        EXPECT_EQ(back[i].request.promptLen,
                  entries[i].request.promptLen);
        EXPECT_EQ(back[i].request.outputTokens,
                  entries[i].request.outputTokens);
        EXPECT_EQ(back[i].request.priority, entries[i].request.priority);
        // Deadlines survive the text round-trip bit-exactly (printed
        // at 17 significant digits).
        EXPECT_DOUBLE_EQ(back[i].request.deadlineSeconds,
                         entries[i].request.deadlineSeconds);
    }
}

TEST(TraceFormat, CorruptAndTruncatedTracesAreFatal)
{
    auto write = [](const std::string &path, const std::string &body) {
        std::ofstream out(path);
        out << body;
    };
    auto line = [](int id, long long tick) {
        return "{\"id\":" + std::to_string(id) + ",\"tick\":" +
            std::to_string(tick) +
            ",\"tenant\":0,\"expert\":1,\"session\":-1,\"turn\":0,"
            "\"prompt\":0,\"tokens\":0,\"prio\":0,\"deadline\":0}\n";
    };

    TempFile t("corrupt.jsonl");
    // Missing file.
    EXPECT_THROW(loadTrace(t.path + ".nope"), sim::FatalError);
    // Empty file.
    write(t.path, "");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Garbage header.
    write(t.path, "not json\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Unsupported version.
    write(t.path, "{\"sn40l_trace\":9,\"requests\":1}\n" + line(0, 5));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Zero requests.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":0}\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Truncated: header promises 3, file has 1.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":3}\n" + line(0, 5));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Malformed field value.
    write(t.path,
          "{\"sn40l_trace\":1,\"requests\":1}\n"
          "{\"id\":zero,\"tick\":5,\"tenant\":0,\"expert\":1,"
          "\"session\":-1,\"turn\":0,\"prompt\":0,\"tokens\":0,"
          "\"prio\":0,\"deadline\":0}\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Wrong key order (schema drift is corruption, not tolerance).
    write(t.path,
          "{\"sn40l_trace\":1,\"requests\":1}\n"
          "{\"tick\":5,\"id\":0,\"tenant\":0,\"expert\":1,"
          "\"session\":-1,\"turn\":0,\"prompt\":0,\"tokens\":0,"
          "\"prio\":0,\"deadline\":0}\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Non-sequential ids.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":2}\n" + line(0, 5) +
                      line(2, 9));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Ticks going backwards.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":2}\n" + line(0, 9) +
                      line(1, 5));
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Trailing garbage after the promised requests.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5) +
                      "extra\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Garbage hiding behind a blank line is still garbage
    // (regression: the check must scan all remaining lines, not just
    // the first).
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5) +
                      "\n\ngarbage\n");
    EXPECT_THROW(loadTrace(t.path), sim::FatalError);
    // Pure trailing newlines are tolerated (editors add them).
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5) +
                      "\n");
    EXPECT_EQ(loadTrace(t.path).size(), 1u);
    // A valid minimal trace still parses after all that.
    write(t.path, "{\"sn40l_trace\":1,\"requests\":1}\n" + line(0, 5));
    EXPECT_EQ(loadTrace(t.path).size(), 1u);
}

// ------------------------------------------------------ scenarios

TEST(MultiTenantWorkload, DeterministicAndConservesRequests)
{
    ServingConfig cfg = streamConfig();
    cfg.workload.tenants = 4;
    ServingResult a = ServingSimulator(cfg).run();
    ServingResult b = ServingSimulator(cfg).run();
    EXPECT_EQ(a.stream.completed, cfg.streamRequests);
    EXPECT_DOUBLE_EQ(a.stream.p99LatencySeconds,
                     b.stream.p99LatencySeconds);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
}

TEST(MultiTenantWorkload, DerivedMixShapesAreSane)
{
    ServingConfig cfg = streamConfig();
    cfg.workload.tenants = 5;
    cfg.workload.sloSeconds = 2.0;
    std::vector<TenantSpec> mix = buildTenantMix(cfg);
    ASSERT_EQ(mix.size(), 5u);
    std::vector<int> offsets;
    for (const TenantSpec &t : mix) {
        EXPECT_GT(t.rateShare, 0.0);
        EXPECT_GE(t.expertOffset, 0);
        EXPECT_LT(t.expertOffset, cfg.numExperts);
        EXPECT_LE(t.minOutputTokens, t.maxOutputTokens);
        EXPECT_DOUBLE_EQ(t.sloSeconds, 2.0);
        offsets.push_back(t.expertOffset);
    }
    // Whales first: shares decay with index.
    EXPECT_GT(mix[0].rateShare, mix[4].rateShare);
    // Hot sets rotate: offsets are distinct.
    std::sort(offsets.begin(), offsets.end());
    EXPECT_EQ(std::unique(offsets.begin(), offsets.end()),
              offsets.end());
}

TEST(SessionWorkload, FollowUpTurnsReuseTheSessionExpert)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 200;
    cfg.workload.tenants = 2;
    cfg.workload.sessionFollowProb = 0.7;
    cfg.workload.sessionThinkSeconds = 0.1;

    // Run through the model directly to inspect the emitted stream.
    sim::EventQueue eq;
    auto model = makeWorkloadModel(cfg);
    std::map<int, int> sessionExpert; // session -> expert of turn 0
    std::int64_t followUps = 0;
    model->bind(eq, [&](const TrafficRequest &r) {
        if (r.session >= 0) {
            auto it = sessionExpert.find(r.session);
            if (it == sessionExpert.end()) {
                EXPECT_EQ(r.turn, 0);
                sessionExpert[r.session] = r.expert;
            } else {
                ++followUps;
                EXPECT_EQ(r.expert, it->second)
                    << "turn " << r.turn << " switched expert";
                EXPECT_GT(r.turn, 0);
            }
        }
        // Completion immediately (no engine): sessions advance.
        model->onRequestComplete(r);
    });
    model->start();
    eq.run();
    EXPECT_EQ(model->emitted(), cfg.streamRequests);
    EXPECT_GT(followUps, 0);
}

TEST(SloAdmission, OverloadShedsAndConservesArrivals)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 300;
    cfg.arrivalRatePerSec = 200.0; // far past saturation
    cfg.workload.sloSeconds = 1.0;
    ServingSimulator sim(cfg);
    ServingResult r = sim.run();
    EXPECT_GT(r.stream.shed, 0);
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    EXPECT_NEAR(r.stream.shedRate,
                static_cast<double>(r.stream.shed) / cfg.streamRequests,
                1e-12);
    // Admission control bounds the queue the SLO cares about: the
    // same overload without shedding has a far worse p99.
    ServingConfig open = cfg;
    open.workload.sloSeconds = 0.0;
    ServingResult ro = ServingSimulator(open).run();
    EXPECT_EQ(ro.stream.shed, 0);
    EXPECT_GT(ro.stream.p99LatencySeconds, r.stream.p99LatencySeconds);
}

TEST(SloAdmission, PriorityTiersShedLowFirst)
{
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 300;
    cfg.arrivalRatePerSec = 120.0;
    TenantSpec low, high;
    low.name = "free";
    low.priority = 0;
    low.sloSeconds = 1.0;
    high.name = "paid";
    high.priority = 2;
    high.sloSeconds = 1.0;
    cfg.workload.tenantSpecs = {low, high};

    ServingSimulator sim(cfg);
    ServingResult r = sim.run();
    EXPECT_GT(r.stream.shed, 0);
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    // Priority widens the tolerated estimate by (1 + p): the paid
    // tier must shed strictly less than the free tier even though
    // both share the same deadline and arrival rate.
    EXPECT_LT(sim.stats().get("shed_tenant_1"),
              sim.stats().get("shed_tenant_0"));
}

TEST(SloAdmission, ClosedLoopShedReturnsClientToThePool)
{
    // Regression: a shed request never reaches onBatchComplete, so
    // without an explicit shed hook the client pool would shrink by
    // one per shed and the run could stall with budget unspent
    // (panic: "workload did not emit its full budget"). An absurdly
    // tight deadline sheds every arrival — the run must still drain
    // its full budget through think-and-retry.
    ServingConfig cfg = streamConfig();
    cfg.arrival = ArrivalProcess::ClosedLoop;
    cfg.clients = 8;
    cfg.streamRequests = 100;
    cfg.thinkSeconds = 0.01;
    cfg.workload.sloSeconds = 1e-6;
    ServingResult r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.stream.completed + r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    EXPECT_EQ(r.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));

    // A feasible deadline mid-overload sheds some, completes the rest.
    cfg.workload.sloSeconds = 0.6;
    cfg.thinkSeconds = 0.0;
    ServingResult mixed = ServingSimulator(cfg).run();
    EXPECT_EQ(mixed.stream.completed + mixed.stream.shed,
              static_cast<std::int64_t>(cfg.streamRequests));
    EXPECT_GT(mixed.stream.completed, 0);
}

TEST(BurstWorkload, FlashCrowdsDegradeTheTail)
{
    ServingConfig flat = streamConfig();
    flat.streamRequests = 400;
    ServingConfig bursty = flat;
    bursty.workload.shape.burstFactor = 4.0;
    bursty.workload.shape.burstEverySeconds = 5.0;
    bursty.workload.shape.burstSeconds = 1.0;

    ServingResult f = ServingSimulator(flat).run();
    ServingResult b = ServingSimulator(bursty).run();
    EXPECT_EQ(b.stream.completed, bursty.streamRequests);
    EXPECT_GT(b.stream.p99LatencySeconds, f.stream.p99LatencySeconds);
}

TEST(WorkloadValidation, RejectsContradictoryConfigs)
{
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.tenants = 0;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.sloSeconds = -1.0;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.sessionFollowProb = 1.5;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.shape.burstFactor = 0.5;
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.workload.shape.burstFactor = 2.0; // but no window
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        cfg.arrival = ArrivalProcess::ClosedLoop;
        cfg.clients = 4;
        cfg.workload.tenants = 3; // mixes are open-loop
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
    {
        ServingConfig cfg = streamConfig();
        TenantSpec t;
        t.rateShare = 0.0;
        cfg.workload.tenantSpecs = {t};
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError);
    }
}

// ------------------------------------------- out-of-range time inputs

namespace {

/** @p run must raise a FatalError whose message names @p flag. */
template <typename Fn>
void
expectFatalNaming(Fn run, const std::string &flag)
{
    try {
        run();
        ADD_FAILURE() << "expected a FatalError naming " << flag;
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(TimeRange, VanishingArrivalRateNamesTheFlag)
{
    // A 1e300 s mean gap overflows the seconds -> ticks conversion: it
    // must be refused by name, not wrap to a tick in the past.
    ServingConfig cfg = streamConfig();
    cfg.arrivalRatePerSec = 1e-300;
    cfg.streamRequests = 50;
    expectFatalNaming([&] { ServingSimulator(cfg).run(); },
                      "--arrival-rate");
}

TEST(TimeRange, HugeSessionThinkNamesTheFlag)
{
    // A 1e300 s think time must be refused by name, not wrap to a
    // negative delay.
    ServingConfig cfg = streamConfig();
    cfg.streamRequests = 50;
    cfg.workload.sessionFollowProb = 0.5;
    cfg.workload.sessionThinkSeconds = 1e300;
    expectFatalNaming([&] { ServingSimulator(cfg).run(); },
                      "--session-think");
}

TEST(TimeRange, VanishingLinkBandwidthNamesTheFlag)
{
    // At 1e-12 Gb/s one flit outlasts the tick range; wrapped flit
    // times would finish the run with a plausible but wrong p95.
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.node.mode = ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.streamRequests = 128;
    cfg.node.arrivalRatePerSec = 32.0;
    cfg.fabric.enabled = true;
    cfg.fabric.topology = sim::Topology::Star;
    cfg.fabric.linkGbps = 1e-12;
    expectFatalNaming([&] { ClusterSimulator(cfg).run(); }, "--link-gbps");
    // Slow enough to pass validation, too slow for the run: the flit
    // path stops the run when its times leave the tick range.
    cfg.fabric.linkGbps = 1e-8;
    expectFatalNaming([&] { ClusterSimulator(cfg).run(); }, "--link-gbps");
}

TEST(TimeRange, UnitConversionsSaturate)
{
    // Every unit conversion clamps like fromSeconds: out-of-range and
    // NaN inputs never reach the undefined float-to-integer cast.
    EXPECT_EQ(sim::fromUs(2.0), 2 * sim::kTicksPerUs);
    EXPECT_EQ(sim::fromPs(1e300), sim::kMaxTick);
    EXPECT_EQ(sim::fromNs(1e300), sim::kMaxTick);
    EXPECT_EQ(sim::fromUs(1e300), sim::kMaxTick);
    EXPECT_EQ(sim::fromMs(1e300), sim::kMaxTick);
    EXPECT_EQ(sim::fromUs(-1e300), -sim::kMaxTick);
    EXPECT_EQ(sim::fromUs(std::nan("")), sim::kMaxTick);
    EXPECT_EQ(sim::fromMs(std::nan("")), sim::kMaxTick);
}

namespace {

ClusterConfig
fabricCluster(double link_latency_us)
{
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node.mode = ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.streamRequests = 64;
    cfg.node.arrivalRatePerSec = 16.0;
    cfg.fabric.enabled = true;
    cfg.fabric.topology = sim::Topology::Star;
    cfg.fabric.linkLatencyUs = link_latency_us;
    return cfg;
}

/**
 * Parse @p argv as a `serve`, `sweep` or `cluster` command line the way
 * sn40l_run does: the CLI's flag checks, then the library validator.
 * @return the FlagUsageError message, or "" when the line is accepted.
 */
std::string
cliError(const std::string &sub, const std::vector<std::string> &argv)
{
    tools::FlagParser p(sub.c_str(), [](std::ostream &) {});
    std::ostringstream help;
    try {
        if (sub == "serve")
            tools::parseServeArgs(p, argv, help);
        else if (sub == "sweep")
            tools::parseSweepArgs(p, argv, help);
        else
            tools::parseClusterArgs(p, argv, help);
    } catch (const tools::FlagUsageError &e) {
        return e.what();
    }
    return "";
}

/** Parse @p argv as a cluster command line; @return the error. */
std::string
fabricFlagError(const std::vector<std::string> &argv)
{
    return cliError("cluster", argv);
}

} // namespace

TEST(TimeRange, HugeLinkLatencyNamesTheFlag)
{
    // 1e300 us used to overflow the us -> ticks cast and then fail as
    // a "negative link latency".
    expectFatalNaming([] { ClusterSimulator(fabricCluster(1e300)).run(); },
                      "--link-latency-us");
    expectFatalNaming(
        [] {
            ClusterSimulator(
                fabricCluster(std::numeric_limits<double>::infinity()))
                .run();
        },
        "--link-latency-us");
    EXPECT_NO_THROW(ClusterSimulator(fabricCluster(5.0)).run());
}

TEST(TimeRange, NanLinkLatencyNamesTheFlag)
{
    expectFatalNaming(
        [] { ClusterSimulator(fabricCluster(std::nan(""))).run(); },
        "--link-latency-us");
}

TEST(TimeRange, LinkLatencyFlagRejectsHugeAndNan)
{
    for (const char *v : {"1e300", "nan", "inf", "-1"}) {
        std::string err = fabricFlagError(
            {"--topology", "star", "--link-latency-us", v});
        EXPECT_NE(err.find("--link-latency-us"), std::string::npos)
            << v << ": '" << err << "'";
    }
    EXPECT_EQ(fabricFlagError({"--topology", "star", "--link-latency-us",
                               "3.5"}),
              "");
}

// ------------------------------------------------- Zipf skew inputs

namespace {

/** Parse @p argv as a serve command line; @return the error. */
std::string
workloadFlagError(const std::vector<std::string> &argv)
{
    return cliError("serve", argv);
}

} // namespace

TEST(ZipfSkew, NanOrInfiniteSkewNamesTheFlag)
{
    // A NaN skew made every CDF entry NaN, so every prompt fell through
    // to the last expert and the run reported a 0.1% miss rate.
    const double inf = std::numeric_limits<double>::infinity();
    for (double s : {std::nan(""), inf, 0.0, -1.0}) {
        ServingConfig cfg = streamConfig();
        cfg.streamRequests = 50;
        cfg.zipfS = s;
        expectFatalNaming([&] { ServingSimulator(cfg).run(); },
                          "--zipf-s");
    }
}

TEST(ZipfSkew, FlagRejectsNanInfAndNonPositive)
{
    for (const char *v : {"nan", "inf", "-inf", "0", "-1"}) {
        std::string err =
            workloadFlagError({"--routing", "zipf", "--zipf-s", v});
        EXPECT_NE(err.find("--zipf-s"), std::string::npos)
            << v << ": '" << err << "'";
    }
    EXPECT_EQ(workloadFlagError({"--routing", "zipf", "--zipf-s", "1.2"}),
              "");
}

TEST(ZipfSkew, TenantSpecRejectsNanSkew)
{
    for (double s : {std::nan(""), std::numeric_limits<double>::infinity(),
                     0.0}) {
        ServingConfig cfg = streamConfig();
        TenantSpec t;
        t.zipfS = s;
        cfg.workload.tenantSpecs = {t};
        EXPECT_THROW(ServingSimulator{cfg}, sim::FatalError) << s;
    }
}

// ------------------------------------------------ numeric flag table

namespace {

/** One numeric flag: the flags it needs, a value that passes, and the
 *  values that must fail naming @p flag. */
struct FlagCase
{
    const char *sub;
    std::vector<std::string> needs;
    const char *flag;
    const char *good;
    std::vector<const char *> bad;
};

} // namespace

TEST(FlagValidation, EveryNumericFlagRejectsNanInfAndOutOfRange)
{
    TempFile faults("flag_table_faults.jsonl");
    {
        std::ofstream out(faults.path);
        out << "{\"sn40l_faults\":1,\"events\":1}\n"
            << "{\"at\":1,\"kind\":\"crash\",\"node\":0,"
               "\"factor\":1,\"duration\":0}\n";
    }
    // The two FOUND repros, verbatim: a NaN --retry-backoff-ms
    // scheduled a retry at a negative tick (a panic), and a NaN
    // --policy-tick-ms reported a 134% miss rate.
    const std::vector<std::string> faulted = {
        "--nodes", "2", "--requests", "400", "--faults", faults.path};
    std::vector<std::string> retry = faulted;
    retry.insert(retry.end(), {"--retry-max", "2"});
    std::vector<std::string> hedge = faulted;
    hedge.insert(hedge.end(), {"--hedge", "--slo-ms", "500"});
    const std::vector<std::string> rr = {"--dispatch", "round-robin"};
    const std::vector<std::string> zipf = {"--routing", "zipf"};
    const std::vector<std::string> pre = {"--prefetch"};
    const std::vector<std::string> closed = {"--closed-loop"};
    const std::vector<std::string> spec = {"--spec-decode"};
    const std::vector<std::string> zoo = {"--zoo-adapters", "100"};
    const std::vector<std::string> ctl = {"--controller", "reactive"};
    const std::vector<std::string> topo = {"--topology", "star"};
    const std::vector<std::string> drain = {"--drain-at", "1"};
    const std::vector<std::string> plan = {
        "--plan-capacity", "--arrival-rate", "8", "--plan-p95-ms", "500"};
    const std::vector<const char *> all = {"nan", "inf", "-1"};
    const std::vector<FlagCase> cases = {
        // workload and memory (shared by serve, sweep, cluster)
        {"serve", {}, "--tokens", "20", all},
        {"serve", {}, "--requests", "64", {"nan", "inf", "-1", "1e3"}},
        {"serve", zipf, "--zipf-s", "1.2", all},
        {"serve", pre, "--prefetch-depth", "2", all},
        {"serve", pre, "--prefetch-window", "2", all},
        {"serve", {}, "--dma-engines", "2", {"nan", "inf", "-1", "0"}},
        {"serve", {}, "--expert-region-gb", "16", {"nan", "inf", "-1",
                                                    "1e300"}},
        // arrivals and scenarios
        {"serve", {}, "--arrival-rate", "8", all},
        {"serve", closed, "--clients", "4", all},
        {"serve", closed, "--think", "0.5", all},
        {"serve", {"--workload", "mix"}, "--tenants", "3", all},
        {"serve", {}, "--slo-ms", "500", all},
        {"serve", {}, "--session-prob", "0.5", all},
        {"serve", {}, "--session-think", "2", all},
        {"serve", {}, "--session-turns", "3", all},
        {"serve", {"--burst-every", "5", "--burst-seconds", "1"},
         "--burst-factor", "2", all},
        {"serve", {"--burst-factor", "2", "--burst-seconds", "1"},
         "--burst-every", "5", all},
        {"serve", {"--burst-factor", "2", "--burst-every", "5"},
         "--burst-seconds", "1", all},
        {"serve", {}, "--experts", "100", all},
        {"serve", {}, "--batch", "4", all},
        {"serve", {}, "--seed", "7", all},
        // spec decode and the adapter zoo
        {"serve", spec, "--spec-gamma", "4", all},
        {"serve", spec, "--spec-accept", "0.8", all},
        {"serve", spec, "--spec-draft-ratio", "0.05", all},
        {"serve", {}, "--zoo-adapters", "100", all},
        {"serve", zoo, "--zoo-rank", "16", all},
        {"serve", zoo, "--zoo-churn", "5", all},
        // sweep axes and execution
        {"sweep", {}, "--experts", "50,100", {"nan,100", "inf", "-1"}},
        {"sweep", {}, "--arrival-rate", "8,16", {"nan", "8,inf", "-1"}},
        {"sweep", {}, "--batch", "4,8", all},
        {"sweep", {}, "--seeds", "1,2", all},
        {"sweep", {}, "--jobs", "2", all},
        {"sweep", {"--nodes", "2"}, "--brownout-depth", "4", all},
        // the repro: node counts below 1 ran single-node rows
        {"sweep", {"--requests", "50"}, "--nodes", "1,2",
         {"-1,0", "0", "nan", "inf"}},
        // cluster shape, scenarios and execution
        {"cluster", {}, "--nodes", "2", all},
        {"cluster", rr, "--threads", "2", all},
        {"cluster", {}, "--hot-experts", "10", all},
        {"cluster", {}, "--drain-at", "1", all},
        {"cluster", drain, "--drain-node", "1", all},
        {"cluster", drain, "--rejoin-at", "3", all},
        {"cluster", {}, "--schedule", "drain:1:1",
         {"drain:nan:1", "drain:inf:1", "drain:-1:1", "rate:1:nan",
          "rate:1:-1"}},
        {"cluster", {}, "--diurnal-amplitude", "0.5", all},
        {"cluster", {"--diurnal-amplitude", "0.5"}, "--diurnal-period",
         "20", all},
        {"cluster", {"--nodes", "2"}, "--node-dma-engines", "2,4",
         {"nan,4", "inf,4", "-1,4"}},
        {"cluster", {"--nodes", "2"}, "--node-region-gb", "16,8",
         {"nan,8", "inf,8", "-1,8", "1e300,8"}},
        // control plane and capacity planning
        {"cluster", ctl, "--controller-tick", "0.5", all},
        {"cluster", ctl, "--controller-min", "1", all},
        {"cluster", ctl, "--controller-max", "3", all},
        {"cluster", ctl, "--controller-up-depth", "4", all},
        {"cluster", ctl, "--controller-down-depth", "0.5", all},
        {"cluster", ctl, "--controller-target-util", "0.7", all},
        {"cluster", ctl, "--controller-cooldown", "4", all},
        {"cluster", ctl, "--controller-hot", "2", all},
        {"cluster", {"--plan-capacity", "--arrival-rate", "8"},
         "--plan-p95-ms", "500", all},
        {"cluster", plan, "--plan-max-nodes", "4", all},
        {"cluster", plan, "--plan-max-shed-pct", "1", all},
        // interconnect
        {"cluster", topo, "--link-gbps", "2", all},
        {"cluster", topo, "--link-latency-us", "5", all},
        {"cluster", topo, "--link-buffer-flits", "8", all},
        // chaos
        {"cluster", faulted, "--retry-max", "2", all},
        {"cluster", retry, "--retry-backoff-ms", "20",
         {"nan", "inf", "-1", "1e300"}},
        {"cluster", retry, "--retry-budget", "10", {"nan", "inf", "-2"}},
        {"cluster", {"--hedge", "--slo-ms", "500"}, "--hedge-threshold",
         "1", all},
        {"cluster", {}, "--brownout-depth", "4", all},
        {"cluster", {"--brownout-depth", "4"}, "--brownout-prio", "1", all},
        {"cluster", hedge, "--policy-tick-ms", "50",
         {"nan", "inf", "-1", "1e300"}},
    };
    for (const FlagCase &c : cases) {
        std::vector<std::string> argv = c.needs;
        argv.push_back(c.flag);
        argv.push_back(c.good);
        EXPECT_EQ(cliError(c.sub, argv), "")
            << c.sub << " " << c.flag << " " << c.good;
        for (const char *v : c.bad) {
            argv.back() = v;
            std::string err = cliError(c.sub, argv);
            EXPECT_NE(err.find(c.flag), std::string::npos)
                << c.sub << " " << c.flag << " " << v << ": '" << err
                << "'";
            EXPECT_EQ(err.find("fatal:"), std::string::npos) << err;
        }
    }
}

TEST(FlagValidation, RegionGigabytesConvertOnlyInRange)
{
    tools::FlagParser p("serve", [](std::ostream &) {});
    EXPECT_EQ(tools::gbToBytes(p, "--expert-region-gb", 2.5),
              std::int64_t{2500000000});
    for (double gb : {std::nan(""), std::numeric_limits<double>::infinity(),
                      1e300, 0.0, -1.0, 1e-12}) {
        try {
            tools::gbToBytes(p, "--expert-region-gb", gb);
            ADD_FAILURE() << gb << " converted";
        } catch (const tools::FlagUsageError &e) {
            EXPECT_NE(std::string(e.what()).find("--expert-region-gb"),
                      std::string::npos)
                << e.what();
        }
    }
}
