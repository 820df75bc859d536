/**
 * @file
 * The four benchmark workloads, composed from the library's public
 * entry points, and the correctness checks every run makes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "bench.h"
#include "coe/cost_cache.h"
#include "coe/faults.h"
#include "coe/serving_engine.h"
#include "sim/event_queue.h"

namespace perfbench {

void
check(bool ok, const std::string &what)
{
    if (!ok)
        throw CheckFailure(what);
}

// ------------------------------------------------------ host speed

namespace {
/** Keeps the probe's result observable so its work is not elided. */
volatile std::uint64_t g_probeSink = 0;
} // namespace

double
probeSeconds()
{
    constexpr int kKeys = 4096;
    constexpr int kSteps = 150'000;
    static std::vector<std::uint64_t> heap;
    Clock::time_point t = Clock::now();
    heap.clear();
    std::uint64_t x = 1, acc = 0;
    auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 20;
    };
    for (int i = 0; i < kKeys; ++i) {
        heap.push_back(next());
        std::push_heap(heap.begin(), heap.end());
    }
    for (int i = 0; i < kSteps; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        acc += heap.back();
        heap.back() = next();
        std::push_heap(heap.begin(), heap.end());
    }
    g_probeSink = acc;
    return secondsSince(t);
}

// ------------------------------------------------------------ spans

int
Tracer::open(const char *name, int parent)
{
    std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - epoch_)
                           .count();
    spans_.push_back({name, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::close(int span)
{
    spans_[static_cast<std::size_t>(span)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
}

std::string
Tracer::summaryJson() const
{
    struct Agg
    {
        std::string name;
        std::int64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t childNs = 0;
    };
    std::vector<Agg> aggs;
    auto find = [&aggs](const char *name) -> Agg & {
        for (Agg &a : aggs)
            if (a.name == name)
                return a;
        aggs.push_back(Agg{name});
        return aggs.back();
    };
    for (const Span &s : spans_) {
        Agg &a = find(s.name);
        ++a.count;
        a.totalNs += s.endNs - s.startNs;
        if (s.parent >= 0)
            find(spans_[static_cast<std::size_t>(s.parent)].name).childNs +=
                s.endNs - s.startNs;
    }
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < aggs.size(); ++i) {
        const Agg &a = aggs[i];
        os << (i ? ", " : "") << "{\"span\": \"" << a.name
           << "\", \"count\": " << a.count
           << ", \"total_ms\": " << a.totalNs / 1e6
           << ", \"self_ms\": " << (a.totalNs - a.childNs) / 1e6 << "}";
    }
    os << "]";
    return os.str();
}

// --------------------------------------------------------- workloads

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_zipf", "zoo_churn", "cluster_fabric", "cluster_sharded"};
    return names;
}

namespace {

/** The perf_serving shape: hit-heavy single-node Zipf serving. */
coe::ServingConfig
servingShape(std::uint64_t seed, int requests, double rate)
{
    coe::ServingConfig c;
    c.mode = coe::ServingMode::EventDriven;
    c.numExperts = 150;
    c.batch = 8;
    c.streamRequests = requests;
    c.arrivalRatePerSec = rate;
    c.routing = coe::RoutingDistribution::Zipf;
    c.zipfS = 1.0;
    c.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    c.seed = seed;
    return c;
}

} // namespace

WorkloadSpec
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    WorkloadSpec w;
    w.name = name;
    if (name == "serve_zipf") {
        w.node = servingShape(seed, tiny ? 2'000 : 200'000, 16.0);
    } else if (name == "zoo_churn") {
        w.node = servingShape(seed, tiny ? 2'000 : 100'000, 16.0);
        w.node.zoo.enabled = true;
        w.node.numExperts = 4000;
        w.node.zoo.rank = 16;
        w.node.zoo.churnEverySeconds = 2.0;
        w.node.expertRegionBytes = 16'000'000'000;
    } else if (name == "cluster_fabric") {
        const int requests = tiny ? 1'000 : 20'000;
        const double rate = 64.0;
        w.isCluster = true;
        w.node = servingShape(seed, requests, rate);
        coe::ClusterConfig &c = w.clusterCfg;
        c.nodes = 8;
        c.placement = coe::PlacementPolicy::FullReplication;
        c.dispatch = coe::DispatchPolicy::RoundRobin;
        c.fabric.enabled = true;
        c.fabric.topology = sim::Topology::Star;
        c.fabric.linkGbps = 1.0;
        // Node 2's links stretched 40x for the middle half of the run:
        // an idle-link phase and a congested phase in one run.
        double duration = requests / rate;
        c.faults = std::make_shared<std::vector<coe::FaultEvent>>(
            std::vector<coe::FaultEvent>{{0.25 * duration,
                                          coe::FaultKind::LinkDegrade, 2,
                                          40.0, 0.50 * duration}});
    } else if (name == "cluster_sharded") {
        w.isCluster = true;
        w.node = servingShape(seed, tiny ? 4'000 : 400'000, 64.0);
        coe::ClusterConfig &c = w.clusterCfg;
        c.nodes = 4;
        c.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
        c.dispatch = coe::DispatchPolicy::RoundRobin;
        c.threads = 4; // capped at nproc by the caller
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.clusterCfg.node = w.node;
    return w;
}

// ------------------------------------------------------- single node

namespace {

/** StreamMetrics exactly as ServingSimulator::runEventDriven builds it. */
coe::StreamMetrics
streamMetricsOf(const coe::ServingEngine &engine, const sim::EventQueue &eq,
                const coe::ServingConfig &cfg)
{
    coe::StreamMetrics m;
    const sim::Distribution &latency = engine.latency();
    const sim::Distribution &stalls = engine.stalls();
    std::int64_t completed = engine.completedCount();
    std::int64_t batches = engine.batchCount();
    double makespan = sim::toSeconds(
        engine.lastCompletion() -
        std::max<sim::Tick>(engine.firstArrival(), 0));
    m.p50LatencySeconds = latency.quantile(0.50);
    m.p95LatencySeconds = latency.quantile(0.95);
    m.p99LatencySeconds = latency.quantile(0.99);
    m.meanLatencySeconds = latency.mean();
    m.maxLatencySeconds = latency.max();
    m.completed = completed;
    m.batches = batches;
    m.meanBatchOccupancy = batches > 0
        ? engine.occupancyTotal() / static_cast<double>(batches)
        : 0.0;
    m.makespanSeconds = makespan;
    if (makespan > 0.0) {
        m.throughputRequestsPerSec =
            static_cast<double>(completed) / makespan;
        m.throughputTokensPerSec = m.throughputRequestsPerSec *
            static_cast<double>(cfg.outputTokens);
        m.meanQueueDepth = engine.depthIntegral() / makespan;
    }
    m.maxQueueDepth = engine.queueDepthMax();
    m.eventsExecuted = eq.executedCount();
    m.meanSwitchStallSeconds = stalls.mean();
    m.p95SwitchStallSeconds = stalls.quantile(0.95);
    m.prefetchesIssued =
        static_cast<std::int64_t>(engine.stats().get("prefetches_issued"));
    m.prefetchHits =
        static_cast<std::int64_t>(engine.stats().get("prefetch_hits"));
    m.prefetchesCancelled = static_cast<std::int64_t>(
        engine.stats().get("prefetches_cancelled"));
    if (cfg.specDecode.enabled) {
        m.specSteps = engine.specStepsTotal();
        m.specTokensPerStep = m.specSteps > 0
            ? static_cast<double>(completed) *
                static_cast<double>(cfg.outputTokens) /
                static_cast<double>(m.specSteps)
            : 0.0;
    }
    m.shed = engine.shedCount();
    m.shedRate = completed + m.shed > 0
        ? static_cast<double>(m.shed) /
            static_cast<double>(completed + m.shed)
        : 0.0;
    return m;
}

} // namespace

Rep
runSingle(const coe::ServingConfig &cfg, Tracer *tracer,
          Recording *recording, bool break_check)
{
    Rep rep;
    sim::EventQueue eq;
    std::unique_ptr<coe::ServingEngine> engine;
    std::unique_ptr<coe::WorkloadModel> workload;
    int run_span = -1;
    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan setup(tracer, "setup");
        // Cold pricing every repetition: a user pays computePhaseCosts
        // once per process, so the process-wide memo must not hide it.
        coe::CostModelCache::instance().clear();
        coe::PhaseCosts costs = [&] {
            ScopedSpan s(tracer, "setup.validate_and_price", setup.id());
            coe::validateServingConfig(cfg);
            coe::PhaseCosts c = coe::computePhaseCosts(cfg);
            if (cfg.expertRegionBytes > 0)
                c.expertRegionBytes = cfg.expertRegionBytes;
            return c;
        }();
        coe::ExpertZoo zoo = [&] {
            ScopedSpan s(tracer, "setup.zoo", setup.id());
            return coe::buildServingZoo(cfg);
        }();
        double backing = zoo.totalBytes() +
            (cfg.zoo.enabled ? cfg.expertBase.weightBytes() : 0.0);
        check(backing <= costs.capacityBytes, "expert zoo exceeds capacity");
        {
            ScopedSpan s(tracer, "setup.engine", setup.id());
            engine = std::make_unique<coe::ServingEngine>(eq, cfg, costs,
                                                          std::move(zoo));
        }
        {
            ScopedSpan s(tracer, "setup.workload", setup.id());
            workload = coe::makeWorkloadModel(cfg);
        }
        coe::ServingEngine &e = *engine;
        coe::WorkloadModel &wl = *workload;
        e.setOnBatchComplete(
            [&wl](int finished) { wl.onBatchComplete(finished); });
        e.setOnRequestComplete([&wl](const coe::EngineRequest &r) {
            wl.onRequestComplete(coe::toTrafficRequest(r));
        });
        e.setOnRequestShed([&wl](const coe::EngineRequest &r) {
            wl.onRequestShed(coe::toTrafficRequest(r));
        });
        if (recording) {
            *recording = Recording{};
            wl.bind(eq, [&eq, &e, recording, tracer,
                         &run_span](const coe::TrafficRequest &r) {
                recording->requests.push_back(r);
                recording->ticks.push_back(eq.now());
                recording->pendingSum +=
                    static_cast<double>(eq.pendingCount());
                ScopedSpan s(tracer, "engine.inject", run_span);
                e.inject(r);
            });
        } else {
            wl.bind(eq, [&e](const coe::TrafficRequest &r) { e.inject(r); });
        }
        wl.start();
        rep.setupS = secondsSince(t0);
    }
    coe::ServingEngine &e = *engine;
    coe::WorkloadModel &wl = *workload;

    {
        ScopedSpan run(tracer, "run");
        run_span = run.id();
        Clock::time_point t1 = Clock::now();
        eq.run();
        rep.runS = secondsSince(t1);
    }

    // Conservation with every queue drained.
    std::int64_t expected = wl.plannedRequests() + (break_check ? 1 : 0);
    check(e.queueDepth() == 0 && !e.busy(),
          "engine queue not drained at the end of the run");
    check(e.memorySystem().queuedLoads() == 0 &&
              e.memorySystem().loadsInFlight() == 0,
          "DMA queues not drained at the end of the run");
    check(wl.emitted() == expected,
          "workload emitted " + std::to_string(wl.emitted()) + " of " +
              std::to_string(expected) + " planned requests");
    check(e.completedCount() + e.shedCount() == wl.emitted(),
          "arrivals != completed + shed + lost");

    RunStats &st = rep.stats;
    st.stream = streamMetricsOf(e, eq, cfg);
    st.arrivals = wl.emitted();
    st.shed = e.shedCount();
    st.misses = e.missCount();
    st.events = static_cast<double>(eq.executedCount());
    mem::MemorySystem &ms = e.memorySystem();
    st.memAccesses = ms.ddr().stats().get("accesses") +
        ms.hbm().stats().get("accesses");
    st.dmaLoads = ms.stats().get("issued_loads");
    const sim::StatSet &rt = e.runtime().stats();
    st.activations =
        rt.get("hits") + rt.get("pending_hits") + rt.get("misses");
    st.evictions = rt.get("evictions");
    st.dispatched = wl.emitted();
    return rep;
}

void
checkAgainstServingSimulator(const coe::ServingConfig &cfg,
                             const RunStats &composed)
{
    coe::ServingSimulator sim(cfg);
    coe::ServingResult ref = sim.run();
    check(!ref.oom, "ServingSimulator reference run went OOM");
    const coe::StreamMetrics &a = composed.stream;
    const coe::StreamMetrics &b = ref.stream;
    auto same = [](const auto &x, const auto &y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
#define PERFBENCH_FIELD(f)                                                 \
    check(same(a.f, b.f), "composed harness differs from "                  \
                          "ServingSimulator::run() on " #f)
    PERFBENCH_FIELD(p50LatencySeconds);
    PERFBENCH_FIELD(p95LatencySeconds);
    PERFBENCH_FIELD(p99LatencySeconds);
    PERFBENCH_FIELD(meanLatencySeconds);
    PERFBENCH_FIELD(maxLatencySeconds);
    PERFBENCH_FIELD(throughputRequestsPerSec);
    PERFBENCH_FIELD(throughputTokensPerSec);
    PERFBENCH_FIELD(meanQueueDepth);
    PERFBENCH_FIELD(maxQueueDepth);
    PERFBENCH_FIELD(meanBatchOccupancy);
    PERFBENCH_FIELD(batches);
    PERFBENCH_FIELD(completed);
    PERFBENCH_FIELD(makespanSeconds);
    PERFBENCH_FIELD(meanSwitchStallSeconds);
    PERFBENCH_FIELD(p95SwitchStallSeconds);
    PERFBENCH_FIELD(prefetchesIssued);
    PERFBENCH_FIELD(prefetchHits);
    PERFBENCH_FIELD(prefetchesCancelled);
    PERFBENCH_FIELD(shed);
    PERFBENCH_FIELD(shedRate);
    PERFBENCH_FIELD(lost);
    PERFBENCH_FIELD(retried);
    PERFBENCH_FIELD(hedged);
    PERFBENCH_FIELD(hedgeWon);
    PERFBENCH_FIELD(specSteps);
    PERFBENCH_FIELD(specTokensPerStep);
    PERFBENCH_FIELD(eventsExecuted);
#undef PERFBENCH_FIELD
}

// ----------------------------------------------------------- cluster

Rep
runCluster(coe::ClusterConfig cfg, int threads, Tracer *tracer,
           bool break_check)
{
    cfg.threads = threads;
    Rep rep;
    coe::ClusterResult r;
    double begin_s = 0.0;
    // Config to first event: the constructor (validation, cold
    // pricing) and begin() (placement, zoo, engines).
    auto setUp = [&]() -> std::unique_ptr<coe::ClusterSimulator> {
        ScopedSpan setup(tracer, "setup");
        Clock::time_point t0 = Clock::now();
        coe::CostModelCache::instance().clear();
        std::unique_ptr<coe::ClusterSimulator> sim;
        {
            ScopedSpan s(tracer, "setup.validate_and_price", setup.id());
            sim = std::make_unique<coe::ClusterSimulator>(cfg);
        }
        ScopedSpan s(tracer, "setup.placement_and_engines", setup.id());
        Clock::time_point tb = Clock::now();
        check(sim->begin(), "cluster placement exceeds a node's DDR");
        begin_s = secondsSince(tb);
        rep.setupS = secondsSince(t0);
        return sim;
    };
    if (threads == 1) {
        std::unique_ptr<coe::ClusterSimulator> sim = setUp();
        ScopedSpan run(tracer, "run");
        Clock::time_point t1 = Clock::now();
        sim->eventQueue().run();
        r = sim->finish();
        rep.runS = secondsSince(t1);
    } else {
        // The sharded executor is only reachable through run(), which
        // calls begin() itself. So setup is timed on a simulator of its
        // own, torn down untimed, and the timed run() on a fresh one
        // has that simulator's begin() time taken off.
        setUp().reset();
        coe::CostModelCache::instance().clear();
        coe::ClusterSimulator sim(cfg);
        ScopedSpan run(tracer, "run");
        Clock::time_point t1 = Clock::now();
        r = sim.run();
        rep.runS = secondsSince(t1) - begin_s;
    }

    check(!r.oom, "cluster run went OOM");
    std::int64_t expected =
        cfg.node.streamRequests + (break_check ? 1 : 0);
    check(r.stream.completed + r.stream.shed + r.stream.lost == expected,
          "arrivals (" + std::to_string(expected) +
              ") != completed + shed + lost (" +
              std::to_string(r.stream.completed + r.stream.shed +
                             r.stream.lost) +
              ")");

    RunStats &st = rep.stats;
    st.stream = r.stream;
    st.arrivals = cfg.node.streamRequests;
    st.shed = r.stream.shed;
    st.lost = r.stream.lost;
    st.events = static_cast<double>(r.stream.eventsExecuted);
    for (const coe::ClusterNodeMetrics &n : r.nodes) {
        st.misses += n.misses;
        st.dispatched += n.dispatched;
    }
    st.flits = r.networkFlits;
    st.creditStalls = r.networkCreditStalls;
    st.nodes = r.nodes;
    return rep;
}

void
checkShardedAgainstSerial(const RunStats &parallel, const RunStats &serial)
{
    const coe::StreamMetrics &p = parallel.stream;
    const coe::StreamMetrics &s = serial.stream;
    check(p.completed == s.completed,
          "sharded run completed " + std::to_string(p.completed) +
              " != serial " + std::to_string(s.completed));
    check(p.makespanSeconds == s.makespanSeconds,
          "sharded makespan differs from the serial run");
    double scale = std::max(1.0, std::fabs(s.meanLatencySeconds));
    check(std::fabs(p.meanLatencySeconds - s.meanLatencySeconds) <=
              1e-9 * scale,
          "sharded mean latency differs from the serial run");
}

std::string
digest(const RunStats &st)
{
    const coe::StreamMetrics &m = st.stream;
    char text[512];
    std::snprintf(
        text, sizeof text,
        "completed=%lld shed=%lld lost=%lld batches=%lld misses=%lld "
        "flits=%lld stalls=%lld events=%.0f makespan_s=%.17g mean_s=%.17g "
        "p50_s=%.17g p95_s=%.17g p99_s=%.17g",
        static_cast<long long>(m.completed), static_cast<long long>(st.shed),
        static_cast<long long>(st.lost), static_cast<long long>(m.batches),
        static_cast<long long>(st.misses), static_cast<long long>(st.flits),
        static_cast<long long>(st.creditStalls), st.events, m.makespanSeconds,
        m.meanLatencySeconds, m.p50LatencySeconds, m.p95LatencySeconds,
        m.p99LatencySeconds);
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (const char *c = text; *c; ++c) {
        h ^= static_cast<unsigned char>(*c);
        h *= 1099511628211ULL;
    }
    char out[600];
    std::snprintf(out, sizeof out, "%016llx %s",
                  static_cast<unsigned long long>(h), text);
    return out;
}

} // namespace perfbench
