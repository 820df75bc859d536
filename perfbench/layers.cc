/**
 * @file
 * Per-layer host costs. Each layer is replayed alone on its own event
 * queue, driven by shapes recorded from the workload's run (request
 * stream, access and load sizes, message destinations), and its self
 * time per operation is the replay time minus the cost of the event
 * core and lower layers it calls. Operation counts come from the
 * run's public counters. See perfbench/README.md for the layer table.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.h"
#include "coe/coe_runtime.h"
#include "coe/fabric.h"
#include "coe/faults.h"
#include "coe/serving_engine.h"
#include "mem/interleaved_memory.h"
#include "mem/memory_system.h"
#include "sim/event_queue.h"

namespace perfbench {

void
LayerReport::set(const std::string &name, double value)
{
    for (auto &kv : values) {
        if (kv.first == name) {
            kv.second = value;
            return;
        }
    }
    values.emplace_back(name, value);
}

Recording
recordStream(const coe::ServingConfig &cfg)
{
    Recording rec;
    sim::EventQueue eq;
    std::unique_ptr<coe::WorkloadModel> model = coe::makeWorkloadModel(cfg);
    model->bind(eq, [&](const coe::TrafficRequest &r) {
        rec.requests.push_back(r);
        rec.ticks.push_back(eq.now());
    });
    model->start();
    eq.run(); // open loop: arrivals self-schedule
    return rec;
}

namespace {

/**
 * Median seconds of @p pass, at reference host speed, over repeated
 * passes: at least one, then more while the budget lasts.
 */
template <class Pass>
double
medianSeconds(double budget_s, Pass pass)
{
    std::vector<double> samples;
    Clock::time_point start = Clock::now();
    do {
        samples.push_back(atReferenceSpeed(pass));
    } while (secondsSince(start) < budget_s);
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** Keeps a replay's results observable so the work is not elided. */
volatile double g_sink = 0.0;

/**
 * Host cost of one event as a function of queue depth. The event
 * heap's cost grows with the number of pending events, so the event
 * core is replayed at a ladder of depths (self-rescheduling chains)
 * and read back at the depth each run or replay was observed at.
 */
class EventCost
{
  public:
    explicit EventCost(double budget_s)
    {
        const double depths[] = {1, 4, 16, 64, 256, 1024, 4096};
        const double slice = budget_s / std::size(depths);
        for (double d : depths)
            points_.emplace_back(d, measure(static_cast<int>(d), slice));
    }

    /** ns per event at @p depth pending events (log-linear in depth). */
    double
    at(double depth) const
    {
        depth = std::max(depth, points_.front().first);
        if (depth >= points_.back().first)
            return points_.back().second;
        for (std::size_t i = 1; i < points_.size(); ++i) {
            if (depth > points_[i].first)
                continue;
            const auto &a = points_[i - 1];
            const auto &b = points_[i];
            double f = std::log(depth / a.first) / std::log(b.first / a.first);
            return a.second + f * (b.second - a.second);
        }
        return points_.back().second;
    }

  private:
    static double
    measure(int chains, double budget_s)
    {
        struct Chain
        {
            sim::EventQueue *eq;
            std::uint64_t *left;
            void
            operator()() const
            {
                if (*left == 0)
                    return;
                --*left;
                eq->scheduleIn(1 + static_cast<sim::Tick>(*left % 7), *this,
                               "replay.event");
            }
        };
        constexpr std::uint64_t kEvents = 400'000;
        std::uint64_t fired = 0;
        double s = medianSeconds(budget_s, [&] {
            sim::EventQueue eq;
            std::uint64_t left = kEvents;
            for (int c = 0; c < chains; ++c)
                eq.scheduleIn(1, Chain{&eq, &left}, "replay.event");
            Clock::time_point t = Clock::now();
            eq.run();
            double dt = secondsSince(t);
            fired = eq.executedCount();
            return dt;
        });
        return s * 1e9 / static_cast<double>(fired);
    }

    std::vector<std::pair<double, double>> points_;
};

/** A replay's host time, its events and their mean queue depth. */
struct Replay
{
    double seconds = 0.0;
    double events = 0.0;
    double depth = 1.0;

    /** Host ns left after the replay's own events are paid for. */
    double
    selfNs(const EventCost &ec) const
    {
        return seconds * 1e9 - events * ec.at(depth);
    }
};

/** Mean-depth accumulator sampled at a replay's callbacks. */
struct DepthProbe
{
    double sum = 0.0;
    double samples = 0.0;
    void
    sample(const sim::EventQueue &eq)
    {
        sum += static_cast<double>(eq.pendingCount());
        samples += 1.0;
    }
    double mean() const { return samples > 0.0 ? sum / samples : 1.0; }
};

/** Shapes of one node's memory traffic, from its public counters. */
struct MemShape
{
    double trafficAccesses = 0.0; ///< per-prompt HBM streams
    double trafficBytes = 0.0;    ///< bytes per prompt stream
    double loads = 0.0;           ///< DMA expert loads (2 accesses each)
    double loadBytes = 0.0;       ///< mean bytes per load
};

/**
 * Booking: InterleavedMemory::bookAccess on the platform's DDR and HBM
 * tiers, prompt streams interleaved with load copies in the recorded
 * ratio. Pure booking — no events are scheduled.
 */
double
nsPerAccess(const mem::MemorySystemConfig &mc, const MemShape &shape,
            const std::vector<coe::TrafficRequest> &stream, double budget_s)
{
    constexpr double kMaxOps = 2e6;
    double ops = shape.trafficAccesses + 2.0 * shape.loads;
    if (ops <= 0.0)
        return 0.0;
    double scale = std::min(1.0, kMaxOps / ops);
    auto traffic = static_cast<std::int64_t>(shape.trafficAccesses * scale);
    auto loads = static_cast<std::int64_t>(shape.loads * scale);
    auto line = static_cast<std::int64_t>(std::max(1.0, shape.loadBytes));
    double s = medianSeconds(budget_s, [&] {
        sim::EventQueue eq;
        mem::InterleavedMemory ddr(eq, "replay.ddr", mc.ddr.channels,
                                   mc.ddr.perChannelBandwidth,
                                   mc.ddr.interleaveBytes, mc.ddr.efficiency);
        mem::InterleavedMemory hbm(eq, "replay.hbm", mc.hbm.channels,
                                   mc.hbm.perChannelBandwidth,
                                   mc.hbm.interleaveBytes, mc.hbm.efficiency);
        std::int64_t every = loads > 0 ? std::max<std::int64_t>(
                                             1, traffic / loads)
                                       : 0;
        std::int64_t done_loads = 0;
        sim::Tick acc = 0;
        Clock::time_point t = Clock::now();
        for (std::int64_t i = 0; i < traffic || done_loads < loads; ++i) {
            if (i < traffic)
                acc ^= hbm.bookAccess(0, shape.trafficBytes);
            if (done_loads < loads && (i >= traffic || i % every == 0)) {
                int e = stream.empty()
                    ? 0
                    : stream[static_cast<std::size_t>(i) % stream.size()]
                          .expert;
                acc ^= ddr.bookAccess(e * line, shape.loadBytes);
                acc ^= hbm.bookAccess((done_loads % 64) * line,
                                      shape.loadBytes);
                ++done_loads;
            }
        }
        double dt = secondsSince(t);
        g_sink = g_sink + static_cast<double>(acc);
        return dt;
    });
    return s * 1e9 / (static_cast<double>(traffic) + 2.0 * loads);
}

/**
 * DMA: MemorySystem::load of the recorded load size, issued in groups
 * of the recorded loads-per-batch and drained on the replay's own
 * queue. Self time excludes the event core and the two bookings each
 * copy makes.
 */
double
nsPerLoad(const mem::MemorySystemConfig &mc, const MemShape &shape,
          double loads_per_batch, const EventCost &ec, double ns_access,
          double budget_s)
{
    constexpr double kMaxLoads = 2e5;
    if (shape.loads <= 0.0)
        return 0.0;
    auto loads = static_cast<std::int64_t>(std::min(shape.loads, kMaxLoads));
    auto group = static_cast<std::int64_t>(
        std::max(1.0, std::round(loads_per_batch)));
    auto line = static_cast<std::int64_t>(std::max(1.0, shape.loadBytes));
    Replay r;
    r.seconds = medianSeconds(budget_s, [&] {
        sim::EventQueue eq;
        mem::MemorySystem ms(eq, "replay", mc);
        DepthProbe depth;
        Clock::time_point t = Clock::now();
        for (std::int64_t i = 0; i < loads;) {
            for (std::int64_t g = 0; g < group && i < loads; ++g, ++i)
                ms.load((i % 64) * line, (i % 64) * line, shape.loadBytes,
                        mem::TransferPriority::Demand, [] {});
            depth.sample(eq);
            eq.run();
        }
        double dt = secondsSince(t);
        r.events = static_cast<double>(eq.executedCount());
        r.depth = depth.mean();
        return dt;
    });
    double self = r.selfNs(ec) - 2.0 * static_cast<double>(loads) * ns_access;
    return self / static_cast<double>(loads);
}

/**
 * Residency: CoeRuntime activateAsync/pin/completeLoad/unpin driven by
 * the recorded expert stream, one batch of distinct experts at a time
 * (pinned first when resident, as the engine does).
 */
double
nsPerActivation(const coe::ServingConfig &cfg, std::int64_t region,
                const std::vector<coe::TrafficRequest> &stream,
                double budget_s)
{
    if (stream.empty())
        return 0.0;
    coe::ExpertZoo zoo = coe::buildServingZoo(cfg);
    const std::size_t batch = static_cast<std::size_t>(cfg.batch);
    double activations = 0.0;
    double s = medianSeconds(budget_s, [&] {
        coe::CoeRuntime rt(zoo, region);
        std::vector<int> experts;
        std::vector<bool> resident;
        activations = 0.0;
        Clock::time_point t = Clock::now();
        for (std::size_t i = 0; i < stream.size(); i += batch) {
            experts.clear();
            for (std::size_t j = i; j < std::min(i + batch, stream.size());
                 ++j)
                if (std::find(experts.begin(), experts.end(),
                              stream[j].expert) == experts.end())
                    experts.push_back(stream[j].expert);
            resident.clear();
            for (int e : experts)
                resident.push_back(rt.resident(e));
            for (std::size_t k = 0; k < experts.size(); ++k) {
                if (!resident[k])
                    continue;
                rt.activateAsync(experts[k]);
                rt.pin(experts[k]);
            }
            for (std::size_t k = 0; k < experts.size(); ++k) {
                if (resident[k])
                    continue;
                rt.activateAsync(experts[k]);
                rt.pin(experts[k]);
                rt.completeLoad(experts[k]);
            }
            for (int e : experts)
                rt.unpin(e);
            activations += static_cast<double>(experts.size());
        }
        return secondsSince(t);
    });
    return s * 1e9 / activations;
}

/** Workload generation alone: the model emitting into a counting sink. */
double
nsPerEmission(const coe::ServingConfig &cfg, const EventCost &ec,
              double budget_s)
{
    double emitted = 0.0;
    Replay r;
    r.seconds = medianSeconds(budget_s, [&] {
        sim::EventQueue eq;
        std::unique_ptr<coe::WorkloadModel> model =
            coe::makeWorkloadModel(cfg);
        std::int64_t n = 0;
        DepthProbe depth;
        model->bind(eq, [&](const coe::TrafficRequest &) {
            ++n;
            depth.sample(eq);
        });
        Clock::time_point t = Clock::now();
        model->start();
        eq.run();
        double dt = secondsSince(t);
        emitted = static_cast<double>(n);
        r.events = static_cast<double>(eq.executedCount());
        r.depth = depth.mean();
        return dt;
    });
    return emitted > 0.0 ? r.selfNs(ec) / emitted : 0.0;
}

/** One node's share of the request stream and when it reaches the node. */
struct NodeStream
{
    std::vector<coe::TrafficRequest> requests;
    std::vector<sim::Tick> arrival; ///< emission tick (latency origin)
    std::vector<sim::Tick> inject;  ///< tick the engine receives it
};

/** Counters of one engine replay. */
struct EngineCounts
{
    Replay replay;
    double completed = 0.0;
    double misses = 0.0;
    double batches = 0.0;
    MemShape mem;
    double accesses = 0.0;
    double activations = 0.0;
    double evictions = 0.0;
};

/**
 * A ServingEngine alone on its own queue, fed the node's recorded
 * arrivals at their recorded ticks. Returns the replay's public
 * counters and its host time.
 */
EngineCounts
replayEngine(const coe::ServingConfig &cfg, const NodeStream &ns)
{
    EngineCounts c;
    if (ns.requests.empty())
        return c;
    coe::PhaseCosts costs = coe::computePhaseCosts(cfg);
    if (cfg.expertRegionBytes > 0)
        costs.expertRegionBytes = cfg.expertRegionBytes;
    sim::EventQueue eq;
    coe::ServingEngine engine(eq, cfg, costs, coe::buildServingZoo(cfg));
    DepthProbe depth;
    struct Feeder
    {
        sim::EventQueue *eq;
        coe::ServingEngine *engine;
        const NodeStream *ns;
        DepthProbe *depth;
        std::size_t i;
        void
        operator()() const
        {
            depth->sample(*eq);
            engine->injectAt(engine->makeEngineRequest(ns->requests[i],
                                                       ns->arrival[i]));
            if (i + 1 < ns->requests.size())
                eq->schedule(ns->inject[i + 1],
                             Feeder{eq, engine, ns, depth, i + 1},
                             "replay.arrival");
        }
    };
    eq.schedule(ns.inject[0], Feeder{&eq, &engine, &ns, &depth, 0},
                "replay.arrival");
    c.replay.seconds = atReferenceSpeed([&eq] {
        Clock::time_point t = Clock::now();
        eq.run();
        return secondsSince(t);
    });
    c.replay.events = static_cast<double>(eq.executedCount());
    c.replay.depth = depth.mean();
    c.completed = static_cast<double>(engine.completedCount());
    c.misses = static_cast<double>(engine.missCount());
    c.batches = static_cast<double>(engine.batchCount());
    mem::MemorySystem &ms = engine.memorySystem();
    double ddr = ms.ddr().stats().get("accesses");
    double hbm = ms.hbm().stats().get("accesses");
    c.accesses = ddr + hbm;
    c.mem.loads = ms.stats().get("issued_loads");
    c.mem.loadBytes = c.mem.loads > 0.0
        ? ms.stats().get("load_bytes") / c.mem.loads
        : 0.0;
    c.mem.trafficAccesses = hbm - ddr;
    c.mem.trafficBytes = c.mem.trafficAccesses > 0.0
        ? ms.stats().get("traffic_bytes") / c.mem.trafficAccesses
        : 0.0;
    const sim::StatSet &rt = engine.runtime().stats();
    c.activations =
        rt.get("hits") + rt.get("pending_hits") + rt.get("misses");
    c.evictions = rt.get("evictions");
    return c;
}

/**
 * Destination node of each request under the cluster's round-robin
 * dispatch, reproduced from the public placement: the hub's cursor
 * cycles over each expert's hosts.
 */
std::vector<int>
roundRobinNodes(const coe::ClusterConfig &c, const Recording &rec)
{
    coe::ExpertPlacement p = coe::makePlacement(
        c.placement, c.node.numExperts, c.nodes, c.hotExperts);
    std::vector<int> out;
    out.reserve(rec.requests.size());
    std::size_t cursor = 0;
    for (const coe::TrafficRequest &r : rec.requests) {
        const std::vector<int> &hosts =
            p.hostsOfExpert[static_cast<std::size_t>(r.expert)];
        out.push_back(hosts[cursor++ % hosts.size()]);
    }
    return out;
}

/** Split the recorded stream by destination node. */
std::vector<NodeStream>
splitByNode(int nodes, const Recording &rec, const std::vector<int> &dest,
            const std::vector<sim::Tick> &delivered)
{
    std::vector<NodeStream> out(static_cast<std::size_t>(nodes));
    for (std::size_t i = 0; i < rec.requests.size(); ++i) {
        NodeStream &ns = out[static_cast<std::size_t>(dest[i])];
        ns.requests.push_back(rec.requests[i]);
        ns.arrival.push_back(rec.ticks[i]);
        ns.inject.push_back(delivered.empty() ? rec.ticks[i] : delivered[i]);
    }
    return out;
}

/**
 * Fabric: the recorded dispatch messages (hub to each request's node,
 * at its emission tick) sent through a ClusterFabric on its own queue,
 * with the workload's link-degrade schedule. Records delivery ticks
 * so the node replays see the wire delay.
 */
double
nsPerFlit(const coe::ClusterConfig &c, const Recording &rec,
          const std::vector<int> &dest, const EventCost &ec, double budget_s,
          std::vector<sim::Tick> &delivered, double &flits_out,
          double &depth_out)
{
    delivered.assign(rec.requests.size(), 0);
    double flits = 0.0;
    Replay r;
    r.seconds = medianSeconds(budget_s, [&] {
        sim::EventQueue eq;
        DepthProbe depth;
        coe::ClusterFabric fab(eq, c.fabric, c.nodes);
        if (c.faults) {
            for (const coe::FaultEvent &f : *c.faults) {
                if (f.kind != coe::FaultKind::LinkDegrade)
                    continue;
                coe::ClusterFabric *fp = &fab;
                int node = f.node;
                double factor = f.factor;
                eq.schedule(sim::fromSeconds(f.atSeconds),
                            [fp, node, factor] {
                                fp->degradeNode(node, factor);
                            });
                if (f.durationSeconds > 0.0)
                    eq.schedule(sim::fromSeconds(f.atSeconds +
                                                 f.durationSeconds),
                                [fp, node] { fp->degradeNode(node, 1.0); });
            }
        }
        struct Sender
        {
            sim::EventQueue *eq;
            coe::ClusterFabric *fab;
            const Recording *rec;
            const std::vector<int> *dest;
            std::vector<sim::Tick> *delivered;
            DepthProbe *depth;
            double bytes;
            std::size_t i;
            void
            operator()() const
            {
                depth->sample(*eq);
                sim::EventQueue *q = eq;
                sim::Tick *slot = &(*delivered)[i];
                fab->sendRequest((*dest)[i], bytes,
                                 [q, slot] { *slot = q->now(); });
                if (i + 1 < rec->requests.size())
                    eq->schedule(rec->ticks[i + 1],
                                 Sender{eq, fab, rec, dest, delivered, depth,
                                        bytes, i + 1},
                                 "replay.dispatch");
            }
        };
        if (!rec.requests.empty())
            eq.schedule(rec.ticks[0],
                        Sender{&eq, &fab, &rec, &dest, &delivered, &depth,
                               c.fabric.requestPayloadBytes, 0},
                        "replay.dispatch");
        Clock::time_point t = Clock::now();
        eq.run();
        double dt = secondsSince(t);
        flits = static_cast<double>(fab.flitsDelivered());
        r.events = static_cast<double>(eq.executedCount());
        r.depth = depth.mean();
        return dt;
    });
    flits_out = flits;
    depth_out = r.depth;
    return flits > 0.0 ? r.selfNs(ec) / flits : 0.0;
}

} // namespace

void
replayLayers(const WorkloadSpec &w, const RunStats &run,
             const Recording &rec, double wall_s, double budget_s,
             Tracer *tracer, LayerReport &out)
{
    const coe::ServingConfig &cfg = w.node;
    const double completed = static_cast<double>(run.stream.completed);
    const double per_req = completed > 0.0 ? 1.0 / completed : 0.0;
    const mem::MemorySystemConfig mc = coe::platformMemoryConfig(cfg);
    // Eight replays share the budget; the fabric and engine replays
    // are the expensive ones on cluster workloads.
    const double slice = budget_s / 8.0;

    // Event core first: every other self time subtracts its events.
    std::unique_ptr<EventCost> ec;
    {
        ScopedSpan s(tracer, "replay.event_core");
        ec = std::make_unique<EventCost>(slice);
    }

    // Fabric (cluster_fabric only): also yields the delivery ticks the
    // node replays inject at.
    std::vector<sim::Tick> delivered;
    double ns_flit = 0.0, replay_flits = 0.0, fabric_depth = 0.0;
    std::vector<int> dest;
    if (w.isCluster)
        dest = roundRobinNodes(w.clusterCfg, rec);
    if (w.isCluster && w.clusterCfg.fabric.enabled) {
        ScopedSpan s(tracer, "replay.fabric");
        ns_flit = nsPerFlit(w.clusterCfg, rec, dest, *ec, 2 * slice,
                            delivered, replay_flits, fabric_depth);
    }

    // Engine replays: one per node stream, serially. They give the
    // engine-internal counters on cluster workloads (where the engines
    // are private to ClusterSimulator) and the engine's host time.
    std::vector<NodeStream> streams;
    if (w.isCluster) {
        streams = splitByNode(w.clusterCfg.nodes, rec, dest, delivered);
    } else {
        streams.resize(1);
        streams[0].requests = rec.requests;
        streams[0].arrival = rec.ticks;
        streams[0].inject = rec.ticks;
    }
    EngineCounts eng;        // summed over nodes
    double eng_self_ns = 0.0; // engine replays less their own events
    double node_depth = 0.0;  // summed over nodes
    bool exact = true;
    {
        ScopedSpan s(tracer, "replay.engine");
        for (std::size_t n = 0; n < streams.size(); ++n) {
            EngineCounts c = replayEngine(cfg, streams[n]);
            eng_self_ns += c.replay.selfNs(*ec);
            node_depth += c.replay.depth;
            eng.completed += c.completed;
            eng.misses += c.misses;
            eng.batches += c.batches;
            eng.accesses += c.accesses;
            eng.activations += c.activations;
            eng.evictions += c.evictions;
            // Bytes summed here, made means after the loop.
            eng.mem.trafficAccesses += c.mem.trafficAccesses;
            eng.mem.trafficBytes += c.mem.trafficBytes * c.mem.trafficAccesses;
            eng.mem.loads += c.mem.loads;
            eng.mem.loadBytes += c.mem.loadBytes * c.mem.loads;
            if (w.isCluster) {
                const coe::ClusterNodeMetrics &m = run.nodes[n];
                exact = exact &&
                    c.completed == static_cast<double>(m.completed) &&
                    c.misses == static_cast<double>(m.misses) &&
                    c.batches == static_cast<double>(m.batches);
            } else {
                exact = exact && c.completed == completed &&
                    c.misses == static_cast<double>(run.misses) &&
                    c.accesses == run.memAccesses;
            }
        }
    }
    if (eng.mem.trafficAccesses > 0.0)
        eng.mem.trafficBytes /= eng.mem.trafficAccesses;
    if (eng.mem.loads > 0.0)
        eng.mem.loadBytes /= eng.mem.loads;
    std::printf("replay fidelity: engine replays %s the run's per-node "
                "counters%s\n",
                exact ? "reproduce" : "approximate",
                w.isCluster && w.clusterCfg.fabric.enabled
                    ? (replay_flits == static_cast<double>(run.flits)
                           ? "; fabric replay reproduces the run's flits"
                           : "; fabric replay approximates the run's flits")
                    : "");

    // Counters: the run's own where the library exposes them (single
    // node), else the engine replays'.
    double accesses = w.isCluster ? eng.accesses : run.memAccesses;
    double loads = w.isCluster ? eng.mem.loads : run.dmaLoads;
    double activations = w.isCluster ? eng.activations : run.activations;
    double evictions = w.isCluster ? eng.evictions : run.evictions;
    MemShape shape = eng.mem;

    double ns_access, ns_load, ns_act, ns_wl;
    {
        ScopedSpan s(tracer, "replay.booking");
        ns_access = nsPerAccess(mc, shape, rec.requests, slice);
    }
    {
        ScopedSpan s(tracer, "replay.dma");
        double per_batch = eng.batches > 0.0 ? eng.mem.loads / eng.batches
                                             : 1.0;
        ns_load = nsPerLoad(mc, shape, per_batch, *ec, ns_access, slice);
    }
    {
        ScopedSpan s(tracer, "replay.runtime");
        coe::PhaseCosts costs = coe::computePhaseCosts(cfg);
        if (cfg.expertRegionBytes > 0)
            costs.expertRegionBytes = cfg.expertRegionBytes;
        ns_act = nsPerActivation(
            cfg, coe::ServingEngine::effectiveExpertRegionBytes(cfg, costs),
            rec.requests, slice);
    }
    {
        ScopedSpan s(tracer, "replay.workload");
        ns_wl = nsPerEmission(cfg, *ec, slice);
    }

    // Engine self time: the engine replays' host time less what the
    // layers beneath it cost.
    double ns_engine = eng.completed > 0.0
        ? (eng_self_ns - eng.accesses * ns_access -
           eng.mem.loads * ns_load - eng.activations * ns_act) /
            eng.completed
        : 0.0;

    const double wall_ns = wall_s * 1e9;
    const double emitted = static_cast<double>(rec.requests.size());
    const double flits = static_cast<double>(run.flits);
    auto share = [wall_ns](double ops, double ns) {
        return wall_ns > 0.0 ? ops * ns / wall_ns : 0.0;
    };
    double accounted = 0.0;
    auto layer = [&](const char *prefix, double ops, double ns) {
        double sh = share(ops, ns);
        accounted += sh;
        out.set(std::string(prefix) + ".wall_share", sh);
    };

    // The run's own queue depth: sampled at each emission on a single
    // node; on a cluster's shared queue, the sum of what the fabric
    // and node replays saw.
    double run_depth = w.isCluster
        ? fabric_depth + node_depth
        : rec.pendingSum / std::max<double>(1.0, rec.requests.size());
    const double ns_event = ec->at(run_depth);
    out.set("eq.events_per_req", run.events * per_req);
    out.set("eq.ns_per_event", ns_event);
    layer("eq", run.events, ns_event);

    out.set("mem.accesses_per_req", accesses * per_req);
    out.set("mem.ns_per_access", ns_access);
    layer("mem", accesses, ns_access);

    out.set("dma.loads_per_req", loads * per_req);
    out.set("dma.ns_per_load", ns_load);
    layer("dma", loads, ns_load);

    out.set("runtime.hit_ratio",
            completed > 0.0
                ? 1.0 - static_cast<double>(run.misses) / completed
                : 0.0);
    out.set("runtime.evictions_per_req", evictions * per_req);
    out.set("runtime.ns_per_activation", ns_act);
    layer("runtime", activations, ns_act);

    out.set("engine.batch_occupancy", run.stream.meanBatchOccupancy);
    out.set("engine.ns_per_req", ns_engine);
    layer("engine", completed, ns_engine);

    out.set("workload.ns_per_req", ns_wl);
    layer("workload", emitted, ns_wl);

    out.set("fabric.flits_per_req", flits * per_req);
    out.set("fabric.credit_stalls", static_cast<double>(run.creditStalls));
    out.set("fabric.ns_per_flit", ns_flit);
    layer("fabric", flits, ns_flit);

    // The hub is not reachable alone: on cluster workloads its cost is
    // what the replayed layers leave of the serial run's wall time.
    double unaccounted = 1.0 - accounted;
    double dispatched = static_cast<double>(run.dispatched);
    out.set("hub.ns_per_dispatch", w.isCluster && dispatched > 0.0
                                       ? unaccounted * wall_ns / dispatched
                                       : 0.0);
    out.set("hub.wall_share", w.isCluster ? unaccounted : 0.0);
    out.set("trace.unaccounted_share", unaccounted);
}

} // namespace perfbench
