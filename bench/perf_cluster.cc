/**
 * @file
 * Cluster-simulation performance harness (not a paper figure):
 * measures how fast the multi-node ClusterSimulator runs, mirroring
 * bench/perf_serving for the single-node engine.
 *
 * Four passes:
 *   1. serial legacy  — least-outstanding dispatch on the shared hub
 *      queue, the historical configuration behind the checked-in
 *      `events_per_sec` floor (unchanged, so the floor stays
 *      comparable across PRs);
 *   2. fabric         — the benchmark's cluster_fabric shape: 8 nodes
 *      on a 1 Gb/s star fabric, round-robin, node 2's links x40 for
 *      the middle half of the run (flit events and credit
 *      backpressure), gated on requests/s;
 *   3. serial affinity — expert-affinity dispatch at threads=1, the
 *      baseline the speedup is measured against (only with
 *      --threads N > 1);
 *   4. parallel       — the same affinity workload with sharded
 *      per-node event queues on N workers, gated on requests/s (its
 *      events/s counts mailbox deliveries, so it is information
 *      only). The harness hard-fails if the parallel metrics diverge
 *      from pass 3: determinism is part of what this gate protects.
 *
 * Workload (passes 1, 3, 4): Zipf(1.0) over 150 experts,
 * replicate-hot placement, near-saturation open-loop arrivals — the
 * configuration cluster studies sweep.
 *
 * Emits BENCH_cluster.json, stamped with the git commit and UTC
 * timestamp. With --floor FILE, exits non-zero if serial events/sec,
 * fabric requests/sec or (when --threads N was given) parallel
 * requests/sec falls below 80% of its checked-in floor — the CI
 * regression gate (see bench/perf_cluster_floor.json).
 *
 *   perf_cluster [--smoke] [--requests N] [--nodes N] [--threads N]
 *                [--json FILE] [--floor FILE]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/faults.h"
#include "perf_common.h"
#include "util/json.h"

using namespace sn40l;
using bench::gate;
using bench::gitCommitHash;
using bench::isoTimestampUtc;
using bench::peakRssBytes;
using bench::wallSeconds;

namespace {

struct PassResult {
    double wall = 0.0;
    coe::ClusterResult result;
};

coe::ClusterConfig
baseConfig(int nodes, int requests)
{
    coe::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    cfg.hotExperts = 15;
    cfg.node.mode = coe::ServingMode::EventDriven;
    cfg.node.numExperts = 150;
    cfg.node.batch = 8;
    cfg.node.streamRequests = requests;
    // Near saturation per node so queues stay live without growing
    // unbounded; Zipf routing exercises LRU + dispatch eligibility.
    cfg.node.arrivalRatePerSec = 16.0 * nodes;
    cfg.node.routing = coe::RoutingDistribution::Zipf;
    cfg.node.zipfS = 1.0;
    cfg.node.scheduler = coe::SchedulerPolicy::ExpertAffinity;
    cfg.node.seed = 1;
    return cfg;
}

/** The benchmark's cluster_fabric shape at @p requests. */
coe::ClusterConfig
fabricConfig(int requests)
{
    coe::ClusterConfig cfg = baseConfig(8, requests);
    cfg.node.arrivalRatePerSec = 64.0;
    cfg.placement = coe::PlacementPolicy::FullReplication;
    cfg.dispatch = coe::DispatchPolicy::RoundRobin;
    cfg.fabric.enabled = true;
    cfg.fabric.topology = sim::Topology::Star;
    cfg.fabric.linkGbps = 1.0;
    double duration = requests / cfg.node.arrivalRatePerSec;
    cfg.faults = std::make_shared<std::vector<coe::FaultEvent>>(
        std::vector<coe::FaultEvent>{{0.25 * duration,
                                      coe::FaultKind::LinkDegrade, 2,
                                      40.0, 0.50 * duration}});
    return cfg;
}

PassResult
runPass(const coe::ClusterConfig &cfg, int requests, const char *label)
{
    coe::ClusterSimulator sim(cfg);
    auto start = std::chrono::steady_clock::now();
    PassResult pr;
    pr.result = sim.run();
    pr.wall = wallSeconds(start);
    if (pr.result.oom || pr.result.stream.completed != requests) {
        std::cerr << "perf_cluster: " << label
                  << " run did not complete\n";
        std::exit(1);
    }
    return pr;
}

double
eventsPerSec(const PassResult &pr)
{
    return pr.wall > 0.0
        ? static_cast<double>(pr.result.stream.eventsExecuted) / pr.wall
        : 0.0;
}

double
requestsPerSec(const PassResult &pr, int requests)
{
    return pr.wall > 0.0 ? requests / pr.wall : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 400'000;
    bool requests_set = false;
    int nodes = 4;
    int threads = 1;
    std::string json_path = "BENCH_cluster.json";
    std::string floor_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "perf_cluster: " << arg << " expects a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--smoke") smoke = true;
        else if (arg == "--requests") {
            requests = std::stoi(next());
            requests_set = true;
        }
        else if (arg == "--nodes") nodes = std::stoi(next());
        else if (arg == "--threads") threads = std::stoi(next());
        else if (arg == "--json") json_path = next();
        else if (arg == "--floor") floor_path = next();
        else {
            std::cerr << "usage: perf_cluster [--smoke] [--requests N] "
                      << "[--nodes N] [--threads N] [--json FILE] "
                      << "[--floor FILE]\n";
            return 1;
        }
    }
    if (smoke && !requests_set)
        requests = 20'000;
    // The fabric shape simulates ~40x fewer requests per host second
    // than the serial pass; a tenth of the requests keeps it short.
    const int fabric_requests = std::max(1, requests / 10);
    if (threads < 1) {
        std::cerr << "perf_cluster: --threads must be at least 1\n";
        return 1;
    }

    // Pass 1: the historical serial configuration (least-outstanding
    // dispatch, shared hub queue) behind the events_per_sec floor.
    coe::ClusterConfig serial_cfg = baseConfig(nodes, requests);
    serial_cfg.dispatch = coe::DispatchPolicy::LeastOutstanding;
    PassResult serial = runPass(serial_cfg, requests, "serial");
    double serial_eps = eventsPerSec(serial);

    std::cout << "cluster serial: " << nodes << " nodes, " << requests
              << " requests, " << serial.result.stream.eventsExecuted
              << " events in " << serial.wall << " s\n"
              << "  " << static_cast<std::uint64_t>(serial_eps)
              << " events/s, "
              << static_cast<std::uint64_t>(
                     serial.wall > 0.0 ? requests / serial.wall : 0.0)
              << " requests/s, imbalance "
              << serial.result.loadImbalance << "\n";

    // Pass 2: the fabric shape.
    PassResult fabric = runPass(fabricConfig(fabric_requests),
                                fabric_requests, "fabric");
    double fabric_rps = requestsPerSec(fabric, fabric_requests);
    std::cout << "cluster fabric: 8 nodes, 1 Gb/s star, "
              << fabric_requests << " requests, "
              << fabric.result.stream.eventsExecuted << " events, "
              << fabric.result.networkFlits << " flits in " << fabric.wall
              << " s\n"
              << "  " << static_cast<std::uint64_t>(fabric_rps)
              << " requests/s, "
              << static_cast<std::uint64_t>(eventsPerSec(fabric))
              << " events/s\n";

    // Passes 3+4: expert-affinity serial baseline vs the sharded
    // parallel run (least-outstanding needs cross-shard queue state
    // mid-window, so the parallel path rejects it).
    double affinity_wall = 0.0;
    double parallel_wall = 0.0;
    double parallel_eps = 0.0;
    double parallel_rps = 0.0;
    double speedup = 0.0;
    if (threads > 1) {
        coe::ClusterConfig aff_cfg = baseConfig(nodes, requests);
        aff_cfg.dispatch = coe::DispatchPolicy::ExpertAffinity;
        PassResult affinity = runPass(aff_cfg, requests, "affinity");
        affinity_wall = affinity.wall;

        coe::ClusterConfig par_cfg = aff_cfg;
        par_cfg.threads = threads;
        PassResult parallel = runPass(par_cfg, requests, "parallel");
        parallel_wall = parallel.wall;
        parallel_eps = eventsPerSec(parallel);
        parallel_rps = requestsPerSec(parallel, requests);
        speedup = parallel_wall > 0.0 ? affinity_wall / parallel_wall
                                      : 0.0;

        // The parallel run must reproduce the serial metrics (the
        // cluster means can differ in the last ulp from summation
        // order). Cluster-wide quantiles are exact -- and therefore
        // bit-identical across modes -- only while the merged sample
        // count fits sim::Distribution's exact window (64Ki); beyond
        // that both modes degrade to reservoir estimates over
        // different sample subsets, so big runs compare the exact
        // aggregates only.
        const coe::StreamMetrics &a = affinity.result.stream;
        const coe::StreamMetrics &p = parallel.result.stream;
        bool same = a.completed == p.completed &&
            a.makespanSeconds == p.makespanSeconds &&
            std::fabs(a.meanLatencySeconds - p.meanLatencySeconds) <=
                1e-9 * std::fabs(a.meanLatencySeconds);
        if (requests <= (64 << 10))
            same = same && a.p50LatencySeconds == p.p50LatencySeconds &&
                a.p95LatencySeconds == p.p95LatencySeconds &&
                a.p99LatencySeconds == p.p99LatencySeconds;
        if (!same) {
            std::cerr << "perf_cluster: parallel run diverged from the "
                         "serial affinity baseline (determinism "
                         "violation)\n";
            return 1;
        }

        std::cout << "cluster parallel: " << threads << " threads, "
                  << parallel.result.stream.eventsExecuted
                  << " events in " << parallel_wall << " s\n"
                  << "  " << static_cast<std::uint64_t>(parallel_rps)
                  << " requests/s, "
                  << static_cast<std::uint64_t>(parallel_eps)
                  << " events/s, speedup " << speedup << "x over serial "
                  << "affinity (" << affinity_wall << " s)\n";
    }

    std::int64_t rss = peakRssBytes();

    std::ofstream out(json_path);
    {
        util::JsonWriter w(out, /*pretty=*/true);
        w.beginObject()
            .field("bench", "perf_cluster")
            .field("git_commit", gitCommitHash())
            .field("timestamp_utc", isoTimestampUtc())
            .field("mode", smoke ? "smoke" : "full")
            .field("nodes", nodes)
            .field("requests", requests)
            .field("wall_seconds", serial.wall)
            .field("events_executed",
                   serial.result.stream.eventsExecuted)
            .field("events_per_sec", serial_eps)
            .field("requests_per_sec", requestsPerSec(serial, requests))
            .field("load_imbalance", serial.result.loadImbalance)
            .field("fabric_requests", fabric_requests)
            .field("fabric_wall_seconds", fabric.wall)
            .field("fabric_events_executed",
                   fabric.result.stream.eventsExecuted)
            .field("fabric_flits", fabric.result.networkFlits)
            .field("fabric_req_per_sec", fabric_rps)
            .field("fabric_events_per_sec", eventsPerSec(fabric))
            .field("peak_rss_bytes", rss);
        if (threads > 1) {
            w.field("parallel_threads", threads)
                .field("serial_affinity_wall_seconds", affinity_wall)
                .field("parallel_wall_seconds", parallel_wall)
                .field("parallel_req_per_sec", parallel_rps)
                .field("parallel_events_per_sec", parallel_eps)
                .field(("speedup_" + std::to_string(threads) + "t")
                           .c_str(),
                       speedup);
        }
        w.endObject();
        out << "\n";
    }
    std::cout << "wrote " << json_path << "\n";

    if (!floor_path.empty()) {
        bool ok = gate("perf_cluster", floor_path, "events_per_sec",
                       serial_eps, "events/s");
        ok = gate("perf_cluster", floor_path, "fabric_req_per_sec",
                  fabric_rps, "requests/s") && ok;
        if (threads > 1)
            ok = gate("perf_cluster", floor_path, "parallel_req_per_sec",
                      parallel_rps, "requests/s") && ok;
        if (!ok)
            return 1;
    }
    return 0;
}
