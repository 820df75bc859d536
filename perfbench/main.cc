/**
 * @file
 * The repository benchmark harness. One workload per invocation:
 *
 *   sn40l_bench --workload NAME --seed N --seconds S --trace 0|1
 *               [--tiny] [--break-check] [--commit HASH] [--tree HASH]
 *
 * --trace 0 measures the end-to-end metrics (req_per_s, setup_s,
 * peak_rss_mb); --trace 1 measures the per-layer metrics and prints
 * the span log's summary on a "spans:" line. Every run makes the
 * correctness checks; the last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Usually
 * started through perfbench/run.py, which builds this binary first.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef SN40L_BENCH_BUILD_TYPE
#define SN40L_BENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool tiny = false;
    bool breakCheck = false;
    std::string commit = "unknown";
    std::string tree = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "sn40l_bench: " << why << "\n"
              << "usage: sn40l_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--break-check] [--commit HASH] "
                 "[--tree HASH]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " expects a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                a.workload = value();
                have_workload = true;
            } else if (arg == "--seed") {
                a.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                a.seconds = std::stod(value());
            } else if (arg == "--trace") {
                a.trace = std::stoi(value());
            } else if (arg == "--tiny") {
                a.tiny = true;
            } else if (arg == "--break-check") {
                a.breakCheck = true;
            } else if (arg == "--commit") {
                a.commit = value();
            } else if (arg == "--tree") {
                a.tree = value();
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return a;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/**
 * Peak resident memory of this process image, from VmHWM. Unlike
 * getrusage's ru_maxrss, VmHWM starts afresh at exec, so the RSS of a
 * launcher that exec'd the harness does not leak into the figure.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6; // kB
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One metric line of the final JSON object. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
};

/** Units of every per-layer metric, by name prefix order. */
std::string
layerUnit(const std::string &name)
{
    auto ends = [&name](const char *suffix) {
        std::string s = suffix;
        return name.size() >= s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (name.find(".ns_per_") != std::string::npos)
        return "ns";
    if (ends("_share") || ends("hit_ratio"))
        return "ratio";
    if (ends("speedup"))
        return "x";
    if (ends("_pct"))
        return "%";
    return "count";
}

/**
 * Accumulates repetitions of the timed loop. Times are at reference
 * host speed (see probeSeconds()).
 */
struct Reps
{
    std::vector<double> setup, run, rate;
    std::vector<double> probe; ///< probe seconds around each repetition
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::string digest;

    void
    add(const Rep &r, double probe_s)
    {
        const double scale = kReferenceProbeS / probe_s;
        probe.push_back(probe_s);
        setup.push_back(r.setupS * scale);
        run.push_back(r.runS * scale);
        rate.push_back(static_cast<double>(r.stats.stream.completed) /
                       run.back());
        attempted += r.stats.arrivals;
        failed += r.stats.shed + r.stats.lost;
        std::string d = perfbench::digest(r.stats);
        if (digest.empty())
            digest = d;
        check(d == digest, "simulated output changed between repetitions: " +
                               d + " vs " + digest);
    }
};

/**
 * Repeat @p rep until @p seconds have passed (at least @p min_reps
 * times), with the host-speed probe run before and after each one.
 */
template <class F>
void
timedLoop(Reps &reps, double seconds, std::size_t min_reps, F rep)
{
    Clock::time_point start = Clock::now();
    do {
        double before = probeSeconds();
        Rep r = rep();
        reps.add(r, before + probeSeconds());
    } while (reps.run.size() < min_reps || secondsSince(start) < seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
#ifdef __clang__
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::printf("stamp: commit=%s tree=%s build=%s compiler=\"%s\" "
                "cpu=\"%s\" nproc=%u\n",
                args.commit.c_str(), args.tree.c_str(),
                SN40L_BENCH_BUILD_TYPE, compiler, cpuModel().c_str(), nproc);
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "sn40l_bench: refusing to time an unoptimised "
                         "build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
#endif

    WorkloadSpec w = makeWorkload(args.workload, args.seed, args.tiny);
    const int threads = static_cast<int>(
        std::min<unsigned>(static_cast<unsigned>(w.clusterCfg.threads),
                           nproc));
    const bool sharded = w.isCluster && threads > 1;
    std::printf("workload: %s seed=%llu seconds=%g trace=%d size=%s "
                "requests=%d threads=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace, args.tiny ? "tiny" : "full",
                w.node.streamRequests, w.isCluster ? threads : 1);

    std::vector<Metric> metrics;
    Reps main_reps;
    bool correct = true;
    Tracer tracer;
    try {
        // Untimed reference checks, which also warm the allocator.
        RunStats serial;
        if (!w.isCluster) {
            Rep first = runSingle(w.node, nullptr, nullptr, args.breakCheck);
            checkAgainstServingSimulator(w.node, first.stats);
            std::printf("check: composed harness == ServingSimulator::run() "
                        "bit for bit\n");
        } else {
            serial = runCluster(w.clusterCfg, 1, nullptr, args.breakCheck)
                         .stats;
            if (sharded) {
                Rep par = runCluster(w.clusterCfg, threads, nullptr,
                                     args.breakCheck);
                checkShardedAgainstSerial(par.stats, serial);
                std::printf("check: -j %d == -j 1 on completed, makespan, "
                            "mean latency\n",
                            threads);
            }
        }
        std::printf("check: arrivals == completed + shed + lost, queues "
                    "drained\n");

        auto untraced = [&] {
            return w.isCluster
                ? runCluster(w.clusterCfg, threads, nullptr, false)
                : runSingle(w.node, nullptr, nullptr, false);
        };

        if (args.trace == 0) {
            timedLoop(main_reps, args.seconds, 3, untraced);
            metrics.push_back({"req_per_s", median(main_reps.rate), "1/s",
                               main_reps.rate.size()});
            metrics.push_back({"setup_s", median(main_reps.setup), "s",
                               main_reps.setup.size()});
            metrics.push_back({"peak_rss_mb", peakRssMb(), "MB", 1});
            std::printf("samples: req_per_s");
            for (double r : main_reps.rate)
                std::printf(" %.0f", r);
            std::vector<double> host_rate;
            for (std::size_t i = 0; i < main_reps.rate.size(); ++i)
                host_rate.push_back(main_reps.rate[i] * kReferenceProbeS /
                                    main_reps.probe[i]);
            std::printf("\nhost speed: probe median %.3f ms (reference "
                        "%.3f ms); unscaled req_per_s median %.1f\n",
                        median(main_reps.probe) * 1e3,
                        kReferenceProbeS * 1e3, median(host_rate));
        } else {
            // Untraced and traced repetitions share 45% of the budget,
            // the layer replays take the rest.
            const double S = args.seconds;
            timedLoop(main_reps, 0.2 * S, 2, untraced);
            Reps serial_reps;
            if (sharded)
                timedLoop(serial_reps, 0.1 * S, 2, [&] {
                    return runCluster(w.clusterCfg, 1, nullptr, false);
                });

            Reps traced;
            Recording rec;
            RunStats traced_stats;
            timedLoop(traced, (sharded ? 0.15 : 0.25) * S, 2, [&] {
                tracer.clear();
                Rep r = w.isCluster
                    ? runCluster(w.clusterCfg, threads, &tracer, false)
                    : runSingle(w.node, &tracer, &rec, false);
                traced_stats = r.stats;
                return r;
            });
            if (w.isCluster) {
                ScopedSpan s(&tracer, "record.stream");
                rec = recordStream(w.node);
            }
            check(static_cast<std::int64_t>(rec.requests.size()) ==
                      traced_stats.arrivals,
                  "recorded stream does not match the run's arrivals");

            // Shares are taken against the serial run: on the sharded
            // workload the layers' work is spread over threads.
            const RunStats &counts = sharded ? serial : traced_stats;
            double wall = median(sharded ? serial_reps.run : main_reps.run);
            LayerReport layers;
            replayLayers(w, counts, rec, wall, 0.55 * S, &tracer, layers);

            double untraced_rate = median(main_reps.rate);
            double traced_rate = median(traced.rate);
            layers.set("sharded.speedup",
                       sharded ? median(serial_reps.run) /
                               median(main_reps.run)
                               : 0.0);
            layers.set("sharded.mailbox_events_per_req",
                       sharded ? (traced_stats.events - serial.events) /
                               static_cast<double>(
                                   traced_stats.stream.completed)
                               : 0.0);
            layers.set("trace.overhead_pct",
                       (untraced_rate / traced_rate - 1.0) * 100.0);
            std::printf("tracing: untraced %.1f req/s, traced %.1f req/s\n",
                        untraced_rate, traced_rate);
            for (const auto &kv : layers.values)
                metrics.push_back(
                    {kv.first, kv.second, layerUnit(kv.first), 1});
            // The traced reps' simulated output must match too.
            check(perfbench::digest(traced_stats) == main_reps.digest,
                  "traced run's simulated output differs from untraced");
        }
        std::printf("digest: %s %s\n", w.name.c_str(),
                    main_reps.digest.c_str());
    } catch (const CheckFailure &e) {
        std::fprintf(stderr, "sn40l_bench: CORRECTNESS CHECK FAILED: %s\n",
                     e.what());
        std::printf("check failed: %s\n", e.what());
        correct = false;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sn40l_bench: run failed: %s\n", e.what());
        std::printf("check failed: %s\n", e.what());
        correct = false;
    }

    // The span log of the last traced repetition and the replays.
    if (args.trace == 1)
        std::printf("spans: %s\n", tracer.summaryJson().c_str());

    std::int64_t attempted =
        std::max<std::int64_t>(1, main_reps.attempted);
    if (!correct) {
        if (main_reps.attempted == 0)
            attempted = w.node.streamRequests;
        metrics.clear();
    }
    for (Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "sn40l_bench: %s is not finite\n",
                         m.name.c_str());
            m.value = 0.0;
        }
    }
    for (const Metric &m : metrics)
        std::printf("metric: %-34s %.6g %s (samples %zu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);

    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << (correct ? main_reps.failed : attempted)
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return correct ? 0 : 1;
}
