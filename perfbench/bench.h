/**
 * @file
 * Shared types of the repository benchmark (perfbench/): workload
 * specs, per-repetition results, the in-memory span log, and the
 * layer replays. See perfbench/README.md for what each workload and
 * metric means.
 */

#ifndef SN40L_PERFBENCH_BENCH_H
#define SN40L_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "coe/cluster.h"
#include "coe/serving.h"
#include "coe/workload.h"
#include "sim/ticks.h"

namespace perfbench {

using namespace sn40l;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A correctness check failed: the run counts every request failed. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string &what);

// ------------------------------------------------------ host speed

/**
 * Seconds the host-speed probe takes on the reference host: the speed
 * every timed figure is reported at.
 */
constexpr double kReferenceProbeS = 0.0125;

/**
 * Host-speed probe: a fixed binary-heap kernel (std::push_heap and
 * std::pop_heap on 4096 keys) that belongs to the benchmark and calls
 * nothing in the library, so no change to the library can move it.
 * On shared hosts the speed of the same code swings by tens of
 * percent over minutes. Timed before and after a measurement, the
 * probe tracks that swing, and the measurement is scaled by
 * kReferenceProbeS / (the two probe times). See perfbench/README.md.
 * Returns the probe's host seconds.
 */
double probeSeconds();

/** Host seconds @p timed returns, scaled to reference host speed. */
template <class F>
double
atReferenceSpeed(F timed)
{
    double before = probeSeconds();
    double s = timed();
    return s * kReferenceProbeS / (before + probeSeconds());
}

// ------------------------------------------------------------ spans

/**
 * In-memory span log. Spans are opened and closed by the benchmark's
 * own code around its calls into a layer's public functions; nothing
 * inside the library is instrumented. A null Tracer* turns every span
 * into a no-op, which is how untraced runs go.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    int open(const char *name, int parent = -1);
    void close(int span);
    void clear() { spans_.clear(); }

    /** Per-name count, total and self time (total minus children). */
    std::string summaryJson() const;

  private:
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

/** RAII span; no-op on a null tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int parent = -1)
        : tracer_(tracer), id_(tracer ? tracer->open(name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_;
};

// --------------------------------------------------------- workloads

struct WorkloadSpec
{
    std::string name;
    bool isCluster = false;
    coe::ServingConfig node;      ///< the single node, or each cluster node
    coe::ClusterConfig clusterCfg; ///< cluster workloads only
};

/** Names of the four workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build a workload's config from its name, seed and size. */
WorkloadSpec makeWorkload(const std::string &name, std::uint64_t seed,
                          bool tiny);

/** Simulated outputs and layer counters of one repetition. */
struct RunStats
{
    coe::StreamMetrics stream;
    std::int64_t arrivals = 0;
    std::int64_t shed = 0;
    std::int64_t lost = 0;
    std::int64_t misses = 0;
    double events = 0.0;
    // single-node layer counters (public counters of the engine's
    // memory system and runtime)
    double memAccesses = 0.0;
    double dmaLoads = 0.0;
    double activations = 0.0;
    double evictions = 0.0;
    // cluster counters
    std::int64_t dispatched = 0;
    std::int64_t flits = 0;
    std::int64_t creditStalls = 0;
    std::vector<coe::ClusterNodeMetrics> nodes;
};

struct Rep
{
    double setupS = 0.0; ///< config to first event
    double runS = 0.0;   ///< first event to queue drain
    RunStats stats;
};

/** The emitted request stream of a run, with emission ticks. */
struct Recording
{
    std::vector<coe::TrafficRequest> requests;
    std::vector<sim::Tick> ticks;
    /** Pending events summed over emissions (single-node runs). */
    double pendingSum = 0.0;
};

/**
 * One repetition of a single-node workload, composed from the
 * library's public entry points exactly as ServingSimulator does.
 * With a recording, every emitted request is logged and its
 * ServingEngine::inject call is wrapped in a span.
 */
Rep runSingle(const coe::ServingConfig &cfg, Tracer *tracer,
              Recording *recording, bool break_check);

/** One repetition of a cluster workload at @p threads. */
Rep runCluster(coe::ClusterConfig cfg, int threads, Tracer *tracer,
               bool break_check);

/**
 * Once per process, untimed: the composed single-node harness must
 * equal ServingSimulator::run() bit for bit.
 */
void checkAgainstServingSimulator(const coe::ServingConfig &cfg,
                                  const RunStats &composed);

/**
 * Once per process, untimed: a sharded run must equal its threads=1
 * run on completed, makespan and mean latency (1e-9 relative).
 */
void checkShardedAgainstSerial(const RunStats &parallel,
                               const RunStats &serial);

/** Every repetition must reproduce the first one's digest. */
std::string digest(const RunStats &stats);

// ----------------------------------------------------------- layers

/** Every per-layer metric of one workload, by name. */
struct LayerReport
{
    std::vector<std::pair<std::string, double>> values;
    void set(const std::string &name, double value);
};

/**
 * Replay every layer the workload runs, driven by the shapes recorded
 * from the workload, within @p budget_s host seconds, and fill in the
 * per-layer metrics. @p wall_s is the untraced median run time the
 * shares are taken against (for cluster workloads: the serial run).
 */
void replayLayers(const WorkloadSpec &w, const RunStats &run,
                  const Recording &recording, double wall_s,
                  double budget_s, Tracer *tracer, LayerReport &out);

/** Record the workload model's emitted stream on its own queue. */
Recording recordStream(const coe::ServingConfig &cfg);

} // namespace perfbench

#endif // SN40L_PERFBENCH_BENCH_H
