/**
 * @file
 * Workload scenario subsystem: pluggable request sources that feed
 * ServingEngine / ClusterSimulator instead of arrival loops hard-coded
 * into each driver.
 *
 * CoServe (arXiv:2503.02354) shows CoE serving behaviour is dominated
 * by workload structure — session reuse, expert skew, bursts — not by
 * mean arrival rate, and "AI and Memory Wall" (arXiv:2403.14123)
 * motivates stressing the memory tiers with diverse demand shapes.
 * This layer makes those scenarios first-class:
 *
 *  - WorkloadModel: the request-source interface. A model is bound to
 *    the run's EventQueue and a sink; it schedules arrival events and
 *    emits TrafficRequest descriptors (expert already routed) from
 *    inside them. Drivers feed back batch/request completions so
 *    closed loops and conversational sessions can re-inject.
 *
 *  - OpenLoopWorkload / ClosedLoopWorkload: the historical Poisson and
 *    client-pool arrival processes, expressed as models. They
 *    reproduce the exact event-creation order and RNG draw sequence of
 *    the old inlined loops, so every pre-existing serving/cluster
 *    golden stays bit-identical. OpenLoopWorkload also owns the
 *    RateShape modulation (diurnal ramp — absorbed from cluster.cc —
 *    and burst/flash-crowd windows), unifying every open-loop arrival
 *    process under one implementation.
 *
 *  - MultiTenantWorkload: N tenants, each an independent open-loop
 *    stream with its own rate share, expert-popularity skew (rotated
 *    Zipf, so tenants' hot sets differ), prompt/decode length
 *    distributions, priority, SLO deadline, and optional
 *    conversational sessions (follow-up turns reuse the session's
 *    expert and arrive an exponential think time after the previous
 *    turn completes).
 *
 *  - TraceReplayWorkload + trace record: any run can dump its emitted
 *    request stream to a JSONL trace (exact arrival ticks, ids,
 *    tenants, experts, shapes) and replay it, so sweeps and cluster
 *    comparisons run the *same* traffic across configs. Replaying a
 *    trace against the recording config reproduces the recorded
 *    metrics bit-identically (golden-locked in tests/test_workload.cc).
 */

#ifndef SN40L_COE_WORKLOAD_H
#define SN40L_COE_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace sn40l::coe {

struct ServingConfig;

/**
 * A request as emitted by a workload source, before admission: the
 * routed expert plus the scenario dimensions (tenant, session, shape,
 * SLO). ServingEngine admits these directly; the id is assigned by
 * WorkloadModel::emit at emission time.
 */
struct TrafficRequest
{
    int id = 0;
    int tenant = 0;
    int expert = 0;
    int session = -1;
    int turn = 0;
    int promptLen = 0;    ///< 0 = the serving config's default
    int outputTokens = 0; ///< 0 = the serving config's default
    int priority = 0;
    double deadlineSeconds = 0.0; ///< 0 = no SLO
    /**
     * Set by the cluster's hedged-dispatch policy on the duplicate
     * copy it routes to a second node (coe/faults.h). Never recorded
     * to traces — hedging happens after the recorder — and never set
     * by workload models.
     */
    bool hedgeDuplicate = false;
};

/**
 * Deterministic modulation of an open-loop arrival rate, unifying the
 * diurnal sinusoid (previously inlined in ClusterSimulator) with
 * burst/flash-crowd windows. The instantaneous rate at workload time t
 * is
 *
 *   base * (1 + diurnalAmplitude * sin(2*pi*t / diurnalPeriodSeconds))
 *        * (burstFactor if t falls in a burst window else 1)
 *
 * where burst windows are the first burstSeconds of every
 * burstEverySeconds period. A default-constructed shape is flat and
 * leaves the base rate arithmetically untouched.
 *
 * Granularity caveat: the arrival chain samples the rate once per
 * gap, at the previous arrival's time (no thinning), so modulation is
 * piecewise-constant per inter-arrival gap. That is accurate for
 * slow ramps (diurnal periods of minutes-hours) but coarse when a
 * burst window is comparable to the mean gap — size burstSeconds
 * several gaps wide for the realized process to track the factor.
 */
struct RateShape
{
    double diurnalAmplitude = 0.0; ///< in [0, 1); 0 disables
    double diurnalPeriodSeconds = 86400.0;
    double burstFactor = 1.0;       ///< >= 1; 1 disables
    double burstEverySeconds = 0.0; ///< burst window period
    double burstSeconds = 0.0;      ///< burst window length

    bool flat() const
    {
        return diurnalAmplitude == 0.0 && burstFactor == 1.0;
    }

    /** Instantaneous rate at workload time @p t seconds. */
    double instantaneous(double base, double t) const;
};

/** One tenant of a multi-tenant traffic mix. */
struct TenantSpec
{
    std::string name = "tenant";

    /** Relative share of the workload's total arrival rate. */
    double rateShare = 1.0;

    /**
     * Expert-popularity skew: the tenant routes Zipf(zipfS) over the
     * expert pool, with its popularity order rotated by expertOffset
     * so different tenants concentrate on different hot sets.
     */
    double zipfS = 1.0;
    int expertOffset = 0;

    int promptLen = 0; ///< 0 = serving config default
    /**
     * Decode length distribution: uniform in
     * [minOutputTokens, maxOutputTokens]; both 0 = config default.
     */
    int minOutputTokens = 0;
    int maxOutputTokens = 0;

    int priority = 0;         ///< see EngineRequest::priority
    double sloSeconds = 0.0;  ///< per-request deadline, 0 = none

    /** P(another turn follows) after each completed session turn. */
    double sessionFollowProb = 0.0;
    int sessionMaxTurns = 8;
    /** Mean of the exponential inter-turn think time. */
    double thinkMeanSeconds = 0.5;

    RateShape shape;
};

// ------------------------------------------------------------ traces

/** One recorded arrival: the emitted request plus its arrival tick. */
struct TraceEntry
{
    TrafficRequest request;
    sim::Tick tick = 0;
};

/**
 * Scenario knobs carried inside ServingConfig. Defaults describe the
 * historical single-tenant workload, so a default WorkloadConfig
 * changes nothing about existing runs.
 */
struct WorkloadConfig
{
    /**
     * Tenants in the traffic mix. 1 keeps the legacy single-tenant
     * arrival process; > 1 derives a deterministic tenant mix (see
     * buildTenantMix) unless tenantSpecs overrides it.
     */
    int tenants = 1;
    std::vector<TenantSpec> tenantSpecs; ///< explicit mix, wins over tenants

    /** Base SLO deadline stamped on requests (0 = no admission). */
    double sloSeconds = 0.0;

    /** Session defaults applied by the derived tenant mix. */
    double sessionFollowProb = 0.0;
    double sessionThinkSeconds = 0.5;
    int sessionMaxTurns = 8;

    /** Open-loop rate modulation (diurnal ramp, bursts). */
    RateShape shape;

    /**
     * Replay this trace instead of generating arrivals. The other
     * generator knobs (tenants, sessions, shape) are ignored;
     * sloSeconds, when set, *overrides* the recorded per-request
     * deadlines so one trace can be replayed under different SLOs.
     */
    std::string traceIn;
    std::string traceOut; ///< record the emitted stream here
    /**
     * Pre-parsed replay entries; wins over traceIn. Lets a sweep
     * parse the trace file once and share the (immutable) entries
     * across every grid point and worker thread instead of re-reading
     * the file per point.
     */
    std::shared_ptr<const std::vector<TraceEntry>> traceEntries;

    /**
     * @return true when the config asks for the multi-tenant model
     * (tenant mixes and conversational sessions live there); SLO
     * deadlines and rate shaping ride on the legacy models unchanged.
     */
    bool multiTenant() const
    {
        return tenants > 1 || !tenantSpecs.empty() ||
            sessionFollowProb > 0.0;
    }

    bool replay() const { return traceEntries || !traceIn.empty(); }
};

/**
 * Derive a deterministic @p tenants-wide mix from the serving config:
 * rate shares follow a 1/(i+1) popularity curve, popularity orders are
 * rotated so hot sets differ, decode lengths spread to a uniform
 * [tokens/2, 3*tokens/2] band, priorities cycle 0/1/2, and SLO
 * deadlines (when cfg.workload.sloSeconds is set) widen with priority.
 * Session knobs are copied from the workload config.
 */
std::vector<TenantSpec> buildTenantMix(const ServingConfig &cfg);

/**
 * Write @p entries as a JSONL trace: a header object
 * {"sn40l_trace":1,"requests":N} followed by one compact object per
 * request. Arrival times are stored as exact integer ticks, so replay
 * is bit-faithful. Throws FatalError when the file cannot be written.
 */
void writeTrace(const std::string &path,
                const std::vector<TraceEntry> &entries);

/**
 * Parse a trace written by writeTrace. Malformed headers, malformed
 * or out-of-order lines, truncated files, and trailing garbage all
 * throw FatalError naming the path and line — never undefined
 * behaviour on corrupt input.
 */
std::vector<TraceEntry> loadTrace(const std::string &path);

/** Buffers emitted requests so a run can be dumped as a trace. */
class TraceRecorder
{
  public:
    /** An empty path records nothing (record() is a cheap no-op). */
    explicit TraceRecorder(std::string path) : path_(std::move(path)) {}

    void record(const TrafficRequest &request, sim::Tick tick)
    {
        if (path_.empty())
            return;
        entries_.push_back({request, tick});
    }

    /** Flush to disk; no-op when the path is empty. */
    void write() const
    {
        if (!path_.empty())
            writeTrace(path_, entries_);
    }

    const std::vector<TraceEntry> &entries() const { return entries_; }

  private:
    std::string path_;
    std::vector<TraceEntry> entries_;
};

// ----------------------------------------------------------- models

/**
 * A pluggable request source. The driver binds the model to the run's
 * event queue and a sink, then start() schedules the initial arrival
 * events; every emission happens from inside an event on the queue, so
 * the sink's eq.now() is the request's arrival time.
 *
 * Request ids are assigned at emission time from a single counter, in
 * event order — the engine's id-ordered admission queue stays a true
 * FIFO even when several tenant streams interleave.
 */
class WorkloadModel
{
  public:
    using Sink = std::function<void(const TrafficRequest &)>;

    virtual ~WorkloadModel() = default;

    void bind(sim::EventQueue &eq, Sink sink)
    {
        eq_ = &eq;
        sink_ = std::move(sink);
    }

    /** Schedule the initial arrivals. Call after bind(). */
    virtual void start() = 0;

    /** A batch finished; @p finished requests completed in it. */
    virtual void onBatchComplete(int finished) { (void)finished; }

    /** One request completed (fires at its completion event). */
    virtual void onRequestComplete(const TrafficRequest &request)
    {
        (void)request;
    }

    /** One request was shed by SLO admission (terminal: no retry). */
    virtual void onRequestShed(const TrafficRequest &request)
    {
        (void)request;
    }

    /**
     * Runtime multiplier on the instantaneous arrival rate — the
     * cluster controller's rate-override actuator. Applies to gaps
     * sampled after the call; open-loop models honour it, closed
     * loops and trace replays (whose timing is completion-driven or
     * recorded) ignore it. A factor of 1.0 multiplies exactly, so it
     * never perturbs the gap sequence.
     */
    virtual void setRateFactor(double factor) { (void)factor; }

    /**
     * Requests this model will emit over the whole run (its budget).
     * After the queue drains, emitted() == plannedRequests().
     */
    virtual std::int64_t plannedRequests() const = 0;

    /** Requests emitted into the sink so far. */
    std::int64_t emitted() const { return emitted_; }

  protected:
    sim::EventQueue &eq()
    {
        return *eq_;
    }

    /** Assign the next id and hand @p request to the sink. */
    void emit(TrafficRequest request)
    {
        request.id = static_cast<int>(emitted_++);
        sink_(request);
    }

  private:
    sim::EventQueue *eq_ = nullptr;
    Sink sink_;
    std::int64_t emitted_ = 0;
};

/**
 * Build the workload model cfg describes: a trace replay when
 * cfg.workload.traceIn is set, a multi-tenant mix when the scenario
 * knobs ask for one, otherwise the legacy open-loop Poisson or
 * closed-loop client pool (bit-identical to the historical inlined
 * arrival loops). @p rate_shape layers driver-level modulation (the
 * cluster's diurnal ramp) over cfg.workload.shape.
 */
std::unique_ptr<WorkloadModel>
makeWorkloadModel(const ServingConfig &cfg,
                  const RateShape &rate_shape = RateShape{});

/**
 * Validate the scenario knobs (tenant shares, session probabilities,
 * rate shapes, SLO signs); FatalError on contradictions. Called from
 * validateServingConfig.
 */
void validateWorkloadConfig(const ServingConfig &cfg);

/**
 * Validate a rate shape's diurnal and burst knobs; @p prefix leads
 * each error (empty for the flag-set shapes).
 */
void validateShape(const RateShape &shape, const std::string &prefix = "");

} // namespace sn40l::coe

#endif // SN40L_COE_WORKLOAD_H
