/**
 * @file
 * Shared sn40l_run flag tables and the serve / sweep / cluster command
 * parsers. The subcommands register the same workload, arrival,
 * scenario, and core-serving flags; those groups live here so each
 * flag is defined exactly once and every subcommand rejects the same
 * contradictions with the same messages.
 *
 * Validation is split in two. The library validators
 * (coe::validateServingConfig, coe::validateClusterConfig, and the
 * ones they call) own every value and range rule and name the flag in
 * their errors. This file keeps only what a config cannot express:
 * "flag X requires flag Y" checks over the *FlagState structs, list
 * lengths, unknown names, and guards that must run before a cast. Each
 * parse*Args() runs those checks and then the library validator once,
 * through FlagParser::validate, so both kinds of error reach the user
 * as a FlagUsageError.
 */

#ifndef SN40L_TOOLS_CLI_CONFIG_H
#define SN40L_TOOLS_CLI_CONFIG_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coe/cluster.h"
#include "coe/controller.h"
#include "coe/serving.h"
#include "coe/sweep.h"
#include "coe/workload.h"
#include "util/units.h"

#include "flag_parser.h"

namespace sn40l::tools {

inline coe::Platform
platformByName(const std::string &name)
{
    if (name == "sn40l") return coe::Platform::Sn40l;
    if (name == "dgx-a100") return coe::Platform::DgxA100;
    if (name == "dgx-h100") return coe::Platform::DgxH100;
    sim::fatal("unknown platform '" + name +
               "' (expected sn40l, dgx-a100, or dgx-h100)");
}

/**
 * --scheduler: fifo, affinity, or (serve and sweep) "both", resolved
 * after parsing; an unknown name fails here, naming the flag.
 */
inline void
addSchedulerFlag(FlagParser &p, std::string &scheduler_name)
{
    p.value("--scheduler", [&](const std::string &v) {
        if (v != "both")
            coe::schedulerPolicyFromName(v);
        scheduler_name = v;
    });
}

/**
 * Bytes in @p gb gigabytes, for the region-size flag @p flag. The
 * range check runs before the cast: a NaN or 1e300 GB would overflow
 * the conversion to int64, which is undefined behaviour.
 */
inline std::int64_t
gbToBytes(const FlagParser &p, const char *flag, double gb)
{
    const double bytes = gb * 1e9;
    if (!(bytes >= 1.0 && bytes < 0x1p63))
        p.fail(std::string(flag) + " " + util::formatGeneral(gb) +
               " must be a number of GB in [1e-9, " +
               util::formatGeneral(0x1p63 / 1e9) + ")");
    return static_cast<std::int64_t>(bytes);
}

// ------------------------------------------- shared flag groups

/** Tracks which optional flags were set, for contradiction checks. */
struct WorkloadFlagState
{
    bool setZipfS = false;
    bool setPrefetchDepth = false;
    bool setPrefetchWindow = false;
};

/**
 * Workload/memory flags shared by serve, sweep, and cluster: the
 * platform, the per-prompt shape, the routing distribution, and the
 * expert-streaming memory system.
 */
inline void
addWorkloadFlags(FlagParser &p, coe::ServingConfig &cfg,
                 WorkloadFlagState &st)
{
    p.value("--platform", [&](const std::string &v) {
        cfg.platform = platformByName(v);
    });
    p.number("--tokens", cfg.outputTokens);
    p.number("--requests", cfg.streamRequests);
    p.value("--routing", [&](const std::string &v) {
        cfg.routing = coe::routingDistributionFromName(v);
    });
    p.number("--zipf-s", cfg.zipfS, &st.setZipfS);
    p.flag("--prefetch", [&]() { cfg.predictivePrefetch = true; });
    p.number("--prefetch-depth", cfg.prefetchDepth, &st.setPrefetchDepth);
    p.number("--prefetch-window", cfg.prefetchWindow, &st.setPrefetchWindow);
    p.number("--dma-engines", cfg.dmaEngines);
    p.value("--expert-region-gb", [&p, &cfg](const std::string &v) {
        cfg.expertRegionBytes =
            gbToBytes(p, "--expert-region-gb", parseDouble(v));
    });
}

/** Reject contradictory workload flag combinations. */
inline void
validateWorkloadFlags(const FlagParser &p, const coe::ServingConfig &cfg,
                      const WorkloadFlagState &st)
{
    if (st.setZipfS && cfg.routing != coe::RoutingDistribution::Zipf)
        p.fail("--zipf-s requires --routing zipf");
    if (st.setPrefetchDepth && !cfg.predictivePrefetch)
        p.fail("--prefetch-depth requires --prefetch");
    if (st.setPrefetchWindow && !cfg.predictivePrefetch)
        p.fail("--prefetch-window requires --prefetch");
}

struct ArrivalFlagState
{
    bool setArrivalRate = false;
    bool setClosedLoop = false;
    bool setClients = false;
    bool setThink = false;
};

/** Arrival-process flags shared by serve and cluster. */
inline void
addArrivalFlags(FlagParser &p, coe::ServingConfig &cfg,
                ArrivalFlagState &st)
{
    p.number("--arrival-rate", cfg.arrivalRatePerSec, &st.setArrivalRate);
    p.flag("--closed-loop", [&]() {
        cfg.arrival = coe::ArrivalProcess::ClosedLoop;
        st.setClosedLoop = true;
    });
    p.number("--clients", cfg.clients, &st.setClients);
    p.number("--think", cfg.thinkSeconds, &st.setThink);
}

inline void
validateArrivalFlags(const FlagParser &p, const coe::ServingConfig &cfg,
                     const ArrivalFlagState &st)
{
    if (cfg.arrival == coe::ArrivalProcess::ClosedLoop &&
        st.setArrivalRate)
        p.fail("--arrival-rate is an open-loop parameter; it cannot "
               "be combined with --closed-loop");
    if (cfg.arrival != coe::ArrivalProcess::ClosedLoop &&
        (st.setClients || st.setThink))
        p.fail("--clients/--think only apply to --closed-loop runs");
}

/** Tracks which workload-scenario flags were set. */
struct ScenarioFlagState
{
    std::string workloadName;
    bool setWorkload = false;
    bool setTenants = false;
    bool setSession = false;
    bool setBurst = false;
};

/**
 * Workload-scenario flags shared by serve, sweep, and cluster: tenant
 * mixes, conversational sessions, burst shaping, SLO admission, and
 * trace record/replay (coe/workload.h).
 */
inline void
addScenarioFlags(FlagParser &p, coe::ServingConfig &cfg,
                 ScenarioFlagState &st)
{
    coe::WorkloadConfig &w = cfg.workload;
    p.value("--workload", [&](const std::string &v) {
        st.workloadName = v;
        st.setWorkload = true;
    });
    p.number("--tenants", w.tenants, &st.setTenants);
    p.value("--slo-ms", [&p, &w](const std::string &v) {
        double ms = parseDouble(v);
        // The library reads a 0 deadline as "no SLO"; on the command
        // line that is spelled by leaving the flag out.
        if (!(ms > 0.0))
            p.fail("--slo-ms must be positive");
        w.sloSeconds = ms / 1000.0;
    });
    p.number("--session-prob", w.sessionFollowProb, &st.setSession);
    p.number("--session-think", w.sessionThinkSeconds, &st.setSession);
    p.number("--session-turns", w.sessionMaxTurns, &st.setSession);
    p.number("--burst-factor", w.shape.burstFactor, &st.setBurst);
    p.number("--burst-every", w.shape.burstEverySeconds, &st.setBurst);
    p.number("--burst-seconds", w.shape.burstSeconds, &st.setBurst);
    p.value("--trace-out", [&](const std::string &v) { w.traceOut = v; });
    p.value("--trace-in", [&](const std::string &v) { w.traceIn = v; });
}

/**
 * Resolve and cross-check the scenario flags: --workload names, and
 * the generator flags a --trace-in replay ignores.
 */
inline void
validateScenarioFlags(const FlagParser &p, coe::ServingConfig &cfg,
                      const ScenarioFlagState &st,
                      const ArrivalFlagState &ast)
{
    if (st.setWorkload) {
        if (st.workloadName == "poisson") {
            if (ast.setClosedLoop)
                p.fail("--workload poisson contradicts --closed-loop");
            cfg.arrival = coe::ArrivalProcess::Poisson;
        } else if (st.workloadName == "closed-loop") {
            cfg.arrival = coe::ArrivalProcess::ClosedLoop;
        } else if (st.workloadName == "mix") {
            if (!st.setTenants)
                cfg.workload.tenants = 4;
        } else {
            p.fail("unknown --workload '" + st.workloadName +
                   "' (expected poisson, closed-loop, or mix)");
        }
    }
    if (st.setTenants && st.setWorkload && st.workloadName != "mix")
        p.fail("--tenants requires --workload mix");
    if ((st.setTenants || st.setSession) && ast.setClosedLoop)
        p.fail("tenant mixes and sessions are open-loop workloads; "
               "drop --closed-loop");
    if (!cfg.workload.traceIn.empty() &&
        (st.setWorkload || st.setTenants || st.setSession ||
         st.setBurst || ast.setClosedLoop || ast.setArrivalRate))
        p.fail("--trace-in replays a recorded request stream; "
               "workload-generator flags (--workload/--tenants/"
               "--session-*/--burst-*/--closed-loop/--arrival-rate) "
               "do not apply");
}

/**
 * Core serving scalars shared by serve and cluster (sweep keeps list
 * versions of these as grid axes). The scheduler stays a string so
 * serve can accept its "both" comparison mode; callers resolve it
 * after parsing.
 */
inline void
addCoreServingFlags(FlagParser &p, coe::ServingConfig &cfg,
                    std::string &scheduler_name, bool &set_experts)
{
    p.number("--experts", cfg.numExperts, &set_experts);
    p.number("--batch", cfg.batch);
    p.number("--seed", cfg.seed);
    addSchedulerFlag(p, scheduler_name);
}

// --------------------------------- spec-decode / expert-zoo group

/** Tracks which spec-decode / zoo tuning flags were set. */
struct SpecZooFlagState
{
    bool setGamma = false;
    bool setAccept = false;
    bool setDraftRatio = false;
    bool setZooAdapters = false;
    bool setZooRank = false;
    bool setZooChurn = false;
};

/**
 * Speculative-decoding and PEFT expert-zoo serving modes (serve,
 * sweep, cluster). --spec-decode turns the decode phase into
 * draft/verify rounds against a small always-resident draft model;
 * --zoo-adapters N replaces the full-weight expert set with N LoRA
 * adapters sharing pinned base weights, so expert switches become
 * many tiny DMA transfers.
 */
inline void
addSpecZooFlags(FlagParser &p, coe::ServingConfig &cfg,
                SpecZooFlagState &st)
{
    p.flag("--spec-decode", [&]() { cfg.specDecode.enabled = true; });
    p.number("--spec-gamma", cfg.specDecode.gamma, &st.setGamma);
    p.number("--spec-accept", cfg.specDecode.acceptRate, &st.setAccept);
    p.number("--spec-draft-ratio", cfg.specDecode.draftRatio,
             &st.setDraftRatio);
    p.value("--zoo-adapters", [&](const std::string &v) {
        cfg.zoo.enabled = true;
        cfg.numExperts = parseInteger<int>(v);
        st.setZooAdapters = true;
    });
    p.number("--zoo-rank", cfg.zoo.rank, &st.setZooRank);
    p.number("--zoo-churn", cfg.zoo.churnEverySeconds, &st.setZooChurn);
}

/**
 * Reject contradictory spec-decode / zoo combinations. @p set_experts
 * reports whether the caller saw an explicit --experts (scalar or
 * sweep-axis): --zoo-adapters replaces the expert set, so combining
 * the two is ambiguous.
 */
inline void
validateSpecZooFlags(const FlagParser &p, const coe::ServingConfig &cfg,
                     const SpecZooFlagState &st, bool set_experts)
{
    if (!cfg.specDecode.enabled &&
        (st.setGamma || st.setAccept || st.setDraftRatio))
        p.fail("--spec-gamma/--spec-accept/--spec-draft-ratio require "
               "--spec-decode");
    if (!st.setZooAdapters && (st.setZooRank || st.setZooChurn))
        p.fail("--zoo-rank/--zoo-churn require --zoo-adapters");
    if (st.setZooAdapters && set_experts)
        p.fail("--zoo-adapters replaces the expert set; it cannot "
               "be combined with --experts");
}

// ------------------------------------------ control-plane groups

struct ControllerFlagState
{
    bool setPolicy = false;
    bool setTuning = false; ///< any --controller-* besides --controller
};

/**
 * Autoscaling control-plane flags (cluster subcommand). --controller
 * picks the policy; the rest tune it and require an active policy.
 */
inline void
addControllerFlags(FlagParser &p, coe::ControllerConfig &cfg,
                   ControllerFlagState &st)
{
    p.value("--controller", [&](const std::string &v) {
        cfg.policy = coe::controllerPolicyFromName(v);
        st.setPolicy = true;
    });
    bool *tuned = &st.setTuning;
    p.number("--controller-tick", cfg.tickSeconds, tuned);
    p.number("--controller-min", cfg.minNodes, tuned);
    p.number("--controller-max", cfg.maxNodes, tuned);
    p.number("--controller-up-depth", cfg.scaleUpQueueDepth, tuned);
    p.number("--controller-down-depth", cfg.scaleDownQueueDepth, tuned);
    p.number("--controller-target-util", cfg.targetUtilization, tuned);
    p.number("--controller-cooldown", cfg.cooldownTicks, tuned);
    p.number("--controller-hot", cfg.hotExpertTrack, tuned);
    p.value("--controller-log", [&](const std::string &v) {
        cfg.logPath = v;
        st.setTuning = true;
    });
}

inline void
validateControllerFlags(const FlagParser &p,
                        const coe::ControllerConfig &cfg,
                        const ControllerFlagState &st)
{
    if (st.setTuning && cfg.policy == coe::ControllerPolicy::Static)
        p.fail("--controller-* tuning flags require an active "
               "--controller policy (reactive or target-util)");
}

/**
 * Parse a --schedule list: comma-separated KIND:AT[:ARG] entries
 * where KIND is drain, rejoin, or rate; AT is seconds; ARG is the
 * node id for drain/rejoin (default 0) or the required rate factor
 * for rate. Example: drain:3:1,rejoin:8:1,rate:12:0.5.
 */
inline std::vector<coe::ScheduledAction>
parseScheduleList(const FlagParser &p, const std::string &csv)
{
    std::vector<coe::ScheduledAction> actions;
    for (const std::string &entry :
         parseList<std::string>(p, csv, +[](const std::string &s) {
             return s;
         })) {
        std::vector<std::string> parts;
        std::string part;
        std::stringstream ss(entry);
        while (std::getline(ss, part, ':'))
            parts.push_back(part);
        if (parts.size() < 2 || parts.size() > 3)
            p.fail("--schedule entry '" + entry +
                   "' is not KIND:AT[:ARG]");
        coe::ScheduledAction a;
        a.atSeconds = parseDouble(parts[1]);
        if (parts[0] == "drain" || parts[0] == "rejoin") {
            a.kind = parts[0] == "drain" ? coe::ActionKind::Drain
                                         : coe::ActionKind::Rejoin;
            if (parts.size() == 3)
                a.node = parseInteger<int>(parts[2]);
        } else if (parts[0] == "rate") {
            a.kind = coe::ActionKind::RateOverride;
            if (parts.size() != 3)
                p.fail("--schedule rate entries need a factor: "
                       "rate:AT:FACTOR");
            a.rateFactor = parseDouble(parts[2]);
        } else {
            p.fail("--schedule entry '" + entry +
                   "' has unknown kind '" + parts[0] +
                   "' (expected drain, rejoin, or rate)");
        }
        actions.push_back(a);
    }
    return actions;
}

// ------------------------------------------ interconnect group

struct FabricFlagState
{
    bool setLinkGbps = false;
    bool setLinkLatency = false;
    bool setLinkBuffer = false;
};

/**
 * Interconnect flags (cluster subcommand). --topology switches the
 * cluster from instantaneous hub->node handoff onto the event-driven
 * link/credit fabric (coe/fabric.h); the --link-* knobs tune it and
 * require it. Off by default: without --topology the run is
 * byte-identical to a pre-fabric build.
 */
inline void
addFabricFlags(FlagParser &p, coe::FabricConfig &cfg,
               FabricFlagState &st)
{
    p.value("--topology", [&](const std::string &v) {
        cfg.topology = sim::topologyFromName(v);
        cfg.enabled = true;
    });
    p.number("--link-gbps", cfg.linkGbps, &st.setLinkGbps);
    p.number("--link-latency-us", cfg.linkLatencyUs, &st.setLinkLatency);
    p.number("--link-buffer-flits", cfg.linkBufferFlits, &st.setLinkBuffer);
}

inline void
validateFabricFlags(const FlagParser &p, const coe::FabricConfig &cfg,
                    const FabricFlagState &st)
{
    if (!cfg.enabled &&
        (st.setLinkGbps || st.setLinkLatency || st.setLinkBuffer))
        p.fail("--link-* flags tune the interconnect; they require "
               "--topology");
}

// ------------------------------------------------ chaos groups

struct FaultFlagState
{
    std::string faultsPath;
    bool setFaults = false;
    bool setRetry = false;       ///< any --retry-*
    bool setHedgeThreshold = false;
    bool setBrownoutPrio = false;
    bool setPolicyTick = false;
};

/**
 * Chaos-layer flags (cluster and sweep subcommands): a JSONL fault
 * schedule to replay plus the degraded-mode policy knobs
 * (coe/faults.h). All off by default — without --faults and with the
 * policies disabled the run is bit-identical to a chaos-free build.
 */
inline void
addFaultFlags(FlagParser &p, coe::FaultPolicyConfig &cfg,
              FaultFlagState &st)
{
    p.value("--faults", [&](const std::string &v) {
        st.faultsPath = v;
        st.setFaults = true;
    });
    p.number("--retry-max", cfg.retryMax, &st.setRetry);
    p.value("--retry-backoff-ms", [&](const std::string &v) {
        cfg.retryBackoffSeconds = parseDouble(v) / 1000.0;
        st.setRetry = true;
    });
    p.number("--retry-budget", cfg.retryBudget, &st.setRetry);
    p.flag("--hedge", [&]() { cfg.hedge = true; });
    p.number("--hedge-threshold", cfg.hedgeThreshold, &st.setHedgeThreshold);
    p.number("--brownout-depth", cfg.brownoutDepth);
    p.number("--brownout-prio", cfg.brownoutPriorityMax, &st.setBrownoutPrio);
    p.value("--policy-tick-ms", [&](const std::string &v) {
        cfg.policyTickSeconds = parseDouble(v) / 1000.0;
        st.setPolicyTick = true;
    });
}

/** Cross-check which chaos flags were given together. */
inline void
validateFaultFlags(const FlagParser &p,
                   const coe::FaultPolicyConfig &cfg,
                   const FaultFlagState &st,
                   const coe::ServingConfig &serving)
{
    if (st.setRetry && !st.setFaults)
        p.fail("--retry-* flags configure recovery from injected "
               "faults; they require --faults FILE");
    if (st.setHedgeThreshold && !cfg.hedge)
        p.fail("--hedge-threshold requires --hedge");
    if (cfg.hedge && serving.workload.sloSeconds <= 0.0 &&
        serving.workload.traceIn.empty())
        p.fail("--hedge fires on SLO pressure; it needs --slo-ms or a "
               "replayed trace carrying deadlines (--trace-in)");
    if (st.setBrownoutPrio && cfg.brownoutDepth <= 0.0)
        p.fail("--brownout-prio requires --brownout-depth");
    if (st.setPolicyTick && !cfg.hedge && cfg.brownoutDepth <= 0.0)
        p.fail("--policy-tick-ms paces hedging and brown-out; it "
               "requires --hedge or --brownout-depth");
}

/** Capacity-planning flags (cluster subcommand). */
struct PlanFlagState
{
    bool plan = false;
    int maxNodes = 0;       ///< 0: plan up to --nodes
    double p95Ms = 0.0;     ///< SLO target, required with --plan-capacity
    double maxShedPct = 0.0;
    bool setMaxNodes = false;
    bool setP95 = false;
    bool setShed = false;
};

inline void
addPlanFlags(FlagParser &p, PlanFlagState &st)
{
    p.flag("--plan-capacity", [&]() { st.plan = true; });
    p.number("--plan-max-nodes", st.maxNodes, &st.setMaxNodes);
    p.number("--plan-p95-ms", st.p95Ms, &st.setP95);
    p.number("--plan-max-shed-pct", st.maxShedPct, &st.setShed);
}

/** The planner's targets are CLI-only; no library config holds them. */
inline void
validatePlanFlags(const FlagParser &p, const PlanFlagState &st)
{
    if (!st.plan && (st.setMaxNodes || st.setP95 || st.setShed))
        p.fail("--plan-* flags require --plan-capacity");
    if (!st.plan)
        return;
    if (!st.setP95 || !(st.p95Ms > 0.0 && std::isfinite(st.p95Ms)))
        p.fail("--plan-capacity needs a positive finite --plan-p95-ms "
               "target");
    if (st.setMaxNodes && st.maxNodes < 1)
        p.fail("--plan-max-nodes must be at least 1");
    if (!(st.maxShedPct >= 0.0 && st.maxShedPct <= 100.0))
        p.fail("--plan-max-shed-pct must be in [0, 100]");
}

// ---------------------------------------------- subcommand parsers

/** A parsed and validated `serve` command line. */
struct ServeArgs
{
    coe::ServingConfig cfg;
    std::vector<coe::SchedulerPolicy> policies;
};

/**
 * Parse @p args (the flags after `serve`) through @p p, run the CLI
 * checks and then coe::validateServingConfig. Throws FlagUsageError.
 * @return nullopt when --help was printed to @p help_out.
 */
inline std::optional<ServeArgs>
parseServeArgs(FlagParser &p, const std::vector<std::string> &args,
               std::ostream &help_out)
{
    ServeArgs out;
    coe::ServingConfig &cfg = out.cfg;
    cfg.mode = coe::ServingMode::EventDriven;
    cfg.batch = 8;
    std::string scheduler_name = "both";
    WorkloadFlagState wst;
    ArrivalFlagState ast;
    ScenarioFlagState sst;
    SpecZooFlagState szst;
    bool set_experts = false;
    addWorkloadFlags(p, cfg, wst);
    addArrivalFlags(p, cfg, ast);
    addScenarioFlags(p, cfg, sst);
    addCoreServingFlags(p, cfg, scheduler_name, set_experts);
    addSpecZooFlags(p, cfg, szst);

    if (p.parse(args, help_out))
        return std::nullopt;
    validateWorkloadFlags(p, cfg, wst);
    validateArrivalFlags(p, cfg, ast);
    validateScenarioFlags(p, cfg, sst, ast);
    validateSpecZooFlags(p, cfg, szst, set_experts);
    if (scheduler_name == "both") {
        // Sessions and SLO shedding feed completions back into the
        // arrival stream, so the two schedulers emit different
        // traffic — recording "both" would silently keep only the
        // last run's trace.
        if (!cfg.workload.traceOut.empty())
            p.fail("--trace-out records one run; pick a single "
                   "--scheduler (fifo or affinity)");
        out.policies = {coe::SchedulerPolicy::Fifo,
                        coe::SchedulerPolicy::ExpertAffinity};
    } else {
        out.policies = {coe::schedulerPolicyFromName(scheduler_name)};
    }
    p.validate([&] { coe::validateServingConfig(cfg); });
    return out;
}

/** A parsed and validated `sweep` command line. */
struct SweepArgs
{
    coe::SweepGrid grid;
    int jobs = 1;
    std::string jsonPath;
};

/**
 * Parse @p args (the flags after `sweep`), run the CLI checks, load
 * the shared fault schedule and trace, and validate every grid
 * point's serving config. @return nullopt when --help was printed.
 */
inline std::optional<SweepArgs>
parseSweepArgs(FlagParser &p, const std::vector<std::string> &args,
               std::ostream &help_out)
{
    SweepArgs out;
    coe::SweepGrid &grid = out.grid;
    grid.base.mode = coe::ServingMode::EventDriven;
    grid.base.batch = 8;
    grid.base.arrivalRatePerSec = 8.0;
    out.jobs = std::max(1, static_cast<int>(
                               std::thread::hardware_concurrency()));
    std::string scheduler_name = "both";

    WorkloadFlagState wst;
    ScenarioFlagState sst;
    FaultFlagState fst;
    SpecZooFlagState szst;
    addWorkloadFlags(p, grid.base, wst);
    addScenarioFlags(p, grid.base, sst);
    addFaultFlags(p, grid.faultPolicy, fst);
    addSpecZooFlags(p, grid.base, szst);
    bool set_placement = false, set_dispatch = false;
    p.value("--experts", [&](const std::string &v) {
        grid.expertCounts = parseList<int>(p, v, &parseInteger<int>);
    });
    p.value("--arrival-rate", [&](const std::string &v) {
        grid.arrivalRates = parseList<double>(p, v, &parseDouble);
    });
    p.value("--batch", [&](const std::string &v) {
        grid.batchSizes = parseList<int>(p, v, &parseInteger<int>);
    });
    p.value("--seeds", [&](const std::string &v) {
        grid.seeds =
            parseList<std::uint64_t>(p, v, &parseInteger<std::uint64_t>);
    });
    p.value("--nodes", [&](const std::string &v) {
        grid.nodeCounts = parseList<int>(p, v, &parseInteger<int>);
    });
    p.value("--placement", [&](const std::string &v) {
        grid.placements = parseList<coe::PlacementPolicy>(
            p, v, &coe::placementPolicyFromName);
        set_placement = true;
    });
    p.value("--dispatch", [&](const std::string &v) {
        grid.dispatch = coe::dispatchPolicyFromName(v);
        set_dispatch = true;
    });
    addSchedulerFlag(p, scheduler_name);
    p.number("-j", out.jobs);
    p.number("--jobs", out.jobs);
    p.value("--json", [&](const std::string &v) { out.jsonPath = v; });

    if (p.parse(args, help_out))
        return std::nullopt;
    validateWorkloadFlags(p, grid.base, wst);
    // sweep has no --closed-loop/--arrival-rate scalar flags (the
    // rate is a grid axis), so the shared arrival-state checks get a
    // default state; the axis-specific conflicts are checked below.
    validateScenarioFlags(p, grid.base, sst, ArrivalFlagState{});
    // sweep's --experts is a grid axis: a non-empty axis list plays
    // the scalar flag's role in the --zoo-adapters conflict check.
    validateSpecZooFlags(p, grid.base, szst, !grid.expertCounts.empty());
    validateFaultFlags(p, grid.faultPolicy, fst, grid.base);
    if ((fst.setFaults || grid.faultPolicy.anyEnabled()) &&
        grid.nodeCounts.empty())
        p.fail("--faults and the degraded-mode flags act on the "
               "cluster dispatch layer; they require --nodes");
    if (fst.setFaults) {
        // Parse once; every grid point (and worker thread) replays the
        // same immutable schedule, mirroring the --trace-in pattern.
        grid.faults = std::make_shared<const std::vector<coe::FaultEvent>>(
            coe::loadFaultSchedule(fst.faultsPath));
    }
    if (!grid.base.workload.traceOut.empty())
        p.fail("--trace-out is ambiguous across sweep points; "
               "record a trace with `serve` or `cluster` and "
               "replay it here with --trace-in");
    if (!grid.base.workload.traceIn.empty() && !grid.arrivalRates.empty())
        p.fail("--trace-in fixes the arrival stream; an "
               "--arrival-rate axis does not apply");
    if ((set_placement || set_dispatch) && grid.nodeCounts.empty())
        p.fail("--placement/--dispatch require --nodes");
    if (out.jobs <= 0)
        p.fail("--jobs must be at least 1");
    if (!grid.base.workload.traceIn.empty()) {
        // Parse the trace once here; every grid point (and worker
        // thread) shares the immutable entries instead of re-reading
        // the file per point.
        grid.base.workload.traceEntries =
            std::make_shared<const std::vector<coe::TraceEntry>>(
                coe::loadTrace(grid.base.workload.traceIn));
    }
    if (scheduler_name == "both")
        grid.policies = {coe::SchedulerPolicy::Fifo,
                         coe::SchedulerPolicy::ExpertAffinity};
    else
        grid.policies = {coe::schedulerPolicyFromName(scheduler_name)};
    p.validate([&] {
        for (const coe::SweepPoint &point : grid.points()) {
            if (point.cluster)
                coe::validateClusterConfig(coe::clusterConfig(point));
            else
                coe::validateServingConfig(point.cfg);
        }
        coe::validateFaultPolicy(grid.faultPolicy);
    });
    return out;
}

/** A parsed and validated `cluster` command line. */
struct ClusterArgs
{
    coe::ClusterConfig cfg;
    PlanFlagState plan;
    std::string jsonPath;
};

/**
 * Parse @p args (the flags after `cluster`), run the CLI checks, load
 * the fault schedule, and run coe::validateClusterConfig. Throws
 * FlagUsageError. @return nullopt when --help was printed.
 */
inline std::optional<ClusterArgs>
parseClusterArgs(FlagParser &p, const std::vector<std::string> &args,
                 std::ostream &help_out)
{
    ClusterArgs out;
    coe::ClusterConfig &cfg = out.cfg;
    PlanFlagState &plan = out.plan;
    cfg.nodes = 4;
    cfg.placement = coe::PlacementPolicy::ReplicateHotPartitionCold;
    cfg.dispatch = coe::DispatchPolicy::LeastOutstanding;
    cfg.node.mode = coe::ServingMode::EventDriven;
    cfg.node.batch = 8;
    std::string scheduler_name = "affinity";

    WorkloadFlagState wst;
    ArrivalFlagState ast;
    ScenarioFlagState sst;
    ControllerFlagState cst;
    FaultFlagState fst;
    FabricFlagState fab;
    SpecZooFlagState szst;
    bool set_experts = false;
    addWorkloadFlags(p, cfg.node, wst);
    addArrivalFlags(p, cfg.node, ast);
    addScenarioFlags(p, cfg.node, sst);
    addCoreServingFlags(p, cfg.node, scheduler_name, set_experts);
    addSpecZooFlags(p, cfg.node, szst);
    addControllerFlags(p, cfg.controller, cst);
    addPlanFlags(p, plan);
    addFaultFlags(p, cfg.faultPolicy, fst);
    addFabricFlags(p, cfg.fabric, fab);

    bool set_hot = false, set_drain_at = false, set_drain_node = false;
    bool set_rejoin = false, set_diurnal_amp = false;
    bool set_diurnal_period = false;
    std::vector<int> node_dma;
    std::vector<double> node_region_gb;
    // -j N / --threads N: 1 is the bit-exact single-queue path; N > 1
    // shards the event queue per node (ClusterConfig::threads).
    p.number("--threads", cfg.threads);
    p.number("-j", cfg.threads);
    p.number("--nodes", cfg.nodes);
    p.value("--placement", [&](const std::string &v) {
        cfg.placement = coe::placementPolicyFromName(v);
    });
    p.value("--dispatch", [&](const std::string &v) {
        cfg.dispatch = coe::dispatchPolicyFromName(v);
    });
    p.number("--hot-experts", cfg.hotExperts, &set_hot);
    p.number("--drain-at", cfg.drainAtSeconds, &set_drain_at);
    p.number("--drain-node", cfg.drainNode, &set_drain_node);
    p.number("--rejoin-at", cfg.rejoinAtSeconds, &set_rejoin);
    p.value("--schedule", [&](const std::string &v) {
        cfg.actions = parseScheduleList(p, v);
    });
    p.number("--diurnal-amplitude", cfg.diurnalAmplitude, &set_diurnal_amp);
    p.number("--diurnal-period", cfg.diurnalPeriodSeconds,
             &set_diurnal_period);
    p.value("--node-dma-engines", [&](const std::string &v) {
        node_dma = parseList<int>(p, v, &parseInteger<int>);
    });
    p.value("--node-region-gb", [&](const std::string &v) {
        node_region_gb = parseList<double>(p, v, &parseDouble);
    });
    p.value("--json", [&](const std::string &v) { out.jsonPath = v; });

    if (p.parse(args, help_out))
        return std::nullopt;
    validateWorkloadFlags(p, cfg.node, wst);
    validateArrivalFlags(p, cfg.node, ast);
    validateScenarioFlags(p, cfg.node, sst, ast);
    validateSpecZooFlags(p, cfg.node, szst, set_experts);
    validateControllerFlags(p, cfg.controller, cst);
    validatePlanFlags(p, plan);
    validateFaultFlags(p, cfg.faultPolicy, fst, cfg.node);
    validateFabricFlags(p, cfg.fabric, fab);
    // The library rejects -j N with session generation only when a
    // follow-up probability is set; any --session-* flag asks for it.
    if (cfg.threads > 1 && sst.setSession)
        p.fail("the cluster subcommand cannot combine --threads > 1 "
               "with generated --session-* workloads (follow-up turns "
               "are coupled to node-side completions); record a trace "
               "and replay it with --trace-in, or use --threads 1");
    // The diurnal ramp shapes the arrival generator, which a replay
    // bypasses entirely — reject it like the other generator flags
    // instead of silently replaying the flat recorded stream.
    if (!cfg.node.workload.traceIn.empty() &&
        (set_diurnal_amp || set_diurnal_period))
        p.fail("--trace-in replays a recorded request stream; "
               "--diurnal-amplitude/--diurnal-period do not apply");
    if (scheduler_name == "both")
        p.fail("--scheduler both compares two runs; the cluster runs "
               "one scheduler, pick fifo or affinity");
    cfg.node.scheduler = coe::schedulerPolicyFromName(scheduler_name);
    if (set_hot &&
        cfg.placement != coe::PlacementPolicy::ReplicateHotPartitionCold)
        p.fail("--hot-experts requires --placement replicate-hot");
    // The library reads a 0 drain time as "no drain".
    if (set_drain_at && !(cfg.drainAtSeconds > 0.0))
        p.fail("--drain-at must be positive (the drain fires mid-run)");
    if ((set_drain_node || set_rejoin) && !set_drain_at)
        p.fail("--drain-node/--rejoin-at require --drain-at");
    if (set_diurnal_period && !set_diurnal_amp)
        p.fail("--diurnal-period requires --diurnal-amplitude");
    if (!node_dma.empty() && static_cast<int>(node_dma.size()) != cfg.nodes)
        p.fail("--node-dma-engines needs exactly --nodes entries");
    if (!node_region_gb.empty() &&
        static_cast<int>(node_region_gb.size()) != cfg.nodes)
        p.fail("--node-region-gb needs exactly --nodes entries");
    for (std::size_t n = 0;
         n < std::max(node_dma.size(), node_region_gb.size()); ++n) {
        coe::ClusterNodeOverride o;
        o.node = static_cast<int>(n);
        if (!node_dma.empty())
            o.dmaEngines = node_dma[n];
        if (!node_region_gb.empty())
            o.expertRegionBytes =
                gbToBytes(p, "--node-region-gb", node_region_gb[n]);
        if (o.dmaEngines != 0 || o.expertRegionBytes > 0)
            cfg.overrides.push_back(o);
    }
    // Without --arrival-rate the open-loop default scales with the
    // cluster size.
    if (!ast.setArrivalRate &&
        cfg.node.arrival == coe::ArrivalProcess::Poisson)
        cfg.node.arrivalRatePerSec = 8.0 * cfg.nodes;
    if (fst.setFaults) {
        // Parse (and strictly validate) once; validateClusterConfig
        // re-checks the schedule against the final node count.
        cfg.faults = std::make_shared<const std::vector<coe::FaultEvent>>(
            coe::loadFaultSchedule(fst.faultsPath));
    }
    if (plan.plan) {
        if (!out.jsonPath.empty())
            p.fail("--json reports a single cluster run; it does not "
                   "combine with --plan-capacity");
        if (fst.setFaults || cfg.faultPolicy.anyEnabled())
            p.fail("--plan-capacity sizes clean static clusters; drop "
                   "--faults and the degraded-mode flags");
        if (cfg.node.arrival == coe::ArrivalProcess::ClosedLoop)
            p.fail("--plan-capacity sizes for offered load; closed-loop "
                   "demand self-paces, drop --closed-loop");
        if (!ast.setArrivalRate && cfg.node.workload.traceIn.empty())
            p.fail("--plan-capacity needs the demand pinned: give an "
                   "explicit --arrival-rate or a --trace-in trace "
                   "(the default rate scales with the node count)");
        if (!cfg.overrides.empty())
            p.fail("--plan-capacity varies the node count; per-node "
                   "override lists do not apply");
        if (cfg.drainAtSeconds > 0.0 || !cfg.actions.empty())
            p.fail("--plan-capacity runs clean static clusters; drop "
                   "--drain-at/--schedule");
        if (cfg.controller.policy != coe::ControllerPolicy::Static)
            p.fail("--plan-capacity provisions statically; drop "
                   "--controller");
        if (!cfg.node.workload.traceOut.empty())
            p.fail("--plan-capacity runs the demand several times; "
                   "--trace-out is ambiguous");
    }
    p.validate([&] { coe::validateClusterConfig(cfg); });
    return out;
}

} // namespace sn40l::tools

#endif // SN40L_TOOLS_CLI_CONFIG_H
