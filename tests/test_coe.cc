/**
 * @file
 * Tests for the CoE stack: expert zoo, router distributions, the LRU
 * expert cache with read-only skip-copyback, the serving simulator,
 * and the footprint planner.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "coe/coe_runtime.h"
#include "coe/expert.h"
#include "coe/footprint.h"
#include "coe/router.h"
#include "coe/serving.h"
#include "mem/free_list_allocator.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace sn40l;
using namespace sn40l::coe;

TEST(ExpertZoo, SambaCoeZoo)
{
    ExpertZoo zoo =
        ExpertZoo::uniform(150, models::LlmConfig::llama2_7b());
    EXPECT_EQ(zoo.size(), 150);
    // Over a trillion parameters in total (Section II).
    EXPECT_GT(zoo.totalBytes(), 2.0e12); // 1T params in BF16
    EXPECT_NEAR(zoo.expert(0).bytes, 13.48e9, 0.1e9);
    EXPECT_THROW(zoo.expert(150), sim::SimPanic);
}

TEST(Router, DeterministicPerSeed)
{
    Router a(150, RoutingDistribution::Uniform, 42);
    Router b(150, RoutingDistribution::Uniform, 42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.route(), b.route());
}

TEST(Router, UniformCoversExperts)
{
    Router r(16, RoutingDistribution::Uniform, 7);
    std::map<int, int> counts;
    for (int i = 0; i < 4000; ++i)
        ++counts[r.route()];
    EXPECT_EQ(counts.size(), 16u);
    for (const auto &kv : counts) {
        EXPECT_GT(kv.second, 150);
        EXPECT_LT(kv.second, 350);
    }
}

TEST(Router, ZipfSkewsTowardHotExperts)
{
    Router r(100, RoutingDistribution::Zipf, 7, 1.2);
    std::map<int, int> counts;
    for (int i = 0; i < 10000; ++i)
        ++counts[r.route()];
    // Expert 0 should dominate the tail.
    EXPECT_GT(counts[0], 10 * std::max(counts[50], 1));
}

namespace {

/** The reference Zipf draw: a linear scan of the CDF. */
int
scanCdf(const std::vector<double> &cdf, double u)
{
    for (std::size_t i = 0; i < cdf.size(); ++i)
        if (u <= cdf[i])
            return static_cast<int>(i);
    return static_cast<int>(cdf.size()) - 1;
}

/** Every u in @p us that lies in [0, 1) finds what the scan finds. */
void
expectFindMatchesScan(const GuideTable &table, const std::vector<double> &us)
{
    for (double u : us) {
        if (!(u >= 0.0 && u < 1.0))
            continue;
        ASSERT_EQ(table.find(u), scanCdf(table.cdf(), u))
            << "n=" << table.cdf().size() << " u=" << u;
    }
}

} // namespace

TEST(Router, ZipfGuideTableMatchesLinearScan)
{
    for (int n : {1, 2, 3, 5, 150, 4000, 4097}) {
        for (double s : {0.3, 1.0, 1.2, 4.0}) {
            Router r(n, RoutingDistribution::Zipf, 99, s);
            const std::vector<double> &cdf = r.zipfTable().cdf();
            ASSERT_EQ(cdf.size(), static_cast<std::size_t>(n));
            sim::Rng ref(99);
            for (int d = 0; d < 100000; ++d) {
                double u = ref.uniformDouble();
                ASSERT_EQ(r.route(), scanCdf(cdf, u))
                    << "n=" << n << " s=" << s << " draw " << d;
            }
            // Boundary draws: each CDF entry and its neighbours.
            std::vector<double> us = {0.0, 1.0 - 0x1p-53};
            for (double c : cdf)
                for (double u : {c, std::nextafter(c, 0.0),
                                 std::nextafter(c, 2.0)})
                    us.push_back(u);
            expectFindMatchesScan(r.zipfTable(), us);
        }
    }
}

TEST(Router, GuideTableIsExactAtBucketEdges)
{
    // Zipf CDFs almost never put an entry within an ulp of a bucket
    // edge, where a rounded u*K or j/K would start the search past the
    // answer. These CDFs do: entries exactly on the edges j/n, and
    // entries just below fl(j/n) whose product with n rounds up to j.
    for (int n : {1, 2, 4, 6, 10, 12, 150, 1024, 4000}) {
        std::vector<double> uniform(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            uniform[static_cast<std::size_t>(i)] =
                static_cast<double>(i + 1) / n;
        std::vector<double> shifted = uniform;
        for (int j = 1; j < n; ++j) {
            double u = static_cast<double>(j) / n;
            for (int step = 0; step < 4; ++step) {
                u = std::nextafter(u, 0.0);
                if (std::floor(u * n) >= j) {
                    shifted[static_cast<std::size_t>(j - 1)] = u;
                    break;
                }
            }
        }
        for (const std::vector<double> &cdf : {uniform, shifted}) {
            std::vector<double> us = {0.0, 1.0 - 0x1p-53};
            for (double c : cdf)
                for (double u : {c, std::nextafter(c, 0.0),
                                 std::nextafter(c, 2.0)})
                    us.push_back(u);
            expectFindMatchesScan(GuideTable(cdf), us);
        }
    }
}

TEST(Router, RoundRobinCycles)
{
    Router r(5, RoutingDistribution::RoundRobin);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(r.route(), i % 5);
}

namespace {

ExpertZoo
tinyZoo(int count, double bytes, double mutable_bytes = 0.0)
{
    ExpertZoo zoo;
    for (int i = 0; i < count; ++i) {
        ExpertModel e;
        e.name = "e" + std::to_string(i);
        e.config = models::LlmConfig::llama2_7b();
        e.bytes = bytes;
        e.mutableBytes = mutable_bytes;
        zoo.add(e);
    }
    return zoo;
}

} // namespace

namespace {

/**
 * Reference model of the CoeRuntime residency protocol on ordered
 * containers: a std::map of residents and a std::list LRU (most recent
 * at the front) over its own region allocator. The dense runtime must
 * agree with it step for step.
 */
class RefRuntime
{
  public:
    struct Entry
    {
        std::int64_t offset = 0;
        ExpertState state = ExpertState::Loaded;
        int pins = 0;
    };

    RefRuntime(const ExpertZoo &zoo, std::int64_t region)
        : zoo_(zoo), region_(region, 1)
    {
    }

    std::function<bool(int)> cancelHook;
    std::vector<int> evicted;

    AsyncActivation
    activateAsync(int id)
    {
        AsyncActivation act;
        auto it = resident.find(id);
        if (it != resident.end()) {
            touch(id, true);
            act.hbmOffset = it->second.offset;
            act.hit = it->second.state == ExpertState::Loaded;
            act.pending = !act.hit;
            return act;
        }
        const ExpertModel &e = zoo_.expert(id);
        std::int64_t offset =
            allocateEvicting(static_cast<std::int64_t>(e.bytes), act);
        insert(id, offset, ExpertState::Loading, true);
        act.bytesToLoad = e.bytes;
        act.hbmOffset = offset;
        return act;
    }

    std::optional<AsyncActivation>
    beginPrefetch(int id)
    {
        if (resident.count(id) > 0)
            return std::nullopt;
        const ExpertModel &e = zoo_.expert(id);
        auto offset = region_.allocate(static_cast<std::int64_t>(e.bytes));
        if (!offset)
            return std::nullopt;
        insert(id, *offset, ExpertState::PrefetchReserved, false);
        AsyncActivation act;
        act.pending = true;
        act.bytesToLoad = e.bytes;
        act.hbmOffset = *offset;
        return act;
    }

    void completeLoad(int id) { resident.at(id).state = ExpertState::Loaded; }
    void cancelPrefetch(int id) { drop(id); }

    int
    flushUnpinned()
    {
        std::vector<int> victims;
        for (const auto &kv : resident)
            if (kv.second.state == ExpertState::Loaded && kv.second.pins == 0)
                victims.push_back(kv.first);
        for (int id : victims) {
            evicted.push_back(id);
            drop(id);
        }
        return static_cast<int>(victims.size());
    }

    std::int64_t freeBytes() const { return region_.freeBytes(); }

    std::map<int, Entry> resident;

  private:
    void
    touch(int id, bool front)
    {
        lru_.remove(id);
        if (front)
            lru_.push_front(id);
        else
            lru_.push_back(id);
    }

    void
    insert(int id, std::int64_t offset, ExpertState state, bool front)
    {
        Entry e;
        e.offset = offset;
        e.state = state;
        resident[id] = e;
        touch(id, front);
    }

    void
    drop(int id)
    {
        region_.free(resident.at(id).offset);
        resident.erase(id);
        lru_.remove(id);
    }

    std::int64_t
    allocateEvicting(std::int64_t need, AsyncActivation &act)
    {
        for (;;) {
            if (auto offset = region_.allocate(need))
                return *offset;
            bool freed = false;
            for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
                int id = *it;
                Entry &r = resident.at(id);
                if (r.pins > 0 || r.state == ExpertState::Loading)
                    continue;
                if (r.state == ExpertState::PrefetchReserved) {
                    if (cancelHook && !cancelHook(id)) {
                        r.state = ExpertState::Loading;
                        continue;
                    }
                } else {
                    ++act.evictions;
                    act.bytesToWriteBack += zoo_.expert(id).mutableBytes;
                    evicted.push_back(id);
                }
                drop(id);
                freed = true;
                break;
            }
            if (!freed)
                sim::fatal("reference region exhausted");
        }
    }

    const ExpertZoo &zoo_;
    mem::FreeListAllocator region_;
    std::list<int> lru_;
};

/** Cancel decisions shared by both hooks: same calls, same answers. */
struct CancelOracle
{
    std::uint64_t calls = 0;
    bool operator()(int id) { return (id * 7 + calls++) % 3 != 0; }
};

void
expectSameActivation(const AsyncActivation &got, const AsyncActivation &want)
{
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.pending, want.pending);
    EXPECT_EQ(got.bytesToLoad, want.bytesToLoad);
    EXPECT_EQ(got.bytesToWriteBack, want.bytesToWriteBack);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.hbmOffset, want.hbmOffset);
}

/** A random resident id of @p ref matching @p pred, or -1. */
template <typename Pred>
int
pickResident(const RefRuntime &ref, sim::Rng &rng, Pred pred)
{
    std::vector<int> ids;
    for (const auto &kv : ref.resident)
        if (pred(kv.second))
            ids.push_back(kv.first);
    if (ids.empty())
        return -1;
    return ids[static_cast<std::size_t>(rng.uniformInt(ids.size()))];
}

/**
 * Drive the dense CoeRuntime and the reference with the same seeded
 * mix of protocol calls and compare them after every step.
 */
void
runDifferential(const ExpertZoo &zoo, std::int64_t region, int steps,
                std::uint64_t seed)
{
    CoeRuntime rt(zoo, region);
    RefRuntime ref(zoo, region);
    std::vector<int> evicted;
    CancelOracle rt_oracle, ref_oracle;
    rt.setEvictionHook([&](int id) { evicted.push_back(id); });
    rt.setPrefetchCancelHook([&](int id) { return rt_oracle(id); });
    ref.cancelHook = [&](int id) { return ref_oracle(id); };

    sim::Rng rng(seed);
    const int n = zoo.size();
    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        int id = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(n)));
        // Bias toward a hot subset so hits, pins and evictions all occur.
        if (rng.uniformDouble() < 0.6)
            id %= std::max(1, n / 8);
        std::uint64_t op = rng.uniformInt(100);
        if (op < 35) {
            bool rt_threw = false, ref_threw = false;
            AsyncActivation got, want;
            try {
                got = rt.activateAsync(id);
            } catch (const sim::FatalError &) {
                rt_threw = true;
            }
            try {
                want = ref.activateAsync(id);
            } catch (const sim::FatalError &) {
                ref_threw = true;
            }
            ASSERT_EQ(rt_threw, ref_threw);
            if (!rt_threw)
                expectSameActivation(got, want);
        } else if (op < 50) {
            auto got = rt.beginPrefetch(id);
            auto want = ref.beginPrefetch(id);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (got)
                expectSameActivation(*got, *want);
        } else if (op < 70) {
            int e = pickResident(ref, rng, [](const RefRuntime::Entry &r) {
                return r.state != ExpertState::Loaded;
            });
            if (e >= 0) {
                rt.completeLoad(e);
                ref.completeLoad(e);
            }
        } else if (op < 76) {
            int e = pickResident(ref, rng, [](const RefRuntime::Entry &r) {
                return r.state == ExpertState::PrefetchReserved && r.pins == 0;
            });
            if (e >= 0) {
                rt.cancelPrefetch(e);
                ref.cancelPrefetch(e);
            }
        } else if (op < 86) {
            // Keep the pinned set small so demand activation can always
            // find a victim in a healthy run.
            int pinned = 0;
            for (const auto &kv : ref.resident)
                pinned += kv.second.pins > 0 ? 1 : 0;
            int e = pickResident(ref, rng, [](const RefRuntime::Entry &) {
                return true;
            });
            if (e >= 0 && pinned < 4) {
                rt.pin(e);
                ++ref.resident.at(e).pins;
            }
        } else if (op < 98) {
            int e = pickResident(ref, rng, [](const RefRuntime::Entry &r) {
                return r.pins > 0;
            });
            if (e >= 0) {
                rt.unpin(e);
                --ref.resident.at(e).pins;
            }
        } else {
            EXPECT_EQ(rt.flushUnpinned(), ref.flushUnpinned());
        }

        ASSERT_EQ(evicted, ref.evicted);
        ASSERT_EQ(rt.residentCount(), static_cast<int>(ref.resident.size()));
        ASSERT_EQ(rt.freeRegionBytes(), ref.freeBytes());
        for (const auto &kv : ref.resident) {
            ASSERT_TRUE(rt.resident(kv.first));
            EXPECT_EQ(rt.state(kv.first), kv.second.state);
            EXPECT_EQ(rt.pinCount(kv.first), kv.second.pins);
        }
        if (step % 64 == 0) {
            for (int e = 0; e < n; ++e)
                ASSERT_EQ(rt.resident(e), ref.resident.count(e) > 0);
        }
    }
    EXPECT_GT(ref.evicted.size(), 0u);

    // Ids outside the zoo are never resident, and reading them stays
    // inside the table.
    for (int bad : {-1, n}) {
        EXPECT_FALSE(rt.resident(bad));
        EXPECT_FALSE(rt.loaded(bad));
        EXPECT_FALSE(rt.inFlight(bad));
    }
}

} // namespace

TEST(CoeRuntime, DenseTableMatchesOrderedReference)
{
    // 150 experts of mixed sizes, some with mutable state, in a region
    // that holds about a sixth of them.
    ExpertZoo zoo;
    for (int i = 0; i < 150; ++i) {
        ExpertModel e;
        e.name = "e" + std::to_string(i);
        e.config = models::LlmConfig::llama2_7b();
        e.bytes = 100.0 + 10.0 * (i % 7);
        e.mutableBytes = i % 5 == 0 ? 3.0 : 0.0;
        zoo.add(e);
    }
    runDifferential(zoo, 3000, 4000, 0xd1ffe7e1ULL);
}

TEST(CoeRuntime, DenseTableMatchesOrderedReferenceOnLoraZoo)
{
    ServingConfig cfg;
    cfg.numExperts = 4000;
    cfg.zoo.enabled = true;
    cfg.zoo.rank = 16;
    ExpertZoo zoo = buildServingZoo(cfg);
    std::int64_t adapter = static_cast<std::int64_t>(zoo.expert(0).bytes);
    runDifferential(zoo, 64 * adapter + adapter / 2, 4000, 0x10a2a00ULL);
}

TEST(CoeRuntime, HitsAndMisses)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250); // two experts fit

    auto a0 = runtime.activate(0);
    EXPECT_FALSE(a0.hit);
    EXPECT_DOUBLE_EQ(a0.bytesToLoad, 100.0);

    auto a0_again = runtime.activate(0);
    EXPECT_TRUE(a0_again.hit);
    EXPECT_DOUBLE_EQ(a0_again.bytesToLoad, 0.0);
    EXPECT_EQ(runtime.residentCount(), 1);
}

TEST(CoeRuntime, LruEvictionOrder)
{
    ExpertZoo zoo = tinyZoo(4, 100.0);
    CoeRuntime runtime(zoo, 250);

    runtime.activate(0);
    runtime.activate(1); // region full: {1, 0}
    runtime.activate(0); // refresh 0: {0, 1}
    auto a2 = runtime.activate(2); // evicts 1 (least recent)
    EXPECT_EQ(a2.evictions, 1);
    EXPECT_TRUE(runtime.resident(0));
    EXPECT_FALSE(runtime.resident(1));
    EXPECT_TRUE(runtime.resident(2));
}

TEST(CoeRuntime, ReadOnlyEvictionSkipsCopyBack)
{
    ExpertZoo ro = tinyZoo(3, 100.0, 0.0);
    CoeRuntime runtime_ro(ro, 200);
    runtime_ro.activate(0);
    runtime_ro.activate(1);
    auto act = runtime_ro.activate(2);
    EXPECT_DOUBLE_EQ(act.bytesToWriteBack, 0.0);
    EXPECT_GT(runtime_ro.stats().get("copyback_skipped"), 0.0);

    // Mutable state must be written back (Section V-B).
    ExpertZoo rw = tinyZoo(3, 100.0, 25.0);
    CoeRuntime runtime_rw(rw, 200);
    runtime_rw.activate(0);
    runtime_rw.activate(1);
    auto act_rw = runtime_rw.activate(2);
    EXPECT_DOUBLE_EQ(act_rw.bytesToWriteBack, 25.0);
}

TEST(CoeRuntime, RejectsOversizedExpert)
{
    ExpertZoo zoo = tinyZoo(1, 1000.0);
    EXPECT_THROW(CoeRuntime(zoo, 500), sim::FatalError);
}

TEST(CoeRuntime, SteadyStateMissRateMatchesCapacityRatio)
{
    // Uniform routing over N experts with a C-expert cache: the
    // steady-state hit rate approaches C/N.
    const int n = 40, cap = 10;
    ExpertZoo zoo = tinyZoo(n, 100.0);
    CoeRuntime runtime(zoo, cap * 100 + 50);
    Router router(n, RoutingDistribution::Uniform, 5);

    int misses = 0;
    const int trials = 8000;
    for (int i = 0; i < trials; ++i) {
        if (!runtime.activate(router.route()).hit)
            ++misses;
    }
    double miss_rate = static_cast<double>(misses) / trials;
    EXPECT_NEAR(miss_rate, 1.0 - static_cast<double>(cap) / n, 0.05);
}

TEST(Serving, Sn40lPhaseCostsMatchPaperAnchors)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    ServingSimulator sim(cfg);
    const PhaseCosts &c = sim.phaseCosts();

    // Expert switch: ~13.5 GB at >1 TB/s node DDR->HBM: ~13 ms.
    EXPECT_GT(c.switchSeconds, 8e-3);
    EXPECT_LT(c.switchSeconds, 20e-3);
    // Decode streams weights each token: ~1-2 ms per token on TP8.
    EXPECT_GT(c.decodeSecondsPerToken, 0.8e-3);
    EXPECT_LT(c.decodeSecondsPerToken, 2.5e-3);
}

TEST(Serving, SwitchSpeedupOverDgxMatchesPaperBand)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    double rdu = ServingSimulator(cfg).phaseCosts().switchSeconds;
    cfg.platform = Platform::DgxA100;
    double a100 = ServingSimulator(cfg).phaseCosts().switchSeconds;
    cfg.platform = Platform::DgxH100;
    double h100 = ServingSimulator(cfg).phaseCosts().switchSeconds;

    // Paper: model switching 31x vs A100, 15x vs H100.
    EXPECT_NEAR(a100 / rdu, 31.0, 4.0);
    EXPECT_NEAR(h100 / rdu, 15.5, 2.0);
}

TEST(Serving, DgxOomAboveOneHundredFiftyExperts)
{
    ServingConfig cfg;
    cfg.platform = Platform::DgxA100;
    cfg.requests = 4;

    cfg.numExperts = 150;
    EXPECT_FALSE(ServingSimulator(cfg).run().oom);
    cfg.numExperts = 160;
    EXPECT_TRUE(ServingSimulator(cfg).run().oom);

    // The SN40L node holds 850 experts (Section VI-C).
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 850;
    EXPECT_FALSE(ServingSimulator(cfg).run().oom);
}

TEST(Serving, OverallSpeedupBandsAtOneFiftyExperts)
{
    auto total = [](Platform p, int batch) {
        ServingConfig cfg;
        cfg.platform = p;
        cfg.numExperts = 150;
        cfg.batch = batch;
        cfg.outputTokens = 20;
        cfg.requests = 100;
        return ServingSimulator(cfg).run().perBatch.total();
    };

    // Paper Table V: BS=8, 20 tokens: 6.6x vs DGX A100, 3.7x vs H100.
    double rdu8 = total(Platform::Sn40l, 8);
    double a8 = total(Platform::DgxA100, 8);
    double h8 = total(Platform::DgxH100, 8);
    EXPECT_NEAR(a8 / rdu8, 6.6, 1.5);
    EXPECT_NEAR(h8 / rdu8, 3.7, 1.0);
}

TEST(Serving, SwitchShareGrowsWithExpertCount)
{
    auto share = [](int experts) {
        ServingConfig cfg;
        cfg.platform = Platform::DgxA100;
        cfg.numExperts = experts;
        cfg.requests = 100;
        return ServingSimulator(cfg).run().perBatch.switchShare();
    };
    double small = share(30);
    double big = share(140);
    EXPECT_LT(small, big);
    EXPECT_GT(big, 0.5); // switching dominates on DGX (Fig 1)
}

TEST(Serving, ZipfRoutingReducesSwitching)
{
    ServingConfig cfg;
    cfg.platform = Platform::Sn40l;
    cfg.numExperts = 150;
    cfg.requests = 200;

    cfg.routing = RoutingDistribution::Uniform;
    double uniform = ServingSimulator(cfg).run().missRate;
    cfg.routing = RoutingDistribution::Zipf;
    double zipf = ServingSimulator(cfg).run().missRate;
    EXPECT_LT(zipf, uniform * 0.8);
}

TEST(Footprint, PaperAnchors)
{
    double expert = models::LlmConfig::llama2_7b().weightBytes();
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    baseline::DgxConfig dgx = baseline::DgxConfig::dgxA100();

    // 850 experts: one SN40L node vs 19 DGX nodes (Section VI-C).
    FootprintPlan sn = sn40lFootprint(850, expert, node);
    FootprintPlan dg = dgxFootprint(850, expert, dgx);
    EXPECT_EQ(sn.nodes, 1);
    EXPECT_EQ(dg.nodes, 19);

    // Monotone non-decreasing in expert count.
    int last = 0;
    for (int n = 10; n <= 890; n += 40) {
        int nodes = dgxFootprint(n, expert, dgx).nodes;
        EXPECT_GE(nodes, last);
        last = nodes;
    }
}

TEST(Footprint, RejectsImpossiblePlans)
{
    arch::NodeConfig node = arch::NodeConfig::sn40lNode(8);
    EXPECT_THROW(sn40lFootprint(0, 1e9, node), sim::FatalError);
    EXPECT_THROW(sn40lFootprint(1, 1e15, node), sim::FatalError);
}
