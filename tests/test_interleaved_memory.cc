/**
 * @file
 * Tests for the channel-interleaved memory model: aggregate bandwidth
 * on contiguous streams, channel camping on pathological strides, and
 * the serving-model consistency check between the DES DMA path and
 * the analytic switch estimate.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coe/serving.h"
#include "mem/interleaved_memory.h"
#include "runtime/machine.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace sn40l;
using sim::EventQueue;
using sim::Tick;

TEST(InterleavedMemory, AddressMappingRotatesChannels)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    EXPECT_EQ(hbm.channelOf(0), 0);
    EXPECT_EQ(hbm.channelOf(255), 0);
    EXPECT_EQ(hbm.channelOf(256), 1);
    EXPECT_EQ(hbm.channelOf(256 * 8), 0); // wraps
    EXPECT_EQ(hbm.numChannels(), 8);
    EXPECT_DOUBLE_EQ(hbm.aggregateBandwidth(), 800e9);
}

TEST(InterleavedMemory, ContiguousStreamReachesAggregateBandwidth)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);

    Tick done = -1;
    double bytes = 8e9; // 1 GB per channel
    hbm.access(0, bytes, [&]() { done = eq.now(); });
    eq.run();
    // 8 GB at 800 GB/s aggregate = 10 ms.
    EXPECT_NEAR(sim::toMs(done), 10.0, 0.1);
}

TEST(InterleavedMemory, ChannelCampingStrideCollapsesToOneChannel)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);

    // Stride of channels * interleave: every element lands in ch 0.
    Tick done = -1;
    std::int64_t count = 1 << 20;
    std::int64_t elem = 256;
    hbm.accessStrided(0, 8 * 256, count, elem, [&]() { done = eq.now(); });
    eq.run();

    double bytes = static_cast<double>(count * elem); // 256 MB
    Tick one_channel = sim::transferTicks(bytes, 100e9);
    EXPECT_NEAR(static_cast<double>(done),
                static_cast<double>(one_channel), 1e6);

    // The same volume with unit stride uses all channels: ~8x faster.
    EventQueue eq2;
    mem::InterleavedMemory hbm2(eq2, "hbm", 8, 100e9, 256);
    Tick done2 = -1;
    hbm2.accessStrided(0, 256, count, elem, [&]() { done2 = eq2.now(); });
    eq2.run();
    EXPECT_NEAR(static_cast<double>(done) / static_cast<double>(done2),
                8.0, 0.1);
}

TEST(InterleavedMemory, StridedCountZeroIsALegalNoOp)
{
    // Regression: count == 0 used to be rejected as an internal panic
    // alongside genuinely invalid inputs. A zero-element access — even
    // with a channel-camping stride of channels x interleave — must
    // simply complete without moving a byte.
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    bool done = false;
    hbm.accessStrided(0, 8 * 256, 0, 256, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.now(), 0);
    EXPECT_DOUBLE_EQ(hbm.stats().get("bytes"), 0.0);
}

TEST(InterleavedMemory, NegativeStrideWalksChannelsDownward)
{
    // A negative stride is a legal descending walk while every
    // element stays at a non-negative address.
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    Tick done = -1;
    hbm.accessStrided(7 * 256, -256, 8, 256, [&]() { done = eq.now(); });
    eq.run();
    // One element per channel, all concurrent.
    EXPECT_EQ(done, sim::transferTicks(256, 100e9));
}

TEST(InterleavedMemory, StridedGuardsRejectBadInputsWithFatalError)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 8, 100e9, 256);
    // Negative element count.
    EXPECT_THROW(hbm.accessStrided(0, 256, -1, 256, nullptr),
                 sim::FatalError);
    // Non-positive element size.
    EXPECT_THROW(hbm.accessStrided(0, 256, 4, 0, nullptr),
                 sim::FatalError);
    // Negative stride descending below address zero.
    EXPECT_THROW(hbm.accessStrided(256, -256, 3, 256, nullptr),
                 sim::FatalError);
}

TEST(InterleavedMemory, ZeroByteAccessCompletesImmediately)
{
    EventQueue eq;
    mem::InterleavedMemory hbm(eq, "hbm", 4, 100e9, 256);
    bool done = false;
    hbm.access(0, 0.0, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

TEST(InterleavedMemory, ValidatesConfig)
{
    EventQueue eq;
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 0, 1e9, 256),
                 sim::FatalError);
    EXPECT_THROW(mem::InterleavedMemory(eq, "x", 4, 1e9, 0),
                 sim::FatalError);
    mem::InterleavedMemory ok(eq, "ok", 4, 1e9, 256);
    EXPECT_THROW(ok.channelOf(-1), sim::SimPanic);
}

namespace {

/**
 * Per-channel bytes of the contiguous access [addr, addr + bytes),
 * found by walking it one interleave line at a time.
 */
std::vector<double>
lineByLineSplit(std::int64_t addr, std::int64_t bytes, std::int64_t line,
                int chans)
{
    std::vector<double> out(static_cast<std::size_t>(chans), 0.0);
    std::int64_t end = addr + bytes;
    for (std::int64_t a = addr; a < end;) {
        std::int64_t line_end = (a / line + 1) * line;
        std::int64_t take = std::min(line_end, end) - a;
        out[static_cast<std::size_t>((a / line) % chans)] +=
            static_cast<double>(take);
        a += take;
    }
    return out;
}

/** Book one access and compare each channel's byte delta to the walk. */
void
expectSplitMatchesWalk(mem::InterleavedMemory &m, std::int64_t addr,
                       std::int64_t bytes)
{
    int chans = m.numChannels();
    std::vector<double> before;
    for (int c = 0; c < chans; ++c)
        before.push_back(m.channel(c).stats().get("bytes"));
    m.bookAccess(addr, static_cast<double>(bytes));
    std::vector<double> want =
        lineByLineSplit(addr, bytes, m.interleaveBytes(), chans);
    for (int c = 0; c < chans; ++c)
        EXPECT_EQ(m.channel(c).stats().get("bytes") - before[c],
                  want[static_cast<std::size_t>(c)])
            << "channel " << c << " of " << chans << ", addr " << addr
            << ", bytes " << bytes;
}

} // namespace

TEST(InterleavedMemory, StripeSplitMatchesLineByLineWalk)
{
    sim::Rng rng(0x57121be5ULL);
    for (int chans : {1, 3, 8, 16}) {
        for (std::int64_t line : {64, 256, 1000}) {
            EventQueue eq;
            mem::InterleavedMemory m(eq, "hbm", chans, 100e9, line);
            auto below = [&](std::int64_t n) {
                return static_cast<std::int64_t>(
                    rng.uniformInt(static_cast<std::uint64_t>(n)));
            };
            for (int trial = 0; trial < 200; ++trial) {
                std::int64_t addr = below(64 * line * chans);
                // Shorter than one interleave line.
                expectSplitMatchesWalk(m, addr, 1 + below(line - 1));
                // Exactly one aligned line.
                expectSplitMatchesWalk(m, below(64) * line, line);
                // Starting and ending on the same channel: the last
                // line is a whole number of rotations past the first.
                std::int64_t first = addr / line;
                std::int64_t last = first + chans * (1 + below(4));
                std::int64_t end = last * line + below(line);
                expectSplitMatchesWalk(m, addr, end - addr + 1);
                // Arbitrary unaligned ranges, up to several rotations.
                expectSplitMatchesWalk(m, addr,
                                       1 + below(8 * line * chans));
            }
        }
    }
}

TEST(ServingConsistency, DesDmaAgreesWithAnalyticSwitchModel)
{
    // The ServingSimulator charges switches with an analytic estimate;
    // verify that pushing the same expert copy through the node's DES
    // DMA path (Fig 9's memcpy step) lands within 2%.
    coe::ServingConfig cfg;
    cfg.platform = coe::Platform::Sn40l;
    coe::ServingSimulator sim_model(cfg);
    double analytic = sim_model.phaseCosts().switchSeconds;

    arch::NodeConfig node_cfg = arch::NodeConfig::sn40lNode(8);
    sim::EventQueue eq;
    runtime::RduNode node(eq, node_cfg);
    double bytes = cfg.expertBase.weightBytes();

    Tick done = -1;
    node.copyDdrToHbm(bytes, [&]() { done = eq.now(); });
    eq.run();

    EXPECT_NEAR(sim::toSeconds(done), analytic, analytic * 0.02);
}
