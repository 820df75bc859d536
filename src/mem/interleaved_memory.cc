#include "mem/interleaved_memory.h"

#include <algorithm>

#include "sim/log.h"

namespace sn40l::mem {

InterleavedMemory::InterleavedMemory(sim::EventQueue &eq, std::string name,
                                     int channels, double per_channel_bw,
                                     std::int64_t interleave_bytes,
                                     double efficiency, sim::Tick latency)
    : eq_(eq), name_(std::move(name)), doneLabel_(name_ + ".access_done"),
      interleaveBytes_(interleave_bytes), stats_(name_),
      accessesStat_(stats_.counter("accesses")),
      bytesStat_(stats_.counter("bytes"))
{
    if (channels <= 0)
        sim::fatal("InterleavedMemory " + name_ + ": need channels");
    if (interleave_bytes <= 0)
        sim::fatal("InterleavedMemory " + name_ + ": bad interleave");
    for (int i = 0; i < channels; ++i) {
        channels_.push_back(std::make_unique<BandwidthChannel>(
            eq, name_ + ".ch" + std::to_string(i), per_channel_bw,
            efficiency, latency));
    }
    scratch_.assign(channels_.size(), 0.0);
}

double
InterleavedMemory::aggregateBandwidth() const
{
    return static_cast<double>(channels_.size()) *
           channels_.front()->effectiveBandwidth();
}

int
InterleavedMemory::channelOf(std::int64_t addr) const
{
    if (addr < 0)
        sim::panic("InterleavedMemory " + name_ + ": negative address");
    return static_cast<int>((addr / interleaveBytes_) %
                            static_cast<std::int64_t>(channels_.size()));
}

sim::Tick
InterleavedMemory::bookScratch()
{
    sim::Tick done = eq_.now();
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
        if (scratch_[i] <= 0.0)
            continue;
        done = std::max(done, channels_[i]->book(scratch_[i]));
    }
    return done;
}

sim::Tick
InterleavedMemory::bookAccess(std::int64_t addr, double bytes)
{
    if (bytes < 0.0)
        sim::panic("InterleavedMemory " + name_ + ": negative access");
    accessesStat_ += 1.0;
    bytesStat_ += bytes;

    // Closed-form split of the contiguous range [addr, addr + bytes):
    // its nlines interleave lines rotate over the channels starting at
    // first_line's channel, so every channel serves nlines / chans
    // whole lines and the first nlines % chans channels of the
    // rotation one more. The truncated leading line is trimmed from
    // the first channel, then the trailing one from the last. O(chans)
    // with no per-channel division, however large the access — bulk
    // streams (hundreds of GB of decode traffic per prompt) must not
    // walk line by line.
    sim::Tick done = eq_.now();
    const std::int64_t total = static_cast<std::int64_t>(bytes);
    if (total <= 0)
        return done;
    if (addr < 0)
        sim::panic("InterleavedMemory " + name_ + ": negative address");
    const std::int64_t line = interleaveBytes_;
    const std::int64_t chans = static_cast<std::int64_t>(channels_.size());
    const std::int64_t last_addr = addr + total - 1;
    const std::int64_t first_line = addr / line;
    const std::int64_t last_line = last_addr / line;
    const std::int64_t nlines = last_line - first_line + 1;
    const std::int64_t whole = nlines / chans;
    const std::int64_t extra = nlines % chans;
    const std::int64_t first_chan = first_line % chans;
    // The last line sits (nlines - 1) % chans channels past the first.
    std::int64_t last_chan = first_chan + (extra == 0 ? chans : extra) - 1;
    if (last_chan >= chans)
        last_chan -= chans;
    const double lead = static_cast<double>(addr - first_line * line);
    const double trail =
        static_cast<double>(line - 1 - (last_addr - last_line * line));
    std::int64_t c = first_chan;
    for (std::int64_t k = 0; k < chans; ++k) {
        double share =
            static_cast<double>((whole + (k < extra ? 1 : 0)) * line);
        if (c == first_chan)
            share -= lead;
        if (c == last_chan)
            share -= trail;
        if (share > 0.0)
            done = std::max(
                done, channels_[static_cast<std::size_t>(c)]->book(share));
        if (++c == chans)
            c = 0;
    }
    return done;
}

void
InterleavedMemory::access(std::int64_t addr, double bytes, Callback on_done)
{
    sim::Tick done = bookAccess(addr, bytes);
    if (on_done)
        eq_.schedule(done, std::move(on_done), doneLabel_.c_str());
}

void
InterleavedMemory::accessStrided(std::int64_t base, std::int64_t stride,
                                 std::int64_t count,
                                 std::int64_t elem_bytes, Callback on_done)
{
    if (count < 0)
        sim::fatal("InterleavedMemory " + name_ +
                   ": negative strided element count");
    if (elem_bytes <= 0)
        sim::fatal("InterleavedMemory " + name_ +
                   ": non-positive strided element size");
    if (count == 0) {
        // An empty access is a degenerate but legal request: complete
        // asynchronously like any other zero-byte access.
        if (on_done)
            eq_.scheduleIn(0, std::move(on_done), doneLabel_.c_str());
        return;
    }
    // Negative strides walk the address space downward; they are fine
    // as long as no element lands below address zero.
    std::int64_t lowest = stride < 0 ? base + (count - 1) * stride : base;
    if (lowest < 0)
        sim::fatal("InterleavedMemory " + name_ +
                   ": strided access reaches negative addresses");
    accessesStat_ += 1.0;
    bytesStat_ += static_cast<double>(count * elem_bytes);

    std::fill(scratch_.begin(), scratch_.end(), 0.0);
    for (std::int64_t i = 0; i < count; ++i) {
        std::int64_t addr = base + i * stride;
        scratch_[channelOf(addr)] += static_cast<double>(elem_bytes);
    }
    sim::Tick done = bookScratch();
    if (on_done)
        eq_.schedule(done, std::move(on_done), doneLabel_.c_str());
}

} // namespace sn40l::mem
