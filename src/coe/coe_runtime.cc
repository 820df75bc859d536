#include "coe/coe_runtime.h"

#include "sim/log.h"

namespace sn40l::coe {

CoeRuntime::CoeRuntime(const ExpertZoo &zoo, std::int64_t hbm_region_bytes)
    : zoo_(zoo), region_(hbm_region_bytes, /*alignment=*/1),
      table_(static_cast<std::size_t>(zoo.size())), stats_("coe_runtime"),
      hitsStat_(stats_.counter("hits")),
      pendingHitsStat_(stats_.counter("pending_hits")),
      missesStat_(stats_.counter("misses")),
      loadBytesStat_(stats_.counter("load_bytes")),
      loadsCompletedStat_(stats_.counter("loads_completed")),
      evictionsStat_(stats_.counter("evictions")),
      writebackBytesStat_(stats_.counter("writeback_bytes")),
      copybackSkippedStat_(stats_.counter("copyback_skipped")),
      prefetchCancelsStat_(stats_.counter("prefetch_cancels")),
      prefetchReservationsStat_(stats_.counter("prefetch_reservations")),
      prefetchBytesStat_(stats_.counter("prefetch_bytes")),
      flushesStat_(stats_.counter("flushes"))
{
    if (static_cast<double>(hbm_region_bytes) < zoo.maxExpertBytes())
        sim::fatal("CoeRuntime: HBM region smaller than largest expert");
}

CoeRuntime::Resident &
CoeRuntime::entry(int expert_id, const char *why)
{
    if (find(expert_id) == nullptr)
        sim::panic(std::string("CoeRuntime: ") + why +
                   " on non-resident expert " + std::to_string(expert_id));
    return table_[static_cast<std::size_t>(expert_id)];
}

ExpertState
CoeRuntime::state(int expert_id) const
{
    return const_cast<CoeRuntime *>(this)->entry(expert_id, "state").state;
}

int
CoeRuntime::pinCount(int expert_id) const
{
    return const_cast<CoeRuntime *>(this)->entry(expert_id, "pinCount").pins;
}

void
CoeRuntime::pin(int expert_id)
{
    ++entry(expert_id, "pin").pins;
}

void
CoeRuntime::unpin(int expert_id)
{
    Resident &r = entry(expert_id, "unpin");
    if (r.pins <= 0)
        sim::panic("CoeRuntime: unpin of unpinned expert " +
                   std::to_string(expert_id));
    --r.pins;
}

void
CoeRuntime::unlink(int expert_id)
{
    Resident &r = table_[static_cast<std::size_t>(expert_id)];
    if (r.prev >= 0)
        table_[static_cast<std::size_t>(r.prev)].next = r.next;
    else
        lruHead_ = r.next;
    if (r.next >= 0)
        table_[static_cast<std::size_t>(r.next)].prev = r.prev;
    else
        lruTail_ = r.prev;
    r.prev = r.next = -1;
}

void
CoeRuntime::linkFront(int expert_id)
{
    Resident &r = table_[static_cast<std::size_t>(expert_id)];
    r.prev = -1;
    r.next = lruHead_;
    if (lruHead_ >= 0)
        table_[static_cast<std::size_t>(lruHead_)].prev = expert_id;
    else
        lruTail_ = expert_id;
    lruHead_ = expert_id;
}

void
CoeRuntime::insert(int expert_id, std::int64_t offset, ExpertState state,
                   bool most_recent)
{
    if (static_cast<std::size_t>(expert_id) >= table_.size())
        sim::panic("CoeRuntime: expert " + std::to_string(expert_id) +
                   " joined the zoo after the runtime was built");
    Resident &r = table_[static_cast<std::size_t>(expert_id)];
    r.offset = offset;
    r.state = state;
    r.pins = 0;
    r.present = true;
    ++residentCount_;
    if (most_recent) {
        linkFront(expert_id);
        return;
    }
    r.next = -1;
    r.prev = lruTail_;
    if (lruTail_ >= 0)
        table_[static_cast<std::size_t>(lruTail_)].next = expert_id;
    else
        lruHead_ = expert_id;
    lruTail_ = expert_id;
}

void
CoeRuntime::dropEntry(int expert_id)
{
    Resident &r = table_[static_cast<std::size_t>(expert_id)];
    region_.free(r.offset);
    unlink(expert_id);
    r.present = false;
    --residentCount_;
}

std::int64_t
CoeRuntime::allocateEvicting(std::int64_t need, int &evictions,
                             double &bytes_to_write_back)
{
    for (;;) {
        if (auto offset = region_.allocate(need))
            return *offset;

        // Walk victims least-recently-used first. Pinned and Loading
        // experts are untouchable; prefetch reservations are asked to
        // cancel; Loaded experts evict.
        bool freed = false;
        for (int id = lruTail_; id >= 0;
             id = table_[static_cast<std::size_t>(id)].prev) {
            Resident &r = table_[static_cast<std::size_t>(id)];
            if (r.pins > 0 || r.state == ExpertState::Loading)
                continue;
            if (r.state == ExpertState::PrefetchReserved) {
                if (prefetchCancelHook_ && !prefetchCancelHook_(id)) {
                    // The speculation already left the DMA queue; it
                    // will land, so it is as untouchable as a demand
                    // load.
                    r.state = ExpertState::Loading;
                    continue;
                }
                prefetchCancelsStat_ += 1.0;
                dropEntry(id);
                freed = true;
                break;
            }
            const ExpertModel &e = zoo_.expert(id);
            ++evictions;
            evictionsStat_ += 1.0;
            if (e.mutableBytes > 0.0) {
                bytes_to_write_back += e.mutableBytes;
                writebackBytesStat_ += e.mutableBytes;
            } else {
                // Read-only weights: skip the copy-back (Section V-B).
                copybackSkippedStat_ += 1.0;
            }
            if (evictionHook_)
                evictionHook_(id);
            dropEntry(id);
            freed = true;
            break;
        }
        if (!freed)
            sim::fatal("CoeRuntime: expert region exhausted by pinned and "
                       "in-flight experts (region too small for the "
                       "concurrent working set)");
    }
}

Activation
CoeRuntime::activate(int expert_id)
{
    Activation activation;
    const ExpertModel &expert = zoo_.expert(expert_id);

    if (const Resident *r = find(expert_id)) {
        if (r->state != ExpertState::Loaded)
            sim::panic("CoeRuntime: synchronous activate() on expert " +
                       std::to_string(expert_id) +
                       " with a transfer in flight (mixing the sync and "
                       "async protocols)");
        // Hit: refresh LRU position.
        unlink(expert_id);
        linkFront(expert_id);
        activation.hit = true;
        hitsStat_ += 1.0;
        return activation;
    }

    missesStat_ += 1.0;
    std::int64_t need = static_cast<std::int64_t>(expert.bytes);
    std::int64_t offset = allocateEvicting(need, activation.evictions,
                                           activation.bytesToWriteBack);
    insert(expert_id, offset, ExpertState::Loaded, /*most_recent=*/true);
    activation.bytesToLoad = expert.bytes;
    loadBytesStat_ += expert.bytes;
    return activation;
}

AsyncActivation
CoeRuntime::activateAsync(int expert_id)
{
    AsyncActivation activation;
    const ExpertModel &expert = zoo_.expert(expert_id);

    if (const Resident *r = find(expert_id)) {
        unlink(expert_id);
        linkFront(expert_id);
        activation.hbmOffset = r->offset;
        if (r->state == ExpertState::Loaded) {
            activation.hit = true;
            hitsStat_ += 1.0;
        } else {
            // A demand load or speculation already owns the slot; the
            // caller waits on (and may promote) that transfer.
            activation.pending = true;
            pendingHitsStat_ += 1.0;
        }
        return activation;
    }

    missesStat_ += 1.0;
    std::int64_t need = static_cast<std::int64_t>(expert.bytes);
    std::int64_t offset = allocateEvicting(need, activation.evictions,
                                           activation.bytesToWriteBack);
    insert(expert_id, offset, ExpertState::Loading, /*most_recent=*/true);
    activation.bytesToLoad = expert.bytes;
    activation.hbmOffset = offset;
    loadBytesStat_ += expert.bytes;
    return activation;
}

std::optional<AsyncActivation>
CoeRuntime::beginPrefetch(int expert_id)
{
    if (resident(expert_id))
        return std::nullopt;

    const ExpertModel &expert = zoo_.expert(expert_id);
    std::int64_t need = static_cast<std::int64_t>(expert.bytes);
    // Opportunistic: free space only, no eviction on speculation.
    auto offset = region_.allocate(need);
    if (!offset)
        return std::nullopt;

    // Speculations enter at the cold end of the LRU so they are the
    // first reclaimed under pressure until a batch actually uses them.
    insert(expert_id, *offset, ExpertState::PrefetchReserved,
           /*most_recent=*/false);

    AsyncActivation activation;
    activation.pending = true;
    activation.bytesToLoad = expert.bytes;
    activation.hbmOffset = *offset;
    prefetchReservationsStat_ += 1.0;
    prefetchBytesStat_ += expert.bytes;
    return activation;
}

void
CoeRuntime::completeLoad(int expert_id)
{
    Resident &r = entry(expert_id, "completeLoad");
    if (r.state == ExpertState::Loaded)
        sim::panic("CoeRuntime: completeLoad on already-loaded expert " +
                   std::to_string(expert_id));
    r.state = ExpertState::Loaded;
    loadsCompletedStat_ += 1.0;
}

int
CoeRuntime::flushUnpinned()
{
    // Ascending id order, so the eviction hook sees a deterministic
    // sequence independent of LRU position.
    int dropped = 0;
    for (std::size_t i = 0; i < table_.size(); ++i) {
        const Resident &r = table_[i];
        if (!r.present || r.state != ExpertState::Loaded || r.pins > 0)
            continue;
        int id = static_cast<int>(i);
        if (evictionHook_)
            evictionHook_(id);
        flushesStat_ += 1.0;
        dropEntry(id);
        ++dropped;
    }
    return dropped;
}

void
CoeRuntime::cancelPrefetch(int expert_id)
{
    Resident &r = entry(expert_id, "cancelPrefetch");
    if (r.state != ExpertState::PrefetchReserved || r.pins > 0)
        sim::panic("CoeRuntime: cancelPrefetch on pinned or non-speculative "
                   "expert " + std::to_string(expert_id));
    prefetchCancelsStat_ += 1.0;
    dropEntry(expert_id);
}

} // namespace sn40l::coe
