/**
 * @file
 * The serving engine's id-ordered admission queue.
 *
 * Request ids are assigned in arrival order, so the id order IS the
 * FIFO view: the front is the oldest queued request, and every walk
 * (batch formation, prefetch speculation, drain) visits arrival
 * order. Requests leave from any position — batch formation takes one
 * expert's requests out of the middle — but new ids arrive at the
 * back, except for re-dispatched requests, which keep their original
 * (older) id.
 *
 * The values live in a slab with a free list, so admitting a request
 * allocates nothing once the slab has grown to the queue's peak depth.
 * An id-sorted index of (id, slot) entries orders them:
 *  - an in-order insert appends; an out-of-order one shifts the tail;
 *  - a take tombstones its entry (binary search, O(log n));
 *  - a head cursor skips the dead prefix, so the front pop moves
 *    nothing;
 *  - the index compacts once tombstones outnumber live entries, which
 *    keeps both the amortised cost of an erase and the walk over
 *    tombstones within a constant factor of the live depth.
 */

#ifndef SN40L_COE_ADMISSION_QUEUE_H
#define SN40L_COE_ADMISSION_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace sn40l::coe {

template <class T>
class AdmissionQueue
{
    /** One index entry; slot < 0 marks a tombstone (id kept for order). */
    struct Entry
    {
        int id;
        int slot;
    };

  public:
    /** Walks the queued values in ascending id order. */
    class Iterator
    {
      public:
        Iterator(const AdmissionQueue &q, std::size_t pos) : q_(&q), pos_(pos)
        {
            skipDead();
        }
        const T &operator*() const
        {
            return q_->slab_[static_cast<std::size_t>(
                q_->index_[pos_].slot)];
        }
        Iterator &operator++()
        {
            ++pos_;
            skipDead();
            return *this;
        }
        bool operator!=(const Iterator &o) const { return pos_ != o.pos_; }

      private:
        void skipDead()
        {
            while (pos_ < q_->index_.size() && q_->index_[pos_].slot < 0)
                ++pos_;
        }
        const AdmissionQueue *q_;
        std::size_t pos_;
    };

    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

    Iterator begin() const { return Iterator(*this, head_); }
    Iterator end() const { return Iterator(*this, index_.size()); }

    /**
     * Queue @p value under @p id. @return false, dropping the value,
     * when @p id is already queued.
     */
    bool insert(int id, T value)
    {
        std::size_t pos = index_.size();
        if (live_ > 0 && id <= index_.back().id) {
            pos = position(id);
            if (index_[pos].id == id) {
                if (index_[pos].slot >= 0)
                    return false;
                // A tombstone of the same id: revive it in place.
                index_[pos].slot = allocate(std::move(value));
                --dead_;
                ++live_;
                return true;
            }
        }
        Entry e{id, allocate(std::move(value))};
        if (pos == index_.size())
            index_.push_back(e);
        else
            index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(pos),
                          e);
        ++live_;
        return true;
    }

    /** The value queued under @p id, or nullptr. */
    const T *find(int id) const
    {
        if (live_ == 0)
            return nullptr;
        std::size_t pos = position(id);
        if (pos == index_.size() || index_[pos].id != id ||
            index_[pos].slot < 0)
            return nullptr;
        return &slab_[static_cast<std::size_t>(index_[pos].slot)];
    }

    /** The lowest-id queued value; the queue must not be empty. */
    const T &front() const
    {
        return slab_[static_cast<std::size_t>(index_[head_].slot)];
    }

    /** Remove and return the value queued under @p id (must be queued). */
    T take(int id) { return removeAt(position(id)); }

    /** Remove and return the lowest-id value (queue must not be empty). */
    T takeFront() { return removeAt(head_); }

    /** Remove every queued value and return them in id order. */
    std::vector<T> extract()
    {
        std::vector<T> out;
        out.reserve(live_);
        for (const Entry &e : index_)
            if (e.slot >= 0)
                out.push_back(
                    std::move(slab_[static_cast<std::size_t>(e.slot)]));
        slab_.clear();
        free_.clear();
        index_.clear();
        head_ = live_ = dead_ = 0;
        return out;
    }

  private:
    /** First index entry at or after the head with id >= @p id. */
    std::size_t position(int id) const
    {
        auto it = std::lower_bound(
            index_.begin() + static_cast<std::ptrdiff_t>(head_), index_.end(),
            id, [](const Entry &e, int v) { return e.id < v; });
        return static_cast<std::size_t>(it - index_.begin());
    }

    int allocate(T value)
    {
        if (free_.empty()) {
            slab_.push_back(std::move(value));
            return static_cast<int>(slab_.size() - 1);
        }
        int slot = free_.back();
        free_.pop_back();
        slab_[static_cast<std::size_t>(slot)] = std::move(value);
        return slot;
    }

    T removeAt(std::size_t pos)
    {
        int slot = index_[pos].slot;
        T value = std::move(slab_[static_cast<std::size_t>(slot)]);
        free_.push_back(slot);
        index_[pos].slot = -1;
        if (--live_ == 0) {
            index_.clear();
            head_ = dead_ = 0;
            return value;
        }
        if (pos != head_) {
            ++dead_;
        } else {
            // The head always rests on a live entry; skipping a
            // tombstone retires it from the interior count.
            for (++head_; index_[head_].slot < 0; ++head_)
                --dead_;
        }
        if (head_ + dead_ >= kCompactMin && head_ + dead_ > live_) {
            index_.erase(std::remove_if(index_.begin(), index_.end(),
                                        [](const Entry &e) {
                                            return e.slot < 0;
                                        }),
                         index_.end());
            head_ = dead_ = 0;
        }
        return value;
    }

    /** Dead entries below which compaction is not worth a pass. */
    static constexpr std::size_t kCompactMin = 64;

    std::vector<T> slab_;
    std::vector<int> free_; ///< reusable slab slots
    /** Id-sorted entries; [0, head_) is dead, index_[head_] is live. */
    std::vector<Entry> index_;
    std::size_t head_ = 0;
    std::size_t live_ = 0;
    std::size_t dead_ = 0; ///< tombstones in [head_, index_.size())
};

} // namespace sn40l::coe

#endif // SN40L_COE_ADMISSION_QUEUE_H
