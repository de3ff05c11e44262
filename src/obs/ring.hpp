// The bounded event ring under the tracer and the flight recorder. A push
// past capacity overwrites the oldest element and counts a drop, so
// neither grows without bound under a long soak; every push stamps the
// element's `seq` with a monotone sequence number from 1. Thread-safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rpkic::obs {

template <typename T>
class BoundedRing {
public:
    explicit BoundedRing(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const RC_EXCLUDES(mutex_) {
        rc::LockGuard lock(mutex_);
        return items_.size();
    }
    /// Elements ever pushed: the last sequence number handed out.
    std::uint64_t pushed() const RC_EXCLUDES(mutex_) {
        rc::LockGuard lock(mutex_);
        return seq_;
    }
    std::uint64_t dropped() const RC_EXCLUDES(mutex_) {
        rc::LockGuard lock(mutex_);
        return dropped_;
    }

    /// Returns true iff `item` overwrote the oldest element.
    bool push(T item) RC_EXCLUDES(mutex_) {
        rc::LockGuard lock(mutex_);
        item.seq = ++seq_;
        if (items_.size() < capacity_) {
            items_.push_back(std::move(item));
            return false;
        }
        items_[next_] = std::move(item);
        next_ = (next_ + 1) % capacity_;
        ++dropped_;
        return true;
    }

    /// Retained elements, oldest first. The write cursor stays on 0 until
    /// the ring first wraps and sits on the oldest element from then on.
    std::vector<T> snapshot() const RC_EXCLUDES(mutex_) {
        rc::LockGuard lock(mutex_);
        const auto cursor = items_.begin() + static_cast<std::ptrdiff_t>(next_);
        std::vector<T> out(cursor, items_.end());
        out.insert(out.end(), items_.begin(), cursor);
        return out;
    }

    /// snapshot(), leaving the ring empty; both counters keep counting.
    std::vector<T> take() RC_EXCLUDES(mutex_) {
        rc::LockGuard lock(mutex_);
        std::rotate(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(next_),
                    items_.end());
        next_ = 0;
        return std::exchange(items_, {});
    }

    /// Empties the ring and resets both counters.
    void clear() RC_EXCLUDES(mutex_) {
        rc::LockGuard lock(mutex_);
        items_.clear();
        next_ = 0;
        seq_ = 0;
        dropped_ = 0;
    }

private:
    const std::size_t capacity_;
    mutable rc::Mutex mutex_;
    std::vector<T> items_ RC_GUARDED_BY(mutex_);
    std::size_t next_ RC_GUARDED_BY(mutex_) = 0;  ///< write cursor
    std::uint64_t seq_ RC_GUARDED_BY(mutex_) = 0;
    std::uint64_t dropped_ RC_GUARDED_BY(mutex_) = 0;
};

}  // namespace rpkic::obs
