/**
 * @file
 * Capacity-limited tracking allocator — the memory half of the simulated
 * GPU. It observes every tensor allocation charged to the device, refuses
 * allocations past the configured capacity by throwing DeviceOom (exactly
 * how the paper's baselines fail in Figs. 2 and 10 / Table IV), and keeps
 * the peak watermark the evaluation reports as "CUDA memory cost".
 */
#pragma once

#include <cstdint>
#include <string>

#include "tensor/tensor.h"
#include "util/errors.h"
#include "util/thread_annotations.h"

namespace buffalo::device {

/** Thrown when an allocation would exceed the device memory capacity. */
class DeviceOom : public Error
{
  public:
    DeviceOom(std::uint64_t requested, std::uint64_t in_use,
              std::uint64_t capacity);

    std::uint64_t requested() const { return requested_; }
    std::uint64_t inUse() const { return in_use_; }
    std::uint64_t capacity() const { return capacity_; }

  private:
    std::uint64_t requested_;
    std::uint64_t in_use_;
    std::uint64_t capacity_;
};

/**
 * Tracking allocator with a hard byte capacity.
 *
 * Thread-safe: the accounting is guarded by an internal mutex, so the
 * watermark and OOM counters stay exact even when pipeline stages or
 * per-device worker threads charge the same allocator. (Each charge
 * is one short uncontended lock — allocation is per-tensor, not
 * per-element, so this is not a hot path.)
 */
class DeviceAllocator : public tensor::AllocationObserver
{
  public:
    /** Creates an allocator with @p capacity_bytes of "device" memory. */
    explicit DeviceAllocator(std::uint64_t capacity_bytes);

    void onAllocate(std::uint64_t bytes) override
        BUFFALO_EXCLUDES(mutex_);
    void onFree(std::uint64_t bytes) override BUFFALO_EXCLUDES(mutex_);

    /** Live bytes right now. */
    std::uint64_t
    bytesInUse() const BUFFALO_EXCLUDES(mutex_)
    {
        util::MutexLock lock(mutex_);
        return in_use_;
    }

    /** High-water mark since construction or resetPeak(). */
    std::uint64_t
    peakBytes() const BUFFALO_EXCLUDES(mutex_)
    {
        util::MutexLock lock(mutex_);
        return peak_;
    }

    /** High-water mark since construction; resetPeak() leaves it
     *  alone, so it is the whole run's peak. */
    std::uint64_t
    highWaterBytes() const BUFFALO_EXCLUDES(mutex_)
    {
        util::MutexLock lock(mutex_);
        return high_water_;
    }

    /** Configured capacity. */
    std::uint64_t
    capacity() const BUFFALO_EXCLUDES(mutex_)
    {
        util::MutexLock lock(mutex_);
        return capacity_;
    }

    /** Changes the capacity (must be >= bytesInUse()). */
    void setCapacity(std::uint64_t capacity_bytes)
        BUFFALO_EXCLUDES(mutex_);

    /** Resets the peak watermark to the current usage. */
    void
    resetPeak() BUFFALO_EXCLUDES(mutex_)
    {
        util::MutexLock lock(mutex_);
        peak_ = in_use_;
    }

    /** Count of allocation refusals (OOMs thrown). */
    std::uint64_t
    oomCount() const BUFFALO_EXCLUDES(mutex_)
    {
        util::MutexLock lock(mutex_);
        return oom_count_;
    }

  private:
    mutable util::Mutex mutex_;
    std::uint64_t capacity_ BUFFALO_GUARDED_BY(mutex_);
    std::uint64_t in_use_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t peak_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t high_water_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t oom_count_ BUFFALO_GUARDED_BY(mutex_) = 0;
};

} // namespace buffalo::device
