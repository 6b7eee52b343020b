#include "device/memory.h"

#include <algorithm>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "util/format.h"

namespace buffalo::device {

DeviceOom::DeviceOom(std::uint64_t requested, std::uint64_t in_use,
                     std::uint64_t capacity)
    : Error("device out of memory: requested " +
            util::formatBytes(requested) + " with " +
            util::formatBytes(in_use) + " in use of " +
            util::formatBytes(capacity) + " capacity"),
      requested_(requested), in_use_(in_use), capacity_(capacity)
{
}

DeviceAllocator::DeviceAllocator(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes)
{
}

void
DeviceAllocator::onAllocate(std::uint64_t bytes)
{
    util::MutexLock lock(mutex_);
    if (in_use_ + bytes > capacity_) {
        ++oom_count_;
        obs::metrics().counter(obs::names::kCtrDeviceOomEvents).add();
        // EventLog has its own mutex and never calls back into the
        // allocator, so emitting under mutex_ cannot invert locks.
        obs::eventLog()
            .event(obs::names::kEvDeviceOom)
            .field("requested_bytes", bytes)
            .field("in_use_bytes", in_use_)
            .field("capacity_bytes", capacity_);
        throw DeviceOom(bytes, in_use_, capacity_);
    }
    in_use_ += bytes;
    if (in_use_ > peak_) {
        peak_ = in_use_;
        high_water_ = std::max(high_water_, peak_);
        // A relaxed CAS only on new watermarks — allocation stays
        // cheap on the (hot) non-watermark path.
        obs::metrics()
            .gauge(obs::names::kGaugeDevicePeakBytes)
            .setMax(static_cast<double>(peak_));
    }
}

void
DeviceAllocator::onFree(std::uint64_t bytes)
{
    util::MutexLock lock(mutex_);
    checkInternal(bytes <= in_use_,
                  "DeviceAllocator::onFree: freeing more than in use");
    in_use_ -= bytes;
}

void
DeviceAllocator::setCapacity(std::uint64_t capacity_bytes)
{
    util::MutexLock lock(mutex_);
    checkArgument(capacity_bytes >= in_use_,
                  "DeviceAllocator::setCapacity: capacity below usage");
    capacity_ = capacity_bytes;
}

} // namespace buffalo::device
