/**
 * @file
 * Tests for the simulated accelerator: capacity enforcement, OOM
 * semantics, peak tracking, and the timing model.
 */
#include <gtest/gtest.h>

#include "device/device.h"
#include "tensor/tensor.h"
#include "util/format.h"

namespace buffalo::device {
namespace {

TEST(DeviceAllocator, TracksUsageAndPeak)
{
    DeviceAllocator alloc(1000);
    alloc.onAllocate(400);
    alloc.onAllocate(300);
    EXPECT_EQ(alloc.bytesInUse(), 700u);
    EXPECT_EQ(alloc.peakBytes(), 700u);
    alloc.onFree(300);
    EXPECT_EQ(alloc.bytesInUse(), 400u);
    EXPECT_EQ(alloc.peakBytes(), 700u);
    alloc.resetPeak();
    EXPECT_EQ(alloc.peakBytes(), 400u);
    // The high-water mark spans resets: it is the whole run's peak.
    alloc.onAllocate(200);
    EXPECT_EQ(alloc.peakBytes(), 600u);
    EXPECT_EQ(alloc.highWaterBytes(), 700u);
    alloc.onAllocate(200);
    EXPECT_EQ(alloc.highWaterBytes(), 800u);
}

TEST(DeviceAllocator, ThrowsDeviceOomAtCapacity)
{
    DeviceAllocator alloc(100);
    alloc.onAllocate(60);
    EXPECT_THROW(alloc.onAllocate(50), DeviceOom);
    // Failed allocation must not change usage.
    EXPECT_EQ(alloc.bytesInUse(), 60u);
    EXPECT_EQ(alloc.oomCount(), 1u);
    // Exactly filling is allowed.
    EXPECT_NO_THROW(alloc.onAllocate(40));
}

TEST(DeviceAllocator, OomCarriesContext)
{
    DeviceAllocator alloc(100);
    alloc.onAllocate(80);
    try {
        alloc.onAllocate(30);
        FAIL() << "expected DeviceOom";
    } catch (const DeviceOom &oom) {
        EXPECT_EQ(oom.requested(), 30u);
        EXPECT_EQ(oom.inUse(), 80u);
        EXPECT_EQ(oom.capacity(), 100u);
    }
}

TEST(DeviceAllocator, SetCapacityValidates)
{
    DeviceAllocator alloc(100);
    alloc.onAllocate(50);
    EXPECT_THROW(alloc.setCapacity(40), InvalidArgument);
    alloc.setCapacity(200);
    EXPECT_NO_THROW(alloc.onAllocate(120));
}

TEST(DeviceAllocator, IntegratesWithTensor)
{
    DeviceAllocator alloc(1024);
    {
        auto t = tensor::Tensor::zeros(8, 8, &alloc); // 256 bytes
        EXPECT_EQ(alloc.bytesInUse(), 256u);
        EXPECT_THROW(tensor::Tensor::zeros(16, 16, &alloc), DeviceOom);
    }
    EXPECT_EQ(alloc.bytesInUse(), 0u);
}

TEST(CostModel, KernelTimeScalesWithFlops)
{
    CostModel model;
    const double small = model.kernelSeconds(1e9);
    const double large = model.kernelSeconds(1e12);
    EXPECT_GT(large, small);
    // Launch overhead dominates tiny kernels.
    EXPECT_NEAR(model.kernelSeconds(0.0),
                model.params().kernel_launch_seconds, 1e-12);
}

TEST(CostModel, KernelCountAddsLaunchOverhead)
{
    CostModel model;
    const double one = model.kernelsSeconds(1e9, 1);
    const double many = model.kernelsSeconds(1e9, 1000);
    EXPECT_NEAR(many - one,
                999 * model.params().kernel_launch_seconds, 1e-9);
}

TEST(CostModel, TransferBandwidth)
{
    CostModel model;
    const double t = model.transferSeconds(util::gib(12));
    // ~1 second on a 12 GB/s link.
    EXPECT_NEAR(t, 1.07, 0.1);
}

TEST(CostModel, AllReduceScaling)
{
    CostModel model;
    EXPECT_DOUBLE_EQ(model.allReduceSeconds(1 << 20, 1), 0.0);
    const double two = model.allReduceSeconds(1 << 26, 2);
    const double four = model.allReduceSeconds(1 << 26, 4);
    EXPECT_GT(two, 0.0);
    EXPECT_GT(four, two); // 2(n-1)/n grows with n
}

TEST(Device, ClocksAccumulateAndReset)
{
    Device dev("gpu:0", util::gib(1));
    dev.chargeCompute(1e12);
    dev.chargeTransfer(1 << 30);
    EXPECT_GT(dev.computeSeconds(), 0.0);
    EXPECT_GT(dev.transferSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(dev.totalSeconds(),
                     dev.computeSeconds() + dev.transferSeconds());
    dev.resetClocks();
    EXPECT_DOUBLE_EQ(dev.totalSeconds(), 0.0);
}

TEST(Device, CustomCostModel)
{
    CostModelParams params;
    params.flops_per_second = 1e12;
    params.gnn_efficiency = 1.0;
    params.kernel_launch_seconds = 0.0;
    Device dev("gpu:0", 1024, params);
    dev.chargeCompute(1e12);
    EXPECT_NEAR(dev.computeSeconds(), 1.0, 1e-9);
}

TEST(DeviceGroup, UniformDevicesAndAllReduce)
{
    DeviceGroup group(2, util::gib(2));
    EXPECT_EQ(group.size(), 2);
    EXPECT_EQ(group.device(0).name(), "gpu:0");
    EXPECT_EQ(group.device(1).name(), "gpu:1");
    EXPECT_GT(group.allReduceSeconds(1 << 24), 0.0);
}

TEST(DeviceGroup, RejectsZeroDevices)
{
    EXPECT_THROW(DeviceGroup(0, 1024), InvalidArgument);
}

} // namespace
} // namespace buffalo::device
