/** @file Tests for DLMonitor: merge algorithm, association, caching. */

#include <gtest/gtest.h>

#include "dlmonitor/dlmonitor.h"
#include "framework/ops/op_library.h"

namespace dc::dlmon {
namespace {

struct Fixture {
    sim::SimContext ctx;
    sim::GpuRuntime runtime{ctx};
    pyrt::PyInterpreter interp{ctx.libraries()};
    std::unique_ptr<fw::TorchSession> torch;
    std::unique_ptr<DlMonitor> monitor;

    explicit Fixture(sim::GpuArch arch = sim::makeA100(),
                     bool cache = true)
    {
        ctx.addDevice(std::move(arch));
        torch = std::make_unique<fw::TorchSession>(ctx, runtime,
                                                   fw::TorchConfig{});
        DlMonitorOptions options;
        options.ctx = &ctx;
        options.runtime = &runtime;
        options.interp = &interp;
        options.torch = torch.get();
        options.enable_callpath_cache = cache;
        monitor = DlMonitor::init(options);
    }

    pyrt::PyScope
    pyFrame(const std::string &file, const std::string &fn, int line)
    {
        return pyrt::PyScope(ctx.currentThread().pyStack(),
                             ctx.currentThread().nativeStack(), interp,
                             {file, fn, line});
    }
};

TEST(Frame, LocationEqualityRules)
{
    // Python frames: file + line (the function name is not part of it).
    Frame p1 = Frame::python("a.py", "f", 10);
    Frame p2 = Frame::python("a.py", "g", 10);
    Frame p3 = Frame::python("a.py", "f", 11);
    EXPECT_TRUE(p1.sameLocation(p2));
    EXPECT_FALSE(p1.sameLocation(p3));
    EXPECT_EQ(p1.locationHash(), p2.locationHash());

    // Native frames: PC.
    EXPECT_TRUE(Frame::native(100).sameLocation(Frame::native(100)));
    EXPECT_FALSE(Frame::native(100).sameLocation(Frame::native(101)));

    // Operators: name. Kinds never match across each other.
    EXPECT_TRUE(Frame::op("aten::x").sameLocation(Frame::op("aten::x")));
    EXPECT_FALSE(Frame::op("aten::x").sameLocation(Frame::kernel(
        "aten::x")));
}

TEST(DlMonitor, UnifiedPathHasAllLayers)
{
    Fixture fx;
    CallPath captured;
    fx.monitor->callbackRegister(
        Domain::kGpu, GpuCallback([&](const GpuCallbackInfo &info) {
            if (info.api == sim::GpuApiKind::kKernelLaunch &&
                info.phase == sim::ApiPhase::kEnter && captured.empty()) {
                captured = fx.monitor->callpathGet();
            }
        }));

    auto main_frame = fx.pyFrame("train.py", "main", 1);
    auto fwd_frame = fx.pyFrame("model.py", "forward", 33);
    fw::Tensor x = fx.torch->input({16, 64});
    fw::Tensor w = fx.torch->parameter({64, 64});
    fx.torch->run(fw::ops::linear(fx.torch->opEnv(), x, w));

    ASSERT_FALSE(captured.empty());
    // Root-to-leaf: python, python, operator, native..., gpu api, kernel.
    EXPECT_EQ(captured.front().kind, FrameKind::kPython);
    EXPECT_EQ(captured.front().file, "train.py");
    EXPECT_EQ(captured.back().kind, FrameKind::kKernel);

    bool has_operator = false;
    bool has_native = false;
    bool has_api = false;
    int op_index = -1;
    int native_index = -1;
    for (std::size_t i = 0; i < captured.size(); ++i) {
        if (captured[i].kind == FrameKind::kOperator) {
            has_operator = true;
            op_index = static_cast<int>(i);
            EXPECT_EQ(captured[i].name, "aten::linear");
        }
        if (captured[i].kind == FrameKind::kNative && native_index < 0) {
            has_native = true;
            native_index = static_cast<int>(i);
        }
        if (captured[i].kind == FrameKind::kGpuApi) {
            has_api = true;
            EXPECT_EQ(captured[i].name, "cudaLaunchKernel");
        }
    }
    EXPECT_TRUE(has_operator);
    EXPECT_TRUE(has_native);
    EXPECT_TRUE(has_api);
    // Operator frame sits above the native frames of its implementation
    // (Figure 3b ordering).
    EXPECT_LT(op_index, native_index);
}

TEST(DlMonitor, FlagsSelectSources)
{
    Fixture fx;
    CallPath native_only;
    CallPath no_python;
    fx.monitor->callbackRegister(
        Domain::kGpu, GpuCallback([&](const GpuCallbackInfo &info) {
            if (info.api == sim::GpuApiKind::kKernelLaunch &&
                info.phase == sim::ApiPhase::kEnter &&
                native_only.empty()) {
                native_only = fx.monitor->callpathGet(
                    kCallPathNative | kCallPathGpuKernel);
                no_python = fx.monitor->callpathGet(
                    kCallPathFramework | kCallPathNative |
                    kCallPathGpuKernel);
            }
        }));

    auto frame = fx.pyFrame("train.py", "main", 1);
    fw::Tensor x = fx.torch->input({16, 64});
    fx.torch->run(fw::ops::relu(fx.torch->opEnv(), x));

    for (const Frame &f : native_only) {
        EXPECT_NE(f.kind, FrameKind::kPython);
        EXPECT_NE(f.kind, FrameKind::kOperator);
    }
    bool has_op = false;
    for (const Frame &f : no_python) {
        EXPECT_NE(f.kind, FrameKind::kPython);
        has_op |= f.kind == FrameKind::kOperator;
    }
    EXPECT_TRUE(has_op);
}

TEST(DlMonitor, ForwardBackwardAssociation)
{
    Fixture fx;
    CallPath backward_path;
    fx.monitor->callbackRegister(
        Domain::kGpu, GpuCallback([&](const GpuCallbackInfo &info) {
            if (info.api != sim::GpuApiKind::kKernelLaunch ||
                info.phase != sim::ApiPhase::kEnter) {
                return;
            }
            if (info.kernel != nullptr &&
                info.kernel->name == "indexing_backward_kernel") {
                backward_path = fx.monitor->callpathGet();
            }
        }));

    {
        auto main_frame = fx.pyFrame("train.py", "main", 1);
        auto lookup_frame = fx.pyFrame("model.py", "sparse_lookup", 88);
        fw::Tensor table = fx.torch->parameter({1 << 16, 64});
        fx.torch->run(fw::ops::index(fx.torch->opEnv(), table, 512, 8.0));
    }
    fx.torch->backward(); // runs on the engine thread, no python there

    ASSERT_FALSE(backward_path.empty());
    // The backward kernel's path adopts the forward Python context.
    ASSERT_GE(backward_path.size(), 3u);
    EXPECT_EQ(backward_path[0].kind, FrameKind::kPython);
    EXPECT_EQ(backward_path[0].file, "train.py");
    EXPECT_EQ(backward_path[1].file, "model.py");
    bool has_forward_op = false;
    bool has_backward_op = false;
    for (const Frame &f : backward_path) {
        if (f.kind == FrameKind::kOperator) {
            has_forward_op |= f.name == "aten::index";
            has_backward_op |= f.name == "IndexBackward0";
        }
    }
    EXPECT_TRUE(has_forward_op);
    EXPECT_TRUE(has_backward_op);
}

TEST(DlMonitor, CacheProducesIdenticalPaths)
{
    std::vector<CallPath> cached_paths;
    std::vector<CallPath> uncached_paths;
    for (bool cache : {true, false}) {
        Fixture fx(sim::makeA100(), cache);
        auto &sink = cache ? cached_paths : uncached_paths;
        fx.monitor->callbackRegister(
            Domain::kGpu, GpuCallback([&](const GpuCallbackInfo &info) {
                if (info.api == sim::GpuApiKind::kKernelLaunch &&
                    info.phase == sim::ApiPhase::kEnter) {
                    sink.push_back(fx.monitor->callpathGet());
                }
            }));
        auto frame = fx.pyFrame("train.py", "main", 7);
        fw::Tensor x = fx.torch->input({2, 16, 32, 32});
        x.format = fw::MemoryFormat::kChannelsFirst;
        fw::Tensor w = fx.torch->parameter({16, 16, 3, 3});
        fx.torch->run(fw::ops::conv2d(fx.torch->opEnv(), x, w));
        fx.torch->backward();
    }
    ASSERT_EQ(cached_paths.size(), uncached_paths.size());
    ASSERT_GT(cached_paths.size(), 2u);
    for (std::size_t i = 0; i < cached_paths.size(); ++i) {
        ASSERT_EQ(cached_paths[i].size(), uncached_paths[i].size())
            << "path " << i;
        for (std::size_t f = 0; f < cached_paths[i].size(); ++f) {
            EXPECT_TRUE(cached_paths[i][f].sameLocation(
                uncached_paths[i][f]))
                << "path " << i << " frame " << f << ": "
                << cached_paths[i][f].label() << " vs "
                << uncached_paths[i][f].label();
        }
    }
}

TEST(DlMonitor, CacheReducesUnwindSteps)
{
    DlMonitorStats with_cache;
    DlMonitorStats without_cache;
    for (bool cache : {true, false}) {
        Fixture fx(sim::makeA100(), cache);
        fx.monitor->callbackRegister(
            Domain::kGpu, GpuCallback([&](const GpuCallbackInfo &info) {
                if (info.api == sim::GpuApiKind::kKernelLaunch &&
                    info.phase == sim::ApiPhase::kEnter) {
                    fx.monitor->callpathGet();
                }
            }));
        auto frame = fx.pyFrame("train.py", "main", 7);
        fw::Tensor x = fx.torch->input({4, 16, 16, 16});
        fw::Tensor w = fx.torch->parameter({16, 16, 3, 3});
        for (int i = 0; i < 10; ++i)
            fx.torch->run(fw::ops::conv2d(fx.torch->opEnv(), x, w));
        (cache ? with_cache : without_cache) = fx.monitor->stats();
    }
    EXPECT_LT(with_cache.native_steps, without_cache.native_steps);
    EXPECT_GT(with_cache.cache_hits, 0u);
    EXPECT_EQ(without_cache.cache_hits, 0u);
}

TEST(DlMonitor, ShadowStackNestsAndUnwinds)
{
    Fixture fx;
    std::size_t max_depth = 0;
    fx.monitor->callbackRegister(
        Domain::kFramework,
        FrameworkCallback([&](const OpCallbackInfo &info) {
            if (info.type == FwEventType::kOperator)
                max_depth = std::max(
                    max_depth, fx.monitor->shadowDepth(info.thread));
        }));
    fw::Tensor x = fx.torch->input({16, 64});
    fx.torch->run(fw::ops::relu(fx.torch->opEnv(), x));
    EXPECT_EQ(max_depth, 1u);
    EXPECT_EQ(fx.monitor->shadowDepth(0), 0u);
}

TEST(DlMonitor, MemoryEventsReachFrameworkDomain)
{
    Fixture fx;
    std::uint64_t alloc_bytes = 0;
    fx.monitor->callbackRegister(
        Domain::kFramework,
        FrameworkCallback([&](const OpCallbackInfo &info) {
            if (info.type == FwEventType::kMemory &&
                info.alloc_delta > 0) {
                alloc_bytes += info.bytes;
            }
        }));
    fx.torch->parameter({1024, 1024});
    EXPECT_EQ(alloc_bytes, 1024u * 1024u * 4u);
}

TEST(DlMonitor, AuditConfigDrivesCustomAccelerator)
{
    sim::SimContext ctx;
    ctx.addDevice(sim::makeCustomAccelerator());
    sim::GpuRuntime runtime(ctx);
    pyrt::PyInterpreter interp(ctx.libraries());
    fw::TorchSession torch(ctx, runtime, {});

    DlMonitorOptions options;
    options.ctx = &ctx;
    options.runtime = &runtime;
    options.interp = &interp;
    options.torch = &torch;
    options.audit_config_text =
        "libnpu_runtime_sim.so npuLaunchKernel kernel_launch\n";
    auto monitor = DlMonitor::init(options);

    int launches = 0;
    monitor->callbackRegister(
        Domain::kGpu, GpuCallback([&](const GpuCallbackInfo &info) {
            if (info.api == sim::GpuApiKind::kKernelLaunch &&
                info.phase == sim::ApiPhase::kEnter) {
                ++launches;
            }
        }));
    fw::Tensor x = torch.input({16, 64});
    torch.run(fw::ops::relu(torch.opEnv(), x));
    EXPECT_EQ(launches, 1);
}

TEST(DlMonitor, RoctracerBackendOnAmd)
{
    Fixture fx(sim::makeMi250());
    int launches = 0;
    fx.monitor->callbackRegister(
        Domain::kGpu, GpuCallback([&](const GpuCallbackInfo &info) {
            if (info.api == sim::GpuApiKind::kKernelLaunch &&
                info.phase == sim::ApiPhase::kEnter) {
                ++launches;
                EXPECT_EQ(info.function_name, "hipLaunchKernel");
            }
        }));
    fw::Tensor x = fx.torch->input({16, 64});
    fx.torch->run(fw::ops::relu(fx.torch->opEnv(), x));
    EXPECT_EQ(launches, 1);
}

TEST(DlMonitor, GlobalCApiLifecycle)
{
    sim::SimContext ctx;
    ctx.addDevice(sim::makeA100());
    sim::GpuRuntime runtime(ctx);
    pyrt::PyInterpreter interp(ctx.libraries());
    fw::TorchSession torch(ctx, runtime, {});

    DlMonitorOptions options;
    options.ctx = &ctx;
    options.runtime = &runtime;
    options.interp = &interp;
    options.torch = &torch;
    DlMonitor *monitor = dlmonitorInit(options);
    EXPECT_EQ(dlmonitorInstance(), monitor);
    const CallPath path = dlmonitorCallpathGet();
    EXPECT_TRUE(path.empty()); // no python frames, empty native stack
    dlmonitorFinalize();
    EXPECT_EQ(dlmonitorInstance(), nullptr);
}

} // namespace
} // namespace dc::dlmon
