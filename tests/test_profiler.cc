/** @file Tests for the CCT, metrics, profiler attribution, and the DB. */

#include <gtest/gtest.h>

#include "dlmonitor/dlmonitor.h"
#include "framework/ops/op_library.h"
#include "profiler/profile_db.h"
#include "profiler/profiler.h"

namespace dc::prof {
namespace {

using dlmon::Frame;

TEST(Cct, InsertCollapsesSharedPrefixes)
{
    Cct cct;
    std::size_t created = 0;
    cct.insert({Frame::python("a.py", "f", 1), Frame::op("aten::x")},
               &created);
    EXPECT_EQ(created, 2u);
    cct.insert({Frame::python("a.py", "f", 1), Frame::op("aten::y")},
               &created);
    EXPECT_EQ(created, 1u);
    cct.insert({Frame::python("a.py", "f", 1), Frame::op("aten::x")},
               &created);
    EXPECT_EQ(created, 0u);
    EXPECT_EQ(cct.nodeCount(), 4u); // root + python + 2 ops
}

TEST(Cct, MetricPropagationIsInclusive)
{
    Cct cct;
    CctNode *leaf_a =
        cct.insert({Frame::python("a.py", "f", 1), Frame::op("x"),
                    Frame::kernel("k1")});
    CctNode *leaf_b =
        cct.insert({Frame::python("a.py", "f", 1), Frame::op("y"),
                    Frame::kernel("k2")});
    cct.addMetric(leaf_a, 0, 10.0);
    cct.addMetric(leaf_a, 0, 20.0);
    cct.addMetric(leaf_b, 0, 5.0);

    EXPECT_DOUBLE_EQ(cct.root().metric(0).sum(), 35.0);
    EXPECT_EQ(cct.root().metric(0).count(), 3u);
    // The shared python node carries both children's contributions.
    const CctNode *python =
        cct.root().findChild(Frame::python("a.py", "f", 1));
    ASSERT_NE(python, nullptr);
    EXPECT_DOUBLE_EQ(python->findMetric(0)->sum(), 35.0);
    // Non-propagated metric stays local.
    cct.addMetric(leaf_a, 1, 7.0, /*propagate=*/false);
    EXPECT_EQ(cct.root().findMetric(1), nullptr);
}

/** Property: root sum always equals the sum of all leaf additions. */
class CctConservation : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CctConservation, RootEqualsTotal)
{
    Rng rng(GetParam());
    Cct cct;
    double total = 0.0;
    for (int i = 0; i < 300; ++i) {
        dlmon::CallPath path;
        const int depth = 1 + static_cast<int>(rng.below(6));
        for (int d = 0; d < depth; ++d) {
            path.push_back(Frame::op(
                "op" + std::to_string(rng.below(4)) + "_" +
                std::to_string(d)));
        }
        const double value = rng.uniform(0.0, 100.0);
        total += value;
        cct.addMetric(cct.insert(path), 0, value);
    }
    EXPECT_NEAR(cct.root().metric(0).sum(), total, 1e-6);
    EXPECT_EQ(cct.root().metric(0).count(), 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CctConservation,
                         ::testing::Values(11, 22, 33, 44));

TEST(Cct, OverDeepPathTruncatesInsteadOfAborting)
{
    Cct cct;
    dlmon::CallPath path;
    for (int i = 0; i < Cct::kMaxDepth + 50; ++i)
        path.push_back(Frame::op("f" + std::to_string(i)));
    CctNode *leaf = cct.insert(path);
    EXPECT_EQ(leaf->depth(), Cct::kMaxDepth);
    EXPECT_EQ(cct.nodeCount(),
              static_cast<std::size_t>(Cct::kMaxDepth) + 1);
    // Metrics still conserve at the truncated leaf.
    cct.addMetric(leaf, 0, 5.0);
    EXPECT_DOUBLE_EQ(cct.root().metric(0).sum(), 5.0);
    // attachChild at the cap degrades to the parent, never aborts.
    EXPECT_EQ(cct.attachChild(leaf, Frame::op("over")), leaf);
}

TEST(Cct, NonFiniteSamplesDroppedNotStored)
{
    Cct cct;
    CctNode *leaf = cct.insert({Frame::op("x")});
    cct.addMetric(leaf, 0, 10.0);
    EXPECT_EQ(cct.addMetric(leaf, 0,
                            std::numeric_limits<double>::infinity()),
              0u);
    EXPECT_EQ(cct.addMetric(leaf, 0,
                            std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_DOUBLE_EQ(cct.root().metric(0).sum(), 10.0);
    EXPECT_EQ(cct.root().metric(0).count(), 1u);
}

TEST(Cct, MemoryChargedToTracker)
{
    HostMemoryTracker tracker;
    {
        Cct cct(&tracker);
        cct.insert({Frame::op("a"), Frame::op("b")});
        EXPECT_GT(tracker.liveBytes("profiler.cct"), 0u);
        EXPECT_EQ(tracker.liveBytes("profiler.cct"), cct.memoryBytes());
        cct.detachTracker();
        EXPECT_EQ(tracker.liveBytes("profiler.cct"), 0u);
    }
}

TEST(MetricRegistry, InternIsStable)
{
    MetricRegistry registry;
    const int a = registry.intern("gpu_time_ns");
    const int b = registry.intern("cpu_time_ns");
    EXPECT_NE(a, b);
    EXPECT_EQ(registry.intern("gpu_time_ns"), a);
    EXPECT_EQ(registry.find("cpu_time_ns"), b);
    EXPECT_EQ(registry.find("missing"), -1);
    EXPECT_EQ(registry.name(a), "gpu_time_ns");
}

struct ProfilerFixture {
    sim::SimContext ctx;
    sim::GpuRuntime runtime{ctx};
    pyrt::PyInterpreter interp{ctx.libraries()};
    std::unique_ptr<fw::TorchSession> torch;
    std::unique_ptr<dlmon::DlMonitor> monitor;

    explicit ProfilerFixture(sim::GpuArch arch = sim::makeA100())
    {
        ctx.addDevice(std::move(arch));
        torch = std::make_unique<fw::TorchSession>(ctx, runtime,
                                                   fw::TorchConfig{});
        dlmon::DlMonitorOptions options;
        options.ctx = &ctx;
        options.runtime = &runtime;
        options.interp = &interp;
        options.torch = torch.get();
        monitor = dlmon::DlMonitor::init(options);
    }
};

TEST(Profiler, AttributesGpuTimeToKernelNodes)
{
    ProfilerFixture fx;
    Profiler profiler(*fx.monitor, {});

    pyrt::PyScope frame(fx.ctx.currentThread().pyStack(),
                        fx.ctx.currentThread().nativeStack(), fx.interp,
                        {"train.py", "main", 1});
    fw::Tensor x = fx.torch->input({64, 256});
    fw::Tensor w = fx.torch->parameter({256, 256});
    for (int i = 0; i < 3; ++i)
        fx.torch->run(fw::ops::linear(fx.torch->opEnv(), x, w));
    fx.torch->synchronize();

    auto db = profiler.finish();
    const double total_gpu =
        db->cct().root().findMetric(db->metrics().find("gpu_time_ns"))
            ->sum();
    EXPECT_DOUBLE_EQ(total_gpu,
                     static_cast<double>(
                         fx.ctx.device(0).totalKernelTime()));
    const double kernels =
        db->cct().root().findMetric(db->metrics().find("kernel_count"))
            ->sum();
    EXPECT_DOUBLE_EQ(kernels, 3.0);

    // The kernel node aggregated 3 samples of the same kernel.
    bool found = false;
    db->cct().visit([&](const CctNode &node) {
        if (node.frame().kind == dlmon::FrameKind::kKernel) {
            found = true;
            EXPECT_EQ(node.findMetric(db->metrics().find("gpu_time_ns"))
                          ->count(),
                      3u);
        }
    });
    EXPECT_TRUE(found);
}

TEST(Profiler, PcSamplingAddsInstructionFrames)
{
    ProfilerFixture fx;
    ProfilerConfig config;
    config.pc_sampling = true;
    Profiler profiler(*fx.monitor, config);

    fw::Tensor x = fx.torch->input({1 << 20});
    fx.torch->run(fw::ops::relu(fx.torch->opEnv(), x));
    fx.torch->synchronize();

    auto db = profiler.finish();
    std::size_t instruction_nodes = 0;
    db->cct().visit([&](const CctNode &node) {
        if (node.frame().kind == dlmon::FrameKind::kInstruction)
            ++instruction_nodes;
    });
    EXPECT_GT(instruction_nodes, 0u);
    EXPECT_GT(profiler.stats().pc_samples_consumed, 0u);
}

TEST(Profiler, CpuSamplingAttributesIntervals)
{
    ProfilerFixture fx;
    ProfilerConfig config;
    config.cpu_sampling = true;
    config.cpu_sample_period_ns = 50'000;
    Profiler profiler(*fx.monitor, config);

    pyrt::PyScope frame(fx.ctx.currentThread().pyStack(),
                        fx.ctx.currentThread().nativeStack(), fx.interp,
                        {"train.py", "busy_loop", 9});
    fx.ctx.advanceCpu(1'000'000);

    auto db = profiler.finish();
    const int cpu_time = db->metrics().find("cpu_time_ns");
    ASSERT_GE(cpu_time, 0);
    const RunningStat *stat = db->cct().root().findMetric(cpu_time);
    ASSERT_NE(stat, nullptr);
    EXPECT_GE(stat->sum(), 900'000.0);
}

TEST(Profiler, OverheadIsCharged)
{
    ProfilerFixture fx;
    Profiler profiler(*fx.monitor, {});
    fw::Tensor x = fx.torch->input({1 << 16});
    fx.torch->run(fw::ops::relu(fx.torch->opEnv(), x));
    fx.torch->synchronize();
    EXPECT_GT(fx.ctx.profilingOverheadTotal(), 0);
}

TEST(ProfileDb, SerializationRoundTrip)
{
    auto cct = std::make_unique<Cct>();
    MetricRegistry metrics;
    const int gpu = metrics.intern("gpu_time_ns");
    CctNode *leaf = cct->insert(
        {Frame::python("train.py", "main", 3), Frame::op("aten::x"),
         Frame::kernel("k \"quoted\"\t")});
    cct->addMetric(leaf, gpu, 12.5);
    cct->addMetric(leaf, gpu, 7.5);

    ProfileDb db(std::move(cct), std::move(metrics),
                 {{"device", "A100 SXM 80GB"}});
    const std::string text = db.serialize();

    auto loaded = ProfileDb::deserialize(text);
    EXPECT_EQ(loaded->metadata().at("device"), "A100 SXM 80GB");
    EXPECT_EQ(loaded->cct().nodeCount(), db.cct().nodeCount());
    const int loaded_gpu = loaded->metrics().find("gpu_time_ns");
    const RunningStat *stat =
        loaded->cct().root().findMetric(loaded_gpu);
    ASSERT_NE(stat, nullptr);
    EXPECT_DOUBLE_EQ(stat->sum(), 20.0);
    EXPECT_EQ(stat->count(), 2u);
    EXPECT_DOUBLE_EQ(stat->min(), 7.5);
    // Byte-identical re-serialization.
    EXPECT_EQ(loaded->serialize(), text);
}

TEST(ProfileDb, RoundTripMetadataWithTabsAndNewlines)
{
    auto cct = std::make_unique<Cct>();
    cct->insert({Frame::op("a")});
    ProfileDb db(std::move(cct), MetricRegistry{},
                 {{"cmd\tline", "python\ttrain.py\n--fast\\mode"},
                  {"note\n", "\\t is not a tab"}});
    auto loaded = ProfileDb::deserialize(db.serialize());
    EXPECT_EQ(loaded->metadata(), db.metadata());
    EXPECT_EQ(loaded->serialize(), db.serialize());
}

TEST(ProfileDb, RoundTripEmptyCct)
{
    ProfileDb db(std::make_unique<Cct>(), MetricRegistry{}, {});
    auto loaded = ProfileDb::deserialize(db.serialize());
    EXPECT_EQ(loaded->cct().nodeCount(), 1u);
    EXPECT_EQ(loaded->cct().root().childCount(), 0u);
    EXPECT_EQ(loaded->serialize(), db.serialize());
}

TEST(ProfileDb, RoundTripMultiMetricNodes)
{
    auto cct = std::make_unique<Cct>();
    MetricRegistry metrics;
    const int gpu = metrics.intern("gpu_time_ns");
    const int count = metrics.intern("kernel_count");
    const int occ = metrics.intern("occupancy");
    CctNode *leaf = cct->insert({Frame::op("x"), Frame::kernel("k")});
    cct->addMetric(leaf, gpu, 100.0);
    cct->addMetric(leaf, gpu, 300.0);
    cct->addMetric(leaf, count, 2.0);
    cct->addMetric(leaf, occ, 0.625, /*propagate=*/false);

    ProfileDb db(std::move(cct), std::move(metrics), {});
    auto loaded = ProfileDb::deserialize(db.serialize());
    const CctNode *op = loaded->cct().root().findChild(Frame::op("x"));
    ASSERT_NE(op, nullptr);
    const CctNode *kernel = op->findChild(Frame::kernel("k"));
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->metrics().size(), 3u);
    EXPECT_DOUBLE_EQ(kernel->findMetric(gpu)->sum(), 400.0);
    EXPECT_DOUBLE_EQ(kernel->findMetric(gpu)->min(), 100.0);
    EXPECT_DOUBLE_EQ(kernel->findMetric(occ)->mean(), 0.625);
    EXPECT_EQ(loaded->cct().root().findMetric(occ), nullptr);
    EXPECT_EQ(loaded->serialize(), db.serialize());
}

/**
 * One malformed input. `label` is what the case prints as, so its test
 * name is stable: a pair of C strings prints its pointer values, which
 * address-space randomization changes on every run.
 */
struct MalformedCase
{
    const char *label;
    const char *text;
    const char *expected_error;
};

void PrintTo(const MalformedCase &c, std::ostream *os)
{
    *os << c.label;
}

/** Malformed inputs are rejected with a diagnostic, not UB. */
class ProfileDbMalformed : public ::testing::TestWithParam<MalformedCase>
{
};

TEST_P(ProfileDbMalformed, TryDeserializeRejects)
{
    const MalformedCase &c = GetParam();
    std::string error;
    EXPECT_EQ(ProfileDb::tryDeserialize(c.text, &error), nullptr);
    EXPECT_NE(error.find(c.expected_error), std::string::npos)
        << "error was: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Corrupt, ProfileDbMalformed,
    ::testing::Values(
        MalformedCase{"BadHeader",
                      "not a profile", "bad profile header"},
        MalformedCase{"NonNumericLine",
                      "# deepcontext profile v1\nnode\t0\t-1\t1\tf\tg\tx\t0"
                      "\tn\t-1\n",
                      "non-numeric line"},
        MalformedCase{"DanglingParent",
                      "# deepcontext profile v1\nnode\t0\t-1\t1\tf\tg\t0\t0"
                      "\tn\t-1\nnode\t1\t7\t1\tf\tg\t0\t0\tn\t-1\n",
                      "dangling parent id 7"},
        MalformedCase{"DuplicateNodeId",
                      "# deepcontext profile v1\nnode\t0\t-1\t1\tf\tg\t0\t0"
                      "\tn\t-1\nnode\t0\t0\t1\tf\tg\t0\t0\tn\t-1\n",
                      "duplicate node id 0"},
        MalformedCase{"SecondRoot",
                      "# deepcontext profile v1\nnode\t0\t-1\t1\tf\tg\t0\t0"
                      "\tn\t-1\nnode\t1\t-1\t1\tf\tg\t0\t0\tn\t-1\n",
                      "only the first node may be the root"},
        MalformedCase{"BadFrameKind",
                      "# deepcontext profile v1\nnode\t0\t-1\t99\tf\tg\t0\t0"
                      "\tn\t-1\n",
                      "bad frame kind 99"},
        MalformedCase{"TruncatedNode",
                      "# deepcontext profile v1\nnode\t0\t-1\t1\tf\tg\t0\n",
                      "truncated node record"},
        MalformedCase{"MetaMissingValue",
                      "# deepcontext profile v1\nmeta\tkey\n",
                      "malformed meta record"},
        MalformedCase{"MetaExtraField",
                      "# deepcontext profile v1\nmeta\tcmd\tpython\t--lr\n",
                      "malformed meta record"},
        MalformedCase{"MetricExtraField",
                      "# deepcontext profile v1\nmetric\tgpu\textra\n",
                      "malformed metric record"},
        MalformedCase{"UnknownMetricId",
                      "# deepcontext profile v1\nnode\t0\t-1\t1\tf\tg\t0\t0"
                      "\tn\t-1\tm:0:1:2:3:4:5:6\n",
                      "metric id 0 not in the metric table"},
        MalformedCase{"NonNumericMetricCount",
                      "# deepcontext profile v1\nmetric\tgpu\nnode\t0\t-1\t1"
                      "\tf\tg\t0\t0\tn\t-1\tm:0:xx:2:3:4:5:6\n",
                      "non-numeric metric count"},
        MalformedCase{"MalformedMetricEntry",
                      "# deepcontext profile v1\nmetric\tgpu\nnode\t0\t-1\t1"
                      "\tf\tg\t0\t0\tn\t-1\tm:0:5:1:23:3:4:5:6\n",
                      "malformed metric entry"},
        MalformedCase{"NegativeM2",
                      "# deepcontext profile v1\nmetric\tgpu\nnode\t0\t-1\t1"
                      "\tf\tg\t0\t0\tn\t-1\tm:0:2:10:1:9:5:-1e300\n",
                      "inconsistent metric stat"}, // negative m2
        MalformedCase{"MinAboveMax",
                      "# deepcontext profile v1\nmetric\tgpu\nnode\t0\t-1\t1"
                      "\tf\tg\t0\t0\tn\t-1\tm:0:2:10:9:1:5:0\n",
                      "inconsistent metric stat"}, // min > max
        MalformedCase{"OverflowingStat",
                      "# deepcontext profile v1\nmetric\tgpu\nnode\t0\t-1\t1"
                      "\tf\tg\t0\t0\tn\t-1"
                      "\tm:0:1:1e308:1e308:1e308:1e308:0\n",
                      // Finite but extreme: would overflow a later
                      // parallel-Welford merge to inf.
                      "inconsistent metric stat"},
        MalformedCase{"NonzeroFieldsAtCountZero",
                      "# deepcontext profile v1\nmetric\tgpu\nnode\t0\t-1\t1"
                      "\tf\tg\t0\t0\tn\t-1\tm:0:0:10:0:0:0:0\n",
                      "nonzero metric fields with count 0"},
        MalformedCase{"DuplicateMetricId",
                      "# deepcontext profile v1\nmetric\tgpu\nnode\t0\t-1\t1"
                      "\tf\tg\t0\t0\tn\t-1\tm:0:1:10:10:10:10:0"
                      "\tm:0:1:99:99:99:99:0\n",
                      "duplicate metric id 0"},
        MalformedCase{"DuplicateMetricName",
                      "# deepcontext profile v1\nmetric\tgpu\nmetric\tgpu\n"
                      "metric\tmem\n",
                      "duplicate metric name 'gpu'"},
        MalformedCase{"DuplicateMetaKey",
                      "# deepcontext profile v1\nmeta\tframework\tPyTorch\n"
                      "meta\tframework\tJAX\n",
                      "duplicate meta key 'framework'"}));

TEST(ProfileDb, RejectsNonFiniteMetricValues)
{
    // An inf/nan stat would poison every fleet aggregate it merges into.
    for (const char *bad : {"nan", "inf", "-inf"}) {
        const std::string text =
            std::string("# deepcontext profile v1\nmetric\tgpu\n"
                        "node\t0\t-1\t1\tf\tg\t0\t0\tn\t-1\tm:0:1:") +
            bad + ":0:0:0:0\n";
        std::string error;
        EXPECT_EQ(ProfileDb::tryDeserialize(text, &error), nullptr);
        EXPECT_NE(error.find("non-numeric metric sum"),
                  std::string::npos)
            << "input " << bad << ", error was: " << error;
    }
}

TEST(ProfileDb, RejectsAliasedSiblingFrames)
{
    // Two sibling records whose frames unify under sameLocation would
    // map to one CctNode, and the second record's metrics would clobber
    // the first's. The serializer never emits this; reject it.
    const std::string text =
        "# deepcontext profile v1\nmetric\tgpu\n"
        "node\t0\t-1\t1\tf\tg\t0\t0\tn\t-1\n"
        "node\t1\t0\t4\tf\tg\t0\t0\tk\t-1\tm:0:1:10:10:10:10:0\n"
        "node\t2\t0\t4\tf\tg\t0\t0\tk\t-1\tm:0:1:99:99:99:99:0\n";
    std::string error;
    EXPECT_EQ(ProfileDb::tryDeserialize(text, &error), nullptr);
    EXPECT_NE(error.find("duplicate sibling frame"), std::string::npos)
        << "error was: " << error;
}

TEST(ProfileDb, RejectsAdversarialDepth)
{
    // A parent chain deeper than any real call path must be rejected at
    // parse time: the tree consumers (merge/visit/serialize) recurse per
    // level, so unbounded depth is a stack-overflow DoS on the service.
    std::ostringstream text;
    text << "# deepcontext profile v1\n";
    text << "node\t0\t-1\t1\tf\tg\t0\t0\tn\t-1\n";
    for (int id = 1; id <= 50'000; ++id) {
        text << "node\t" << id << "\t" << (id - 1)
             << "\t1\tf\tg\t0\t0\tn\t-1\n";
    }
    std::string error;
    EXPECT_EQ(ProfileDb::tryDeserialize(text.str(), &error), nullptr);
    EXPECT_NE(error.find("exceeds max depth"), std::string::npos)
        << "error was: " << error;
}

TEST(ProfileDb, DeserializePanicsOnMalformedInput)
{
    EXPECT_DEATH(ProfileDb::deserialize("garbage"),
                 "malformed profile: .*bad profile header");
}

TEST(ProfileDb, TryDeserializeAcceptsValidText)
{
    auto cct = std::make_unique<Cct>();
    cct->insert({Frame::op("a")});
    ProfileDb db(std::move(cct), MetricRegistry{}, {{"k", "v"}});
    std::string error = "stale";
    auto loaded = ProfileDb::tryDeserialize(db.serialize(), &error);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(loaded->metadata().at("k"), "v");
}

TEST(ProfileDb, SaveLoadFile)
{
    auto cct = std::make_unique<Cct>();
    cct->insert({Frame::op("a")});
    ProfileDb db(std::move(cct), MetricRegistry{}, {});
    const std::string path = ::testing::TempDir() + "/profile.dcp";
    const std::uint64_t bytes = db.save(path);
    EXPECT_GT(bytes, 0u);
    auto loaded = ProfileDb::load(path);
    EXPECT_EQ(loaded->cct().nodeCount(), 2u);
}

} // namespace
} // namespace dc::prof
