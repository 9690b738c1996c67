// Tests for the benchmark's own helpers: order statistics, the byte oracle
// and the span log's self-time arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "oracle.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stf/task_flow.hpp"

namespace {

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(perfbench::median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({7}), 7.0);
  EXPECT_THROW((void)perfbench::median({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 100), 100.0);
  // rank 0.9 * 9 = 8.1: 90 + 0.1 * (100 - 90).
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 90), 91.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile({3, 1, 2}, 50), 2.0);
  EXPECT_THROW((void)perfbench::percentile(v, 101), std::invalid_argument);
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  using A = std::array<double, 3>;
  EXPECT_EQ(perfbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
            (A{2.75, 5.5, 8.25}));
  EXPECT_EQ(perfbench::quartiles({1, 2, 3, 4, 5}), (A{1.5, 3.0, 4.5}));
  EXPECT_EQ(perfbench::quartiles({3, 1, 4, 1, 5, 9, 2, 6}),
            (A{1.25, 3.5, 5.75}));
  EXPECT_EQ(perfbench::quartiles({10, 20, 30}), (A{10.0, 20.0, 30.0}));
  // Two samples: Python extrapolates past both ends.
  EXPECT_EQ(perfbench::quartiles({1, 2}), (A{0.75, 1.5, 2.25}));
  EXPECT_THROW((void)perfbench::quartiles({1}), std::invalid_argument);
}

struct Flow {
  rio::stf::TaskFlow flow;
  Flow() {
    (void)flow.create_data<std::uint64_t>("a", 4);
    (void)flow.create_data<std::uint64_t>("empty", 0);
    (void)flow.create_data<double>("b", 2);
  }
  [[nodiscard]] const rio::stf::DataRegistry& reg() const {
    return flow.registry();
  }
  unsigned char* bytes(rio::stf::DataId id) const {
    return static_cast<unsigned char*>(reg().raw(id));
  }
};

TEST(Oracle, SnapshotRestoreAndCompare) {
  Flow f;
  const perfbench::Snapshot initial = perfbench::snapshot(f.reg());
  ASSERT_EQ(initial.size(), 3u);
  EXPECT_EQ(initial[0].size(), 32u);
  EXPECT_FALSE(perfbench::first_mismatch(f.reg(), initial).has_value());

  f.bytes(2)[15] = 0x7f;
  EXPECT_EQ(perfbench::first_mismatch(f.reg(), initial), 2u);
  f.bytes(0)[0] = 0x01;
  EXPECT_EQ(perfbench::first_mismatch(f.reg(), initial), 0u);

  perfbench::restore(f.reg(), initial);
  EXPECT_FALSE(perfbench::first_mismatch(f.reg(), initial).has_value());
}

TEST(Oracle, ObjectCountMismatchIsReported) {
  Flow f;
  perfbench::Snapshot fewer = perfbench::snapshot(f.reg());
  fewer.pop_back();
  EXPECT_TRUE(perfbench::first_mismatch(f.reg(), fewer).has_value());
}

TEST(Oracle, SelfCheckCatchesOneFlippedByte) {
  Flow f;
  f.bytes(0)[3] = 0x42;
  const perfbench::Snapshot oracle = perfbench::snapshot(f.reg());
  EXPECT_TRUE(perfbench::self_check(f.reg(), oracle));
  // The flip is undone: the registry still matches afterwards.
  EXPECT_FALSE(perfbench::first_mismatch(f.reg(), oracle).has_value());
  EXPECT_EQ(f.bytes(0)[3], 0x42);

  // A registry that already differs cannot vouch for the gate.
  f.bytes(2)[0] ^= 0xff;
  EXPECT_FALSE(perfbench::self_check(f.reg(), oracle));
}

TEST(Spans, SelfTimeSubtractsChildren) {
  perfbench::SpanLog log(true);
  const std::uint32_t outer = log.open("outer");
  const std::uint32_t a = log.open("child");
  log.close(a);
  const std::uint32_t b = log.open("child");
  const std::uint32_t leaf = log.open("leaf");
  log.close(leaf);
  log.close(b);
  log.close(outer);

  const auto& s = log.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[a].parent, outer);
  EXPECT_EQ(s[leaf].parent, b);
  const std::vector<std::uint64_t> self = log.self_ns();
  const auto dur = [&](std::uint32_t i) { return s[i].end_ns - s[i].begin_ns; };
  EXPECT_EQ(self[outer], dur(outer) - dur(a) - dur(b));
  EXPECT_EQ(self[b], dur(b) - dur(leaf));
  EXPECT_EQ(self[leaf], dur(leaf));
  const auto by_name = log.by_name();
  EXPECT_EQ(by_name.at("child").first, dur(a) + dur(b));
}

TEST(Spans, DisabledLogRecordsNothing) {
  perfbench::SpanLog log(false);
  { const perfbench::SpanLog::Scope s(log, "x"); }
  EXPECT_TRUE(log.spans().empty());
}

}  // namespace
