// Unit tests for src/common: vector math, bounding boxes, RNG, status,
// CSV, statistics, Morton codes and logging.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "common/aabb.hpp"
#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/morton.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/vec3.hpp"

namespace arvis {
namespace {

// ---------------------------------------------------------------- Vec3f ----

TEST(Vec3Test, ArithmeticOperators) {
  const Vec3f a{1, 2, 3};
  const Vec3f b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3f{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3f{3, 3, 3}));
  EXPECT_EQ(a * 2.0F, (Vec3f{2, 4, 6}));
  EXPECT_EQ(2.0F * a, (Vec3f{2, 4, 6}));
  EXPECT_EQ(b / 2.0F, (Vec3f{2, 2.5F, 3}));
  EXPECT_EQ(-a, (Vec3f{-1, -2, -3}));
}

TEST(Vec3Test, DotAndCross) {
  EXPECT_FLOAT_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0F);
  EXPECT_EQ(cross({1, 0, 0}, {0, 1, 0}), (Vec3f{0, 0, 1}));
  EXPECT_EQ(cross({0, 1, 0}, {1, 0, 0}), (Vec3f{0, 0, -1}));
  // Cross product is perpendicular to both inputs.
  const Vec3f c = cross({1, 2, 3}, {-2, 1, 4});
  EXPECT_NEAR(dot(c, {1, 2, 3}), 0.0F, 1e-5F);
  EXPECT_NEAR(dot(c, {-2, 1, 4}), 0.0F, 1e-5F);
}

TEST(Vec3Test, LengthAndDistance) {
  EXPECT_FLOAT_EQ(length({3, 4, 0}), 5.0F);
  EXPECT_FLOAT_EQ(length_squared({3, 4, 0}), 25.0F);
  EXPECT_FLOAT_EQ(distance({1, 1, 1}, {4, 5, 1}), 5.0F);
}

TEST(Vec3Test, NormalizedHandlesZeroVector) {
  const Vec3f unit = normalized({2, 0, 0});
  EXPECT_FLOAT_EQ(unit.x, 1.0F);
  const Vec3f zero = normalized({0, 0, 0});
  EXPECT_EQ(zero, (Vec3f{0, 0, 0}));  // unchanged, no NaN
}

TEST(Vec3Test, MinMaxLerp) {
  EXPECT_EQ(min({1, 5, 3}, {2, 4, 3}), (Vec3f{1, 4, 3}));
  EXPECT_EQ(max({1, 5, 3}, {2, 4, 3}), (Vec3f{2, 5, 3}));
  EXPECT_EQ(lerp({0, 0, 0}, {2, 4, 6}, 0.5F), (Vec3f{1, 2, 3}));
  EXPECT_EQ(lerp({1, 1, 1}, {2, 2, 2}, 0.0F), (Vec3f{1, 1, 1}));
  EXPECT_EQ(lerp({1, 1, 1}, {2, 2, 2}, 1.0F), (Vec3f{2, 2, 2}));
}

TEST(Vec3Test, IndexOperator) {
  const Vec3f v{7, 8, 9};
  EXPECT_FLOAT_EQ(v[0], 7.0F);
  EXPECT_FLOAT_EQ(v[1], 8.0F);
  EXPECT_FLOAT_EQ(v[2], 9.0F);
}

// ----------------------------------------------------------------- Aabb ----

TEST(AabbTest, EmptyByDefault) {
  const Aabb box;
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.extent(), (Vec3f{0, 0, 0}));
  EXPECT_FLOAT_EQ(box.max_extent(), 0.0F);
}

TEST(AabbTest, ExpandWithPoints) {
  Aabb box;
  box.expand(Vec3f{1, 2, 3});
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.min_corner, (Vec3f{1, 2, 3}));
  EXPECT_EQ(box.max_corner, (Vec3f{1, 2, 3}));
  box.expand(Vec3f{-1, 5, 0});
  EXPECT_EQ(box.min_corner, (Vec3f{-1, 2, 0}));
  EXPECT_EQ(box.max_corner, (Vec3f{1, 5, 3}));
  EXPECT_EQ(box.extent(), (Vec3f{2, 3, 3}));
  EXPECT_FLOAT_EQ(box.max_extent(), 3.0F);
}

TEST(AabbTest, ExpandWithBoxAndContains) {
  Aabb a;
  a.expand(Vec3f{0, 0, 0});
  a.expand(Vec3f{1, 1, 1});
  Aabb b;
  b.expand(Vec3f{2, 2, 2});
  a.expand(b);
  EXPECT_TRUE(a.contains({1.5F, 1.5F, 1.5F}));
  EXPECT_FALSE(a.contains({2.5F, 0, 0}));
  // Expanding with an empty box is a no-op.
  const Aabb before = a;
  a.expand(Aabb{});
  EXPECT_EQ(a, before);
}

TEST(AabbTest, BoundingCubeIsCubicAndContainsBox) {
  Aabb box;
  box.expand(Vec3f{0, 0, 0});
  box.expand(Vec3f{4, 2, 1});
  const Aabb cube = box.bounding_cube();
  const Vec3f e = cube.extent();
  EXPECT_FLOAT_EQ(e.x, 4.0F);
  EXPECT_FLOAT_EQ(e.y, 4.0F);
  EXPECT_FLOAT_EQ(e.z, 4.0F);
  EXPECT_TRUE(cube.contains(box.min_corner));
  EXPECT_TRUE(cube.contains(box.max_corner));
}

TEST(AabbTest, OfSpan) {
  const std::vector<Vec3f> pts{{0, 0, 0}, {1, -1, 2}, {-3, 4, 0}};
  const Aabb box = Aabb::of(pts);
  EXPECT_EQ(box.min_corner, (Vec3f{-3, -1, 0}));
  EXPECT_EQ(box.max_corner, (Vec3f{1, 4, 2}));
}

// ------------------------------------------------------------------ Rng ----

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // Different seeds diverge (overwhelmingly likely).
  Rng a2(42);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.uniform(2.0, 4.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.01);
  EXPECT_GE(stats.min(), 2.0);
  EXPECT_LT(stats.max(), 4.0);
}

TEST(RngTest, BelowIsInRangeAndCoversAll) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);  // all residues hit in 1000 draws
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RngTest, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(29);
  RunningStats small, large;
  for (int i = 0; i < 50'000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(200.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.05);
  EXPECT_NEAR(small.variance(), 3.0, 0.15);
  EXPECT_NEAR(large.mean(), 200.0, 0.5);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0U);
  EXPECT_EQ(rng.poisson(-1.0), 0U);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100'000.0, 0.3, 0.01);
  Rng rng2(32);
  EXPECT_FALSE(rng2.bernoulli(0.0));
  EXPECT_TRUE(rng2.bernoulli(1.0));
}

TEST(RngTest, SplitGivesIndependentStream) {
  Rng parent(99);
  Rng child = parent.split();
  // Child stream differs from the parent continuation.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (child.next_u64() != parent.next_u64());
  EXPECT_TRUE(any_diff);
}

// --------------------------------------------------------------- Status ----

TEST(StatusTest, OkByDefault) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.to_string(), "ParseError: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value_or(9), 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(9), 9);
  EXPECT_THROW((void)r.value(), BadResultAccess);
}

TEST(ResultTest, RejectsOkStatusConstruction) {
  EXPECT_THROW(Result<int>(Status::Ok()), std::logic_error);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  const std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// ------------------------------------------------------------------ CSV ----

TEST(CsvTest, HeaderRequired) {
  EXPECT_THROW(CsvTable(std::vector<std::string>{}), std::invalid_argument);
}

TEST(CsvTest, RowWidthEnforced) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
  t.add_row({1.0, 2.0});
  EXPECT_EQ(t.row_count(), 1U);
}

TEST(CsvTest, SerializesTypes) {
  CsvTable t({"s", "i", "d", "e"});
  t.add_row({std::string("plain"), std::int64_t{42}, 2.5, CsvCell{}});
  EXPECT_EQ(t.to_string(), "s,i,d,e\nplain,42,2.5,\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  CsvTable t({"x"});
  t.add_row({std::string("a,b")});
  t.add_row({std::string("say \"hi\"")});
  t.add_row({std::string("two\nlines")});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(out.find("\"two\nlines\""), std::string::npos);
}

TEST(CsvTest, DoubleRoundTripShortest) {
  EXPECT_EQ(to_csv_field(CsvCell{0.1}), "0.1");
  EXPECT_EQ(to_csv_field(CsvCell{std::int64_t{-7}}), "-7");
}

TEST(CsvTest, PrettyStringAligns) {
  CsvTable t({"name", "v"});
  t.add_row({std::string("x"), std::int64_t{1}});
  t.add_row({std::string("longer"), std::int64_t{22}});
  const std::string pretty = t.to_pretty_string();
  EXPECT_NE(pretty.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(pretty.find("| longer | 22 |"), std::string::npos);
}

TEST(CsvTest, WriteFileRoundTrip) {
  CsvTable t({"a"});
  t.add_row({std::int64_t{1}});
  const std::string path = testing::TempDir() + "/arvis_csv_test.csv";
  ASSERT_TRUE(t.write_file(path).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a\n1\n");
}

// ---------------------------------------------------------------- Stats ----

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsSafe) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, first, second;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i < 400 ? first : second).add(x);
  }
  first.merge(second);
  EXPECT_EQ(first.count(), all.count());
  EXPECT_NEAR(first.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(first.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(first.min(), all.min());
  EXPECT_DOUBLE_EQ(first.max(), all.max());
}

TEST(HistogramTest, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);   // underflow
  h.add(0.0);    // bin 0
  h.add(9.99);   // bin 9
  h.add(10.0);   // overflow (hi is exclusive)
  h.add(5.5);    // bin 5
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_EQ(h.count_in_bin(0), 1U);
  EXPECT_EQ(h.count_in_bin(9), 1U);
  EXPECT_EQ(h.count_in_bin(5), 1U);
  EXPECT_EQ(h.total(), 5U);
}

TEST(HistogramTest, QuantileApproximatesUniform) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(3);
  for (int i = 0; i < 100'000; ++i) h.add(rng.next_double());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.02);
}

TEST(HistogramTest, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(ExactQuantileTest, MedianAndExtremes) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 1.0), 5.0);
  EXPECT_TRUE(std::isnan(exact_quantile({}, 0.5)));
}

TEST(LinearFitTest, RecoversExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0);
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFitTest, DegenerateInputsGiveZeroFit) {
  const std::vector<double> one_x{1.0}, one_y{2.0};
  const std::vector<double> flat_x{1, 1, 1}, rising_y{1, 2, 3};
  EXPECT_DOUBLE_EQ(fit_linear(one_x, one_y).slope, 0.0);
  EXPECT_DOUBLE_EQ(fit_linear(flat_x, rising_y).slope, 0.0);  // sxx = 0
}

// --------------------------------------------------------------- Morton ----

TEST(MortonTest, EncodeDecodeRoundTrip) {
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    const VoxelCoord c{static_cast<std::uint32_t>(rng.below(1U << 21)),
                       static_cast<std::uint32_t>(rng.below(1U << 21)),
                       static_cast<std::uint32_t>(rng.below(1U << 21))};
    EXPECT_EQ(morton_decode(morton_encode(c)), c);
  }
}

TEST(MortonTest, KnownInterleaving) {
  // (1, 0, 0) -> bit 0; (0, 1, 0) -> bit 1; (0, 0, 1) -> bit 2.
  EXPECT_EQ(morton_encode({1, 0, 0}), 1ULL);
  EXPECT_EQ(morton_encode({0, 1, 0}), 2ULL);
  EXPECT_EQ(morton_encode({0, 0, 1}), 4ULL);
  EXPECT_EQ(morton_encode({1, 1, 1}), 7ULL);
  // x=2 -> bit 3.
  EXPECT_EQ(morton_encode({2, 0, 0}), 8ULL);
}

TEST(MortonTest, AncestorKeySharedForSameCell) {
  // Two voxels in the same depth-1 half-cube of a 2-bit grid share ancestor.
  const std::uint64_t a = morton_encode({0, 0, 0});
  const std::uint64_t b = morton_encode({1, 1, 1});
  const std::uint64_t c = morton_encode({2, 0, 0});
  EXPECT_EQ(morton_ancestor_key(a, 2, 1), morton_ancestor_key(b, 2, 1));
  EXPECT_NE(morton_ancestor_key(a, 2, 1), morton_ancestor_key(c, 2, 1));
  // Depth 0 maps everything to the root key 0.
  EXPECT_EQ(morton_ancestor_key(c, 2, 0), 0ULL);
}

TEST(MortonTest, MaxCoordinateRoundTrip) {
  // The 21-bit-per-axis extreme must survive encode/decode (bit 62 is the
  // highest used; bit 63 stays clear).
  const VoxelCoord extreme{(1U << 21) - 1, (1U << 21) - 1, (1U << 21) - 1};
  const std::uint64_t code = morton_encode(extreme);
  EXPECT_EQ(code, 0x7FFFFFFFFFFFFFFFULL);  // 63 bits set, top bit clear
  EXPECT_EQ(morton_decode(code), extreme);
  // Coordinates beyond 21 bits are masked, not wrapped into other axes.
  const VoxelCoord overflow{1U << 21, 0, 0};
  EXPECT_EQ(morton_decode(morton_encode(overflow)), (VoxelCoord{0, 0, 0}));
}

TEST(MortonTest, ChildIndexWalksDown) {
  const VoxelCoord c{3, 1, 2};  // 2-bit grid
  const std::uint64_t code = morton_encode(c);
  // Depth-1 child: top bit of each coordinate -> x=1, y=0, z=1 -> slot 5.
  EXPECT_EQ(morton_child_index(code, 2, 1), 5);
  // Depth-2 child: low bits -> x=1, y=1, z=0 -> slot 3.
  EXPECT_EQ(morton_child_index(code, 2, 2), 3);
}

// ------------------------------------------------------------------ Log ----

TEST(LogTest, LevelFiltersAndSinkReceives) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  set_log_level(LogLevel::kInfo);
  log_debug("dropped ", 1);
  log_info("kept ", 2);
  log_error("also kept");
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);

  ASSERT_EQ(captured.size(), 2U);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured[0].second, "kept 2");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
}

TEST(LogTest, OffSilencesEverything) {
  int count = 0;
  set_log_sink([&](LogLevel, const std::string&) { ++count; });
  set_log_level(LogLevel::kOff);
  log_error("not delivered");
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace arvis
