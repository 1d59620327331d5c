#include "traj/synthetic.h"

#include <ostream>

#include <gtest/gtest.h>

#include "traj/trajectory.h"

namespace traj2hash::traj {

// Names the city in test listings; gtest's default byte dump would embed the
// std::string pointer, so the listed test name would change from one process
// to the next. Declared in CityConfig's namespace so gtest finds it by ADL.
void PrintTo(const CityConfig& config, std::ostream* os) { *os << config.name; }

namespace {

class SyntheticCityTest : public ::testing::TestWithParam<CityConfig> {};

TEST_P(SyntheticCityTest, GeneratesRequestedCountMeetingFilters) {
  Rng rng(5);
  const CityConfig cfg = GetParam();
  const std::vector<Trajectory> ts = GenerateTrips(cfg, 50, rng);
  ASSERT_EQ(ts.size(), 50u);
  for (const Trajectory& t : ts) {
    EXPECT_GE(t.size(), cfg.min_points);
    EXPECT_LE(t.size(), cfg.max_points);
  }
}

TEST_P(SyntheticCityTest, PointsStayNearTheCityExtent) {
  Rng rng(6);
  const CityConfig cfg = GetParam();
  const std::vector<Trajectory> ts = GenerateTrips(cfg, 30, rng);
  const double slack = 5.0 * cfg.gps_noise_m;
  for (const Trajectory& t : ts) {
    for (const Point& p : t.points) {
      EXPECT_GE(p.x, -slack);
      EXPECT_LE(p.x, cfg.width_m + slack);
      EXPECT_GE(p.y, -slack);
      EXPECT_LE(p.y, cfg.height_m + slack);
    }
  }
}

TEST_P(SyntheticCityTest, ConsecutivePointsAreStepScale) {
  Rng rng(7);
  const CityConfig cfg = GetParam();
  const std::vector<Trajectory> ts = GenerateTrips(cfg, 20, rng);
  for (const Trajectory& t : ts) {
    for (int i = 1; i < t.size(); ++i) {
      // Step length plus generous noise bound.
      EXPECT_LE(Distance(t.points[i - 1], t.points[i]),
                1.6 * cfg.step_m + 8.0 * cfg.gps_noise_m);
    }
  }
}

TEST_P(SyntheticCityTest, DeterministicUnderSeed) {
  const CityConfig cfg = GetParam();
  Rng rng1(42), rng2(42);
  const auto a = GenerateTrips(cfg, 5, rng1);
  const auto b = GenerateTrips(cfg, 5, rng2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a[i].points, b[i].points);
  }
}

INSTANTIATE_TEST_SUITE_P(Cities, SyntheticCityTest,
                         ::testing::Values(CityConfig::PortoLike(),
                                           CityConfig::ChengduLike()),
                         [](const auto& info) { return info.param.name; });

TEST(DownsampleTest, KeepsEndpointsAndBound) {
  Trajectory t;
  for (int i = 0; i < 100; ++i) t.points.push_back(Point{double(i), 0.0});
  const Trajectory d = Downsample(t, 10);
  ASSERT_EQ(d.size(), 10);
  EXPECT_EQ(d.points.front(), t.points.front());
  EXPECT_EQ(d.points.back(), t.points.back());
}

TEST(DownsampleTest, ShortTrajectoryUnchanged) {
  Trajectory t;
  t.points = {{0, 0}, {1, 1}, {2, 2}};
  const Trajectory d = Downsample(t, 10);
  EXPECT_EQ(d.points, t.points);
}

TEST(DownsampleTest, PreservesOrder) {
  Trajectory t;
  for (int i = 0; i < 57; ++i) t.points.push_back(Point{double(i), 0.0});
  const Trajectory d = Downsample(t, 7);
  for (int i = 1; i < d.size(); ++i) {
    EXPECT_LT(d.points[i - 1].x, d.points[i].x);
  }
}

}  // namespace
}  // namespace traj2hash::traj
