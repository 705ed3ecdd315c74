#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sched/registry.hpp"
#include "sched/validate.hpp"
#include "test_helpers.hpp"

namespace treesched {
namespace {

using testing::pebble_tree;

TEST(Schedule, MakespanAndFinish) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(s.finish(t, 0), 3.0);
  EXPECT_DOUBLE_EQ(s.makespan(t), 3.0);
}

TEST(Schedule, ByStartTimeOrder) {
  Schedule s(3);
  s.start = {2.0, 0.0, 1.0};
  EXPECT_EQ(s.by_start_time(), (std::vector<NodeId>{1, 2, 0}));
}

TEST(Schedule, SequentialScheduleLaysOutInOrder) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s = sequential_schedule(t, {2, 1, 0});
  EXPECT_DOUBLE_EQ(s.start[2], 0.0);
  EXPECT_DOUBLE_EQ(s.start[1], 1.0);
  EXPECT_DOUBLE_EQ(s.start[0], 2.0);
  EXPECT_TRUE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, AcceptsValidParallelSchedule) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {1.0, 0.0, 0.0};
  s.proc = {0, 0, 1};
  EXPECT_TRUE(validate_schedule(t, s, 2).ok);
}

TEST(Validate, RejectsPrecedenceViolation) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s(2);
  s.start = {0.5, 0.0};
  s.proc = {1, 0};
  auto v = validate_schedule(t, s, 2);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("before child"), std::string::npos);
}

TEST(Validate, RejectsProcessorOverlap) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {2.0, 0.5, 0.0};
  s.proc = {0, 1, 1};  // tasks 1 and 2 overlap on proc 1
  auto v = validate_schedule(t, s, 2);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("overlap"), std::string::npos);
}

TEST(Validate, RejectsProcessorOutOfRange) {
  Tree t = pebble_tree({kNoNode});
  Schedule s(1);
  s.proc = {3};
  EXPECT_FALSE(validate_schedule(t, s, 2).ok);
}

TEST(Validate, RejectsNegativeStart) {
  Tree t = pebble_tree({kNoNode});
  Schedule s(1);
  s.start = {-1.0};
  EXPECT_FALSE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, RejectsSizeMismatch) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s(1);
  EXPECT_FALSE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, BackToBackOnSameProcessorIsOk) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {2.0, 0.0, 1.0};
  s.proc = {0, 0, 0};
  EXPECT_TRUE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, ZeroWorkTaskStartingWithItsParentIsNoOverlap) {
  // The leaf (w=0) and the root both start at time 0 on processor 0.
  const Tree t = testing::make_tree({kNoNode, 0}, {1, 10}, {5, 100},
                                    {1.0, 0.0});
  const Schedule s = sequential_schedule(t, {1, 0});
  EXPECT_TRUE(validate_schedule(t, s, 1).ok);
  for (const std::string& name : SchedulerRegistry::instance().names()) {
    for (int p : {1, 2, 4}) {
      const Schedule got =
          SchedulerRegistry::instance().create(name)->schedule(
              t, Resources{p, 0});
      const ScheduleCheck check = check_schedule(t, got, p);
      EXPECT_TRUE(check.ok) << name << " p=" << p << ": " << check.error;
      EXPECT_EQ(check.peak_memory, 110u) << name << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace treesched
