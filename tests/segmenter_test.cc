#include <gtest/gtest.h>

#include <unordered_set>

#include "parallel/segmenter.h"
#include "test_util.h"

namespace cpd {
namespace {

TEST(SegmenterTest, SegmentsPartitionUsers) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  WorkloadCostModel cost;
  auto segments = SegmentUsersByTopic(graph, 6, cost, /*lda_iterations=*/10);
  ASSERT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 6u);
  std::unordered_set<UserId> seen;
  for (const DataSegment& segment : *segments) {
    for (UserId u : segment.users) {
      EXPECT_TRUE(seen.insert(u).second) << "user " << u << " in two segments";
    }
  }
  EXPECT_EQ(seen.size(), graph.num_users());
}

TEST(SegmenterTest, WorkloadsArePositiveAndAdditive) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  WorkloadCostModel cost;
  auto segments = SegmentUsersByTopic(graph, 4, cost, 10);
  ASSERT_TRUE(segments.ok());
  for (const DataSegment& segment : *segments) {
    double manual = 0.0;
    for (UserId u : segment.users) manual += EstimateUserWorkload(graph, u, cost);
    EXPECT_NEAR(segment.estimated_workload, manual, 1e-9);
    if (!segment.users.empty()) {
      EXPECT_GT(segment.estimated_workload, 0.0);
    }
  }
}

TEST(SegmenterTest, UserWorkloadScalesWithData) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  WorkloadCostModel cost;
  // A user with more documents must have at least as much estimated work as
  // a user with none of the structure. Compare the extremes by doc count.
  UserId most = 0, least = 0;
  for (size_t u = 0; u < graph.num_users(); ++u) {
    if (graph.DocumentsOf(static_cast<UserId>(u)).size() >
        graph.DocumentsOf(most).size()) {
      most = static_cast<UserId>(u);
    }
    if (graph.DocumentsOf(static_cast<UserId>(u)).size() <
        graph.DocumentsOf(least).size()) {
      least = static_cast<UserId>(u);
    }
  }
  EXPECT_GE(EstimateUserWorkload(graph, most, cost),
            EstimateUserWorkload(graph, least, cost));
}

TEST(SegmenterTest, PlanThreadsAssignsEveryUser) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  WorkloadCostModel cost;
  auto plan = PlanThreads(graph, 6, 3, cost, 10);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->users_per_thread.size(), 3u);
  size_t total_users = 0;
  for (const auto& users : plan->users_per_thread) total_users += users.size();
  EXPECT_EQ(total_users, graph.num_users());
  EXPECT_EQ(plan->allocation.thread_workload.size(), 3u);
}

TEST(SegmenterTest, InvalidArgumentsRejected) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  WorkloadCostModel cost;
  EXPECT_FALSE(SegmentUsersByTopic(graph, 0, cost).ok());
  EXPECT_FALSE(PlanThreads(graph, 4, 0, cost).ok());
}

}  // namespace
}  // namespace cpd
