// Self-tests of the benchmark's own machinery: percentile rules, open-loop
// due-time accounting, and the traced layer decomposition.
#include <gtest/gtest.h>

#include <thread>

#include "ceci/matcher.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "layers.h"
#include "loopback.h"
#include "report.h"
#include "test_support.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  EXPECT_EQ(NearestRank(v, 0.90), 90);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.00), 100);
  EXPECT_EQ(NearestRank({7.0}, 0.99), 7.0);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentiles, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(100, 0.90), 10u);
  EXPECT_TRUE(PercentileSupported(100, 0.90));
  EXPECT_EQ(SamplesBeyond(99, 0.90), 9u);
  EXPECT_FALSE(PercentileSupported(99, 0.90));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.50));
  EXPECT_FALSE(PercentileSupported(19, 0.50));
  EXPECT_FALSE(PercentileSupported(0, 0.50));
}

// One-slot server whose requests take `service_s(i)` each.
class FakeTransport final : public Transport {
 public:
  explicit FakeTransport(std::function<double(std::size_t)> service_s)
      : service_s_(std::move(service_s)) {}
  std::size_t slots() const override { return 1; }
  bool Send(std::size_t, std::size_t request) override {
    busy_ = true;
    request_ = request;
    finish_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     service_s_(request)));
    return true;
  }
  bool Wait(double timeout_s, std::vector<Completion>* done) override {
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    if (!busy_ || until < finish_) {
      std::this_thread::sleep_until(until);
      return true;
    }
    std::this_thread::sleep_until(finish_);
    busy_ = false;
    done->push_back(Completion{0, request_, "ok"});
    return true;
  }

 private:
  std::function<double(std::size_t)> service_s_;
  bool busy_ = false;
  std::size_t request_ = 0;
  Clock::time_point finish_;
};

TEST(OpenLoop, StalledRequestInflatesFollowers) {
  constexpr double kStall = 0.080;
  FakeTransport transport(
      [](std::size_t i) { return i == 2 ? kStall : 0.0001; });
  // 1,000/s: request i is due at i ms.
  const std::vector<RequestTiming> t = RunOpenLoop(transport, 20, 1000.0);
  ASSERT_EQ(t.size(), 20u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(t[i].due_s, i * 1e-3, 1e-12);
    EXPECT_GE(t[i].sent_s, t[i].due_s);
  }
  // The stall starts at 2 ms and ends at ~82 ms: a follower due at i ms
  // waits until then, and that wait is in its latency.
  for (std::size_t i = 3; i < 20; ++i) {
    EXPECT_GE(t[i].LatencySeconds(), 0.002 + kStall - i * 1e-3 - 1e-3)
        << "request " << i;
    // The wait is the server's doing, not the generator's.
    EXPECT_LT(t[i].LateSeconds(), 0.010) << "request " << i;
  }
  EXPECT_LT(t[1].LatencySeconds(), 0.010);
}

TEST(OpenLoop, ClosedLoopHidesTheStall) {
  // The same stall under a closed loop: followers are sent only when the
  // slot frees, so their latency omits the wait (the coordinated-omission
  // error the open loop avoids).
  FakeTransport transport(
      [](std::size_t i) { return i == 2 ? 0.080 : 0.0001; });
  const std::vector<RequestTiming> t = RunClosedLoop(transport, 10);
  ASSERT_EQ(t.size(), 10u);
  EXPECT_GE(t[2].LatencySeconds(), 0.075);
  for (std::size_t i = 3; i < 10; ++i) {
    EXPECT_LT(t[i].LatencySeconds(), 0.010) << "request " << i;
  }
}

void ExpectDecompositionMatches(const ceci::Graph& data,
                                const ceci::Graph& query,
                                const ceci::MatchOptions& options,
                                std::uint64_t expected) {
  const ceci::CeciMatcher matcher(data);
  auto untraced = matcher.Match(query, options);
  ASSERT_TRUE(untraced.ok());
  SpanLog log;
  const LayerSample s = RunLayers(data, matcher.nlc_index(), query, options,
                                  log, SpanLog::kNoParent, 0);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.embeddings, expected);
  EXPECT_EQ(untraced->embedding_count, expected);
  EXPECT_EQ(CompareCounts(s, *untraced), "");
  // One query span with the six layer spans under it, in pipeline order.
  ASSERT_EQ(log.spans().size(), 7u);
  const char* names[] = {"query",      "preprocess",  "build",    "refine",
                         "freeze_csr", "freeze_flat", "enumerate"};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(log.spans()[i].name, names[i]);
    EXPECT_EQ(log.spans()[i].parent, i == 0 ? SpanLog::kNoParent : 0u);
  }
  EXPECT_NEAR(log.SelfSeconds(0), s.query_s - s.LayerSum(), 1e-12);
  EXPECT_GE(log.SelfSeconds(0), 0.0);
}

TEST(TracedDecomposition, PaperFigureOneExample) {
  using ceci::testing::PaperExample;
  ceci::MatchOptions options;
  ExpectDecompositionMatches(PaperExample::Data(), PaperExample::Query(),
                             options, 2);
}

TEST(TracedDecomposition, Qg2OverSmallGraph) {
  const ceci::Graph data = ceci::GenerateSocialGraph(400, 6, 7);
  const ceci::Graph qg2 = ceci::MakePaperQuery(ceci::PaperQuery::kQG2);
  ceci::MatchOptions pointer;
  pointer.flat_index = false;
  const std::uint64_t expected =
      ceci::CeciMatcher(data).Match(qg2, pointer)->embedding_count;
  ASSERT_GT(expected, 0u);
  for (std::size_t threads : {1, 2}) {
    ceci::MatchOptions options;
    options.threads = threads;
    ExpectDecompositionMatches(data, qg2, options, expected);
  }
  ceci::MatchOptions limited;
  limited.limit = 10;
  ExpectDecompositionMatches(data, qg2, limited, 10);
}

// The step-bounded reference search that selects full-page queries counts
// what Match() counts.
TEST(BoundedCount, AgreesWithMatch) {
  using ceci::testing::PaperExample;
  EXPECT_EQ(BoundedCount(PaperExample::Data(), PaperExample::Query(), 100,
                         1'000'000),
            std::optional<std::uint64_t>(2));
  const ceci::Graph data = ceci::GenerateSocialGraph(400, 6, 7);
  const ceci::CeciMatcher matcher(data);
  for (ceci::PaperQuery which : ceci::kAllPaperQueries) {
    const ceci::Graph q = ceci::MakePaperQuery(which);
    const std::uint64_t all = matcher.Match(q, {})->embedding_count;
    ASSERT_GT(all, 2u);
    EXPECT_EQ(BoundedCount(data, q, all + 1, 1ULL << 40),
              std::optional<std::uint64_t>(all));
    EXPECT_EQ(BoundedCount(data, q, all / 2, 1ULL << 40),
              std::optional<std::uint64_t>(all / 2));
    EXPECT_EQ(BoundedCount(data, q, all + 1, 10), std::nullopt);
  }
}

}  // namespace
}  // namespace perfbench
