// Tests for the unified query::Session API (query/session.h): pin
// policies and write visibility, per-query deadlines, ProfileSink
// feeding, plan-cache integration, EXPLAIN, and the phase rule
// (parse + pin + plan + eval <= total <= the wall time of the call).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "obs/metrics.h"
#include "query/bgp.h"
#include "query/plan_cache.h"
#include "query/result_json.h"
#include "query/session.h"
#include "shard/sharded_hexastore.h"

namespace hexastore {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      Add("s" + std::to_string(i), "knows", "s" + std::to_string(i + 1));
      Add("s" + std::to_string(i), "type", "Person");
    }
    store_.GetSnapshot();  // publish: wait-free readers see the data
  }

  void Add(const std::string& s, const std::string& p,
           const std::string& o) {
    store_.Insert(dict_.Encode(Triple{Term::Iri("http://x/" + s),
                                      Term::Iri("http://x/" + p),
                                      Term::Iri("http://x/" + o)}));
  }

  TriplePattern Pat(const std::string& s, const std::string& p,
                    const std::string& o) {
    auto slot = [](const std::string& t) {
      return t[0] == '?' ? PatternTerm::Variable(t.substr(1))
                         : PatternTerm::Bound(Term::Iri("http://x/" + t));
    };
    return TriplePattern{slot(s), slot(p), slot(o)};
  }

  Dictionary dict_;
  DeltaHexastore store_;
};

constexpr const char* kChainQuery =
    "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . "
    "?b <http://x/knows> ?c } ORDER BY ?a";

TEST_F(SessionTest, PinnedQueryMatchesUnpinnedSnapshotQuery) {
  query::Session session(store_, dict_);
  auto via_session = session.Query(kChainQuery);
  ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();

  // A snapshot is a plain TripleStore: that Session evaluates it
  // directly (PinPolicy::kNone).
  const DeltaHexastore::Snapshot snapshot = store_.GetSnapshot();
  auto unpinned = query::Session(snapshot, dict_).Query(kChainQuery);
  ASSERT_TRUE(unpinned.ok());
  EXPECT_EQ(ResultSetToJson(via_session.value().set, dict_),
            ResultSetToJson(unpinned.value().set, dict_));
  // Sessions always profile: phase times and rows populated.
  EXPECT_EQ(via_session.value().profile.rows_out,
            via_session.value().set.rows.size());
  EXPECT_GT(via_session.value().profile.patterns.size(), 0u);
}

TEST_F(SessionTest, WaitFreePinSeesOnlyPublishedState) {
  query::SessionOptions wait_free;
  wait_free.pin = query::PinPolicy::kWaitFree;
  query::Session pinned(store_, dict_, wait_free);

  query::SessionOptions linearizable;
  linearizable.pin = query::PinPolicy::kLinearizable;
  query::Session fresh(store_, dict_, linearizable);

  const std::size_t before =
      pinned.Query(kChainQuery).value().set.rows.size();

  // Stage (but do not publish) one more link in the chain.
  Add("s8", "knows", "s9");

  // The wait-free session still reads the published generation...
  EXPECT_EQ(pinned.Query(kChainQuery).value().set.rows.size(), before);
  // ...the linearizable one serializes with writers and sees the write.
  EXPECT_EQ(fresh.Query(kChainQuery).value().set.rows.size(), before + 1);
  // Publication catches the wait-free session up.
  store_.GetSnapshot();
  EXPECT_EQ(pinned.Query(kChainQuery).value().set.rows.size(), before + 1);
}

TEST_F(SessionTest, PlainTripleStoreForcesPinNone) {
  Hexastore plain;
  Dictionary dict;
  plain.Insert(dict.Encode(Triple{Term::Iri("http://x/a"),
                                  Term::Iri("http://x/p"),
                                  Term::Iri("http://x/b")}));
  query::SessionOptions options;
  options.pin = query::PinPolicy::kWaitFree;  // impossible: no gate
  query::Session session(plain, dict, options);
  EXPECT_EQ(session.options().pin, query::PinPolicy::kNone);
  auto r = session.Query("SELECT ?s WHERE { ?s <http://x/p> ?o }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().set.rows.size(), 1u);
}

TEST_F(SessionTest, DeadlineExceededSurfacesAsError) {
  query::SessionOptions options;
  options.deadline_ns = 1;  // nothing real finishes in 1ns
  query::Session session(store_, dict_, options);
  auto r = session.Query(kChainQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The profile still recorded the overrun for observability.
  EXPECT_TRUE(session.last_profile().deadline_exceeded);
}

TEST_F(SessionTest, ZeroDeadlineMeansUnlimited) {
  query::SessionOptions options;
  options.deadline_ns = 0;
  query::Session session(store_, dict_, options);
  EXPECT_TRUE(session.Query(kChainQuery).ok());
}

TEST_F(SessionTest, SinkFedOnSuccessAndOnDeadline) {
  ProfileSink sink(/*slow_threshold_ns=*/0);
  query::SessionOptions options;
  options.sink = &sink;
  query::Session session(store_, dict_, options);
  ASSERT_TRUE(session.Query(kChainQuery).ok());
  EXPECT_EQ(sink.histogram(QueryKind::kSparql)->Snapshot().count, 1u);

  query::SessionOptions doomed = options;
  doomed.deadline_ns = 1;
  query::Session hurried(store_, dict_, doomed);
  ASSERT_FALSE(hurried.Query(kChainQuery).ok());
  // Deadline overruns are recorded too — they are exactly the queries
  // the slow-query log exists for.
  EXPECT_EQ(sink.histogram(QueryKind::kSparql)->Snapshot().count, 2u);
}

TEST_F(SessionTest, PlanCacheServesRepeatedTemplates) {
  PlanCache cache;
  query::SessionOptions options;
  options.plan_cache = &cache;
  query::Session session(store_, dict_, options);

  auto first = session.Query(kChainQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().from_plan_cache);
  auto second = session.Query(kChainQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_plan_cache);
  EXPECT_EQ(ResultSetToJson(first.value().set, dict_),
            ResultSetToJson(second.value().set, dict_));

  // Renamed variables, same shape: still a hit.
  auto renamed = session.Query(
      "SELECT ?p ?r WHERE { ?p <http://x/knows> ?q . "
      "?q <http://x/knows> ?r } ORDER BY ?p");
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(renamed.value().from_plan_cache);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST_F(SessionTest, EvalBgpMatchesDirectEvaluation) {
  std::vector<TriplePattern> patterns = {Pat("?a", "knows", "?b"),
                                         Pat("?b", "knows", "?c")};
  query::Session session(store_, dict_);
  auto via_session = session.EvalBgp(patterns);
  ASSERT_TRUE(via_session.ok());
  const QueryProfile& profile = via_session.value().profile;
  EXPECT_EQ(profile.kind, QueryKind::kBgp);
  EXPECT_EQ(profile.patterns.size(), 2u);
  EXPECT_EQ(profile.rows_out, via_session.value().set.rows.size());

  const ResultSet direct = EvalBgp(store_.GetSnapshot(), dict_, patterns);
  EXPECT_EQ(ResultSetToJson(via_session.value().set, dict_),
            ResultSetToJson(direct, dict_));
}

// The four phases are disjoint slices of the call, so they sum to at
// most total_ns, and total_ns is at most what a stopwatch around the
// call measures — under every pin policy and over a sharded store.
void ExpectPhasesSplitTotal(query::Session* session) {
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t start = obs::NowNanos();
    auto r = session->Query(kChainQuery);
    const std::uint64_t wall = obs::NowNanos() - start;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryProfile& p = r.value().profile;
    EXPECT_GT(p.rows_out, 0u);
    EXPECT_LE(p.parse_ns + p.pin_ns + p.plan_ns + p.eval_ns, p.total_ns);
    EXPECT_LE(p.total_ns, wall);
    if (session->options().pin == query::PinPolicy::kNone) {
      EXPECT_EQ(p.pin_ns, 0u);
    }
  }
}

TEST_F(SessionTest, PhasesSplitTotal) {
  for (query::PinPolicy pin :
       {query::PinPolicy::kNone, query::PinPolicy::kWaitFree,
        query::PinPolicy::kLinearizable}) {
    query::SessionOptions options;
    options.pin = pin;
    query::Session session(store_, dict_, options);
    ExpectPhasesSplitTotal(&session);
  }

  ShardedOptions sharded_options;
  sharded_options.shards = 4;
  ShardedHexastore sharded(sharded_options);
  sharded.BulkLoad(store_.Match(IdPattern{}));
  sharded.GetSnapshot();  // publish for the wait-free default pin
  query::Session sharded_session(sharded, dict_);
  ExpectPhasesSplitTotal(&sharded_session);
}

TEST_F(SessionTest, ExplainIsDeterministicAndAnalyzeRuns) {
  query::Session session(store_, dict_);
  auto plan_a = session.Explain(kChainQuery);
  auto plan_b = session.Explain(kChainQuery);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  EXPECT_EQ(plan_a.value(), plan_b.value());
  EXPECT_NE(plan_a.value().find("plan:"), std::string::npos);

  auto analyzed = session.ExplainAnalyze(kChainQuery);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed.value().find("actual"), std::string::npos);
}

TEST_F(SessionTest, ParseErrorsPropagate) {
  query::Session session(store_, dict_);
  auto r = session.Query("SELECT WHERE {");
  ASSERT_FALSE(r.ok());
}

}  // namespace
}  // namespace hexastore
