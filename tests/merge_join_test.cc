// The paper's §4.2 join shapes through the query layer: "every pairwise
// join that needs to be performed during the first step of query
// processing in a Hexastore is a fast, linear-time merge-join". Each
// shape is a two-pattern BGP run as SPARQL through query::Session, and
// must give the compacted Hexastore's answer on every store layout a
// query can meet: a DeltaHexastore with only the active layer, with
// sealed L0 runs and with an L1 run; a pinned Snapshot; and a 4-shard
// ShardedHexastore.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "query/session.h"
#include "shard/sharded_hexastore.h"
#include "util/rng.h"

namespace hexastore {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// Runs `query` and returns its rows as sorted N-Triples spellings.
Rows Answer(query::Session* session, const std::string& query) {
  auto result = session->Query(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << query;
  Rows rows;
  if (!result.ok()) {
    return rows;
  }
  for (const Row& row : result.value().set.rows) {
    std::vector<std::string> cells;
    for (Id id : row) {
      cells.push_back(session->dict().term(id).ToNTriples());
    }
    rows.push_back(std::move(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Iri(const std::string& name) { return "<http://x/" + name + ">"; }

// The five shapes over constants given as SPARQL terms.
std::vector<std::string> ShapeQueries(const std::string& p1,
                                      const std::string& p2,
                                      const std::string& o1,
                                      const std::string& o2,
                                      const std::string& s1,
                                      const std::string& s2) {
  return {
      // Subjects by objects: one merge of two s(p, o) subject lists.
      "SELECT DISTINCT ?x WHERE { ?x " + p1 + " " + o1 + " . ?x " + p2 +
          " " + o2 + " }",
      // Objects by subjects: a merge of two o(s, p) object lists.
      "SELECT DISTINCT ?x WHERE { " + s1 + " " + p1 + " ?x . " + s2 + " " +
          p2 + " ?x }",
      // Subjects of objects by any property: two osp subject vectors.
      "SELECT DISTINCT ?x WHERE { ?x ?p " + o1 + " . ?x ?q " + o2 + " }",
      // Predicates by pairs (Figure 1b): two p(s, o) predicate lists.
      "SELECT DISTINCT ?p WHERE { " + s1 + " ?p " + o1 + " . " + s2 +
          " ?p " + o2 + " }",
      // Chain: the pos object vector of p1 against the pso subject
      // vector of p2 (§4.3).
      "SELECT DISTINCT ?a ?b WHERE { ?a " + p1 + " ?m . ?m " + p2 +
          " ?b }",
  };
}

class MergeJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small academic graph: people related to courses/universities.
    Add("s10", "takesCourse", "c100");
    Add("s11", "takesCourse", "c100");
    Add("s11", "takesCourse", "c101");
    Add("s12", "takesCourse", "c101");
    Add("s20", "teacherOf", "c100");
    Add("s20", "teacherOf", "c101");
    Add("s10", "degreeFrom", "u200");
    Add("s11", "degreeFrom", "u200");
    Add("s12", "degreeFrom", "u201");
  }

  void Add(const std::string& s, const std::string& p, const std::string& o) {
    store_.Insert(dict_.Encode(Triple{Term::Iri("http://x/" + s),
                                      Term::Iri("http://x/" + p),
                                      Term::Iri("http://x/" + o)}));
  }

  Rows Run(const std::string& query) {
    query::Session session(store_, dict_);
    return Answer(&session, query);
  }

  Hexastore store_;
  Dictionary dict_;
};

TEST_F(MergeJoinTest, SubjectsByObjects) {
  // People involved in both course 100 and 101 via takesCourse.
  EXPECT_EQ(Run("SELECT ?x WHERE { ?x <http://x/takesCourse> <http://x/c100>"
                " . ?x <http://x/takesCourse> <http://x/c101> }"),
            (Rows{{Iri("s11")}}));
  // Empty when one side has no matches.
  EXPECT_TRUE(Run("SELECT ?x WHERE { ?x <http://x/takesCourse> "
                  "<http://x/c100> . ?x <http://x/takesCourse> "
                  "<http://x/c999> }")
                  .empty());
}

TEST_F(MergeJoinTest, SubjectsOfObjects) {
  // Anyone related to both 100 and 101 by any property: 11 (takesCourse
  // both) and 20 (teacherOf both).
  EXPECT_EQ(Run("SELECT DISTINCT ?x WHERE { ?x ?p <http://x/c100> . "
                "?x ?q <http://x/c101> }"),
            (Rows{{Iri("s11")}, {Iri("s20")}}));
}

TEST_F(MergeJoinTest, ObjectsBySubjects) {
  // Courses shared between students 10 and 11 under takesCourse.
  EXPECT_EQ(Run("SELECT ?x WHERE { <http://x/s10> <http://x/takesCourse> ?x"
                " . <http://x/s11> <http://x/takesCourse> ?x }"),
            (Rows{{Iri("c100")}}));
}

TEST_F(MergeJoinTest, PredicatesByPairs) {
  // Figure 1b: the property relating 10 to 200 that also relates 11 to
  // 200 (degreeFrom).
  EXPECT_EQ(Run("SELECT ?p WHERE { <http://x/s10> ?p <http://x/u200> . "
                "<http://x/s11> ?p <http://x/u200> }"),
            (Rows{{Iri("degreeFrom")}}));
  EXPECT_TRUE(Run("SELECT ?p WHERE { <http://x/s10> ?p <http://x/u200> . "
                  "<http://x/s12> ?p <http://x/u200> }")
                  .empty());
}

TEST_F(MergeJoinTest, Chain) {
  // Courses lead on to topics: takesCourse then covers.
  Add("c100", "covers", "t300");
  Add("c101", "covers", "t301");
  EXPECT_EQ(Run("SELECT ?a ?b WHERE { ?a <http://x/takesCourse> ?m . "
                "?m <http://x/covers> ?b }"),
            (Rows{{Iri("s10"), Iri("t300")},
                  {Iri("s11"), Iri("t300")},
                  {Iri("s11"), Iri("t301")},
                  {Iri("s12"), Iri("t301")}}));
}

DeltaOptions LeveledOptions(std::size_t l0_run_limit) {
  DeltaOptions options;
  options.compact_threshold = 32;
  options.l0_run_limit = l0_run_limit;
  // Keep L1 out of the base for the whole churn.
  options.l1_base_fraction = 8.0;
  return options;
}

// Randomized churn applied to every layout and to a compacted
// reference; all five shapes must then agree on every layout.
TEST(MergeJoinLayoutTest, ShapesAgreeWithCompactedHexastoreOnEveryLayout) {
  Dictionary dict;
  std::vector<Id> nodes;
  std::vector<Id> preds;
  for (int i = 0; i < 16; ++i) {
    nodes.push_back(dict.Intern(Term::Iri("http://x/n" + std::to_string(i))));
  }
  for (int i = 0; i < 4; ++i) {
    preds.push_back(dict.Intern(Term::Iri("http://x/p" + std::to_string(i))));
  }

  Hexastore compacted;
  DeltaHexastore active_only(/*compact_threshold=*/1u << 20);
  DeltaHexastore with_l0(LeveledOptions(/*l0_run_limit=*/1000));
  DeltaHexastore with_l1(LeveledOptions(/*l0_run_limit=*/2));
  ShardedOptions sharded_options;
  sharded_options.shards = 4;
  sharded_options.delta.compact_threshold = 32;
  ShardedHexastore sharded(sharded_options);
  const std::vector<TripleStore*> stores = {&compacted, &active_only,
                                            &with_l0, &with_l1, &sharded};

  Rng rng(77);
  auto random_triple = [&] {
    return IdTriple{nodes[rng.Uniform(nodes.size())],
                    preds[rng.Uniform(preds.size())],
                    nodes[rng.Uniform(nodes.size())]};
  };
  // A base to merge against, then churn that stays staged.
  IdTripleVec base;
  for (int i = 0; i < 300; ++i) {
    base.push_back(random_triple());
  }
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  for (TripleStore* store : stores) {
    store->BulkLoad(base);
  }
  for (int i = 0; i < 600; ++i) {
    const IdTriple t = random_triple();
    const bool insert = rng.Bernoulli(0.7);
    for (TripleStore* store : stores) {
      if (insert) {
        store->Insert(t);
      } else {
        store->Erase(t);
      }
    }
  }

  // Each layout really has the shape it is named for.
  ASSERT_GT(active_only.StagedOps(), 0u);
  ASSERT_EQ(active_only.Stats().l0_runs, 0u);
  ASSERT_GT(with_l0.Stats().l0_runs, 0u);
  ASSERT_EQ(with_l0.Stats().l1_ops, 0u);
  ASSERT_GT(with_l1.Stats().l1_ops, 0u);
  const DeltaHexastore::Snapshot snapshot = with_l1.GetSnapshot();

  query::SessionOptions direct;
  direct.pin = query::PinPolicy::kNone;
  query::SessionOptions pinned;
  pinned.pin = query::PinPolicy::kLinearizable;
  query::Session reference(compacted, dict);
  std::vector<std::pair<const char*, std::unique_ptr<query::Session>>>
      layouts;
  auto add = [&](const char* name, const auto& store,
                 query::SessionOptions options) {
    auto session = std::make_unique<query::Session>(store, dict, options);
    layouts.emplace_back(name, std::move(session));
  };
  add("delta/active", active_only, direct);
  add("delta/l0", with_l0, direct);
  add("delta/l1", with_l1, direct);
  add("delta/l1 pinned", with_l1, pinned);
  add("snapshot", snapshot, pinned);  // a plain TripleStore: never re-pinned
  add("sharded", sharded, direct);
  add("sharded pinned", sharded, pinned);

  auto pick = [&](const std::vector<Id>& from) {
    return dict.term(from[rng.Uniform(from.size())]).ToNTriples();
  };
  std::size_t nonempty = 0;
  for (int round = 0; round < 40; ++round) {
    const std::string p1 = pick(preds);
    const std::string p2 = pick(preds);
    const std::string o1 = pick(nodes);
    const std::string o2 = pick(nodes);
    const std::string s1 = pick(nodes);
    const std::string s2 = pick(nodes);
    for (const std::string& q : ShapeQueries(p1, p2, o1, o2, s1, s2)) {
      const Rows expect = Answer(&reference, q);
      nonempty += expect.empty() ? 0 : 1;
      for (auto& [name, session] : layouts) {
        EXPECT_EQ(Answer(session.get(), q), expect) << name << ": " << q;
      }
    }
  }
  // The rounds exercised real joins, not only empty intersections.
  EXPECT_GT(nonempty, 100u) << nonempty;
}

}  // namespace
}  // namespace hexastore
