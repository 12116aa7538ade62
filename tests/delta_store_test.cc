// Unit tests of the delta staging buffer: op staging/cancellation rules
// and the bound-prefix scans of its sorted insert runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "delta/delta_store.h"

namespace hexastore {
namespace {

TEST(DeltaStoreTest, StageInsertAndLookup) {
  DeltaStore delta;
  const IdTriple t{1, 2, 3};
  EXPECT_TRUE(delta.StageInsert(t, /*base_present=*/false));
  EXPECT_EQ(delta.Lookup(t), DeltaStore::Presence::kInserted);
  // Double insert is a no-op.
  EXPECT_FALSE(delta.StageInsert(t, false));
  EXPECT_EQ(delta.insert_count(), 1u);
  EXPECT_EQ(delta.size_delta(), 1);
}

TEST(DeltaStoreTest, InsertPresentInBaseIsNoOp) {
  DeltaStore delta;
  EXPECT_FALSE(delta.StageInsert({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kUnknown);
}

TEST(DeltaStoreTest, EraseStagesTombstoneOnlyForBaseTriples) {
  DeltaStore delta;
  // Absent everywhere: nothing to erase.
  EXPECT_FALSE(delta.StageErase({1, 2, 3}, /*base_present=*/false));
  EXPECT_TRUE(delta.empty());
  // Present in base: tombstone.
  EXPECT_TRUE(delta.StageErase({1, 2, 3}, /*base_present=*/true));
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kErased);
  EXPECT_EQ(delta.tombstone_count(), 1u);
  EXPECT_EQ(delta.size_delta(), -1);
  // Double erase is a no-op.
  EXPECT_FALSE(delta.StageErase({1, 2, 3}, true));
}

TEST(DeltaStoreTest, EraseCancelsStagedInsert) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageInsert({1, 2, 3}, false));
  EXPECT_TRUE(delta.StageErase({1, 2, 3}, false));
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kUnknown);
  EXPECT_EQ(delta.CountInserts(IdPattern{1, 2, 0}), 0u);
}

TEST(DeltaStoreTest, ReinsertCancelsTombstone) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageErase({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.StageInsert({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.empty());  // base copy shows through again
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kUnknown);
}

// Every bound-prefix shape reaches the staged inserts through one of
// the three sorted runs; tombstones never show up in an insert scan.
TEST(DeltaStoreTest, ScanInsertsServesEveryBoundPrefix) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageInsert({7, 8, 9}, false));
  ASSERT_TRUE(delta.StageInsert({7, 8, 4}, false));
  ASSERT_TRUE(delta.StageInsert({5, 8, 9}, false));
  ASSERT_TRUE(delta.StageErase({7, 8, 1}, /*base_present=*/true));
  auto scan = [&delta](const IdPattern& q) {
    IdTripleVec out;
    delta.ScanInserts(q, [&out](const IdTriple& t) { out.push_back(t); });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(scan(IdPattern{7, 8, 0}), (IdTripleVec{{7, 8, 4}, {7, 8, 9}}));
  EXPECT_EQ(scan(IdPattern{7, 0, 9}), (IdTripleVec{{7, 8, 9}}));
  EXPECT_EQ(scan(IdPattern{0, 8, 9}), (IdTripleVec{{5, 8, 9}, {7, 8, 9}}));
  EXPECT_EQ(scan(IdPattern{0, 0, 9}), (IdTripleVec{{5, 8, 9}, {7, 8, 9}}));
  EXPECT_EQ(scan(IdPattern{7, 8, 1}), IdTripleVec{});
  EXPECT_EQ(delta.CountInserts(IdPattern{}), 3u);
}

TEST(DeltaStoreTest, SortedInsertsAndTombstonesAreSorted) {
  DeltaStore delta;
  delta.StageInsert({3, 1, 1}, false);
  delta.StageInsert({1, 2, 9}, false);
  delta.StageInsert({1, 2, 4}, false);
  delta.StageErase({9, 9, 9}, true);
  delta.StageErase({2, 2, 2}, true);
  const IdTripleVec inserts = delta.SortedInserts();
  const IdTripleVec expect_inserts{{1, 2, 4}, {1, 2, 9}, {3, 1, 1}};
  EXPECT_EQ(inserts, expect_inserts);
  const IdTripleVec tombs = delta.SortedTombstones();
  const IdTripleVec expect_tombs{{2, 2, 2}, {9, 9, 9}};
  EXPECT_EQ(tombs, expect_tombs);
}

TEST(DeltaStoreTest, ClearDropsEverything) {
  DeltaStore delta;
  delta.StageInsert({1, 2, 3}, false);
  delta.StageErase({4, 5, 6}, true);
  delta.Clear();
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.insert_count(), 0u);
  EXPECT_EQ(delta.tombstone_count(), 0u);
  EXPECT_EQ(delta.CountInserts(IdPattern{1, 2, 0}), 0u);
}

TEST(DeltaStoreTest, CopyIsIndependent) {
  DeltaStore delta;
  delta.StageInsert({1, 2, 3}, false);
  DeltaStore copy = delta;
  copy.StageInsert({4, 5, 6}, false);
  EXPECT_EQ(delta.op_count(), 1u);
  EXPECT_EQ(copy.op_count(), 2u);
  EXPECT_EQ(delta.Lookup({4, 5, 6}), DeltaStore::Presence::kUnknown);
}

}  // namespace
}  // namespace hexastore
