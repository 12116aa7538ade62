// Crash-recovery torture tests for the durability subsystem.
//
// The central contract: after a crash anywhere inside the WAL tail,
// recovery rebuilds EXACTLY the committed prefix — verified byte-for-byte
// by comparing id-level snapshot serializations of the recovered store
// against an oracle that applied only the records whose frames survived.
// Crashes are simulated by truncating (or corrupting) a copy of the WAL
// directory at chosen byte offsets.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "delta/delta_hexastore.h"
#include "io/snapshot.h"
#include "shard/sharded_hexastore.h"
#include "util/rng.h"
#include "wal/durable_store.h"
#include "wal/file_util.h"
#include "wal/manifest.h"
#include "wal/wal_reader.h"

namespace hexastore {
namespace {

namespace fs = std::filesystem;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (fs::temp_directory_path() /
             (std::string("hexa_crash_test_") + info->name() + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (fs::path(root_) / name).string();
  }

  // Fresh copy of a WAL directory (the "disk image" a crash left).
  std::string CloneDir(const std::string& src, const std::string& name) {
    const std::string dst = Dir(name);
    fs::remove_all(dst);
    fs::copy(src, dst, fs::copy_options::recursive);
    return dst;
  }

  std::string root_;
};

// Canonical byte serialization of a store's logical contents.
template <typename StoreT>
std::string ContentsBytes(const StoreT& store) {
  std::ostringstream out;
  EXPECT_TRUE(SaveTripleSnapshot(store.Match(IdPattern{}), out).ok());
  return std::move(out).str();
}

// Applies one WAL record to a plain in-memory store (the oracle).
void ApplyToOracle(DeltaHexastore* store, const WalRecord& record) {
  switch (record.op) {
    case WalOp::kInsert:
      store->Insert(record.triple());
      break;
    case WalOp::kErase:
      store->Erase(record.triple());
      break;
    case WalOp::kClear:
      store->Clear();
      break;
    case WalOp::kErasePattern:
      store->ErasePattern(record.pattern());
      break;
  }
}

// A deterministic mixed workload: inserts, erases, pattern erases and a
// Clear, all through the durable store's logged entry points.
void RunWorkload(DurableDeltaHexastore* store, int ops, std::uint64_t seed) {
  Rng rng(seed);
  constexpr Id kUniverse = 9;
  for (int i = 0; i < ops; ++i) {
    const double dice = rng.NextDouble();
    const IdTriple t{rng.UniformRange(1, kUniverse),
                     rng.UniformRange(1, kUniverse),
                     rng.UniformRange(1, kUniverse)};
    if (dice < 0.62) {
      store->Insert(t);
    } else if (dice < 0.90) {
      store->Erase(t);
    } else if (dice < 0.94) {
      store->ErasePattern(IdPattern{0, t.p, 0});  // pattern-tombstone path
    } else if (dice < 0.97) {
      store->ErasePattern(IdPattern{t.s, 0, 0});  // fallback path
    } else {
      store->Clear();
    }
  }
}

TEST_F(CrashRecoveryTest, CleanReopenRecoversEverything) {
  DurabilityOptions options;
  options.dir = Dir("store");
  options.mode = DurabilityMode::kBatched;
  options.delta.compact_threshold = 1u << 20;  // no checkpoint: pure replay

  DeltaHexastore oracle;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    RunWorkload(opened.value().get(), 500, 0xFEED);
    ASSERT_TRUE(opened.value()->status().ok());
    // Mirror through the log so the oracle sees identical ops.
    auto contents = ReadWalSegment(
        (fs::path(options.dir) / WalSegmentFileName(1)).string(), true);
    ASSERT_TRUE(contents.ok());
    ASSERT_FALSE(contents.value().torn_tail);
    for (const WalRecord& r : contents.value().records) {
      ApplyToOracle(&oracle, r);
    }
    EXPECT_EQ(ContentsBytes(*opened.value()), ContentsBytes(oracle));
  }  // destructor syncs the tail

  auto reopened = DurableDeltaHexastore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened.value()->recovery_info().torn_tail);
  EXPECT_GT(reopened.value()->recovery_info().replayed_records, 0u);
  EXPECT_EQ(ContentsBytes(*reopened.value()), ContentsBytes(oracle));
  std::string err;
  EXPECT_TRUE(reopened.value()->CheckInvariants(&err)) << err;
}

TEST_F(CrashRecoveryTest, CheckpointTruncatesLogAndBoundsReplay) {
  DurabilityOptions options;
  options.dir = Dir("store");
  options.mode = DurabilityMode::kNone;
  options.delta.compact_threshold = 64;  // frequent compaction => checkpoints

  std::string expected;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok());
    // Distinct inserts so the staging buffer actually fills to the
    // threshold (the mixed workload's Clears would keep resetting it).
    for (Id i = 1; i <= 500; ++i) {
      ASSERT_TRUE(opened.value()->Insert(IdTriple{i, i % 7 + 1, i + 1}));
    }
    for (Id i = 1; i <= 100; ++i) {
      ASSERT_TRUE(opened.value()->Erase(IdTriple{i, i % 7 + 1, i + 1}));
    }
    ASSERT_TRUE(opened.value()->status().ok());
    const WalStats stats = opened.value()->wal_stats();
    EXPECT_GT(stats.checkpoints, 0u);
    expected = ContentsBytes(*opened.value());
  }

  // The manifest points past the pruned segments; nothing older remains.
  auto manifest = ReadWalManifest(options.dir);
  ASSERT_TRUE(manifest.ok());
  EXPECT_GT(manifest.value().first_segment_id, 1u);
  EXPECT_FALSE(manifest.value().snapshot_file.empty());
  auto segments = ListWalSegments(options.dir);
  ASSERT_TRUE(segments.ok());
  for (std::uint64_t id : segments.value()) {
    EXPECT_GE(id, manifest.value().first_segment_id);
  }

  auto reopened = DurableDeltaHexastore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->recovery_info().loaded_snapshot);
  // Replay is bounded by the ops since the last checkpoint, not the
  // whole history.
  EXPECT_LT(reopened.value()->recovery_info().replayed_records, 600u);
  EXPECT_EQ(ContentsBytes(*reopened.value()), expected);
}

// The acceptance-criteria torture test: truncate the WAL at every byte
// boundary of the last record and at >= 100 randomized offsets across
// the whole log; replay must recover exactly the committed prefix,
// byte-identical (via snapshot serialization) to the prefix oracle.
TEST_F(CrashRecoveryTest, TruncationAtAnyOffsetRecoversCommittedPrefix) {
  DurabilityOptions options;
  options.dir = Dir("golden");
  options.mode = DurabilityMode::kNone;  // simulated crash: file truncation
  options.delta.compact_threshold = 1u << 20;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok());
    RunWorkload(opened.value().get(), 200, 0xCAFE);
    ASSERT_TRUE(opened.value()->Flush().ok());
  }

  // Parse the (single) golden segment, tracking each record's end
  // offset: a truncation at offset c commits exactly the records whose
  // frames end at or before c.
  const std::string segment_name = WalSegmentFileName(1);
  const std::string golden_segment =
      (fs::path(options.dir) / segment_name).string();
  std::string raw;
  ASSERT_TRUE(ReadFileToString(golden_segment, &raw).ok());
  std::vector<WalRecord> records;
  std::vector<std::size_t> end_offsets;  // end_offsets[i]: after record i
  {
    std::size_t pos = kWalHeaderBytes;
    WalRecord r;
    while (ParseWalRecord(raw, &pos, &r) == WalParse::kRecord) {
      records.push_back(r);
      end_offsets.push_back(pos);
    }
    ASSERT_EQ(pos, raw.size()) << "golden segment has a torn tail";
  }
  ASSERT_GE(records.size(), 100u);

  // Prefix oracles, serialized once.
  std::vector<std::string> oracle_bytes(records.size() + 1);
  {
    DeltaHexastore oracle;
    oracle_bytes[0] = ContentsBytes(oracle);
    for (std::size_t i = 0; i < records.size(); ++i) {
      ApplyToOracle(&oracle, records[i]);
      oracle_bytes[i + 1] = ContentsBytes(oracle);
    }
  }
  auto committed_prefix = [&end_offsets](std::size_t cut) {
    std::size_t n = 0;
    while (n < end_offsets.size() && end_offsets[n] <= cut) {
      ++n;
    }
    return n;
  };

  // Crash points: every byte boundary of the last record's frame, plus
  // >= 100 randomized offsets across the file.
  std::set<std::size_t> cuts;
  const std::size_t last_start =
      records.size() >= 2 ? end_offsets[records.size() - 2]
                          : kWalHeaderBytes;
  for (std::size_t c = last_start; c <= raw.size(); ++c) {
    cuts.insert(c);
  }
  Rng rng(0xD1CE);
  while (cuts.size() < 100 + (raw.size() - last_start) + 1) {
    cuts.insert(static_cast<std::size_t>(
        rng.UniformRange(kWalHeaderBytes, raw.size())));
  }

  int verified = 0;
  for (std::size_t cut : cuts) {
    const std::string dir = CloneDir(options.dir, "crash");
    ASSERT_TRUE(
        TruncateFile((fs::path(dir) / segment_name).string(), cut).ok());
    DurabilityOptions crashed = options;
    crashed.dir = dir;
    auto recovered = DurableDeltaHexastore::Open(crashed);
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status().ToString();
    const std::size_t expected_prefix = committed_prefix(cut);
    EXPECT_EQ(recovered.value()->recovery_info().replayed_records,
              expected_prefix)
        << "cut at " << cut;
    EXPECT_EQ(ContentsBytes(*recovered.value()),
              oracle_bytes[expected_prefix])
        << "cut at " << cut;
    std::string err;
    EXPECT_TRUE(recovered.value()->CheckInvariants(&err))
        << "cut at " << cut << ": " << err;
    ++verified;
  }
  EXPECT_GE(verified, 100);
}

// After a torn-tail recovery the store must keep working: accept writes,
// checkpoint, and survive another reopen.
TEST_F(CrashRecoveryTest, RecoveredStoreStaysWritableAndReopenable) {
  DurabilityOptions options;
  options.dir = Dir("store");
  options.mode = DurabilityMode::kNone;
  options.delta.compact_threshold = 1u << 20;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok());
    RunWorkload(opened.value().get(), 80, 0xAB);
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  // Chop mid-record: 3 bytes past the header of the tail is inside the
  // first record's frame.
  const std::string segment =
      (fs::path(options.dir) / WalSegmentFileName(1)).string();
  std::string raw;
  ASSERT_TRUE(ReadFileToString(segment, &raw).ok());
  ASSERT_TRUE(TruncateFile(segment, raw.size() - 3).ok());

  std::string after_recovery;
  {
    auto recovered = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(recovered.value()->recovery_info().torn_tail);
    EXPECT_TRUE(recovered.value()->Insert(IdTriple{101, 102, 103}));
    ASSERT_TRUE(recovered.value()->Checkpoint().ok());
    EXPECT_TRUE(recovered.value()->Insert(IdTriple{104, 105, 106}));
    after_recovery = ContentsBytes(*recovered.value());
  }
  auto reopened = DurableDeltaHexastore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ContentsBytes(*reopened.value()), after_recovery);
  EXPECT_TRUE(reopened.value()->Contains(IdTriple{101, 102, 103}));
  EXPECT_TRUE(reopened.value()->Contains(IdTriple{104, 105, 106}));
}

// Fuzz-style corruption (the ntriples_fuzz_test sibling for the WAL):
// random byte flips inside the log must never crash recovery; when
// recovery succeeds the result must be SOME committed prefix of the
// oracle history, never an invented state.
TEST_F(CrashRecoveryTest, RandomCorruptionYieldsPrefixOrCleanError) {
  DurabilityOptions options;
  options.dir = Dir("golden");
  options.mode = DurabilityMode::kNone;
  options.delta.compact_threshold = 1u << 20;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok());
    RunWorkload(opened.value().get(), 60, 0x5EED);
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  const std::string segment_name = WalSegmentFileName(1);
  std::string raw;
  ASSERT_TRUE(ReadFileToString(
                  (fs::path(options.dir) / segment_name).string(), &raw)
                  .ok());
  std::vector<WalRecord> records;
  {
    std::size_t pos = kWalHeaderBytes;
    WalRecord r;
    while (ParseWalRecord(raw, &pos, &r) == WalParse::kRecord) {
      records.push_back(r);
    }
  }
  std::set<std::string> prefix_states;
  {
    DeltaHexastore oracle;
    prefix_states.insert(ContentsBytes(oracle));
    for (const WalRecord& r : records) {
      ApplyToOracle(&oracle, r);
      prefix_states.insert(ContentsBytes(oracle));
    }
  }

  Rng rng(0xF00D);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string dir = CloneDir(options.dir, "fuzz");
    const std::string segment = (fs::path(dir) / segment_name).string();
    std::string corrupted = raw;
    const std::size_t at = static_cast<std::size_t>(
        rng.UniformRange(0, corrupted.size() - 1));
    corrupted[at] = static_cast<char>(
        corrupted[at] ^ static_cast<char>(rng.UniformRange(1, 255)));
    ASSERT_TRUE(AtomicWriteFile(segment, corrupted).ok());

    DurabilityOptions crashed = options;
    crashed.dir = dir;
    auto recovered = DurableDeltaHexastore::Open(crashed);
    if (!recovered.ok()) {
      continue;  // clean, reported failure is acceptable
    }
    EXPECT_TRUE(prefix_states.count(ContentsBytes(*recovered.value())) > 0)
        << "corrupted byte " << at
        << " produced a state outside the committed-prefix set";
  }
}

// A crash between creat(2) and the segment-header write leaves an empty
// (or short) wal file. Recovery must remove it — not truncate it to a
// headerless husk that fails the strict non-newest read on every later
// open (regression: the second reopen used to fail permanently).
TEST_F(CrashRecoveryTest, EmptyCrashCreatedSegmentDoesNotBrickLaterOpens) {
  DurabilityOptions options;
  options.dir = Dir("store");
  options.mode = DurabilityMode::kNone;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened.value()->Insert(IdTriple{1, 2, 3}));
  }
  // Simulate the crash: an empty next segment appears on disk.
  {
    std::ofstream empty(
        (fs::path(options.dir) / WalSegmentFileName(2)).string(),
        std::ios::binary);
  }
  for (int reopen = 0; reopen < 3; ++reopen) {
    auto recovered = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(recovered.ok())
        << "reopen " << reopen << ": " << recovered.status().ToString();
    EXPECT_TRUE(recovered.value()->Contains(IdTriple{1, 2, 3}));
    EXPECT_EQ(recovered.value()->size(), 1u);
  }
}

// A torn tail is only legal in the NEWEST segment: damage in an older
// one is real data loss and recovery must refuse, not silently drop the
// later segments.
TEST_F(CrashRecoveryTest, CorruptionInOlderSegmentFailsOpen) {
  DurabilityOptions options;
  options.dir = Dir("store");
  options.mode = DurabilityMode::kNone;
  // No checkpoint, so segments pile up; tiny segments force several
  // rotations.
  options.delta.compact_threshold = 1u << 20;
  options.segment_bytes = 128;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok());
    for (Id i = 1; i <= 200; ++i) {
      opened.value()->Insert(IdTriple{i, i + 1, i + 2});
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  auto segments = ListWalSegments(options.dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_GE(segments.value().size(), 2u);
  // Chop the tail off the OLDEST segment.
  const std::string oldest =
      (fs::path(options.dir) / WalSegmentFileName(segments.value().front()))
          .string();
  std::string raw;
  ASSERT_TRUE(ReadFileToString(oldest, &raw).ok());
  ASSERT_TRUE(TruncateFile(oldest, raw.size() - 2).ok());

  auto reopened = DurableDeltaHexastore::Open(options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kParseError);
}

// -- Sharded crash recovery -------------------------------------------------
//
// A ShardedHexastore keeps one independent WAL per shard. The recovery
// contract generalizes per shard: after a crash, EVERY shard recovers
// exactly its own committed prefix, and the facade's contents are the
// disjoint union of those prefixes. A crash mid-group-commit — where
// the group leader fsynced some shard WALs but not others — is exactly
// a crash whose per-shard cuts differ, so the randomized cut vectors
// below (including "no cut" for some shards) cover it.

std::string ShardDir(const std::string& root, std::size_t i) {
  std::string digits = std::to_string(i);
  if (digits.size() < 3) {
    digits.insert(0, 3 - digits.size(), '0');
  }
  return (fs::path(root) / ("shard-" + digits)).string();
}

void RunShardedWorkload(ShardedHexastore* store, int ops,
                        std::uint64_t seed) {
  Rng rng(seed);
  constexpr Id kUniverse = 9;
  for (int i = 0; i < ops; ++i) {
    const double dice = rng.NextDouble();
    const IdTriple t{rng.UniformRange(1, kUniverse),
                     rng.UniformRange(1, kUniverse),
                     rng.UniformRange(1, kUniverse)};
    if (dice < 0.64) {
      store->Insert(t);
    } else if (dice < 0.92) {
      store->Erase(t);
    } else if (dice < 0.96) {
      store->ErasePattern(IdPattern{0, t.p, 0});  // fan-out to all shards
    } else {
      store->ErasePattern(IdPattern{t.s, 0, 0});  // routed to one shard
    }
  }
}

TEST_F(CrashRecoveryTest, ShardedCleanReopenRecoversEverything) {
  ShardedOptions options;
  options.shards = 4;
  options.durable = true;
  options.durability.dir = Dir("sharded");
  options.durability.mode = DurabilityMode::kBatched;
  options.durability.delta.compact_threshold = 1u << 20;  // pure replay

  std::string expected;
  {
    auto opened = ShardedHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    RunShardedWorkload(opened.value().get(), 600, 0xFEED);
    ASSERT_TRUE(opened.value()->status().ok());
    expected = ContentsBytes(*opened.value());
    ASSERT_FALSE(expected.empty());
  }  // per-shard destructors sync every WAL tail

  auto reopened = ShardedHexastore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ContentsBytes(*reopened.value()), expected);
  std::string err;
  EXPECT_TRUE(reopened.value()->CheckInvariants(&err)) << err;
  // Every shard actually replayed its own log.
  std::uint64_t replayed = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    replayed +=
        reopened.value()->durable_shard(i)->recovery_info().replayed_records;
  }
  EXPECT_GT(replayed, 0u);
}

// The sharded committed-prefix torture test: randomized crash points
// across the per-shard WALs — each trial truncates a random subset of
// shard logs at random byte offsets (mid-group-commit: some shards
// durable further than others) — must recover every shard to its own
// committed prefix, byte-identical to the per-shard prefix oracles'
// union.
TEST_F(CrashRecoveryTest, ShardedRandomCrashPointsRecoverPerShardPrefixes) {
  constexpr std::size_t kShards = 3;
  ShardedOptions options;
  options.shards = kShards;
  options.durable = true;
  options.durability.dir = Dir("sharded_golden");
  options.durability.mode = DurabilityMode::kNone;  // crash = truncation
  options.durability.delta.compact_threshold = 1u << 20;
  {
    auto opened = ShardedHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    RunShardedWorkload(opened.value().get(), 300, 0xCAFE);
    ASSERT_TRUE(opened.value()->Flush().ok());
  }

  // Parse each shard's (single) golden segment with per-record end
  // offsets, for the cut -> committed-prefix mapping.
  const std::string segment_name = WalSegmentFileName(1);
  struct ShardLog {
    std::string raw;
    std::vector<WalRecord> records;
    std::vector<std::size_t> end_offsets;
  };
  std::vector<ShardLog> logs(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string seg =
        (fs::path(ShardDir(options.durability.dir, i)) / segment_name)
            .string();
    ASSERT_TRUE(ReadFileToString(seg, &logs[i].raw).ok());
    std::size_t pos = kWalHeaderBytes;
    WalRecord r;
    while (ParseWalRecord(logs[i].raw, &pos, &r) == WalParse::kRecord) {
      logs[i].records.push_back(r);
      logs[i].end_offsets.push_back(pos);
    }
    ASSERT_EQ(pos, logs[i].raw.size()) << "shard " << i << " torn tail";
    ASSERT_GT(logs[i].records.size(), 10u)
        << "shard " << i << " saw too few ops to exercise recovery";
  }

  Rng rng(0xD1CE);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string dir = CloneDir(options.durability.dir, "sharded_crash");
    std::vector<std::size_t> prefix(kShards);
    for (std::size_t i = 0; i < kShards; ++i) {
      if (rng.Bernoulli(0.3)) {
        prefix[i] = logs[i].records.size();  // this shard's fsync landed
        continue;
      }
      const std::size_t cut = static_cast<std::size_t>(
          rng.UniformRange(kWalHeaderBytes, logs[i].raw.size()));
      ASSERT_TRUE(
          TruncateFile((fs::path(ShardDir(dir, i)) / segment_name).string(),
                       cut)
              .ok());
      std::size_t n = 0;
      while (n < logs[i].end_offsets.size() &&
             logs[i].end_offsets[n] <= cut) {
        ++n;
      }
      prefix[i] = n;
    }

    ShardedOptions crashed = options;
    crashed.durability.dir = dir;
    auto recovered = ShardedHexastore::Open(crashed);
    ASSERT_TRUE(recovered.ok())
        << "trial " << trial << ": " << recovered.status().ToString();

    // Per-shard prefix oracles; the facade union is their disjoint
    // union (subject partitioning), sorted once for serialization.
    IdTripleVec expected_union;
    for (std::size_t i = 0; i < kShards; ++i) {
      DeltaHexastore oracle;
      for (std::size_t r = 0; r < prefix[i]; ++r) {
        ApplyToOracle(&oracle, logs[i].records[r]);
      }
      const IdTripleVec part = oracle.Match(IdPattern{});
      expected_union.insert(expected_union.end(), part.begin(), part.end());
      EXPECT_EQ(
          recovered.value()->durable_shard(i)->recovery_info()
              .replayed_records,
          prefix[i])
          << "trial " << trial << " shard " << i;
    }
    std::sort(expected_union.begin(), expected_union.end());
    std::ostringstream expected;
    ASSERT_TRUE(SaveTripleSnapshot(expected_union, expected).ok());
    EXPECT_EQ(ContentsBytes(*recovered.value()), std::move(expected).str())
        << "trial " << trial;
    std::string err;
    EXPECT_TRUE(recovered.value()->CheckInvariants(&err))
        << "trial " << trial << ": " << err;
  }
}

// Changing the shard count between runs would silently misroute every
// bound-subject read and erase; the SHARDS manifest turns that into a
// clear config error instead of corruption.
TEST_F(CrashRecoveryTest, ShardCountChangeRejectedWithClearError) {
  ShardedOptions options;
  options.shards = 4;
  options.durable = true;
  options.durability.dir = Dir("sharded");
  options.durability.mode = DurabilityMode::kNone;
  std::string expected;
  {
    auto opened = ShardedHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    RunShardedWorkload(opened.value().get(), 120, 0xAB);
    ASSERT_TRUE(opened.value()->Flush().ok());
    expected = ContentsBytes(*opened.value());
  }

  ShardedOptions wrong = options;
  wrong.shards = 2;
  auto rejected = ShardedHexastore::Open(wrong);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("shard count mismatch"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("4"), std::string::npos);
  EXPECT_NE(rejected.status().message().find("2"), std::string::npos);

  // The rejection was clean: the recorded count still opens, data intact.
  auto reopened = ShardedHexastore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ContentsBytes(*reopened.value()), expected);
}

}  // namespace
}  // namespace hexastore
