// Tests for the consolidated HEXA_* environment reader
// (server/store_options.h): FromEnv mapping into all three option
// structs, unparsable-value repair notes, and ServerOptions::Normalize
// clamping.
#include <gtest/gtest.h>

#include <cstdlib>

#include "server/store_options.h"

namespace hexastore {
namespace {

// Clears every variable FromEnv reads, so tests see only what they set.
class StoreOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearAll(); }
  void TearDown() override { ClearAll(); }

  static void ClearAll() {
    for (const char* name :
         {"HEXA_COMPACT_THRESHOLD", "HEXA_BG_COMPACTION",
          "HEXA_L0_RUN_LIMIT", "HEXA_L1_BASE_FRACTION", "HEXA_MEM_BUDGET",
          "HEXA_FILTER_BITS", "HEXA_WAL_DIR", "HEXA_WAL_MODE",
          "HEXA_WAL_SEGMENT_BYTES", "HEXA_WAL_BATCH_BYTES",
          "HEXA_BG_CHECKPOINTS", "HEXA_HOST", "HEXA_PORT",
          "HEXA_SERVER_THREADS", "HEXA_SERVER_QUEUE",
          "HEXA_QUERY_DEADLINE_MS", "HEXA_PLAN_CACHE_CAP",
          "HEXA_PLAN_CACHE_QERR", "HEXA_MAX_REQUEST_BYTES",
          "HEXA_SHARDS"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(StoreOptionsTest, DefaultsWhenEnvironmentIsEmpty) {
  std::string notes;
  StoreOptions options = StoreOptions::FromEnv(&notes);
  EXPECT_TRUE(notes.empty()) << notes;
  EXPECT_FALSE(options.durable);
  EXPECT_EQ(options.server.host, "127.0.0.1");
  EXPECT_EQ(options.server.port, 8585);
  EXPECT_EQ(options.server.threads, 4u);
  EXPECT_EQ(options.server.queue_depth, 64u);
  EXPECT_EQ(options.server.query_deadline_ms, 0u);
  EXPECT_EQ(options.delta.compact_threshold,
            DeltaOptions{}.compact_threshold);
}

TEST_F(StoreOptionsTest, StoreShapeKnobsReachDeltaAndDurability) {
  ::setenv("HEXA_COMPACT_THRESHOLD", "123", 1);
  ::setenv("HEXA_BG_COMPACTION", "1", 1);
  ::setenv("HEXA_L0_RUN_LIMIT", "3", 1);
  StoreOptions options = StoreOptions::FromEnv();
  EXPECT_EQ(options.delta.compact_threshold, 123u);
  EXPECT_TRUE(options.delta.background_compaction);
  EXPECT_EQ(options.delta.l0_run_limit, 3u);
  // The same shape applies to the durable configuration: one store
  // geometry regardless of whether the WAL wrapper is in front.
  EXPECT_EQ(options.durability.delta.compact_threshold, 123u);
  EXPECT_TRUE(options.durability.delta.background_compaction);
  EXPECT_EQ(options.durability.delta.l0_run_limit, 3u);
}

TEST_F(StoreOptionsTest, ShardsKnob) {
  // Default: unsharded.
  EXPECT_EQ(StoreOptions::FromEnv().shards, 1u);
  ::setenv("HEXA_SHARDS", "4", 1);
  std::string notes;
  EXPECT_EQ(StoreOptions::FromEnv(&notes).shards, 4u);
  EXPECT_TRUE(notes.empty()) << notes;
  // Unparsable keeps the default and notes the repair.
  ::setenv("HEXA_SHARDS", "many", 1);
  notes.clear();
  EXPECT_EQ(StoreOptions::FromEnv(&notes).shards, 1u);
  EXPECT_NE(notes.find("HEXA_SHARDS"), std::string::npos) << notes;
  // Zero is clamped to 1 (a facade always has at least one shard).
  ::setenv("HEXA_SHARDS", "0", 1);
  notes.clear();
  EXPECT_EQ(StoreOptions::FromEnv(&notes).shards, 1u);
  EXPECT_NE(notes.find("shards=0"), std::string::npos) << notes;
}

TEST_F(StoreOptionsTest, WalDirImpliesDurable) {
  ::setenv("HEXA_WAL_DIR", "/tmp/hexa-test-wal", 1);
  ::setenv("HEXA_WAL_MODE", "per-commit", 1);
  StoreOptions options = StoreOptions::FromEnv();
  EXPECT_TRUE(options.durable);
  EXPECT_EQ(options.durability.dir, "/tmp/hexa-test-wal");
  EXPECT_EQ(options.durability.mode, DurabilityMode::kPerCommit);
}

TEST_F(StoreOptionsTest, ServerKnobs) {
  ::setenv("HEXA_HOST", "0.0.0.0", 1);
  ::setenv("HEXA_PORT", "9191", 1);
  ::setenv("HEXA_SERVER_THREADS", "8", 1);
  ::setenv("HEXA_SERVER_QUEUE", "16", 1);
  ::setenv("HEXA_QUERY_DEADLINE_MS", "250", 1);
  ::setenv("HEXA_PLAN_CACHE_CAP", "32", 1);
  ::setenv("HEXA_PLAN_CACHE_QERR", "3.5", 1);
  StoreOptions options = StoreOptions::FromEnv();
  EXPECT_EQ(options.server.host, "0.0.0.0");
  EXPECT_EQ(options.server.port, 9191);
  EXPECT_EQ(options.server.threads, 8u);
  EXPECT_EQ(options.server.queue_depth, 16u);
  EXPECT_EQ(options.server.query_deadline_ms, 250u);
  EXPECT_EQ(options.server.plan_cache_capacity, 32u);
  EXPECT_DOUBLE_EQ(options.server.plan_cache_q_error, 3.5);
}

TEST_F(StoreOptionsTest, UnparsableValueKeepsDefaultAndNotes) {
  ::setenv("HEXA_SERVER_THREADS", "lots", 1);
  std::string notes;
  StoreOptions options = StoreOptions::FromEnv(&notes);
  EXPECT_EQ(options.server.threads, 4u);
  EXPECT_NE(notes.find("HEXA_SERVER_THREADS"), std::string::npos) << notes;
}

// Counts are digits only: a sign, surrounding whitespace or a value past
// 2^64 - 1 keeps the default and leaves a note, instead of wrapping to a
// huge thread count or an unbounded queue. Reads the environment only;
// no server is started.
TEST_F(StoreOptionsTest, SignedSpacedOrOverflowingCountsKeepDefault) {
  const ServerOptions defaults;
  for (const char* name : {"HEXA_SERVER_THREADS", "HEXA_SERVER_QUEUE"}) {
    for (const char* value :
         {"-1", "+8", " 8", "8 ", "18446744073709551616"}) {
      ::setenv(name, value, 1);
      std::string notes;
      const StoreOptions options = StoreOptions::FromEnv(&notes);
      EXPECT_EQ(options.server.threads, defaults.threads)
          << name << "=\"" << value << "\"";
      EXPECT_EQ(options.server.queue_depth, defaults.queue_depth)
          << name << "=\"" << value << "\"";
      EXPECT_NE(notes.find(name), std::string::npos)
          << name << "=\"" << value << "\": " << notes;
      ::unsetenv(name);
    }
  }
}

TEST_F(StoreOptionsTest, NormalizeRepairsInvalidServerOptions) {
  ServerOptions server;
  server.host = "";
  server.threads = 0;
  server.queue_depth = 0;
  server.plan_cache_capacity = 0;
  server.plan_cache_q_error = 0.5;  // < 1 is meaningless for a q-error
  server.max_request_bytes = 16;    // cannot fit a request line
  std::string note = server.Normalize();
  EXPECT_FALSE(note.empty());
  EXPECT_EQ(server.host, "127.0.0.1");
  EXPECT_GT(server.threads, 0u);
  EXPECT_GT(server.queue_depth, 0u);
  EXPECT_GT(server.plan_cache_capacity, 0u);
  EXPECT_GE(server.plan_cache_q_error, 1.0);
  EXPECT_GE(server.max_request_bytes, 1024u);
}

TEST_F(StoreOptionsTest, NormalizeIsIdempotentOnValidOptions) {
  ServerOptions server;
  EXPECT_EQ(server.Normalize(), "");
}

}  // namespace
}  // namespace hexastore
