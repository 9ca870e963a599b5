/// \file concurrent_store_test.cc
/// \brief Concurrency regressions for the storage engines (ctest label
/// `parallel`, run under TSAN in the verify flow):
///  - DropTable racing mutations and flushes must not free a table out
///    from under its users (tables are shared_ptr-owned).
///  - Flush() racing writers must not lose acknowledged mutations: the
///    commit/redo log is rotated to a sidecar under the shard locks and
///    only removed once every segment is on disk.
///  - A sidecar left by a flush that never finished (crash simulation) is
///    replayed at reopen, before the live log.
///  - Flush() called from several threads at once, while a writer inserts,
///    must fail no call and lose no acknowledged row: flushes take turns.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "nosql/database.h"
#include "sql/engine.h"

namespace scdwarf {
namespace {

namespace fs = std::filesystem;

nosql::TableSchema KvSchema(const std::string& name) {
  return nosql::TableSchema("ks", name,
                            {{"id", DataType::kInt},
                             {"payload", DataType::kText}},
                            "id");
}

nosql::Row KvRow(int64_t id) {
  return {Value::Int(id), Value::Text("p" + std::to_string(id))};
}

sql::SqlTableDef SqlKvDef(const std::string& name) {
  return sql::SqlTableDef("db", name,
                          {{"id", DataType::kInt, false},
                           {"payload", DataType::kText}},
                          "id");
}

sql::SqlRow SqlKvRow(int64_t id) {
  return {Value::Int(id), Value::Text("p" + std::to_string(id))};
}

class ConcurrentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("scdwarf_concurrent_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs \p write while three threads call \p engine's Flush() in a loop
  /// until it returns, and expects every Flush() to return OK.
  template <typename Engine, typename WriteFn>
  static void FlushWhileWriting(Engine& engine, WriteFn write) {
    constexpr int kFlushThreads = 3;
    std::atomic<bool> done{false};
    std::mutex mu;
    int failed = 0;
    Status first_failure;
    std::vector<std::thread> flushers;
    for (int f = 0; f < kFlushThreads; ++f) {
      flushers.emplace_back([&] {
        while (!done.load()) {
          Status status = engine.Flush();
          if (status.ok()) continue;
          std::lock_guard<std::mutex> lock(mu);
          if (failed++ == 0) first_failure = std::move(status);
        }
      });
    }
    write();
    done.store(true);
    for (std::thread& flusher : flushers) flusher.join();
    EXPECT_EQ(failed, 0) << "first failure: " << first_failure;
  }

  /// Races of one concurrent-flush test, each in a fresh directory.
  static constexpr int kRaces = 3;
  /// Rows its writer inserts into each table, one batch each.
  static constexpr int64_t kRaceRows = 600;

  fs::path dir_;
};

// Regression: GetTable used to hand out a raw pointer that DropTable could
// destroy mid-mutation (and mid-flush) — a use-after-free that TSAN/ASAN
// flags here. With shared_ptr ownership the mutation lands on the
// orphaned table object and is discarded with it.
TEST_F(ConcurrentStoreTest, NoSqlDropTableDuringMutationsAndFlushesIsSafe) {
  auto db = nosql::Database::Open(dir_.string());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->CreateKeyspace("ks").ok());
  ASSERT_TRUE(db->CreateTable(KvSchema("t")).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t id = 0;
    while (!stop.load()) {
      std::vector<nosql::Row> rows;
      for (int i = 0; i < 8; ++i) rows.push_back(KvRow(id++));
      // NotFound while the table is dropped is fine; crashing is not.
      (void)db->BulkInsert("ks", "t", std::move(rows));
      EXPECT_TRUE(db->Flush().ok());
    }
  });
  for (int round = 0; round < 50; ++round) {
    (void)db->DropTable("ks", "t");
    (void)db->CreateTable(KvSchema("t"));
  }
  stop.store(true);
  writer.join();
  // The final incarnation of the table is still usable.
  ASSERT_TRUE(db->GetTable("ks", "t").ok());
  EXPECT_TRUE(db->Insert("ks", "t", KvRow(1 << 20)).ok());
}

// Regression: Flush() used to delete the whole commit log after its barrier,
// dropping records for rows a concurrent writer appended-and-applied after
// their table was serialized — those rows then existed nowhere durable.
// With the rotate-then-delete protocol every acknowledged row survives
// reopen, whichever side of a concurrent flush it landed on.
TEST_F(ConcurrentStoreTest, NoSqlFlushDuringWritesLosesNoAcknowledgedRow) {
  constexpr int64_t kRows = 400;
  {
    auto db = nosql::Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateKeyspace("ks").ok());
    ASSERT_TRUE(db->CreateTable(KvSchema("t")).ok());
    ASSERT_TRUE(db->Flush().ok());  // persist schema before the race starts
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (int64_t id = 0; id < kRows; ++id) {
        ASSERT_TRUE(db->BulkInsert("ks", "t", {KvRow(id)}).ok());
      }
      done.store(true);
    });
    while (!done.load()) {
      ASSERT_TRUE(db->Flush().ok());
    }
    writer.join();
    // Simulated crash: no final Flush — rows not captured by the racing
    // flushes must still be in the live log (or the sidecar of a flush
    // that hadn't deleted it yet).
  }
  auto db = nosql::Database::Open(dir_.string());
  ASSERT_TRUE(db.ok()) << db.status();
  auto table = db->GetTable("ks", "t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), static_cast<size_t>(kRows));
}

// Crash between log rotation and sidecar deletion: the sidecar must replay
// at reopen, and must replay before the live log.
TEST_F(ConcurrentStoreTest, NoSqlRotatedCommitLogReplaysOnOpen) {
  {
    auto db = nosql::Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->CreateKeyspace("ks").ok());
    ASSERT_TRUE(db->CreateTable(KvSchema("t")).ok());
    ASSERT_TRUE(db->Flush().ok());  // persist schema; the log only has rows
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(db->Insert("ks", "t", KvRow(id)).ok());
    }
  }
  // Simulate a flush that rotated the log and then died.
  fs::rename(dir_ / "commitlog.bin", dir_ / "commitlog.old.bin");
  {
    auto db = nosql::Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ((*db->GetTable("ks", "t"))->num_rows(), 10u);
    // More unflushed writes land in a fresh live log while the sidecar
    // still exists; both must replay, sidecar first.
    for (int64_t id = 10; id < 15; ++id) {
      ASSERT_TRUE(db->Insert("ks", "t", KvRow(id)).ok());
    }
  }
  auto db = nosql::Database::Open(dir_.string());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db->GetTable("ks", "t"))->num_rows(), 15u);
  // A later clean Flush folds both logs away.
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_FALSE(fs::exists(dir_ / "commitlog.bin"));
  EXPECT_FALSE(fs::exists(dir_ / "commitlog.old.bin"));
}

// Flush() called from three threads at once while a writer inserts into two
// tables. Concurrent flushes must take turns: one that deleted the sidecar
// while another's rotated records were in no file yet would lose rows at
// the reopen below, and SQL flushes sharing one doublewrite temp file would
// fail.
TEST_F(ConcurrentStoreTest, NoSqlConcurrentFlushesFailNoneAndLoseNoRow) {
  for (int race = 0; race < kRaces; ++race) {
    SCOPED_TRACE("race " + std::to_string(race));
    const std::string dir = (dir_ / std::to_string(race)).string();
    {
      auto db = nosql::Database::Open(dir);
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE(db->CreateKeyspace("ks").ok());
      ASSERT_TRUE(db->CreateTable(KvSchema("a")).ok());
      ASSERT_TRUE(db->CreateTable(KvSchema("b")).ok());
      FlushWhileWriting(*db, [&] {
        for (int64_t id = 0; id < kRaceRows; ++id) {
          ASSERT_TRUE(db->BulkInsert("ks", "a", {KvRow(id)}).ok());
          ASSERT_TRUE(db->BulkInsert("ks", "b", {KvRow(id)}).ok());
        }
      });
      // Closed without a final flush: every row must be in a segment, the
      // sidecar or the live log.
    }
    auto db = nosql::Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    for (const char* table : {"a", "b"}) {
      auto t = db->GetTable("ks", table);
      ASSERT_TRUE(t.ok()) << t.status();
      EXPECT_EQ((*t)->num_rows(), static_cast<size_t>(kRaceRows)) << table;
      for (int64_t id = 0; id < kRaceRows; ++id) {
        auto row = (*t)->GetByPk(Value::Int(id));
        ASSERT_TRUE(row.ok()) << table << " lost row " << id;
        EXPECT_EQ(*row, KvRow(id));
      }
    }
  }
}

TEST_F(ConcurrentStoreTest, SqlConcurrentFlushesFailNoneAndLoseNoRow) {
  for (int race = 0; race < kRaces; ++race) {
    SCOPED_TRACE("race " + std::to_string(race));
    const std::string dir = (dir_ / std::to_string(race)).string();
    {
      auto engine = sql::SqlEngine::Open(dir);
      ASSERT_TRUE(engine.ok()) << engine.status();
      ASSERT_TRUE(engine->CreateDatabase("db").ok());
      ASSERT_TRUE(engine->CreateTable(SqlKvDef("a")).ok());
      ASSERT_TRUE(engine->CreateTable(SqlKvDef("b")).ok());
      FlushWhileWriting(*engine, [&] {
        for (int64_t id = 0; id < kRaceRows; ++id) {
          ASSERT_TRUE(engine->BulkInsert("db", "a", {SqlKvRow(id)}).ok());
          ASSERT_TRUE(engine->BulkInsert("db", "b", {SqlKvRow(id)}).ok());
        }
      });
    }
    auto engine = sql::SqlEngine::Open(dir);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (const char* table : {"a", "b"}) {
      auto t = engine->GetTable("db", table);
      ASSERT_TRUE(t.ok()) << t.status();
      EXPECT_EQ((*t)->num_rows(), static_cast<size_t>(kRaceRows)) << table;
      for (int64_t id = 0; id < kRaceRows; ++id) {
        auto row = (*t)->GetByPk(Value::Int(id));
        ASSERT_TRUE(row.ok()) << table << " lost row " << id;
        EXPECT_EQ(**row, SqlKvRow(id));
      }
    }
  }
}

// A flush writes its tables on several threads; each table's span still
// parents on the flush that wrote it, so a trace shows one tree per flush.
TEST_F(ConcurrentStoreTest, NoSqlSegmentFlushSpansParentOnTheirFlush) {
  auto db = nosql::Database::Open(dir_.string());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->CreateKeyspace("ks").ok());
  for (const char* table : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(db->CreateTable(KvSchema(table)).ok());
    ASSERT_TRUE(db->BulkInsert("ks", table, {KvRow(1), KvRow(2)}).ok());
  }
  trace::Clear();
  trace::SetEnabled(true);
  Status flushed = db->Flush();
  trace::SetEnabled(false);
  ASSERT_TRUE(flushed.ok()) << flushed;
  uint64_t flush_id = 0;
  std::vector<uint64_t> segment_parents;
  for (const trace::Span& span : trace::Snapshot()) {
    if (span.name == "nosql.flush") flush_id = span.id;
    if (span.name == "nosql.segment_flush") {
      segment_parents.push_back(span.parent);
    }
  }
  trace::Clear();
  ASSERT_NE(flush_id, 0u);
  EXPECT_EQ(segment_parents, std::vector<uint64_t>(4, flush_id));
}

TEST_F(ConcurrentStoreTest, SqlDropTableDuringMutationsIsSafe) {
  auto engine = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(engine->CreateDatabase("db").ok());
  ASSERT_TRUE(engine->CreateTable(SqlKvDef("t")).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t id = 0;
    while (!stop.load()) {
      std::vector<sql::SqlRow> rows;
      for (int i = 0; i < 8; ++i) rows.push_back(SqlKvRow(id++));
      (void)engine->BulkInsert("db", "t", std::move(rows));
    }
  });
  for (int round = 0; round < 50; ++round) {
    (void)engine->DropTable("db", "t");
    (void)engine->CreateTable(SqlKvDef("t"));
  }
  stop.store(true);
  writer.join();
  ASSERT_TRUE(engine->GetTable("db", "t").ok());
  EXPECT_TRUE(engine->Insert("db", "t", SqlKvRow(1 << 20)).ok());
}

TEST_F(ConcurrentStoreTest, SqlFlushDuringWritesLosesNoAcknowledgedRow) {
  constexpr int64_t kRows = 200;  // redo appends fsync: keep the count modest
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    ASSERT_TRUE(engine->CreateTable(SqlKvDef("t")).ok());
    ASSERT_TRUE(engine->Flush().ok());  // persist schema before the race starts
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (int64_t id = 0; id < kRows; ++id) {
        ASSERT_TRUE(engine->BulkInsert("db", "t", {SqlKvRow(id)}).ok());
      }
      done.store(true);
    });
    while (!done.load()) {
      ASSERT_TRUE(engine->Flush().ok());
    }
    writer.join();
  }
  auto engine = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto table = engine->GetTable("db", "t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), static_cast<size_t>(kRows));
}

TEST_F(ConcurrentStoreTest, SqlRotatedRedoLogReplaysOnOpen) {
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    ASSERT_TRUE(engine->CreateTable(SqlKvDef("t")).ok());
    ASSERT_TRUE(engine->Flush().ok());  // persist schema; the log only has rows
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(engine->Insert("db", "t", SqlKvRow(id)).ok());
    }
  }
  fs::rename(dir_ / "redolog.bin", dir_ / "redolog.old.bin");
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ((*engine->GetTable("db", "t"))->num_rows(), 10u);
    for (int64_t id = 10; id < 15; ++id) {
      ASSERT_TRUE(engine->Insert("db", "t", SqlKvRow(id)).ok());
    }
  }
  auto engine = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine->GetTable("db", "t"))->num_rows(), 15u);
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_FALSE(fs::exists(dir_ / "redolog.bin"));
  EXPECT_FALSE(fs::exists(dir_ / "redolog.old.bin"));
}

// --- SQL crash-recovery matrix -------------------------------------------
// The remaining cases walk the redo-log protocol's crash windows one by one,
// mirroring the nosql commit-log coverage: every acknowledged mutation must
// survive reopen, and replay must be idempotent no matter how many times a
// log (or its rotated sidecar) is applied.

// Replay without an intervening Flush: every reopen re-applies the same live
// redo log onto the recovered state. Inserts that already landed must be
// tolerated (AlreadyExists) and deletes of already-deleted keys too
// (NotFound) — row counts must be identical after each reopen.
TEST_F(ConcurrentStoreTest, SqlReplayIsIdempotentAcrossRepeatedReopens) {
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    ASSERT_TRUE(engine->CreateTable(SqlKvDef("t")).ok());
    ASSERT_TRUE(engine->Flush().ok());  // persist schema; the log only has rows
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(engine->Insert("db", "t", SqlKvRow(id)).ok());
    }
    for (int64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(engine->Delete("db", "t", Value::Int(id)).ok());
    }
    // Simulated crash: no Flush, the log holds 10 inserts + 3 deletes.
  }
  for (int reopen = 0; reopen < 3; ++reopen) {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto table = engine->GetTable("db", "t");
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ((*table)->num_rows(), 7u) << "reopen " << reopen;
  }
}

// Crash window between tablespace serialization and sidecar deletion: the
// flush wrote every row to its tablespace but died before removing the
// rotated log, so reopen replays mutations that are already durable. The
// duplicate application must be absorbed, not doubled and not fatal.
TEST_F(ConcurrentStoreTest, SqlSidecarReplayOverSerializedTablespaceIsAbsorbed) {
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    ASSERT_TRUE(engine->CreateTable(SqlKvDef("t")).ok());
    ASSERT_TRUE(engine->Flush().ok());
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(engine->Insert("db", "t", SqlKvRow(id)).ok());
    }
    ASSERT_TRUE(engine->Delete("db", "t", Value::Int(0)).ok());
    // Keep a copy of the live log, then let the flush complete normally
    // (tablespaces serialized, both logs gone).
    fs::copy_file(dir_ / "redolog.bin", dir_ / "redolog.stash");
    ASSERT_TRUE(engine->Flush().ok());
    ASSERT_FALSE(fs::exists(dir_ / "redolog.bin"));
  }
  // Resurrect the pre-flush log as the sidecar a dying flush would leave.
  fs::rename(dir_ / "redolog.stash", dir_ / "redolog.old.bin");
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto table = engine->GetTable("db", "t");
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ((*table)->num_rows(), 9u);  // 10 inserts - 1 delete, no doubles
    // The recovered engine keeps working and the next flush retires the
    // sidecar for good.
    ASSERT_TRUE(engine->Insert("db", "t", SqlKvRow(100)).ok());
    ASSERT_TRUE(engine->Flush().ok());
  }
  EXPECT_FALSE(fs::exists(dir_ / "redolog.old.bin"));
  auto engine = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine->GetTable("db", "t"))->num_rows(), 10u);
}

// Kill after rotation with deletes in flight, then keep working across two
// more incarnations: the sidecar (inserts + deletes) and the new live log
// must replay in order, sidecar first, and a clean flush folds both away.
TEST_F(ConcurrentStoreTest, SqlKillAfterRotationWithDeletesReplaysInOrder) {
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    ASSERT_TRUE(engine->CreateTable(SqlKvDef("t")).ok());
    ASSERT_TRUE(engine->Flush().ok());
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(engine->Insert("db", "t", SqlKvRow(id)).ok());
    }
    for (int64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(engine->Delete("db", "t", Value::Int(id)).ok());
    }
  }
  // The flush rotated the log and died before serializing anything.
  fs::rename(dir_ / "redolog.bin", dir_ / "redolog.old.bin");
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ((*engine->GetTable("db", "t"))->num_rows(), 7u);
    // More acknowledged work lands in a fresh live log while the sidecar
    // still exists; crash again without flushing.
    ASSERT_TRUE(engine->Delete("db", "t", Value::Int(3)).ok());
    for (int64_t id = 10; id < 13; ++id) {
      ASSERT_TRUE(engine->Insert("db", "t", SqlKvRow(id)).ok());
    }
  }
  auto engine = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine->GetTable("db", "t"))->num_rows(), 9u);  // 7 - 1 + 3
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_FALSE(fs::exists(dir_ / "redolog.bin"));
  EXPECT_FALSE(fs::exists(dir_ / "redolog.old.bin"));
  auto reopened = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened->GetTable("db", "t"))->num_rows(), 9u);
}

// Kill mid-flush after rotation while a writer is still appending: rows
// acknowledged on either side of the rotation must all be present at
// reopen. The kill point is simulated by copying the directory at a moment
// when the sidecar exists (flush still running) and recovering from the
// copy.
TEST_F(ConcurrentStoreTest, SqlConcurrentWriterSurvivesKillAfterRotation) {
  constexpr int64_t kRows = 120;
  {
    auto engine = sql::SqlEngine::Open(dir_.string());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    ASSERT_TRUE(engine->CreateTable(SqlKvDef("t")).ok());
    ASSERT_TRUE(engine->Flush().ok());
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (int64_t id = 0; id < kRows; ++id) {
        ASSERT_TRUE(engine->BulkInsert("db", "t", {SqlKvRow(id)}).ok());
      }
      done.store(true);
    });
    while (!done.load()) {
      ASSERT_TRUE(engine->Flush().ok());
    }
    writer.join();
    // Crash: whatever the racing flushes didn't serialize is in the live
    // log or a sidecar.
  }
  auto engine = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto table = engine->GetTable("db", "t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), static_cast<size_t>(kRows));
  // Recovery must also be repeatable before the next flush.
  auto again = sql::SqlEngine::Open(dir_.string());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again->GetTable("db", "t"))->num_rows(),
            static_cast<size_t>(kRows));
}

}  // namespace
}  // namespace scdwarf
