// Tests for the file, record-log and catalog layer under both storage
// engines (common/files.h, common/record_log.h, common/table_catalog.h): the
// mutation record layout, replay of torn and corrupt logs, what a failed
// write leaves behind, and which catalog changes a reopen finds — in the
// layer itself and through each engine.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/files.h"
#include "common/record_log.h"
#include "nosql/database.h"
#include "sql/engine.h"

namespace scdwarf {
namespace {

namespace fs = std::filesystem;

/// Lowers this process's soft RLIMIT_FSIZE to \p bytes, with SIGXFSZ
/// ignored, so a write that would grow a file past it fails with EFBIG;
/// restores both on destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_limit_);
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGXFSZ, &ignore, &saved_action_);
    rlimit lowered = saved_limit_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_limit_);
    ::sigaction(SIGXFSZ, &saved_action_, nullptr);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_limit_ = {};
  struct sigaction saved_action_ = {};
};

std::vector<uint8_t> ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("scdwarf_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Every record Replay hands out, as bytes.
  static std::vector<std::vector<uint8_t>> ReplayAll(RecordLog* log) {
    std::vector<std::vector<uint8_t>> records;
    Status status = log->Replay([&records](ByteReader* record) {
      std::vector<uint8_t>& bytes = records.emplace_back();
      while (!record->AtEnd()) bytes.push_back(*record->ReadU8());
      return Status::OK();
    });
    EXPECT_TRUE(status.ok()) << status;
    return records;
  }

  fs::path dir_;
};

// ------------------------------------------------------------ record log

// The shared encoder writes the layout the corrupt-log tests of both
// engines build by hand, and the decoder reads it back.
TEST_F(StorageTest, EncoderMatchesTheHandBuiltLayout) {
  const std::vector<Value> row = {Value::Int(7), Value::Text("k"),
                                  Value::Null(), Value::Bool(true)};
  const Value key = Value::Int(3);
  ByteWriter shared;
  PutMutationHeader(&shared, "dwarfks", "dwarf_cell", 2, /*is_delete=*/false);
  PutMutationRow(&shared, row);
  PutMutationRow(&shared, {&key, 1});

  ByteWriter hand;
  hand.PutU8(0);
  hand.PutString("dwarfks");
  hand.PutString("dwarf_cell");
  hand.PutVarint(2);
  hand.PutVarint(row.size());
  for (const Value& value : row) value.EncodeTo(&hand);
  hand.PutVarint(1);
  key.EncodeTo(&hand);
  EXPECT_EQ(shared.data(), hand.data());

  ByteReader reader(shared.data());
  auto mutation = DecodeMutation(&reader);
  ASSERT_TRUE(mutation.ok()) << mutation.status();
  EXPECT_FALSE(mutation->is_delete);
  EXPECT_EQ(mutation->scope, "dwarfks");
  EXPECT_EQ(mutation->table, "dwarf_cell");
  EXPECT_EQ(mutation->rows, (std::vector<std::vector<Value>>{row, {key}}));

  ByteWriter deletion;
  PutMutationHeader(&deletion, "db", "t", 0, /*is_delete=*/true);
  EXPECT_EQ(deletion.data().front(), 1);
}

// A log cut anywhere inside its last frame replays every earlier record,
// and a record appended after the replay is not hidden behind the cut.
TEST_F(StorageTest, ReplayCutsATornTailAndKeepsLaterAppends) {
  const std::vector<std::vector<uint8_t>> records = {
      {1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11, 12}};
  size_t whole = 0;  // file size with the first two records
  std::vector<uint8_t> full;
  {
    RecordLog log(dir_.string(), "log", /*fsync_each_append=*/false);
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(log.Append(records[i]).ok());
      if (i == 1) whole = fs::file_size(dir_ / "log.bin");
    }
  }
  const fs::path path = dir_ / "log.bin";
  full = ReadBytes(path);
  for (size_t cut = whole + 1; cut < full.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(full.data()),
                static_cast<std::streamsize>(cut));
    }
    RecordLog log(dir_.string(), "log", /*fsync_each_append=*/false);
    EXPECT_EQ(ReplayAll(&log),
              (std::vector<std::vector<uint8_t>>{records[0], records[1]}));
    EXPECT_EQ(fs::file_size(path), whole);
    ASSERT_TRUE(log.Append(records[2]).ok());
    EXPECT_EQ(ReplayAll(&log), records);
  }
}

// A record that declares more rows than its frame holds is a ParseError
// naming the file: the decoder reads inside the frame, never into the next
// record.
TEST_F(StorageTest, RowsOverrunningTheFrameAreAParseErrorNamingTheFile) {
  RecordLog log(dir_.string(), "log", /*fsync_each_append=*/false);
  const Value key = Value::Int(1);
  for (uint64_t declared : {2, 1}) {
    ByteWriter record;
    PutMutationHeader(&record, "db", "t", declared, /*is_delete=*/true);
    PutMutationRow(&record, {&key, 1});
    ASSERT_TRUE(log.Append(record.data()).ok());
  }
  Status status = log.Replay([](ByteReader* record) {
    return DecodeMutation(record).status();
  });
  EXPECT_TRUE(status.IsParseError()) << status;
  EXPECT_NE(status.ToString().find((dir_ / "log.bin").string()),
            std::string::npos)
      << status;
}

// Rotation onto a sidecar a failed flush left behind: when the append to
// the sidecar fails, the sidecar is cut back and the live log stays, so a
// later rotation still replays every record in order.
TEST_F(StorageTest, FailedRotationAppendLeavesBothFilesWhole) {
  RecordLog log(dir_.string(), "log", /*fsync_each_append=*/true);
  const fs::path live = dir_ / "log.bin";
  const fs::path rotated = dir_ / "log.old.bin";
  ASSERT_TRUE(log.Append(std::vector<uint8_t>(20, 1)).ok());
  ASSERT_TRUE(*log.Rotate());
  const uintmax_t sidecar = fs::file_size(rotated);
  ASSERT_TRUE(log.Append(std::vector<uint8_t>(200, 2)).ok());
  {
    FileSizeLimit limit(100);
    EXPECT_TRUE(log.Rotate().status().IsIoError());
  }
  EXPECT_EQ(fs::file_size(rotated), sidecar);
  ASSERT_TRUE(fs::exists(live));
  ASSERT_TRUE(log.Append(std::vector<uint8_t>(3, 3)).ok());
  ASSERT_TRUE(*log.Rotate());
  EXPECT_FALSE(fs::exists(live));
  EXPECT_EQ(ReplayAll(&log), (std::vector<std::vector<uint8_t>>{
                                 std::vector<uint8_t>(20, 1),
                                 std::vector<uint8_t>(200, 2),
                                 std::vector<uint8_t>(3, 3)}));
}

// ReplayMutations hands out no row logged before its table's last create
// record, in the sidecar or the live log: those rows belong to a dropped
// table of the same name. Other tables' rows pass.
TEST_F(StorageTest, ReplaySkipsRecordsBeforeTheirTablesCreateRecord) {
  RecordLog log(dir_.string(), "log", /*fsync_each_append=*/false);
  auto append_row = [&log](const std::string& table, int64_t id) {
    const Value key = Value::Int(id);
    ByteWriter record;
    PutMutationHeader(&record, "ks", table, 1, /*is_delete=*/false);
    PutMutationRow(&record, {&key, 1});
    ASSERT_TRUE(log.Append(record.data()).ok());
  };
  auto append_create = [&log](const std::string& table) {
    ByteWriter record;
    PutCreateRecord(&record, "ks", table);
    ASSERT_TRUE(log.Append(record.data(), /*sync=*/true).ok());
  };
  append_create("t");
  append_row("t", 1);
  append_row("u", 2);
  ASSERT_TRUE(*log.Rotate());
  append_create("t");  // t was dropped, and is created again
  append_row("t", 3);
  append_row("u", 4);
  std::vector<std::pair<std::string, int64_t>> replayed;
  Status status = ReplayMutations(&log, [&replayed](Mutation& mutation) {
    for (const std::vector<Value>& row : mutation.rows) {
      replayed.emplace_back(mutation.table, *row.at(0).AsInt());
    }
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(replayed, (std::vector<std::pair<std::string, int64_t>>{
                          {"u", 2}, {"t", 3}, {"u", 4}}));
}

// ----------------------------------------------------------------- files

// A failed atomic write removes its temp file and leaves the old file.
TEST_F(StorageTest, FailedAtomicWriteLeavesTheOldFile) {
  const std::string path = (dir_ / "f.bin").string();
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  {
    FileSizeLimit limit(100);
    EXPECT_TRUE(WriteFileAtomic(path, std::string(1000, 'x')).IsIoError());
  }
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "old");
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_), {}), 1);
}

// --------------------------------------------------------------- engines

nosql::TableSchema KvSchema(const std::string& keyspace = "ks",
                            const std::string& name = "kv") {
  return nosql::TableSchema(keyspace, name,
                            {{"id", DataType::kInt}, {"v", DataType::kText}},
                            "id");
}

sql::SqlTableDef KvDef(const std::string& database = "db",
                       const std::string& name = "kv") {
  return sql::SqlTableDef(
      database, name, {{"id", DataType::kInt, false}, {"v", DataType::kText}},
      "id");
}

/// Opens the NoSQL store in \p dir, creating ks.kv (flushed, so it survives
/// a reopen) on first use. A failed open fails the test and yields an empty
/// in-memory store.
nosql::Database OpenNoSql(const fs::path& dir) {
  auto db = nosql::Database::Open(dir.string());
  if (!db.ok()) {
    ADD_FAILURE() << db.status();
    return nosql::Database();
  }
  if (!db->HasKeyspace("ks")) {
    EXPECT_TRUE(db->CreateKeyspace("ks").ok());
    EXPECT_TRUE(db->CreateTable(KvSchema()).ok());
    EXPECT_TRUE(db->Flush().ok());
  }
  return std::move(*db);
}

/// Opens the SQL engine in \p dir, creating db.kv on first use, like
/// OpenNoSql.
sql::SqlEngine OpenSql(const fs::path& dir) {
  auto engine = sql::SqlEngine::Open(dir.string());
  if (!engine.ok()) {
    ADD_FAILURE() << engine.status();
    return sql::SqlEngine();
  }
  if (!engine->HasDatabase("db")) {
    EXPECT_TRUE(engine->CreateDatabase("db").ok());
    EXPECT_TRUE(engine->CreateTable(KvDef()).ok());
    EXPECT_TRUE(engine->Flush().ok());
  }
  return std::move(*engine);
}

std::vector<std::vector<Value>> KvRows(int first, int count) {
  std::vector<std::vector<Value>> rows;
  for (int i = first; i < first + count; ++i) {
    rows.push_back({Value::Int(i), Value::Text("row " + std::to_string(i))});
  }
  return rows;
}

/// A scanned row: a NoSQL scan yields decoded rows, a SQL scan pointers.
const std::vector<Value>& RowOf(const std::vector<Value>& row) { return row; }
const std::vector<Value>& RowOf(const std::vector<Value>* row) { return *row; }

/// The ids in \p scope.\p name of \p engine, in scan order; none when the
/// table is missing.
template <typename Engine>
std::vector<int64_t> KvIds(const Engine& engine, const std::string& scope,
                           const std::string& name = "kv") {
  std::vector<int64_t> ids;
  auto table = engine.GetTable(scope, name);
  if (!table.ok()) return ids;
  for (const auto& row : (*table)->ScanAll()) {
    ids.push_back(*RowOf(row)[0].AsInt());
  }
  return ids;
}

/// Cuts the last byte off \p path, tearing its last frame.
void CutLastByte(const fs::path& path) {
  fs::resize_file(path, fs::file_size(path) - 1);
}

// An append cut short by an I/O error leaves no partial frame: the next
// acknowledged insert is found at reopen.
TEST_F(StorageTest, NoSqlFailedAppendHidesNoLaterBatch) {
  {
    nosql::Database db = OpenNoSql(dir_);
    {
      FileSizeLimit limit(100);
      EXPECT_TRUE(db.BulkInsert("ks", "kv", KvRows(0, 1000)).IsIoError());
    }
    ASSERT_TRUE(db.Insert("ks", "kv", KvRows(5000, 1)[0]).ok());
  }
  EXPECT_EQ(KvIds(OpenNoSql(dir_), "ks"), std::vector<int64_t>{5000});
}

TEST_F(StorageTest, SqlFailedAppendHidesNoLaterBatch) {
  {
    sql::SqlEngine engine = OpenSql(dir_);
    {
      FileSizeLimit limit(100);
      EXPECT_TRUE(engine.BulkInsert("db", "kv", KvRows(0, 1000)).IsIoError());
    }
    ASSERT_TRUE(engine.Insert("db", "kv", KvRows(5000, 1)[0]).ok());
  }
  EXPECT_EQ(KvIds(OpenSql(dir_), "db"), std::vector<int64_t>{5000});
}

// A log torn inside its last frame opens with every earlier batch, and a
// batch inserted after that reopen survives the next one.
TEST_F(StorageTest, NoSqlLogCutInsideItsLastFrameOpens) {
  {
    nosql::Database db = OpenNoSql(dir_);
    for (int batch = 0; batch < 3; ++batch) {
      ASSERT_TRUE(db.BulkInsert("ks", "kv", KvRows(batch * 10, 10)).ok());
    }
  }
  CutLastByte(dir_ / "commitlog.bin");
  {
    nosql::Database db = OpenNoSql(dir_);
    EXPECT_EQ(KvIds(db, "ks").size(), 20u);
    ASSERT_TRUE(db.BulkInsert("ks", "kv", KvRows(100, 10)).ok());
  }
  EXPECT_EQ(KvIds(OpenNoSql(dir_), "ks").size(), 30u);
}

TEST_F(StorageTest, SqlLogCutInsideItsLastFrameOpens) {
  {
    sql::SqlEngine engine = OpenSql(dir_);
    for (int batch = 0; batch < 3; ++batch) {
      ASSERT_TRUE(engine.BulkInsert("db", "kv", KvRows(batch * 10, 10)).ok());
    }
  }
  CutLastByte(dir_ / "redolog.bin");
  {
    sql::SqlEngine engine = OpenSql(dir_);
    EXPECT_EQ(KvIds(engine, "db").size(), 20u);
    ASSERT_TRUE(engine.BulkInsert("db", "kv", KvRows(100, 10)).ok());
  }
  EXPECT_EQ(KvIds(OpenSql(dir_), "db").size(), 30u);
}

// --------------------------------------------------------------- catalog

/// Opens \p dir with \p Engine, failing the test on error.
template <typename Engine>
Engine Reopen(const fs::path& dir) {
  auto engine = Engine::Open(dir.string());
  if (!engine.ok()) {
    ADD_FAILURE() << engine.status();
    return Engine();
  }
  return std::move(*engine);
}

// A catalog change is on disk when it returns: the rows of a table created
// since the last flush (here, never flushed) are found at reopen.
TEST_F(StorageTest, NoSqlRowsOfATableCreatedSinceTheLastFlushSurviveReopen) {
  {
    auto db = Reopen<nosql::Database>(dir_);
    ASSERT_TRUE(db.CreateKeyspace("ks").ok());
    ASSERT_TRUE(db.CreateTable(KvSchema()).ok());
    ASSERT_TRUE(db.BulkInsert("ks", "kv", KvRows(0, 5)).ok());
  }
  EXPECT_EQ(KvIds(Reopen<nosql::Database>(dir_), "ks"),
            (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST_F(StorageTest, SqlRowsOfATableCreatedSinceTheLastFlushSurviveReopen) {
  {
    auto engine = Reopen<sql::SqlEngine>(dir_);
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable(KvDef()).ok());
    ASSERT_TRUE(engine.BulkInsert("db", "kv", KvRows(0, 5)).ok());
  }
  EXPECT_EQ(KvIds(Reopen<sql::SqlEngine>(dir_), "db"),
            (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

// An index created after the last flush is still there after a reopen, and
// serves an indexed look-up.
TEST_F(StorageTest, NoSqlIndexCreatedSinceTheLastFlushSurvivesReopen) {
  {
    nosql::Database db = OpenNoSql(dir_);
    ASSERT_TRUE(db.BulkInsert("ks", "kv", KvRows(0, 3)).ok());
    ASSERT_TRUE(db.CreateIndex("ks", "kv", "v").ok());
  }
  nosql::Database db = OpenNoSql(dir_);
  auto table = db.GetTable("ks", "kv");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->schema().secondary_indexes(), std::vector<size_t>{1});
  auto rows = (*table)->SelectEq("v", Value::Text("row 1"));
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(StorageTest, SqlIndexCreatedSinceTheLastFlushSurvivesReopen) {
  {
    sql::SqlEngine engine = OpenSql(dir_);
    ASSERT_TRUE(engine.BulkInsert("db", "kv", KvRows(0, 3)).ok());
    ASSERT_TRUE(engine.CreateIndex("db", "kv", "v").ok());
  }
  sql::SqlEngine engine = OpenSql(dir_);
  auto table = engine.GetTable("db", "kv");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->def().secondary_indexes(), std::vector<size_t>{1});
  EXPECT_EQ(KvIds(engine, "db"), (std::vector<int64_t>{0, 1, 2}));
}

// A dropped table stays dropped: neither its file nor its logged rows bring
// it back, and its scope stays.
TEST_F(StorageTest, NoSqlDroppedTableStaysDropped) {
  {
    nosql::Database db = OpenNoSql(dir_);
    ASSERT_TRUE(db.BulkInsert("ks", "kv", KvRows(0, 3)).ok());
    ASSERT_TRUE(db.DropTable("ks", "kv").ok());
  }
  auto db = Reopen<nosql::Database>(dir_);
  EXPECT_TRUE(db.HasKeyspace("ks"));
  EXPECT_TRUE(db.GetTable("ks", "kv").status().IsNotFound());
}

TEST_F(StorageTest, SqlDroppedTableStaysDropped) {
  {
    sql::SqlEngine engine = OpenSql(dir_);
    ASSERT_TRUE(engine.BulkInsert("db", "kv", KvRows(0, 3)).ok());
    ASSERT_TRUE(engine.DropTable("db", "kv").ok());
  }
  auto engine = Reopen<sql::SqlEngine>(dir_);
  EXPECT_TRUE(engine.HasDatabase("db"));
  EXPECT_TRUE(engine.GetTable("db", "kv").status().IsNotFound());
}

// A table re-created under a dropped table's name, with other columns,
// reopens with its own rows only, though the dropped table's rows are still
// in the log: replay skips every record logged before a table's create
// record. Row 1 is in both tables; the new one's value is the one kept.
TEST_F(StorageTest, NoSqlTableRecreatedUnderADroppedNameGetsOnlyItsRows) {
  const std::vector<Value> row = {Value::Int(1), Value::Int(7),
                                  Value::Text("new")};
  {
    nosql::Database db = OpenNoSql(dir_);
    ASSERT_TRUE(db.BulkInsert("ks", "kv", KvRows(0, 3)).ok());
    ASSERT_TRUE(db.DropTable("ks", "kv").ok());
    const nosql::TableSchema wide(
        "ks", "kv",
        {{"id", DataType::kInt}, {"n", DataType::kInt}, {"v", DataType::kText}},
        "id");
    ASSERT_TRUE(db.CreateTable(wide).ok());
    ASSERT_TRUE(db.Insert("ks", "kv", row).ok());
  }
  auto db = Reopen<nosql::Database>(dir_);
  auto table = db.GetTable("ks", "kv");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->ScanAll().size(), 1u);
  EXPECT_EQ((*table)->ScanAll().front(), row);
}

TEST_F(StorageTest, SqlTableRecreatedUnderADroppedNameGetsOnlyItsRows) {
  const std::vector<Value> row = {Value::Int(1), Value::Int(7),
                                  Value::Text("new")};
  {
    sql::SqlEngine engine = OpenSql(dir_);
    ASSERT_TRUE(engine.BulkInsert("db", "kv", KvRows(0, 3)).ok());
    ASSERT_TRUE(engine.DropTable("db", "kv").ok());
    const sql::SqlTableDef wide("db", "kv",
                                {{"id", DataType::kInt, false},
                                 {"n", DataType::kInt},
                                 {"v", DataType::kText}},
                                "id");
    ASSERT_TRUE(engine.CreateTable(wide).ok());
    ASSERT_TRUE(engine.Insert("db", "kv", row).ok());
  }
  auto engine = Reopen<sql::SqlEngine>(dir_);
  auto table = engine.GetTable("db", "kv");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->ScanAll().size(), 1u);
  EXPECT_EQ(*(*table)->ScanAll().front(), row);
}

// Every scope and table name is its own file name, so a reopen finds each
// under the name it was created with. A name that SanitizeName would change
// ('.' becomes '_') is rejected at create, durable or in memory.
TEST_F(StorageTest, NoSqlNamesAreTheirOwnFileNames) {
  EXPECT_TRUE(
      nosql::Database().CreateKeyspace("city.bikes").IsInvalidArgument());
  {
    auto db = Reopen<nosql::Database>(dir_);
    EXPECT_TRUE(db.CreateKeyspace("city.bikes").IsInvalidArgument());
    ASSERT_TRUE(db.CreateKeyspace("city-bikes").ok());
    EXPECT_TRUE(
        db.CreateTable(KvSchema("city-bikes", "a.b")).IsInvalidArgument());
    ASSERT_TRUE(db.CreateTable(KvSchema("city-bikes", "a_b")).ok());
    ASSERT_TRUE(db.BulkInsert("city-bikes", "a_b", KvRows(0, 2)).ok());
    ASSERT_TRUE(db.Flush().ok());
  }
  auto db = Reopen<nosql::Database>(dir_);
  EXPECT_FALSE(db.HasKeyspace("city.bikes"));
  EXPECT_EQ(*db.ListTables("city-bikes"), std::vector<std::string>{"a_b"});
  EXPECT_EQ(KvIds(db, "city-bikes", "a_b"), (std::vector<int64_t>{0, 1}));
}

TEST_F(StorageTest, SqlNamesAreTheirOwnFileNames) {
  EXPECT_TRUE(
      sql::SqlEngine().CreateDatabase("city.bikes").IsInvalidArgument());
  {
    auto engine = Reopen<sql::SqlEngine>(dir_);
    EXPECT_TRUE(engine.CreateDatabase("city.bikes").IsInvalidArgument());
    ASSERT_TRUE(engine.CreateDatabase("city-bikes").ok());
    EXPECT_TRUE(
        engine.CreateTable(KvDef("city-bikes", "a.b")).IsInvalidArgument());
    ASSERT_TRUE(engine.CreateTable(KvDef("city-bikes", "a_b")).ok());
    ASSERT_TRUE(engine.BulkInsert("city-bikes", "a_b", KvRows(0, 2)).ok());
    ASSERT_TRUE(engine.Flush().ok());
  }
  auto engine = Reopen<sql::SqlEngine>(dir_);
  EXPECT_FALSE(engine.HasDatabase("city.bikes"));
  EXPECT_EQ(*engine.ListTables("city-bikes"), std::vector<std::string>{"a_b"});
  EXPECT_EQ(KvIds(engine, "city-bikes", "a_b"), (std::vector<int64_t>{0, 1}));
}

// A table file that holds another name than its own, or a scope directory
// no scope name maps to, fails the open: loaded, that table's writes would
// go to another table's file.
TEST_F(StorageTest, NoSqlOpenRejectsNamesThatAreNotTheirFiles) {
  ByteWriter bytes;
  nosql::Table(KvSchema("ks", "a.b")).SerializeTo(&bytes);
  fs::create_directories(dir_ / "ks");
  ASSERT_TRUE(
      WriteFileAtomic((dir_ / "ks" / "a_b.cf").string(), bytes.view()).ok());
  EXPECT_TRUE(
      nosql::Database::Open(dir_.string()).status().IsInvalidArgument());
  fs::remove(dir_ / "ks" / "a_b.cf");
  ASSERT_TRUE(nosql::Database::Open(dir_.string()).ok());
  fs::create_directories(dir_ / "city.bikes");
  EXPECT_TRUE(
      nosql::Database::Open(dir_.string()).status().IsInvalidArgument());
}

TEST_F(StorageTest, SqlOpenRejectsNamesThatAreNotTheirFiles) {
  ByteWriter bytes;
  sql::HeapTable(KvDef("db", "a.b")).SerializeTo(&bytes);
  fs::create_directories(dir_ / "db");
  ASSERT_TRUE(
      WriteFileAtomic((dir_ / "db" / "a_b.tbl").string(), bytes.view()).ok());
  EXPECT_TRUE(sql::SqlEngine::Open(dir_.string()).status().IsInvalidArgument());
  fs::remove(dir_ / "db" / "a_b.tbl");
  ASSERT_TRUE(sql::SqlEngine::Open(dir_.string()).ok());
  fs::create_directories(dir_ / "city.bikes");
  EXPECT_TRUE(sql::SqlEngine::Open(dir_.string()).status().IsInvalidArgument());
}

}  // namespace
}  // namespace scdwarf
