#include "common/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "common/files.h"

namespace scdwarf {

namespace fs = std::filesystem;

namespace {

/// The op byte of a create record; an insert's is 0, a delete's 1.
constexpr uint8_t kCreateOp = 2;

}  // namespace

void PutMutationHeader(ByteWriter* writer, const std::string& scope,
                       const std::string& table, size_t num_rows,
                       bool is_delete) {
  writer->PutU8(is_delete ? 1 : 0);
  writer->PutString(scope);
  writer->PutString(table);
  writer->PutVarint(num_rows);
}

size_t PutMutationRow(ByteWriter* writer, std::span<const Value> row) {
  writer->PutVarint(row.size());
  const size_t values = writer->size();
  for (const Value& value : row) value.EncodeTo(writer);
  return values;
}

void PutCreateRecord(ByteWriter* writer, const std::string& scope,
                     const std::string& table) {
  writer->PutU8(kCreateOp);
  writer->PutString(scope);
  writer->PutString(table);
  writer->PutVarint(0);
}

Result<Mutation> DecodeMutation(ByteReader* record) {
  Mutation mutation;
  SCD_ASSIGN_OR_RETURN(uint8_t op, record->ReadU8());
  mutation.is_delete = op == 1;
  SCD_ASSIGN_OR_RETURN(mutation.scope, record->ReadString());
  SCD_ASSIGN_OR_RETURN(mutation.table, record->ReadString());
  SCD_ASSIGN_OR_RETURN(uint64_t num_rows, record->ReadVarint());
  for (uint64_t r = 0; r < num_rows; ++r) {
    if (record->AtEnd()) {
      return Status::ParseError("record of " + std::to_string(num_rows) +
                                " rows ends after " + std::to_string(r));
    }
    SCD_ASSIGN_OR_RETURN(uint64_t arity, record->ReadVarint());
    // Every value takes at least one byte, and a delete row is its key.
    if (arity > record->remaining()) {
      return Status::ParseError("row of " + std::to_string(arity) +
                                " values in " +
                                std::to_string(record->remaining()) + " bytes");
    }
    if (mutation.is_delete && arity != 1) {
      return Status::ParseError("delete row of " + std::to_string(arity) +
                                " values");
    }
    std::vector<Value>& row = mutation.rows.emplace_back();
    row.reserve(arity);
    for (uint64_t c = 0; c < arity; ++c) {
      SCD_ASSIGN_OR_RETURN(Value value, Value::DecodeFrom(record));
      row.push_back(std::move(value));
    }
  }
  return mutation;
}

RecordLog::RecordLog(const std::string& dir, const std::string& stem,
                     bool fsync_each_append)
    : dir_(dir),
      path_((fs::path(dir) / (stem + ".bin")).string()),
      rotated_path_((fs::path(dir) / (stem + ".old.bin")).string()),
      fsync_each_append_(fsync_each_append) {}

Status RecordLog::Append(std::span<const uint8_t> record, bool sync) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!broken_.ok()) return broken_;
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(record.size()));
  return AppendLocked(path_, frame.data(), record, sync || fsync_each_append_);
}

Status RecordLog::AppendLocked(const std::string& path,
                               std::span<const uint8_t> head,
                               std::span<const uint8_t> body, bool sync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::IoError("cannot open " + path);
  const off_t before = ::lseek(fd, 0, SEEK_END);
  Status status;
  if (before < 0 || !WriteFull(fd, head.data(), head.size()) ||
      !WriteFull(fd, body.data(), body.size()) ||
      (sync && ::fsync(fd) != 0)) {
    status = Status::IoError("short write to " + path + ": " +
                             std::strerror(errno));
  } else if (sync && before == 0) {
    // A new file is durable only once its directory entry is.
    status = SyncDirectory(dir_);
  }
  // A partial frame would end replay there and hide every later record, and
  // a whole one would replay a batch the caller was told failed.
  if (!status.ok() && (before < 0 || ::ftruncate(fd, before) != 0)) {
    broken_ = Status::IoError("cannot cut " + path + " back after a failed "
                              "append; the log takes no more appends");
  }
  ::close(fd);
  return status;
}

Result<bool> RecordLog::Rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!broken_.ok()) return broken_;
  if (!fs::exists(path_)) return false;
  std::error_code ec;
  if (!fs::exists(rotated_path_)) {
    fs::rename(path_, rotated_path_, ec);
    if (ec) return Status::IoError("rotating " + path_ + ": " + ec.message());
    return true;
  }
  // A prior flush failed (or crashed) after rotating: append the live log
  // to the surviving sidecar so replay order — sidecar, then live — still
  // reproduces append order. The copy is fsynced before the live log goes,
  // whatever the policy, so no fsynced create record is lost with it.
  SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(path_));
  SCD_RETURN_IF_ERROR(AppendLocked(rotated_path_, {}, bytes, /*sync=*/true));
  fs::remove(path_, ec);
  if (ec) return Status::IoError("removing " + path_ + ": " + ec.message());
  return true;
}

void RecordLog::RemoveRotated() {
  std::error_code ec;
  fs::remove(rotated_path_, ec);
}

Status RecordLog::Replay(const std::function<Status(ByteReader*)>& apply) {
  for (const std::string* path : {&rotated_path_, &path_}) {
    if (!fs::exists(*path)) continue;
    SCD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFile(*path));
    ByteReader reader(bytes);
    while (!reader.AtEnd()) {
      const size_t frame_start = reader.offset();
      auto frame_size = reader.ReadU32();
      if (!frame_size.ok() || reader.remaining() < *frame_size) {
        if (::truncate(path->c_str(), static_cast<off_t>(frame_start)) != 0) {
          std::lock_guard<std::mutex> lock(mu_);
          broken_ = Status::IoError("cannot cut the torn tail off " + *path);
        }
        break;
      }
      ByteReader record(bytes.data() + reader.offset(), *frame_size);
      SCD_RETURN_IF_ERROR(reader.Skip(*frame_size));
      Status status = apply(&record);
      if (!status.ok()) return status.WithContext("replaying " + *path);
    }
  }
  return Status::OK();
}

Status ReplayMutations(RecordLog* log,
                       const std::function<Status(Mutation&)>& apply) {
  using Name = std::pair<std::string, std::string>;  ///< (scope, table)
  std::map<Name, uint64_t> created_at;  ///< ordinal of the last create record
  uint64_t ordinal = 0;
  SCD_RETURN_IF_ERROR(log->Replay([&](ByteReader* record) -> Status {
    ++ordinal;
    SCD_ASSIGN_OR_RETURN(uint8_t op, record->ReadU8());
    if (op != kCreateOp) return Status::OK();
    SCD_ASSIGN_OR_RETURN(std::string scope, record->ReadString());
    SCD_ASSIGN_OR_RETURN(std::string table, record->ReadString());
    SCD_ASSIGN_OR_RETURN(uint64_t num_rows, record->ReadVarint());
    if (num_rows != 0) {
      return Status::ParseError("create record of " +
                                std::to_string(num_rows) + " rows");
    }
    created_at[Name(std::move(scope), std::move(table))] = ordinal;
    return Status::OK();
  }));
  ordinal = 0;
  return log->Replay([&](ByteReader* record) -> Status {
    ++ordinal;
    SCD_ASSIGN_OR_RETURN(Mutation mutation, DecodeMutation(record));
    auto created = created_at.find(Name(mutation.scope, mutation.table));
    if (created != created_at.end() && ordinal < created->second) {
      return Status::OK();
    }
    return apply(mutation);
  });
}

}  // namespace scdwarf
