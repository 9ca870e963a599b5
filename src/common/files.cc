#include "common/files.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace scdwarf {

namespace fs = std::filesystem;

namespace {

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

std::string ParentDirectory(const std::string& path) {
  fs::path entry(path);
  if (!entry.has_filename()) entry = entry.parent_path();  // "a/b/" is "a/b"
  const std::string dir = entry.parent_path().string();
  return dir.empty() ? "." : dir;
}

/// The sorted names of \p dir's entries for which \p keep holds.
Result<std::vector<std::string>> ListEntries(
    const std::string& dir, bool (*keep)(const fs::directory_entry&)) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (keep(*it)) names.push_back(it->path().filename().string());
  }
  if (ec) return Status::IoError("listing " + dir + ": " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("open " + tmp);
  Status status;
  if (!WriteFull(fd, bytes.data(), bytes.size())) {
    status = ErrnoError("write " + tmp);
  } else if (::fsync(fd) != 0) {
    status = ErrnoError("fsync " + tmp);
  }
  ::close(fd);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoError("rename " + tmp + " -> " + path);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncDirectory(ParentDirectory(path));
}

bool WriteFull(int fd, const void* data, size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t n = ::write(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    bytes += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IoError("short read from " + path);
  }
  return bytes;
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("open " + dir);
  Status status = ::fsync(fd) == 0 ? Status::OK() : ErrnoError("fsync " + dir);
  ::close(fd);
  return status;
}

Status CreateDirectory(const std::string& dir) {
  std::error_code ec;
  const bool created = fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  return created ? SyncDirectory(ParentDirectory(dir)) : Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    if (errno == ENOENT) return Status::OK();
    return ErrnoError("remove " + path);
  }
  return SyncDirectory(ParentDirectory(path));
}

Result<std::vector<std::string>> ListSubdirectories(const std::string& dir) {
  return ListEntries(dir, [](const fs::directory_entry& entry) {
    std::error_code ec;
    return entry.is_directory(ec);
  });
}

Result<std::vector<std::string>> ListFiles(const std::string& dir,
                                           std::string_view suffix) {
  SCD_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ListEntries(dir, [](const fs::directory_entry& entry) {
                         std::error_code ec;
                         return entry.is_regular_file(ec);
                       }));
  std::erase_if(names, [suffix](const std::string& name) {
    return !name.ends_with(suffix);
  });
  return names;
}

std::string SanitizeName(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  return out;
}

Result<uint64_t> DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file()) total += it->file_size();
  }
  if (ec) return Status::IoError("walking " + dir + ": " + ec.message());
  return total;
}

}  // namespace scdwarf
