#include "common/files.h"

#include <fcntl.h>
#include <unistd.h>

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
  const std::string dir = fs::path(path).parent_path().string();
  return SyncDirectory(dir.empty() ? "." : dir);
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
