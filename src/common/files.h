/// \file files.h
/// \brief Whole-file I/O and the directory operations for the storage
/// engines' table catalog, the snapshot spool and the binaries' dump flags.

#ifndef SCDWARF_COMMON_FILES_H_
#define SCDWARF_COMMON_FILES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scdwarf {

/// \brief Replaces \p path with \p bytes, all or nothing: a temp file beside
/// it, named for this process, is written, fsynced and renamed over \p path,
/// then the directory is fsynced, so the new file is durable on return. If
/// the write, fsync or rename fails, the temp file is removed and \p path is
/// left as it was.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// \brief Writes \p size bytes at \p data to \p fd, looping on short writes
/// and EINTR. False, with errno set, on any other error.
bool WriteFull(int fd, const void* data, size_t size);

/// \brief Every byte of \p path.
Result<std::vector<uint8_t>> ReadFile(const std::string& path);

/// \brief Fsyncs directory \p dir, making its entries' changes durable.
Status SyncDirectory(const std::string& dir);

/// \brief Creates directory \p dir and any missing parents. When \p dir is
/// new, its parent is fsynced, so the new entry is durable on return.
Status CreateDirectory(const std::string& dir);

/// \brief Removes file \p path, if it exists, and fsyncs its directory, so
/// the removal is durable on return.
Status RemoveFile(const std::string& path);

/// \brief The names of \p dir's subdirectories, sorted.
Result<std::vector<std::string>> ListSubdirectories(const std::string& dir);

/// \brief The names of \p dir's regular files that end in \p suffix,
/// sorted.
Result<std::vector<std::string>> ListFiles(const std::string& dir,
                                           std::string_view suffix);

/// \brief \p name as a file name: each character outside [A-Za-z0-9_-]
/// becomes '_'.
std::string SanitizeName(const std::string& name);

/// \brief Total size of the regular files under \p dir, recursively.
Result<uint64_t> DirectoryBytes(const std::string& dir);

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_FILES_H_
