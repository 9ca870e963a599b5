/// \file bytes.h
/// \brief Binary encoding primitives used by the storage engines' on-disk
/// formats: little-endian fixed-width codecs, LEB128 varints and
/// length-prefixed strings over a growable byte buffer.

#ifndef SCDWARF_COMMON_BYTES_H_
#define SCDWARF_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scdwarf {

/// \brief Append-only binary writer. All multi-byte integers are
/// little-endian; varints use unsigned LEB128 with zig-zag for signed values.
class ByteWriter {
 public:
  /// Appends a single byte.
  void PutU8(uint8_t value) { buffer_.push_back(value); }

  /// Appends a little-endian 32-bit unsigned integer.
  void PutU32(uint32_t value) { PutFixed(&value, sizeof(value)); }

  /// Appends a little-endian 64-bit unsigned integer.
  void PutU64(uint64_t value) { PutFixed(&value, sizeof(value)); }

  /// Appends an unsigned LEB128 varint (1-10 bytes).
  void PutVarint(uint64_t value);

  /// Appends a zig-zag encoded signed varint.
  void PutSignedVarint(int64_t value);

  /// Appends an IEEE-754 double in little-endian byte order.
  void PutDouble(double value) { PutFixed(&value, sizeof(value)); }

  /// Appends a varint length prefix followed by the raw bytes of \p value.
  void PutString(std::string_view value);

  /// Appends raw bytes with no length prefix.
  void PutRaw(const void* data, size_t size);

  /// Number of bytes written so far.
  size_t size() const { return buffer_.size(); }

  const std::vector<uint8_t>& data() const { return buffer_; }

  /// The bytes written so far, valid until the next write.
  std::string_view view() const {
    return {reinterpret_cast<const char*>(buffer_.data()), buffer_.size()};
  }

  /// Moves the accumulated bytes out of the writer.
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

  void Clear() { buffer_.clear(); }

 private:
  void PutFixed(const void* value, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(value);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  std::vector<uint8_t> buffer_;
};

/// \brief Sequential binary reader over a borrowed byte span. The reader does
/// not own the bytes; the caller must keep them alive.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadSignedVarint();
  Result<double> ReadDouble();
  /// Reads a varint length prefix then that many bytes.
  Result<std::string> ReadString();
  /// Advances past \p size bytes; fails without moving when fewer remain.
  Status Skip(size_t size);

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - offset_; }

  /// Current read offset from the start of the span.
  size_t offset() const { return offset_; }

  bool AtEnd() const { return offset_ == size_; }

 private:
  Status ReadFixed(void* out, size_t size);

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

/// \brief Zig-zag encodes a signed integer into an unsigned one.
inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

/// \brief Inverse of ZigZagEncode.
inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

/// \brief Number of bytes PutVarint would use for \p value.
size_t VarintLength(uint64_t value);

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_BYTES_H_
