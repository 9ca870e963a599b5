#include "common/bytes.h"

namespace scdwarf {

void ByteWriter::PutVarint(uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<uint8_t>(value | 0x80));
    value >>= 7;
  }
  buffer_.push_back(static_cast<uint8_t>(value));
}

void ByteWriter::PutSignedVarint(int64_t value) { PutVarint(ZigZagEncode(value)); }

void ByteWriter::PutString(std::string_view value) {
  PutVarint(value.size());
  PutRaw(value.data(), value.size());
}

void ByteWriter::PutRaw(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

Status ByteReader::Skip(size_t size) {
  if (remaining() < size) {
    return Status::OutOfRange("byte reader exhausted: need " +
                              std::to_string(size) + " bytes, have " +
                              std::to_string(remaining()));
  }
  offset_ += size;
  return Status::OK();
}

Status ByteReader::ReadFixed(void* out, size_t size) {
  if (remaining() < size) {
    return Status::OutOfRange("byte reader exhausted: need " +
                              std::to_string(size) + " bytes, have " +
                              std::to_string(remaining()));
  }
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
  return Status::OK();
}

Result<uint8_t> ByteReader::ReadU8() {
  uint8_t value = 0;
  SCD_RETURN_IF_ERROR(ReadFixed(&value, sizeof(value)));
  return value;
}

Result<uint32_t> ByteReader::ReadU32() {
  uint32_t value = 0;
  SCD_RETURN_IF_ERROR(ReadFixed(&value, sizeof(value)));
  return value;
}

Result<uint64_t> ByteReader::ReadU64() {
  uint64_t value = 0;
  SCD_RETURN_IF_ERROR(ReadFixed(&value, sizeof(value)));
  return value;
}

Result<uint64_t> ByteReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (offset_ >= size_) {
      return Status::OutOfRange("truncated varint");
    }
    uint8_t byte = data_[offset_++];
    if (shift >= 64) {
      return Status::ParseError("varint too long");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

Result<int64_t> ByteReader::ReadSignedVarint() {
  SCD_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint());
  return ZigZagDecode(raw);
}

Result<double> ByteReader::ReadDouble() {
  double value = 0;
  SCD_RETURN_IF_ERROR(ReadFixed(&value, sizeof(value)));
  return value;
}

Result<std::string> ByteReader::ReadString() {
  SCD_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
  if (remaining() < length) {
    return Status::OutOfRange("truncated string: need " +
                              std::to_string(length) + " bytes, have " +
                              std::to_string(remaining()));
  }
  std::string value(reinterpret_cast<const char*>(data_ + offset_),
                    static_cast<size_t>(length));
  offset_ += static_cast<size_t>(length);
  return value;
}

size_t VarintLength(uint64_t value) {
  size_t length = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++length;
  }
  return length;
}

}  // namespace scdwarf
