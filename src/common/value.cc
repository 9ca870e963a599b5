#include "common/value.h"

#include <algorithm>

#include "common/hash.h"
#include "common/strings.h"

namespace scdwarf {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt: return "int";
    case DataType::kBigint: return "bigint";
    case DataType::kText: return "text";
    case DataType::kBool: return "boolean";
    case DataType::kIntSet: return "set<int>";
  }
  return "?";
}

Result<DataType> ParseDataType(std::string_view name) {
  std::string lower = AsciiToLower(name);
  // Normalize internal whitespace for "set < int >".
  lower.erase(std::remove_if(lower.begin(), lower.end(),
                             [](char c) { return c == ' ' || c == '\t'; }),
              lower.end());
  if (lower == "int") return DataType::kInt;
  if (lower == "bigint") return DataType::kBigint;
  if (lower == "text" || lower == "varchar") return DataType::kText;
  if (lower == "boolean" || lower == "bool") return DataType::kBool;
  if (lower == "set<int>" || lower == "set<bigint>") return DataType::kIntSet;
  return Status::ParseError("unknown data type '" + std::string(name) + "'");
}

namespace {

/// Words of a text block holding \p length bytes after its length word.
size_t TextBlockWords(uint64_t length) { return 1 + (length + 7) / 8; }

}  // namespace

Value Value::Text(std::string v) {
  Value value(Kind::kText);
  if (v.size() <= kInlineBytes) {
    std::memcpy(value.inline_, v.data(), v.size());
    value.length_ = static_cast<uint8_t>(v.size());
  } else {
    uint64_t* block = new uint64_t[TextBlockWords(v.size())];
    block[0] = v.size();
    std::memcpy(block + 1, v.data(), v.size());
    value.length_ = kHeapText;
    value.set_block(block);
  }
  return value;
}

Value Value::IntSet(std::vector<int64_t> v) {
  if (!std::is_sorted(v.begin(), v.end())) {
    std::sort(v.begin(), v.end());
  }
  v.erase(std::unique(v.begin(), v.end()), v.end());
  Value value(Kind::kIntSet);
  uint64_t* block = new uint64_t[1 + v.size()];
  block[0] = v.size();
  if (!v.empty()) std::memcpy(block + 1, v.data(), v.size() * sizeof(int64_t));
  value.set_block(block);
  return value;
}

void Value::CopyBlock() {
  const uint64_t* source = block();
  const size_t words =
      kind_ == Kind::kText ? TextBlockWords(source[0]) : 1 + source[0];
  uint64_t* copy = new uint64_t[words];
  std::memcpy(copy, source, words * sizeof(uint64_t));
  set_block(copy);
}

void Value::FreeBlock() { delete[] block(); }

std::string_view Value::text() const {
  if (length_ != kHeapText) {
    return {reinterpret_cast<const char*>(inline_), length_};
  }
  const uint64_t* b = block();
  return {reinterpret_cast<const char*>(b + 1), static_cast<size_t>(b[0])};
}

std::span<const int64_t> Value::members() const {
  const uint64_t* b = block();
  return {reinterpret_cast<const int64_t*>(b + 1), static_cast<size_t>(b[0])};
}

Result<int64_t> Value::AsInt() const {
  if (is_int()) return int_value();
  return Status::InvalidArgument("value is not an int");
}

Result<std::string> Value::AsText() const {
  if (is_text()) return std::string(text());
  return Status::InvalidArgument("value is not text");
}

Result<bool> Value::AsBool() const {
  if (is_bool()) return inline_[0] != 0;
  return Status::InvalidArgument("value is not a boolean");
}

Result<std::vector<int64_t>> Value::AsIntSet() const {
  if (is_int_set()) {
    const std::span<const int64_t> set = members();
    return std::vector<int64_t>(set.begin(), set.end());
  }
  return Status::InvalidArgument("value is not a set<int>");
}

bool Value::MatchesType(DataType type) const {
  if (is_null()) return true;
  switch (type) {
    case DataType::kInt:
    case DataType::kBigint:
      return is_int();
    case DataType::kText:
      return is_text();
    case DataType::kBool:
      return is_bool();
    case DataType::kIntSet:
      return is_int_set();
  }
  return false;
}

bool Value::operator<(const Value& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return inline_[0] < other.inline_[0];
    case Kind::kInt:
      return int_value() < other.int_value();
    case Kind::kText:
      return text() < other.text();
    case Kind::kIntSet: {
      const std::span<const int64_t> a = members();
      const std::span<const int64_t> b = other.members();
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  }
  return false;
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return inline_[0] == other.inline_[0];
    case Kind::kInt:
      return int_value() == other.int_value();
    case Kind::kText:
      return text() == other.text();
    case Kind::kIntSet: {
      const std::span<const int64_t> a = members();
      const std::span<const int64_t> b = other.members();
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
  }
  return false;
}

std::string Value::ToCqlLiteral() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return inline_[0] != 0 ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_value());
    case Kind::kText:
      return QuoteSqlString(text());
    case Kind::kIntSet:
      break;
  }
  const std::span<const int64_t> set = members();
  std::string out = "{";
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(set[i]);
  }
  out += "}";
  return out;
}

std::string Value::ToDisplayString() const {
  if (is_text()) return std::string(text());
  return ToCqlLiteral();
}

void Value::EncodeTo(ByteWriter* writer) const {
  writer->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case Kind::kNull:
      return;
    case Kind::kBool:
      writer->PutU8(inline_[0]);
      return;
    case Kind::kInt:
      writer->PutSignedVarint(int_value());
      return;
    case Kind::kText:
      writer->PutString(text());
      return;
    case Kind::kIntSet:
      break;
  }
  const std::span<const int64_t> set = members();
  writer->PutVarint(set.size());
  // Delta-encode the sorted members: ids of sibling cells cluster tightly,
  // which keeps child sets to ~1-2 bytes per member. Deltas are taken
  // modulo 2^64, so extreme members cannot overflow.
  uint64_t previous = 0;
  for (int64_t member : set) {
    const uint64_t bits = static_cast<uint64_t>(member);
    writer->PutSignedVarint(static_cast<int64_t>(bits - previous));
    previous = bits;
  }
}

Result<Value> Value::DecodeFrom(ByteReader* reader) {
  SCD_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
  switch (static_cast<Kind>(tag)) {
    case Kind::kNull:
      return Value::Null();
    case Kind::kBool: {
      SCD_ASSIGN_OR_RETURN(uint8_t v, reader->ReadU8());
      return Value::Bool(v != 0);
    }
    case Kind::kInt: {
      SCD_ASSIGN_OR_RETURN(int64_t v, reader->ReadSignedVarint());
      return Value::Int(v);
    }
    case Kind::kText: {
      SCD_ASSIGN_OR_RETURN(std::string v, reader->ReadString());
      return Value::Text(std::move(v));
    }
    case Kind::kIntSet: {
      SCD_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
      // Every member takes at least one byte.
      if (count > reader->remaining()) {
        return Status::ParseError("set of " + std::to_string(count) +
                                  " members in " +
                                  std::to_string(reader->remaining()) +
                                  " bytes");
      }
      std::vector<int64_t> members;
      members.reserve(count);
      uint64_t previous = 0;
      for (uint64_t i = 0; i < count; ++i) {
        SCD_ASSIGN_OR_RETURN(int64_t delta, reader->ReadSignedVarint());
        previous += static_cast<uint64_t>(delta);
        members.push_back(static_cast<int64_t>(previous));
      }
      return Value::IntSet(std::move(members));
    }
  }
  return Status::ParseError("unknown value tag " + std::to_string(tag));
}

Status Value::SkipEncoded(ByteReader* reader) {
  SCD_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
  switch (static_cast<Kind>(tag)) {
    case Kind::kNull:
      return Status::OK();
    case Kind::kBool:
      return reader->Skip(1);
    case Kind::kInt:
      return reader->ReadVarint().status();
    case Kind::kText: {
      SCD_ASSIGN_OR_RETURN(uint64_t length, reader->ReadVarint());
      return reader->Skip(length);
    }
    case Kind::kIntSet: {
      SCD_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
      for (uint64_t i = 0; i < count; ++i) {
        SCD_RETURN_IF_ERROR(reader->ReadVarint().status());
      }
      return Status::OK();
    }
  }
  return Status::ParseError("unknown value tag " + std::to_string(tag));
}

size_t Value::EncodedSize() const {
  ByteWriter writer;
  EncodeTo(&writer);
  return writer.size();
}

uint64_t Value::Hash() const {
  switch (kind_) {
    case Kind::kNull:
      return 0x6e756c6cULL;
    case Kind::kBool:
      return inline_[0] != 0 ? 0x74727565ULL : 0x66616c73ULL;
    case Kind::kInt:
      return MixBits(static_cast<uint64_t>(int_value()));
    case Kind::kText:
      return HashString(text());
    case Kind::kIntSet:
      break;
  }
  uint64_t h = 0x736574ULL;
  for (int64_t member : members()) {
    h = HashCombine(h, static_cast<uint64_t>(member));
  }
  return h;
}

}  // namespace scdwarf
