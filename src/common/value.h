/// \file value.h
/// \brief Typed cell values for the columnar NoSQL store. The type system is
/// the subset of Cassandra's that the paper's schemas use: int, bigint, text,
/// boolean and set<int> (Table 1-B stores parentIds/childrenIds as sets).

#ifndef SCDWARF_COMMON_VALUE_H_
#define SCDWARF_COMMON_VALUE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace scdwarf {

/// \brief Column data types (CQL names in comments).
enum class DataType : uint8_t {
  kInt = 0,     // int     (stored as int64)
  kBigint = 1,  // bigint
  kText = 2,    // text
  kBool = 3,    // boolean
  kIntSet = 4,  // set<int>
};

/// \brief Returns the CQL spelling ("set<int>", "text", ...).
const char* DataTypeName(DataType type);

/// \brief Parses a CQL type name; case-insensitive.
Result<DataType> ParseDataType(std::string_view name);

/// \brief A single typed value or NULL, in 16 bytes.
///
/// Set values are kept sorted and deduplicated so that comparison and
/// serialization are canonical. Ints, bools and text of at most 14 bytes
/// live inline; longer text and sets live in one heap block each (a 64-bit
/// length or count, then the bytes or members), which a copy duplicates and
/// a move steals. A DWARF_Cell row of eight values thus takes 128 bytes and
/// usually no allocation beyond the row's own.
class alignas(8) Value {
 public:
  /// NULL value.
  Value() = default;
  Value(const Value& other) { CopyFrom(other); }
  Value(Value&& other) noexcept { StealFrom(&other); }
  Value& operator=(const Value& other) {
    if (this != &other) {
      if (on_heap()) FreeBlock();
      CopyFrom(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (on_heap()) FreeBlock();
      StealFrom(&other);
    }
    return *this;
  }
  ~Value() {
    if (on_heap()) FreeBlock();
  }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value value(Kind::kInt);
    std::memcpy(value.inline_, &v, sizeof(v));
    return value;
  }
  static Value Text(std::string v);
  static Value Bool(bool v) {
    Value value(Kind::kBool);
    value.inline_[0] = v ? 1 : 0;
    return value;
  }
  /// Sorts and deduplicates \p v.
  static Value IntSet(std::vector<int64_t> v);

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_text() const { return kind_ == Kind::kText; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int_set() const { return kind_ == Kind::kIntSet; }

  Result<int64_t> AsInt() const;
  Result<std::string> AsText() const;
  Result<bool> AsBool() const;
  Result<std::vector<int64_t>> AsIntSet() const;

  /// True when this value is assignable to a column of \p type
  /// (NULL is assignable to anything; int covers int and bigint).
  bool MatchesType(DataType type) const;

  /// Total ordering across values of the same kind (NULL sorts first); used
  /// by ordered indexes. Comparing values of different kinds orders by kind:
  /// null < bool < int < text < set. Text compares bytewise, as std::string
  /// does, and sets lexicographically.
  bool operator<(const Value& other) const;
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Renders as a CQL literal: 7, 'text' (quotes doubled), true, {1,2}.
  std::string ToCqlLiteral() const;

  /// Renders for result display (no quotes on text).
  std::string ToDisplayString() const;

  /// Binary encoding: 1 tag byte + payload. Inverse of DecodeValue.
  void EncodeTo(ByteWriter* writer) const;
  static Result<Value> DecodeFrom(ByteReader* reader);
  /// Advances \p reader past one encoded value without decoding it; fails
  /// as DecodeFrom does on a truncated value or an unknown tag.
  static Status SkipEncoded(ByteReader* reader);

  /// Serialized size in bytes (matches EncodeTo output length).
  size_t EncodedSize() const;

  /// Hash for hash-index buckets.
  uint64_t Hash() const;

 private:
  /// The kinds in comparison order; each number is also the kind's tag in
  /// the binary encoding.
  enum class Kind : uint8_t { kNull = 0, kBool = 1, kInt = 2, kText = 3,
                              kIntSet = 4 };
  static constexpr size_t kInlineBytes = 14;
  /// length_ of a text whose bytes live in a heap block.
  static constexpr uint8_t kHeapText = 0xff;

  explicit Value(Kind kind) : kind_(kind) {}

  bool on_heap() const {
    return kind_ == Kind::kIntSet ||
           (kind_ == Kind::kText && length_ == kHeapText);
  }
  /// The heap block: word 0 is the text length or the member count.
  uint64_t* block() const {
    uint64_t* block = nullptr;
    std::memcpy(&block, inline_, sizeof(block));
    return block;
  }
  void set_block(uint64_t* block) {
    std::memcpy(inline_, &block, sizeof(block));
  }
  int64_t int_value() const {
    int64_t v = 0;
    std::memcpy(&v, inline_, sizeof(v));
    return v;
  }
  std::string_view text() const;
  std::span<const int64_t> members() const;

  void CopyFrom(const Value& other) {
    std::memcpy(inline_, other.inline_, kInlineBytes);
    length_ = other.length_;
    kind_ = other.kind_;
    if (on_heap()) CopyBlock();
  }
  /// Takes \p other's contents, its block included, and leaves it NULL.
  void StealFrom(Value* other) {
    std::memcpy(inline_, other->inline_, kInlineBytes);
    length_ = other->length_;
    kind_ = other->kind_;
    other->kind_ = Kind::kNull;
  }
  /// Replaces the block pointer copied from another value with a pointer to
  /// a fresh copy of that block.
  void CopyBlock();
  void FreeBlock();

  unsigned char inline_[kInlineBytes] = {};
  uint8_t length_ = 0;  ///< inline text length, or kHeapText
  Kind kind_ = Kind::kNull;
};

static_assert(sizeof(Value) == 16);

/// \brief Hash functor routing Values into unordered containers.
struct ValueHash {
  size_t operator()(const Value& value) const {
    return static_cast<size_t>(value.Hash());
  }
};

}  // namespace scdwarf

#endif  // SCDWARF_COMMON_VALUE_H_
