/// \file wire.h
/// \brief Wire format of the cube query service: length-prefixed JSON frames
/// carrying one request or response each.
///
/// A frame is a 4-byte big-endian payload length followed by that many bytes
/// of UTF-8 JSON. Requests are objects with an "op" field:
///
///   {"op":"point",     "keys":["Ireland", null, "Fenian St"]}
///   {"op":"aggregate", "predicates":[{"kind":"point","key":"D2"},
///                                    {"kind":"range","lo":0,"hi":4},
///                                    {"kind":"range","lo":"2013-07-01",
///                                                    "hi":"2013-07-31"},
///                                    {"kind":"set","keys":["Mon","Fri"]},
///                                    {"kind":"all"}]}
///   {"op":"slice",     "dim":"Area", "key":"D2"}
///   {"op":"rollup",    "dims":["Weekday","Area"]}
///   {"op":"rollup",    "dims":["Date","Area"],
///                      "where":[{"dim":"Date","lo":"2013-07-01",
///                                             "hi":"2013-07-31"}]}
///   {"op":"stats"}
///   {"op":"metrics"}
///   {"op":"metrics_text"}
///   {"op":"ping"}
///
/// "ping" is the fleet health probe: {"epoch":N,"uptime_s":S,"sessions":K}
/// with no cube work. "metrics_text" returns {"text":...} holding the metric
/// registries rendered in the Prometheus text exposition format.
///
/// Cursor sessions page large row results (slice/rollup) incrementally:
///
///   {"op":"query_open",  "query":{"op":"rollup","dims":["Weekday"]},
///                        "page_size":64}
///   {"op":"query_next",  "cursor":7}
///   {"op":"query_close", "cursor":7}
///
/// query_open pins the session to the server's current epoch snapshot and
/// answers {"cursor":id,"epoch":E,"page_size":N}; each query_next returns up
/// to page_size rows plus {"done":bool} — the pinned snapshot keeps serving
/// even across later epoch publishes, and the cursor is reclaimed once done
/// is reported (or on query_close / idle-TTL expiry). query_open accepts an
/// optional "epoch" field pinning the session to a *retained* prior epoch
/// instead of the current one (code "epoch_gone" when it is no longer
/// retained) — the router uses this to fail a mid-drain cursor over to
/// another replica at the exact epoch the session started on.
///
/// "point" takes one entry per dimension (null = ALL, the roll-up wildcard);
/// "aggregate" takes one predicate per dimension in schema order. Point and
/// set predicate keys are decoded dimension values. Range bounds come in two
/// forms that must not be mixed within one predicate:
///
///  - number bounds are encoded dictionary ids (the id order is first-seen
///    feed order, exactly the semantics of dwarf::DimPredicate::Range);
///  - string bounds are decoded dimension *values*, resolved through the
///    dimension's value-order rank view — valid only on dimensions the cube
///    schema marks ordered (InvalidArgument otherwise). Value order is
///    lexicographic, so ISO dates and zero-padded numerics are chronological.
///
/// "rollup" accepts an optional "where" array restricting grouped ordered
/// dimensions to inclusive value ranges (string bounds, same rank-view
/// semantics); each "where" entry's dim must appear in "dims" exactly once.
/// lo > hi is InvalidArgument for every range form, at this layer and in the
/// direct dwarf API alike.
///
/// Responses carry {"ok":bool, "epoch":N, "cached":bool} plus either a
/// result ("measure" or "rows") or {"code","error"} on failure. Overloaded
/// servers answer {"ok":false, "code":"overloaded", ...} without executing.
/// The envelope has a fixed byte layout (MakeResponse writes it, ReadEnvelope
/// reads it back without parsing the payload): "ok", "epoch" and "cached"
/// first with no whitespace, "code" first in an error payload, "cursor"
/// first in a query_open or query_next payload, and "done" last in a page.
///
/// The complete frame-level spec lives in docs/WIRE_PROTOCOL.md.

#ifndef SCDWARF_SERVER_WIRE_H_
#define SCDWARF_SERVER_WIRE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dwarf/cursor.h"
#include "dwarf/dwarf_cube.h"
#include "dwarf/query.h"

namespace scdwarf::server {

/// \brief Operation requested by a client.
enum class RequestOp {
  kPoint,
  kAggregate,
  kSlice,
  kRollUp,
  kStats,
  kMetrics,
  kQueryOpen,
  kQueryNext,
  kQueryClose,
  kPing,
  kMetricsText,
};

/// Number of RequestOp values, for op-indexed tables.
constexpr size_t kNumRequestOps = static_cast<size_t>(RequestOp::kMetricsText) + 1;

/// Wire name of \p op ("point", "aggregate", ...).
const char* RequestOpName(RequestOp op);

/// \brief One per-dimension predicate of an "aggregate" request, still at
/// the string level (dictionary encoding happens per epoch snapshot).
struct WirePredicate {
  dwarf::DimPredicate::Kind kind = dwarf::DimPredicate::Kind::kAll;
  std::string key;                    ///< kPoint: decoded dimension value
  dwarf::DimKey lo = 0;               ///< kRange id form: encoded id bounds,
  dwarf::DimKey hi = 0;               ///< inclusive
  bool value_bounds = false;          ///< kRange: bounds are decoded values
  std::string lo_value;               ///< kRange value form, inclusive
  std::string hi_value;               ///< kRange value form, inclusive
  std::vector<std::string> keys;      ///< kSet: decoded dimension values
};

/// \brief One "where" entry of a rollup request: an inclusive value range
/// over a grouped ordered dimension.
struct WireRangeFilter {
  std::string dim;
  std::string lo;
  std::string hi;
};

/// \brief A parsed request. Only the fields of the active op are meaningful.
struct QueryRequest {
  RequestOp op = RequestOp::kStats;
  std::vector<std::optional<std::string>> point_keys;  ///< kPoint
  std::vector<WirePredicate> predicates;               ///< kAggregate
  std::string slice_dim;                               ///< kSlice
  std::string slice_key;                               ///< kSlice
  std::vector<std::string> rollup_dims;                ///< kRollUp
  std::vector<WireRangeFilter> rollup_where;           ///< kRollUp, optional
  /// kQueryOpen: the wrapped rows query (slice or rollup only).
  std::shared_ptr<QueryRequest> open_query;
  size_t page_size = 0;     ///< kQueryOpen
  uint64_t cursor_id = 0;   ///< kQueryNext / kQueryClose
  /// kQueryOpen: pin the session to this retained epoch instead of the
  /// current one (absent = current).
  std::optional<uint64_t> open_epoch;
};

/// Largest accepted query_open page_size (keeps one response frame bounded).
constexpr size_t kMaxPageSize = 1 << 16;

/// \brief Parses one request frame payload. InvalidArgument / ParseError on
/// malformed input.
Result<QueryRequest> ParseRequest(std::string_view request_json);

/// \brief Canonical serialization of \p request: fixed field order and
/// formatting, so syntactically different frames of the same logical query
/// normalize to one string. This is the result-cache key (paired with the
/// epoch by the cache itself).
std::string NormalizedCacheKey(const QueryRequest& request);

/// \brief Encodes the predicates of an "aggregate" request against \p cube's
/// dictionaries. Set members unknown to the dictionary are dropped (they can
/// match nothing); a point key or a fully-unknown set yields NotFound, which
/// matches AggregateQuery's no-tuples-match result. Value-form range bounds
/// resolve to a rank window over the dimension's rank view (the dimension
/// must be schema-ordered — InvalidArgument otherwise); a value range that
/// covers no dictionary entry yields NotFound like an unmatched point.
Result<std::vector<dwarf::DimPredicate>> EncodePredicates(
    const dwarf::DwarfCube& cube, const std::vector<WirePredicate>& predicates);

/// \brief Result of executing a request against one cube snapshot: the
/// response payload fields (a serialized JSON object such as {"measure":42}
/// or {"code":"not_found","error":"..."}) plus the ok flag.
struct ExecResult {
  bool ok = false;
  std::string payload_json = "{}";
};

/// \brief Executes a point/aggregate/slice/rollup request against \p cube.
/// Pure function of (cube, request) — the server calls it under an epoch
/// snapshot and the tests call it directly to verify responses byte-for-byte.
/// Session ops (query_open/next/close) are stateful and handled by the
/// server; passing one here yields an internal error result.
ExecResult ExecuteRequest(const dwarf::DwarfCube& cube,
                          const QueryRequest& request);

/// \brief Opens a resumable row cursor for a slice or rollup \p query: the
/// one translation of such a request, which ExecuteRequest drains in one
/// page and a "query_open" session pages through. A slice key the
/// dictionary has never seen yields an immediately-exhausted cursor.
Result<dwarf::RowCursor> OpenRowCursor(const dwarf::DwarfCube& cube,
                                       const QueryRequest& query);

/// \brief Payload of one "query_next" page:
/// {"cursor":id,"rows":[...],"done":bool}. Rows are serialized exactly as
/// the one-shot slice/rollup payload serializes them, so concatenating the
/// pages of a session reproduces the one-shot "rows" array byte for byte.
std::string MakeCursorPagePayload(uint64_t cursor_id,
                                  const std::vector<dwarf::SliceRow>& rows,
                                  bool done);

/// \brief Appends \p text as a quoted, escaped JSON string to \p out.
void AppendJsonString(std::string_view text, std::string* out);

/// \brief Appends \p value formatted exactly as the JSON model serializes a
/// number (integers up to 1e15 in decimal, %.17g beyond), so hand-assembled
/// payloads stay byte-identical to JsonValue-built ones.
void AppendJsonMeasure(dwarf::Measure value, std::string* out);

/// \brief Appends the canonical "rows" array serialization of \p rows
/// ([{"keys":[...],"measure":N},...]) to \p out. Both the one-shot
/// slice/rollup payload and cursor pages are built from this, appending into
/// one reserved buffer instead of materializing a JsonValue tree per row.
void AppendRowsJson(const std::vector<dwarf::SliceRow>& rows,
                    std::string* out);

/// \brief Delta-epoch revalidation predicate: true when executing \p request
/// against a cube updated with tuples whose decoded key paths are \p changed
/// could produce a different result than on the previous epoch — i.e. the
/// request does NOT provably miss every changed prefix. Conservative: any
/// constraint it cannot decide at the string level (id-form range predicates,
/// unknown dimension names, arity mismatches) counts as touching. Value-form
/// ranges ARE decidable: rank order is lexicographic value order, so a
/// changed key outside [lo, hi] provably misses the range. Plain roll-ups
/// always touch (every new tuple lands in some group), but a roll-up with a
/// "where" clause misses when every changed path falls outside some filter's
/// value range.
bool RequestMayTouchPrefixes(
    const dwarf::CubeSchema& schema, const QueryRequest& request,
    const std::vector<std::vector<std::string>>& changed);

/// \brief Assembles a response frame payload from the envelope fields and a
/// serialized payload object (merged into the envelope).
std::string MakeResponse(bool ok, uint64_t epoch, bool cached,
                         const std::string& payload_json);

/// \brief Payload for a failed request: {"code":<slug>,"error":<message>}.
/// "code" comes first, where ReadEnvelope reads it; \p code must be a slug
/// of [a-z0-9_].
std::string MakeErrorPayload(std::string_view code, std::string_view message);

/// \brief The same for \p status, its code slugged from StatusCodeToString
/// (lowercased, spaces replaced with underscores).
std::string MakeErrorPayload(const Status& status);

/// \brief Payload of a "query_open" answer:
/// {"cursor":id,"epoch":E,"page_size":N}, "cursor" first, where ReadEnvelope
/// reads it.
std::string MakeCursorOpenPayload(uint64_t cursor_id, uint64_t epoch,
                                  size_t page_size);

/// \brief Payload of a "ping" answer: {"epoch":E,"uptime_s":S,"sessions":K}.
std::string MakePingPayload(uint64_t epoch, double uptime_s, size_t sessions);

/// \brief Payload of a "metrics_text" answer: {"text":...}, \p text being
/// the registries in the Prometheus text exposition format.
std::string MakeMetricsTextPayload(std::string_view text);

/// \brief The envelope fields of one response, as ReadEnvelope found them.
/// \p code views the response it was read from.
struct Envelope {
  bool ok = false;
  uint64_t epoch = 0;
  bool cached = false;
  std::string_view code;    ///< when "code" is the first payload field
  bool has_cursor = false;  ///< "cursor" is the first payload field
  uint64_t cursor = 0;
  size_t cursor_pos = 0;    ///< offset of the cursor id's digits
  size_t cursor_len = 0;    ///< number of those digits
  bool done = false;        ///< a page's trailing "done" ("rows" follows
                            ///< "cursor" in a page); false otherwise
};

/// \brief Reads the envelope of a response MakeResponse wrote, from its
/// fixed byte layout, without parsing the payload or scanning the rows:
/// {"ok":B,"epoch":N,"cached":B at the head; then "code":"<slug>" or
/// "cursor":N when that is the first payload field; for a page, the
/// ,"done":B} trailer. Epoch and cursor are exact uint64_t values. Strict:
/// any other bytes in those positions (whitespace, a number that overflows,
/// an escape inside a code, a missing closing brace) are a ParseError.
Result<Envelope> ReadEnvelope(std::string_view response);

/// \brief Writes exactly \p size bytes to \p fd, looping over short writes
/// and retrying on EINTR — a signal delivered mid-write must not tear a
/// frame or surface as a spurious IoError. \p peer, when non-empty, names
/// the remote endpoint in every error message ("... (peer 127.0.0.1:4321)"),
/// so client-path callers (the router, the client pool) produce actionable
/// retry logs instead of anonymous I/O failures. A socket the peer or a
/// local shutdown closed gives an IoError and raises no SIGPIPE; a pipe
/// works too.
Status WriteFull(int fd, const char* data, size_t size,
                 std::string_view peer = {});

/// \brief Reads up to \p size bytes from \p fd, stopping early only at EOF
/// and retrying on EINTR. Returns the number of bytes actually read
/// (== \p size unless EOF arrived first). \p peer as in WriteFull; a socket
/// receive timeout (SO_RCVTIMEO) surfaces as IoError "... timed out".
Result<size_t> ReadFull(int fd, char* data, size_t size,
                        std::string_view peer = {});

/// \brief Writes one frame (4-byte big-endian length + payload) to \p fd.
Status WriteFrame(int fd, std::string_view payload, std::string_view peer = {});

/// \brief Reads one frame from \p fd. NotFound on clean EOF before a frame
/// starts; IoError on truncation, read failure, or a frame longer than
/// \p max_frame_bytes.
Result<std::string> ReadFrame(int fd, size_t max_frame_bytes,
                              std::string_view peer = {});

}  // namespace scdwarf::server

#endif  // SCDWARF_SERVER_WIRE_H_
