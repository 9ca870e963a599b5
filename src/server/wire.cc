#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "json/json_parser.h"
#include "json/json_value.h"

namespace scdwarf::server {

namespace {

using json::JsonArray;
using json::JsonObject;
using json::JsonValue;

Result<RequestOp> ParseOp(std::string_view name) {
  if (name == "point") return RequestOp::kPoint;
  if (name == "aggregate") return RequestOp::kAggregate;
  if (name == "slice") return RequestOp::kSlice;
  if (name == "rollup") return RequestOp::kRollUp;
  if (name == "stats") return RequestOp::kStats;
  if (name == "metrics") return RequestOp::kMetrics;
  if (name == "query_open") return RequestOp::kQueryOpen;
  if (name == "query_next") return RequestOp::kQueryNext;
  if (name == "query_close") return RequestOp::kQueryClose;
  if (name == "ping") return RequestOp::kPing;
  if (name == "metrics_text") return RequestOp::kMetricsText;
  return Status::InvalidArgument("unknown op '" + std::string(name) + "'");
}

/// Parses one id-form range bound. Rejects anything a DimKey cannot hold
/// exactly: NaN (every comparison with it is false, so it used to sneak past
/// a plain `< 0` check into an undefined cast), non-integral values, and
/// values outside [0, 2^32).
Result<dwarf::DimKey> ParseDimKeyBound(const JsonValue& bound,
                                       const char* name) {
  SCD_ASSIGN_OR_RETURN(double number, bound.AsNumber());
  if (!(number >= 0) ||
      number > static_cast<double>(std::numeric_limits<dwarf::DimKey>::max()) ||
      number != std::floor(number)) {
    return Status::InvalidArgument(
        std::string("range bound \"") + name +
        "\" must be an integer dictionary id in [0, 2^32)");
  }
  return static_cast<dwarf::DimKey>(number);
}

Result<WirePredicate> ParsePredicate(const JsonValue& value) {
  const JsonObject* object = value.AsObject();
  if (object == nullptr) {
    return Status::InvalidArgument("predicate must be an object");
  }
  WirePredicate predicate;
  SCD_ASSIGN_OR_RETURN(JsonValue kind_value, value.Get("kind"));
  SCD_ASSIGN_OR_RETURN(std::string kind, kind_value.AsString());
  if (kind == "all") {
    predicate.kind = dwarf::DimPredicate::Kind::kAll;
  } else if (kind == "point") {
    predicate.kind = dwarf::DimPredicate::Kind::kPoint;
    SCD_ASSIGN_OR_RETURN(JsonValue key, value.Get("key"));
    SCD_ASSIGN_OR_RETURN(predicate.key, key.AsString());
  } else if (kind == "range") {
    predicate.kind = dwarf::DimPredicate::Kind::kRange;
    SCD_ASSIGN_OR_RETURN(JsonValue lo, value.Get("lo"));
    SCD_ASSIGN_OR_RETURN(JsonValue hi, value.Get("hi"));
    if (lo.is_string() || hi.is_string()) {
      // Value form: both bounds are decoded dimension values, resolved
      // against the ordered dimension's rank view at encode time.
      if (!lo.is_string() || !hi.is_string()) {
        return Status::InvalidArgument(
            "range bounds must both be ids (numbers) or both be values "
            "(strings)");
      }
      predicate.value_bounds = true;
      SCD_ASSIGN_OR_RETURN(predicate.lo_value, lo.AsString());
      SCD_ASSIGN_OR_RETURN(predicate.hi_value, hi.AsString());
      if (predicate.lo_value > predicate.hi_value) {
        return Status::InvalidArgument("range predicate has lo > hi");
      }
    } else {
      SCD_ASSIGN_OR_RETURN(predicate.lo, ParseDimKeyBound(lo, "lo"));
      SCD_ASSIGN_OR_RETURN(predicate.hi, ParseDimKeyBound(hi, "hi"));
      if (predicate.lo > predicate.hi) {
        return Status::InvalidArgument("range predicate has lo > hi");
      }
    }
  } else if (kind == "set") {
    predicate.kind = dwarf::DimPredicate::Kind::kSet;
    SCD_ASSIGN_OR_RETURN(JsonValue keys, value.Get("keys"));
    const JsonArray* array = keys.AsArray();
    if (array == nullptr) {
      return Status::InvalidArgument("set predicate needs a \"keys\" array");
    }
    for (const JsonValue& entry : *array) {
      SCD_ASSIGN_OR_RETURN(std::string member, entry.AsString());
      predicate.keys.push_back(std::move(member));
    }
  } else {
    return Status::InvalidArgument("unknown predicate kind '" + kind + "'");
  }
  return predicate;
}

Result<std::vector<std::string>> ParseStringArray(const JsonValue& value,
                                                  const char* field) {
  const JsonArray* array = value.AsArray();
  if (array == nullptr) {
    return Status::InvalidArgument(std::string("\"") + field +
                                   "\" must be an array of strings");
  }
  std::vector<std::string> out;
  out.reserve(array->size());
  for (const JsonValue& entry : *array) {
    SCD_ASSIGN_OR_RETURN(std::string text, entry.AsString());
    out.push_back(std::move(text));
  }
  return out;
}

}  // namespace

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kPoint: return "point";
    case RequestOp::kAggregate: return "aggregate";
    case RequestOp::kSlice: return "slice";
    case RequestOp::kRollUp: return "rollup";
    case RequestOp::kStats: return "stats";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kQueryOpen: return "query_open";
    case RequestOp::kQueryNext: return "query_next";
    case RequestOp::kQueryClose: return "query_close";
    case RequestOp::kPing: return "ping";
    case RequestOp::kMetricsText: return "metrics_text";
  }
  return "?";
}

namespace {

Result<uint64_t> ParseCursorId(const JsonValue& root) {
  SCD_ASSIGN_OR_RETURN(JsonValue cursor, root.Get("cursor"));
  SCD_ASSIGN_OR_RETURN(double id, cursor.AsNumber());
  if (id < 0 || id != static_cast<double>(static_cast<uint64_t>(id))) {
    return Status::InvalidArgument("\"cursor\" must be a non-negative integer");
  }
  return static_cast<uint64_t>(id);
}

Result<QueryRequest> ParseRequestValue(const JsonValue& root) {
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  SCD_ASSIGN_OR_RETURN(JsonValue op_value, root.Get("op"));
  SCD_ASSIGN_OR_RETURN(std::string op_name, op_value.AsString());
  QueryRequest request;
  SCD_ASSIGN_OR_RETURN(request.op, ParseOp(op_name));
  switch (request.op) {
    case RequestOp::kPoint: {
      SCD_ASSIGN_OR_RETURN(JsonValue keys, root.Get("keys"));
      const JsonArray* array = keys.AsArray();
      if (array == nullptr) {
        return Status::InvalidArgument(
            "point request needs a \"keys\" array (null = ALL)");
      }
      for (const JsonValue& entry : *array) {
        if (entry.is_null()) {
          request.point_keys.push_back(std::nullopt);
        } else {
          SCD_ASSIGN_OR_RETURN(std::string key, entry.AsString());
          request.point_keys.push_back(std::move(key));
        }
      }
      break;
    }
    case RequestOp::kAggregate: {
      SCD_ASSIGN_OR_RETURN(JsonValue predicates, root.Get("predicates"));
      const JsonArray* array = predicates.AsArray();
      if (array == nullptr) {
        return Status::InvalidArgument(
            "aggregate request needs a \"predicates\" array");
      }
      for (const JsonValue& entry : *array) {
        SCD_ASSIGN_OR_RETURN(WirePredicate predicate, ParsePredicate(entry));
        request.predicates.push_back(std::move(predicate));
      }
      break;
    }
    case RequestOp::kSlice: {
      SCD_ASSIGN_OR_RETURN(JsonValue dim, root.Get("dim"));
      SCD_ASSIGN_OR_RETURN(request.slice_dim, dim.AsString());
      SCD_ASSIGN_OR_RETURN(JsonValue key, root.Get("key"));
      SCD_ASSIGN_OR_RETURN(request.slice_key, key.AsString());
      break;
    }
    case RequestOp::kRollUp: {
      SCD_ASSIGN_OR_RETURN(JsonValue dims, root.Get("dims"));
      SCD_ASSIGN_OR_RETURN(request.rollup_dims, ParseStringArray(dims, "dims"));
      if (Result<JsonValue> where = root.Get("where"); where.ok()) {
        const JsonArray* array = where->AsArray();
        if (array == nullptr) {
          return Status::InvalidArgument(
              "\"where\" must be an array of {dim,lo,hi} objects");
        }
        for (const JsonValue& entry : *array) {
          WireRangeFilter filter;
          SCD_ASSIGN_OR_RETURN(JsonValue dim, entry.Get("dim"));
          SCD_ASSIGN_OR_RETURN(filter.dim, dim.AsString());
          SCD_ASSIGN_OR_RETURN(JsonValue lo, entry.Get("lo"));
          SCD_ASSIGN_OR_RETURN(filter.lo, lo.AsString());
          SCD_ASSIGN_OR_RETURN(JsonValue hi, entry.Get("hi"));
          SCD_ASSIGN_OR_RETURN(filter.hi, hi.AsString());
          if (filter.lo > filter.hi) {
            return Status::InvalidArgument("rollup \"where\" range on '" +
                                           filter.dim + "' has lo > hi");
          }
          if (std::find(request.rollup_dims.begin(), request.rollup_dims.end(),
                        filter.dim) == request.rollup_dims.end()) {
            return Status::InvalidArgument(
                "rollup \"where\" dimension '" + filter.dim +
                "' is not in \"dims\"");
          }
          for (const WireRangeFilter& prev : request.rollup_where) {
            if (prev.dim == filter.dim) {
              return Status::InvalidArgument(
                  "duplicate rollup \"where\" dimension '" + filter.dim + "'");
            }
          }
          request.rollup_where.push_back(std::move(filter));
        }
      }
      break;
    }
    case RequestOp::kStats:
    case RequestOp::kMetrics:
      break;
    case RequestOp::kQueryOpen: {
      SCD_ASSIGN_OR_RETURN(JsonValue query, root.Get("query"));
      SCD_ASSIGN_OR_RETURN(QueryRequest inner, ParseRequestValue(query));
      if (inner.op != RequestOp::kSlice && inner.op != RequestOp::kRollUp) {
        return Status::InvalidArgument(
            "query_open pages row results: \"query\" must be a slice or "
            "rollup request, got op '" +
            std::string(RequestOpName(inner.op)) + "'");
      }
      request.open_query = std::make_shared<QueryRequest>(std::move(inner));
      SCD_ASSIGN_OR_RETURN(JsonValue page_size, root.Get("page_size"));
      SCD_ASSIGN_OR_RETURN(double size, page_size.AsNumber());
      if (size < 1 || size != static_cast<double>(static_cast<size_t>(size))) {
        return Status::InvalidArgument(
            "\"page_size\" must be a positive integer");
      }
      if (size > static_cast<double>(kMaxPageSize)) {
        return Status::InvalidArgument(
            "\"page_size\" exceeds the maximum of " +
            std::to_string(kMaxPageSize));
      }
      request.page_size = static_cast<size_t>(size);
      if (Result<JsonValue> epoch = root.Get("epoch"); epoch.ok()) {
        SCD_ASSIGN_OR_RETURN(double pinned, epoch->AsNumber());
        if (pinned < 0 ||
            pinned != static_cast<double>(static_cast<uint64_t>(pinned))) {
          return Status::InvalidArgument(
              "\"epoch\" must be a non-negative integer");
        }
        request.open_epoch = static_cast<uint64_t>(pinned);
      }
      break;
    }
    case RequestOp::kQueryNext:
    case RequestOp::kQueryClose: {
      SCD_ASSIGN_OR_RETURN(request.cursor_id, ParseCursorId(root));
      break;
    }
    case RequestOp::kPing:
    case RequestOp::kMetricsText:
      break;
  }
  return request;
}

Result<QueryRequest> ParseRequestImpl(std::string_view request_json) {
  SCD_ASSIGN_OR_RETURN(JsonValue root, json::ParseJson(request_json));
  return ParseRequestValue(root);
}

}  // namespace

Result<QueryRequest> ParseRequest(std::string_view request_json) {
  Result<QueryRequest> parsed = ParseRequestImpl(request_json);
  if (!parsed.ok() && parsed.status().IsNotFound()) {
    // A missing request field (e.g. no "keys") is a malformed request, not a
    // missing cube value: report it as such.
    return Status::InvalidArgument(parsed.status().message());
  }
  return parsed;
}

std::string NormalizedCacheKey(const QueryRequest& request) {
  JsonObject root;
  root.emplace_back("op", JsonValue(RequestOpName(request.op)));
  switch (request.op) {
    case RequestOp::kPoint: {
      JsonArray keys;
      for (const std::optional<std::string>& key : request.point_keys) {
        keys.push_back(key.has_value() ? JsonValue(*key) : JsonValue(nullptr));
      }
      root.emplace_back("keys", JsonValue(std::move(keys)));
      break;
    }
    case RequestOp::kAggregate: {
      JsonArray predicates;
      for (const WirePredicate& predicate : request.predicates) {
        JsonObject entry;
        switch (predicate.kind) {
          case dwarf::DimPredicate::Kind::kAll:
            entry.emplace_back("kind", JsonValue("all"));
            break;
          case dwarf::DimPredicate::Kind::kPoint:
            entry.emplace_back("kind", JsonValue("point"));
            entry.emplace_back("key", JsonValue(predicate.key));
            break;
          case dwarf::DimPredicate::Kind::kRange:
            entry.emplace_back("kind", JsonValue("range"));
            // String bounds serialize quoted, so the value form can never
            // collide with an id form in the cache.
            if (predicate.value_bounds) {
              entry.emplace_back("lo", JsonValue(predicate.lo_value));
              entry.emplace_back("hi", JsonValue(predicate.hi_value));
            } else {
              entry.emplace_back("lo",
                                 JsonValue(static_cast<int64_t>(predicate.lo)));
              entry.emplace_back("hi",
                                 JsonValue(static_cast<int64_t>(predicate.hi)));
            }
            break;
          case dwarf::DimPredicate::Kind::kSet: {
            entry.emplace_back("kind", JsonValue("set"));
            // A set is order-insensitive; sort + dedup so permutations of the
            // same member list share one cache entry.
            std::vector<std::string> members = predicate.keys;
            std::sort(members.begin(), members.end());
            members.erase(std::unique(members.begin(), members.end()),
                          members.end());
            JsonArray keys;
            for (std::string& member : members) {
              keys.push_back(JsonValue(std::move(member)));
            }
            entry.emplace_back("keys", JsonValue(std::move(keys)));
            break;
          }
        }
        predicates.push_back(JsonValue(std::move(entry)));
      }
      root.emplace_back("predicates", JsonValue(std::move(predicates)));
      break;
    }
    case RequestOp::kSlice:
      root.emplace_back("dim", JsonValue(request.slice_dim));
      root.emplace_back("key", JsonValue(request.slice_key));
      break;
    case RequestOp::kRollUp: {
      JsonArray dims;
      for (const std::string& dim : request.rollup_dims) {
        dims.push_back(JsonValue(dim));
      }
      root.emplace_back("dims", JsonValue(std::move(dims)));
      // "where" entries are order-insensitive (one per dim); sort by dim so
      // permutations share a cache entry. Omitted entirely when empty, so
      // plain roll-up keys are unchanged.
      if (!request.rollup_where.empty()) {
        std::vector<WireRangeFilter> sorted = request.rollup_where;
        std::sort(sorted.begin(), sorted.end(),
                  [](const WireRangeFilter& a, const WireRangeFilter& b) {
                    return a.dim < b.dim;
                  });
        JsonArray where;
        for (const WireRangeFilter& filter : sorted) {
          JsonObject entry;
          entry.emplace_back("dim", JsonValue(filter.dim));
          entry.emplace_back("lo", JsonValue(filter.lo));
          entry.emplace_back("hi", JsonValue(filter.hi));
          where.push_back(JsonValue(std::move(entry)));
        }
        root.emplace_back("where", JsonValue(std::move(where)));
      }
      break;
    }
    case RequestOp::kStats:
    case RequestOp::kMetrics:
      break;
    case RequestOp::kQueryOpen: {
      // Session ops never enter the result cache; normalized anyway so every
      // RequestOp has one canonical spelling.
      if (request.open_query != nullptr) {
        auto inner = json::ParseJson(NormalizedCacheKey(*request.open_query));
        root.emplace_back("query",
                          inner.ok() ? *inner : JsonValue(nullptr));
      }
      root.emplace_back(
          "page_size", JsonValue(static_cast<int64_t>(request.page_size)));
      if (request.open_epoch.has_value()) {
        root.emplace_back(
            "epoch", JsonValue(static_cast<int64_t>(*request.open_epoch)));
      }
      break;
    }
    case RequestOp::kQueryNext:
    case RequestOp::kQueryClose:
      root.emplace_back("cursor",
                        JsonValue(static_cast<int64_t>(request.cursor_id)));
      break;
    case RequestOp::kPing:
    case RequestOp::kMetricsText:
      break;
  }
  return json::SerializeJson(JsonValue(std::move(root)));
}

Result<std::vector<dwarf::DimPredicate>> EncodePredicates(
    const dwarf::DwarfCube& cube,
    const std::vector<WirePredicate>& predicates) {
  if (predicates.size() != cube.num_dimensions()) {
    return Status::InvalidArgument(
        "aggregate request has " + std::to_string(predicates.size()) +
        " predicates, cube has " + std::to_string(cube.num_dimensions()) +
        " dimensions");
  }
  std::vector<dwarf::DimPredicate> encoded;
  encoded.reserve(predicates.size());
  for (size_t dim = 0; dim < predicates.size(); ++dim) {
    const WirePredicate& predicate = predicates[dim];
    switch (predicate.kind) {
      case dwarf::DimPredicate::Kind::kAll:
        encoded.push_back(dwarf::DimPredicate::All());
        break;
      case dwarf::DimPredicate::Kind::kPoint: {
        SCD_ASSIGN_OR_RETURN(dwarf::DimKey id,
                             cube.dictionary(dim).Lookup(predicate.key));
        encoded.push_back(dwarf::DimPredicate::Point(id));
        break;
      }
      case dwarf::DimPredicate::Kind::kRange: {
        if (predicate.value_bounds) {
          const dwarf::Dictionary& dict = cube.dictionary(dim);
          if (!cube.schema().dimensions()[dim].ordered ||
              !dict.has_rank_view()) {
            return Status::InvalidArgument(
                "value-bound range on dimension '" +
                cube.schema().dimensions()[dim].name +
                "', which is not marked ordered in the cube schema");
          }
          if (predicate.lo_value > predicate.hi_value) {
            return Status::InvalidArgument("range predicate has lo > hi");
          }
          // [lo_value, hi_value] inclusive over decoded values becomes a
          // half-open rank window [LowerBound(lo), UpperBound(hi)).
          dwarf::DimKey lo_rank = dict.LowerBoundRank(predicate.lo_value);
          dwarf::DimKey hi_excl = dict.UpperBoundRank(predicate.hi_value);
          if (lo_rank >= hi_excl) {
            return Status::NotFound("no value of dimension " +
                                    std::to_string(dim) +
                                    " falls in the requested range");
          }
          encoded.push_back(dwarf::DimPredicate::RankRange(lo_rank, hi_excl - 1));
          break;
        }
        if (predicate.lo > predicate.hi) {
          return Status::InvalidArgument("range predicate has lo > hi");
        }
        encoded.push_back(dwarf::DimPredicate::Range(predicate.lo, predicate.hi));
        break;
      }
      case dwarf::DimPredicate::Kind::kSet: {
        std::vector<dwarf::DimKey> ids;
        for (const std::string& member : predicate.keys) {
          auto id = cube.dictionary(dim).Lookup(member);
          if (id.ok()) ids.push_back(*id);
        }
        if (ids.empty()) {
          return Status::NotFound("no set member of dimension " +
                                  std::to_string(dim) +
                                  " exists in the cube dictionary");
        }
        encoded.push_back(dwarf::DimPredicate::Set(std::move(ids)));
        break;
      }
    }
  }
  return encoded;
}

void AppendJsonString(std::string_view text, std::string* out) {
  out->push_back('"');
  json::AppendEscapedJsonString(text, out);
  out->push_back('"');
}

void AppendJsonMeasure(dwarf::Measure value, std::string* out) {
  // Mirrors JsonValue::ToFieldString for numbers: the JSON model stores
  // every number as a double, so measures round-trip through one here too —
  // hand-assembled payloads must stay byte-identical to model-built ones.
  double as_double = static_cast<double>(value);
  if (std::nearbyint(as_double) == as_double && std::fabs(as_double) < 1e15) {
    out->append(std::to_string(static_cast<long long>(as_double)));
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", as_double);
  out->append(buffer);
}

void AppendRowsJson(const std::vector<dwarf::SliceRow>& rows,
                    std::string* out) {
  out->push_back('[');
  bool first_row = true;
  for (const dwarf::SliceRow& row : rows) {
    if (!first_row) out->push_back(',');
    first_row = false;
    out->append("{\"keys\":[");
    bool first_key = true;
    for (const std::string& key : row.keys) {
      if (!first_key) out->push_back(',');
      first_key = false;
      AppendJsonString(key, out);
    }
    out->append("],\"measure\":");
    AppendJsonMeasure(row.measure, out);
    out->push_back('}');
  }
  out->push_back(']');
}

namespace {

/// Rough serialized footprint of one row, for payload buffer reservation:
/// braces/field names plus the key bytes themselves.
size_t EstimateRowsJsonBytes(const std::vector<dwarf::SliceRow>& rows) {
  size_t bytes = 2;
  for (const dwarf::SliceRow& row : rows) {
    bytes += 40;  // {"keys":[],"measure":} + digits + commas
    for (const std::string& key : row.keys) bytes += key.size() + 3;
  }
  return bytes;
}

ExecResult MeasureResult(const Result<dwarf::Measure>& measure) {
  if (!measure.ok()) return {false, MakeErrorPayload(measure.status())};
  std::string payload = "{\"measure\":";
  AppendJsonMeasure(*measure, &payload);
  payload.push_back('}');
  return {true, std::move(payload)};
}

ExecResult RowsResult(const std::vector<dwarf::SliceRow>& rows) {
  std::string payload;
  payload.reserve(16 + EstimateRowsJsonBytes(rows));
  payload.append("{\"rows\":");
  AppendRowsJson(rows, &payload);
  payload.push_back('}');
  return {true, std::move(payload)};
}

/// Resolves a rollup request's "where" value ranges to per-dimension rank
/// windows. A range that covers no dictionary entry resolves to the empty
/// window (lo > hi), which matches nothing — a zero-row roll-up, not an
/// error. Leaves \p filters empty when the request has no "where" clause.
Status ResolveRollupFilters(const dwarf::DwarfCube& cube,
                            const std::vector<WireRangeFilter>& where,
                            dwarf::RankFilters* filters) {
  if (where.empty()) return Status::OK();
  filters->assign(cube.num_dimensions(), std::nullopt);
  for (const WireRangeFilter& filter : where) {
    SCD_ASSIGN_OR_RETURN(size_t dim, cube.schema().DimensionIndex(filter.dim));
    const dwarf::Dictionary& dict = cube.dictionary(dim);
    if (!cube.schema().dimensions()[dim].ordered || !dict.has_rank_view()) {
      return Status::InvalidArgument(
          "rollup \"where\" range on dimension '" + filter.dim +
          "', which is not marked ordered in the cube schema");
    }
    if (filter.lo > filter.hi) {
      return Status::InvalidArgument("rollup \"where\" range on '" +
                                     filter.dim + "' has lo > hi");
    }
    dwarf::DimKey lo_rank = dict.LowerBoundRank(filter.lo);
    dwarf::DimKey hi_excl = dict.UpperBoundRank(filter.hi);
    dwarf::RankWindow window;
    if (lo_rank >= hi_excl) {
      window.lo = 1;
      window.hi = 0;  // empty window: the roll-up has zero rows
    } else {
      window.lo = lo_rank;
      window.hi = hi_excl - 1;
    }
    (*filters)[dim] = window;
  }
  return Status::OK();
}

}  // namespace

ExecResult ExecuteRequest(const dwarf::DwarfCube& cube,
                          const QueryRequest& request) {
  switch (request.op) {
    case RequestOp::kPoint:
      return MeasureResult(dwarf::PointQueryByName(cube, request.point_keys));
    case RequestOp::kAggregate: {
      auto predicates = EncodePredicates(cube, request.predicates);
      if (!predicates.ok()) {
        return {false, MakeErrorPayload(predicates.status())};
      }
      return MeasureResult(dwarf::AggregateQuery(cube, *predicates));
    }
    case RequestOp::kSlice:
    case RequestOp::kRollUp: {
      Result<dwarf::RowCursor> cursor = OpenRowCursor(cube, request);
      if (!cursor.ok()) return {false, MakeErrorPayload(cursor.status())};
      std::vector<dwarf::SliceRow> rows;
      cursor->Next(std::numeric_limits<size_t>::max(), &rows);
      return RowsResult(rows);
    }
    case RequestOp::kStats:
    case RequestOp::kMetrics:
    case RequestOp::kMetricsText:
    case RequestOp::kPing:
      return {false, MakeErrorPayload(Status::Internal(
                         "stats/metrics requests are handled by the server"))};
    case RequestOp::kQueryOpen:
    case RequestOp::kQueryNext:
    case RequestOp::kQueryClose:
      return {false, MakeErrorPayload(Status::Internal(
                         "cursor session ops are handled by the server"))};
  }
  return {false, MakeErrorPayload(Status::Internal("unreachable"))};
}

Result<dwarf::RowCursor> OpenRowCursor(const dwarf::DwarfCube& cube,
                                       const QueryRequest& query) {
  switch (query.op) {
    case RequestOp::kSlice: {
      SCD_ASSIGN_OR_RETURN(size_t dim,
                           cube.schema().DimensionIndex(query.slice_dim));
      auto key = cube.dictionary(dim).Lookup(query.slice_key);
      // An unknown value selects the empty sub-cube: any id past the
      // dictionary matches no cell, so the cursor is born exhausted.
      dwarf::DimKey pinned =
          key.ok() ? *key
                   : static_cast<dwarf::DimKey>(cube.dictionary(dim).size());
      return dwarf::RowCursor::OverSlice(cube, dim, pinned);
    }
    case RequestOp::kRollUp: {
      std::vector<size_t> dims;
      dims.reserve(query.rollup_dims.size());
      for (const std::string& name : query.rollup_dims) {
        SCD_ASSIGN_OR_RETURN(size_t dim, cube.schema().DimensionIndex(name));
        dims.push_back(dim);
      }
      dwarf::RankFilters filters;
      SCD_RETURN_IF_ERROR(
          ResolveRollupFilters(cube, query.rollup_where, &filters));
      return dwarf::RowCursor::OverRollUp(
          cube, dims, filters.empty() ? nullptr : &filters);
    }
    default:
      return Status::InvalidArgument(
          "cursor sessions support only slice and rollup queries");
  }
}

std::string MakeCursorPagePayload(uint64_t cursor_id,
                                  const std::vector<dwarf::SliceRow>& rows,
                                  bool done) {
  std::string payload;
  payload.reserve(48 + EstimateRowsJsonBytes(rows));
  payload.append("{\"cursor\":");
  payload.append(std::to_string(cursor_id));
  payload.append(",\"rows\":");
  AppendRowsJson(rows, &payload);
  payload.append(",\"done\":");
  payload.append(done ? "true" : "false");
  payload.push_back('}');
  return payload;
}

namespace {

/// True when the per-dimension constraints of \p request could match the
/// decoded key path \p path. Undecidable constraints count as matching.
bool PointKeysMayMatch(const std::vector<std::optional<std::string>>& keys,
                       const std::vector<std::string>& path) {
  if (keys.size() != path.size()) return true;  // arity error: conservative
  for (size_t dim = 0; dim < keys.size(); ++dim) {
    if (keys[dim].has_value() && *keys[dim] != path[dim]) return false;
  }
  return true;
}

bool PredicatesMayMatch(const std::vector<WirePredicate>& predicates,
                        const std::vector<std::string>& path) {
  if (predicates.size() != path.size()) return true;
  for (size_t dim = 0; dim < predicates.size(); ++dim) {
    const WirePredicate& predicate = predicates[dim];
    switch (predicate.kind) {
      case dwarf::DimPredicate::Kind::kAll:
        break;
      case dwarf::DimPredicate::Kind::kPoint:
        if (predicate.key != path[dim]) return false;
        break;
      case dwarf::DimPredicate::Kind::kSet:
        if (std::find(predicate.keys.begin(), predicate.keys.end(),
                      path[dim]) == predicate.keys.end()) {
          return false;
        }
        break;
      case dwarf::DimPredicate::Kind::kRange:
        // Value bounds ARE decidable here: rank order is lexicographic value
        // order, so a changed key outside [lo, hi] provably misses the
        // range. Id bounds stay undecidable at the string level.
        if (predicate.value_bounds && (path[dim] < predicate.lo_value ||
                                       path[dim] > predicate.hi_value)) {
          return false;
        }
        break;
    }
  }
  return true;
}

}  // namespace

bool RequestMayTouchPrefixes(
    const dwarf::CubeSchema& schema, const QueryRequest& request,
    const std::vector<std::vector<std::string>>& changed) {
  if (changed.empty()) return false;
  switch (request.op) {
    case RequestOp::kPoint:
      for (const std::vector<std::string>& path : changed) {
        if (PointKeysMayMatch(request.point_keys, path)) return true;
      }
      return false;
    case RequestOp::kAggregate:
      for (const std::vector<std::string>& path : changed) {
        if (PredicatesMayMatch(request.predicates, path)) return true;
      }
      return false;
    case RequestOp::kSlice: {
      auto dim = schema.DimensionIndex(request.slice_dim);
      if (!dim.ok()) return true;  // unknown dimension: conservative
      for (const std::vector<std::string>& path : changed) {
        if (*dim >= path.size() || path[*dim] == request.slice_key) {
          return true;
        }
      }
      return false;
    }
    case RequestOp::kRollUp: {
      // A plain roll-up always touches (every new tuple lands in some
      // group), but a "where" clause makes it decidable: a changed path
      // misses when its key on some filtered dimension falls outside the
      // filter's value range.
      if (request.rollup_where.empty()) return true;
      for (const std::vector<std::string>& path : changed) {
        bool excluded = false;
        for (const WireRangeFilter& filter : request.rollup_where) {
          auto dim = schema.DimensionIndex(filter.dim);
          if (!dim.ok() || *dim >= path.size()) continue;  // conservative
          if (path[*dim] < filter.lo || path[*dim] > filter.hi) {
            excluded = true;
            break;
          }
        }
        if (!excluded) return true;
      }
      return false;
    }
    case RequestOp::kStats:
    case RequestOp::kMetrics:
    case RequestOp::kMetricsText:
    case RequestOp::kPing:
    case RequestOp::kQueryOpen:
    case RequestOp::kQueryNext:
    case RequestOp::kQueryClose:
      // Uncacheable or stateful ops — always treat as touched.
      return true;
  }
  return true;
}

std::string MakeResponse(bool ok, uint64_t epoch, bool cached,
                         const std::string& payload_json) {
  std::string out = "{\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"cached\":";
  out += cached ? "true" : "false";
  if (payload_json.size() > 2) {  // merge the payload object's fields
    out += ",";
    out.append(payload_json, 1, payload_json.size() - 1);
  } else {
    out += "}";
  }
  return out;
}

std::string MakeErrorPayload(std::string_view code, std::string_view message) {
  std::string payload = "{\"code\":";
  AppendJsonString(code, &payload);
  payload.append(",\"error\":");
  AppendJsonString(message, &payload);
  payload.push_back('}');
  return payload;
}

std::string MakeErrorPayload(const Status& status) {
  std::string code = StatusCodeToString(status.code());
  std::replace(code.begin(), code.end(), ' ', '_');
  for (char& c : code) c = static_cast<char>(std::tolower(c));
  return MakeErrorPayload(code, status.message());
}

std::string MakeCursorOpenPayload(uint64_t cursor_id, uint64_t epoch,
                                  size_t page_size) {
  // Numbers go through AppendJsonMeasure so the payload stays byte-identical
  // to the JSON model's rendering of the same object.
  std::string payload = "{\"cursor\":";
  AppendJsonMeasure(static_cast<dwarf::Measure>(cursor_id), &payload);
  payload.append(",\"epoch\":");
  AppendJsonMeasure(static_cast<dwarf::Measure>(epoch), &payload);
  payload.append(",\"page_size\":");
  AppendJsonMeasure(static_cast<dwarf::Measure>(page_size), &payload);
  payload.push_back('}');
  return payload;
}

std::string MakePingPayload(uint64_t epoch, double uptime_s, size_t sessions) {
  JsonObject payload;
  payload.emplace_back("epoch", JsonValue(static_cast<int64_t>(epoch)));
  payload.emplace_back("uptime_s", JsonValue(uptime_s));
  payload.emplace_back("sessions", JsonValue(static_cast<int64_t>(sessions)));
  return json::SerializeJson(JsonValue(std::move(payload)));
}

std::string MakeMetricsTextPayload(std::string_view text) {
  std::string payload = "{\"text\":";
  AppendJsonString(text, &payload);
  payload.push_back('}');
  return payload;
}

namespace {

/// Consumes \p literal at *pos.
bool ConsumeLiteral(std::string_view text, size_t* pos,
                    std::string_view literal) {
  if (text.size() - *pos < literal.size() ||
      text.compare(*pos, literal.size(), literal) != 0) {
    return false;
  }
  *pos += literal.size();
  return true;
}

bool ConsumeBool(std::string_view text, size_t* pos, bool* value) {
  if (ConsumeLiteral(text, pos, "true")) {
    *value = true;
    return true;
  }
  *value = false;
  return ConsumeLiteral(text, pos, "false");
}

/// Consumes a JSON integer that fits uint64_t exactly: digits only, no
/// leading zero, no overflow.
bool ConsumeUint64(std::string_view text, size_t* pos, uint64_t* value) {
  const size_t start = *pos;
  uint64_t result = 0;
  for (; *pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9';
       ++*pos) {
    const uint64_t digit = static_cast<uint64_t>(text[*pos] - '0');
    if (result > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;
    }
    result = result * 10 + digit;
  }
  if (*pos == start || (text[start] == '0' && *pos - start > 1)) return false;
  *value = result;
  return true;
}

/// True when the field just read ends at \p pos: the next field's opening
/// quote follows, or the closing brace that is the response's last byte.
bool AtFieldEnd(std::string_view text, size_t pos) {
  return text.substr(pos, 2) == ",\"" ||
         (pos + 1 == text.size() && text[pos] == '}');
}

bool IsSlugByte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

}  // namespace

Result<Envelope> ReadEnvelope(std::string_view response) {
  auto malformed = [](const char* what) {
    return Status::ParseError(std::string("malformed response envelope: ") +
                              what);
  };
  Envelope env;
  size_t pos = 0;
  if (!ConsumeLiteral(response, &pos, "{\"ok\":") ||
      !ConsumeBool(response, &pos, &env.ok)) {
    return malformed("expected {\"ok\":true|false at the head");
  }
  if (!ConsumeLiteral(response, &pos, ",\"epoch\":") ||
      !ConsumeUint64(response, &pos, &env.epoch)) {
    return malformed("expected \"epoch\":<uint64> after \"ok\"");
  }
  if (!ConsumeLiteral(response, &pos, ",\"cached\":") ||
      !ConsumeBool(response, &pos, &env.cached)) {
    return malformed("expected \"cached\":true|false after \"epoch\"");
  }
  if (response.back() != '}') {
    return malformed("the response does not end in }");
  }
  if (pos + 1 == response.size()) return env;  // no payload fields
  if (!ConsumeLiteral(response, &pos, ",\"")) {
    return malformed("expected a payload field after \"cached\"");
  }
  if (ConsumeLiteral(response, &pos, "code\"")) {
    if (!ConsumeLiteral(response, &pos, ":\"")) {
      return malformed("\"code\" must be a string");
    }
    const size_t start = pos;
    while (pos < response.size() && IsSlugByte(response[pos])) ++pos;
    const size_t end = pos;
    if (end == start || !ConsumeLiteral(response, &pos, "\"") ||
        !AtFieldEnd(response, pos)) {
      return malformed("\"code\" must be a slug of [a-z0-9_]");
    }
    env.code = response.substr(start, end - start);
    return env;
  }
  if (ConsumeLiteral(response, &pos, "cursor\"")) {
    if (!ConsumeLiteral(response, &pos, ":")) {
      return malformed("expected : after \"cursor\"");
    }
    env.cursor_pos = pos;
    if (!ConsumeUint64(response, &pos, &env.cursor)) {
      return malformed("\"cursor\" must be a uint64");
    }
    env.cursor_len = pos - env.cursor_pos;
    env.has_cursor = true;
    if (ConsumeLiteral(response, &pos, ",\"rows\"")) {
      if (!ConsumeLiteral(response, &pos, ":[")) {
        return malformed("a page's \"rows\" must be an array");
      }
      // The rows are never scanned: the page ends in a fixed trailer.
      const std::string_view rows_and_trailer = response.substr(pos);
      env.done = rows_and_trailer.ends_with("],\"done\":true}");
      if (!env.done && !rows_and_trailer.ends_with("],\"done\":false}")) {
        return malformed("a page must end in ],\"done\":true|false}");
      }
      return env;
    }
    if (!AtFieldEnd(response, pos)) {
      return malformed("\"cursor\" must be a uint64");
    }
  }
  return env;
}

namespace {

/// " (peer 127.0.0.1:4321)" when a peer was named, "" otherwise — appended
/// to frame I/O errors so client-path callers can tell which endpoint broke.
std::string PeerSuffix(std::string_view peer) {
  if (peer.empty()) return "";
  return " (peer " + std::string(peer) + ")";
}

}  // namespace

Status WriteFull(int fd, const char* data, size_t size,
                 std::string_view peer) {
  size_t written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a socket shut down or reset under the write fails with
    // EPIPE instead of raising SIGPIPE, which would kill the process. A
    // pipe is no socket (ENOTSOCK) and takes write().
    ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data + written, size - written);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("frame write timed out" + PeerSuffix(peer));
      }
      return Status::IoError("frame write failed: " +
                             std::string(std::strerror(errno)) +
                             PeerSuffix(peer));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> ReadFull(int fd, char* data, size_t size,
                        std::string_view peer) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("frame read timed out" + PeerSuffix(peer));
      }
      return Status::IoError("frame read failed: " +
                             std::string(std::strerror(errno)) +
                             PeerSuffix(peer));
    }
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  return done;
}

Status WriteFrame(int fd, std::string_view payload, std::string_view peer) {
  unsigned char header[4] = {
      static_cast<unsigned char>((payload.size() >> 24) & 0xff),
      static_cast<unsigned char>((payload.size() >> 16) & 0xff),
      static_cast<unsigned char>((payload.size() >> 8) & 0xff),
      static_cast<unsigned char>(payload.size() & 0xff)};
  std::string frame(reinterpret_cast<char*>(header), sizeof(header));
  frame.append(payload);
  return WriteFull(fd, frame.data(), frame.size(), peer);
}

Result<std::string> ReadFrame(int fd, size_t max_frame_bytes,
                              std::string_view peer) {
  char header[4];
  SCD_ASSIGN_OR_RETURN(size_t header_read,
                       ReadFull(fd, header, sizeof(header), peer));
  if (header_read == 0) {
    return Status::NotFound("connection closed" + PeerSuffix(peer));
  }
  if (header_read < sizeof(header)) {
    return Status::IoError("connection closed mid-header" + PeerSuffix(peer));
  }
  size_t size = (static_cast<size_t>(static_cast<unsigned char>(header[0])) << 24) |
                (static_cast<size_t>(static_cast<unsigned char>(header[1])) << 16) |
                (static_cast<size_t>(static_cast<unsigned char>(header[2])) << 8) |
                static_cast<size_t>(static_cast<unsigned char>(header[3]));
  if (size > max_frame_bytes) {
    return Status::IoError("frame of " + std::to_string(size) +
                           " bytes exceeds the " +
                           std::to_string(max_frame_bytes) + "-byte limit" +
                           PeerSuffix(peer));
  }
  std::string payload(size, '\0');
  SCD_ASSIGN_OR_RETURN(size_t payload_read,
                       ReadFull(fd, payload.data(), size, peer));
  if (payload_read < size) {
    return Status::IoError("connection closed mid-frame" + PeerSuffix(peer));
  }
  return payload;
}

}  // namespace scdwarf::server
