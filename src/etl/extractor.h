/// \file extractor.h
/// \brief Declarative extraction of flat records from XML and JSON feed
/// documents. A spec names the repeating record element/array and, per
/// field, where to read it from — at record scope or document scope (shared
/// header values such as the snapshot timestamp).

#ifndef SCDWARF_ETL_EXTRACTOR_H_
#define SCDWARF_ETL_EXTRACTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "etl/record.h"
#include "json/json_parser.h"
#include "xml/xml_path.h"

namespace scdwarf::etl {

/// \brief Where a field's path is evaluated.
enum class FieldScope {
  kRecord,    ///< relative to each record element/object
  kDocument,  ///< relative to the document root; same value for all records
};

/// \brief One field to extract.
struct FieldSpec {
  std::string name;    ///< field name in the produced record
  std::string path;    ///< XmlPath expression (XML) or dotted path (JSON)
  FieldScope scope = FieldScope::kRecord;
  bool required = true;         ///< missing + required => record is an error
  std::string default_value;   ///< used when missing and not required
};

/// \brief Extracts records from XML documents.
class XmlExtractor {
 public:
  /// \p record_path selects the repeating record elements from the root
  /// (e.g. "station" under a <stations> root).
  static Result<XmlExtractor> Create(std::string record_path,
                                     std::vector<FieldSpec> fields);

  /// Extracts one record per matched element in one tokenizer pass over
  /// \p document, without building a DOM. The result, and the status of a
  /// malformed document, equal what XmlPath's DOM selectors give on
  /// ParseXml's tree.
  Result<std::vector<FeedRecord>> Extract(std::string_view document) const;

 private:
  XmlExtractor() = default;

  xml::XmlPath record_path_{xml::XmlPath::Compile("x").ValueOrDie()};
  std::vector<FieldSpec> fields_;
  std::vector<xml::XmlPath> field_paths_;
};

/// \brief Extracts records from JSON documents.
class JsonExtractor {
 public:
  /// \p records_path is the dotted path to the array of record objects
  /// (e.g. "stations"); field paths are dotted paths inside each object.
  static Result<JsonExtractor> Create(std::string records_path,
                                      std::vector<FieldSpec> fields);

  Result<std::vector<FeedRecord>> Extract(std::string_view document) const;
  Result<std::vector<FeedRecord>> ExtractFromValue(
      const json::JsonValue& document) const;

 private:
  JsonExtractor() = default;

  std::string records_path_;
  std::vector<FieldSpec> fields_;
};

}  // namespace scdwarf::etl

#endif  // SCDWARF_ETL_EXTRACTOR_H_
