#include "etl/extractor.h"

#include <span>

#include "common/strings.h"
#include "xml/xml_tokenizer.h"

namespace scdwarf::etl {

namespace {

/// Applies required/default policy for a missing field.
Status HandleMissing(const FieldSpec& field, FeedRecord* record) {
  if (field.required) {
    return Status::NotFound("required field '" + field.name +
                            "' missing (path '" + field.path + "')");
  }
  record->Set(field.name, field.default_value);
  return Status::OK();
}

const std::string_view* FindAttribute(
    const std::vector<xml::XmlAttribute>& attributes, std::string_view name) {
  for (const xml::XmlAttribute& attribute : attributes) {
    if (attribute.name == name) return &attribute.value;
  }
  return nullptr;
}

}  // namespace

Result<XmlExtractor> XmlExtractor::Create(std::string record_path,
                                          std::vector<FieldSpec> fields) {
  XmlExtractor extractor;
  SCD_ASSIGN_OR_RETURN(extractor.record_path_,
                       xml::XmlPath::Compile(record_path));
  for (const FieldSpec& field : fields) {
    SCD_ASSIGN_OR_RETURN(xml::XmlPath path, xml::XmlPath::Compile(field.path));
    extractor.field_paths_.push_back(std::move(path));
  }
  extractor.fields_ = std::move(fields);
  return extractor;
}

Result<std::vector<FeedRecord>> XmlExtractor::Extract(
    std::string_view document) const {
  // Field values found so far: the document-scope ones in slots [0, n), then
  // n slots per record. An element field's slot is taken at its element's
  // start tag, since the first match wins, and gets the element's trimmed
  // direct text at the end tag. Records are assembled once the whole
  // document has tokenized: a malformed document fails as ParseXml does,
  // and a document-scope field may follow the records.
  struct Slot {
    std::string value;
    bool found = false;
  };
  const size_t num_fields = fields_.size();
  const size_t record_depth = record_path_.depth();
  std::vector<Slot> slots(num_fields);
  size_t num_records = 0;
  size_t record_base = 0;
  bool in_record = false;
  // Element fields waiting for their end tag as (slot, depth), innermost
  // last, and the direct text collected so far at each depth (root at 0).
  std::vector<std::pair<size_t, size_t>> pending;
  std::vector<std::string> texts;
  auto capturing = [&pending](size_t depth) {
    return !pending.empty() && pending.back().second == depth;
  };

  xml::XmlTokenizer tokenizer(document);
  for (;;) {
    SCD_ASSIGN_OR_RETURN(xml::XmlTokenizer::Token token, tokenizer.Next());
    if (token == xml::XmlTokenizer::Token::kEndOfDocument) break;
    const std::vector<std::string_view>& open = tokenizer.open_elements();
    const size_t depth = open.size() - 1;
    switch (token) {
      case xml::XmlTokenizer::Token::kStartElement: {
        std::span<const std::string_view> below_root(open.data() + 1, depth);
        if (depth == record_depth) {
          in_record = record_path_.MatchesStack(below_root) &&
                      (record_path_.attribute().empty() ||
                       FindAttribute(tokenizer.attributes(),
                                     record_path_.attribute()) != nullptr);
          if (in_record) {
            record_base = slots.size();
            slots.resize(slots.size() + num_fields);
            ++num_records;
          }
        }
        for (size_t i = 0; i < num_fields; ++i) {
          const bool document_scope = fields_[i].scope == FieldScope::kDocument;
          if (!document_scope && !in_record) continue;
          const size_t context = document_scope ? 0 : record_depth;
          const xml::XmlPath& path = field_paths_[i];
          if (depth != context + path.depth() ||
              !path.MatchesStack(below_root.subspan(context))) {
            continue;
          }
          const size_t slot = document_scope ? i : record_base + i;
          if (slots[slot].found) continue;
          if (path.attribute().empty()) {
            if (texts.size() <= depth) texts.resize(depth + 1);
            if (!capturing(depth)) texts[depth].clear();
            slots[slot].found = true;
            pending.emplace_back(slot, depth);
          } else if (const std::string_view* value = FindAttribute(
                         tokenizer.attributes(), path.attribute())) {
            slots[slot].value.assign(*value);
            slots[slot].found = true;
          }
        }
        break;
      }
      case xml::XmlTokenizer::Token::kText:
        if (capturing(depth)) texts[depth].append(tokenizer.text());
        break;
      case xml::XmlTokenizer::Token::kEndElement:
        if (capturing(depth)) {
          std::string_view text = StrTrim(texts[depth]);
          do {
            slots[pending.back().first].value.assign(text);
            pending.pop_back();
          } while (capturing(depth));
        }
        if (depth == record_depth) in_record = false;
        break;
      case xml::XmlTokenizer::Token::kEndOfDocument:
        break;
    }
  }

  std::vector<FeedRecord> records;
  records.reserve(num_records);
  for (size_t r = 0; r < num_records; ++r) {
    Slot* record_slots = slots.data() + num_fields * (r + 1);
    FeedRecord record;
    for (size_t i = 0; i < num_fields; ++i) {
      const FieldSpec& field = fields_[i];
      if (field.scope == FieldScope::kDocument) {
        if (slots[i].found) {
          record.Set(field.name, slots[i].value);
          continue;
        }
      } else if (record_slots[i].found) {
        record.Set(field.name, std::move(record_slots[i].value));
        continue;
      }
      SCD_RETURN_IF_ERROR(HandleMissing(field, &record));
    }
    records.push_back(std::move(record));
  }
  return records;
}

Result<JsonExtractor> JsonExtractor::Create(std::string records_path,
                                            std::vector<FieldSpec> fields) {
  if (records_path.empty()) {
    return Status::InvalidArgument("records path must not be empty");
  }
  JsonExtractor extractor;
  extractor.records_path_ = std::move(records_path);
  extractor.fields_ = std::move(fields);
  return extractor;
}

Result<std::vector<FeedRecord>> JsonExtractor::Extract(
    std::string_view document) const {
  SCD_ASSIGN_OR_RETURN(json::JsonValue parsed, json::ParseJson(document));
  return ExtractFromValue(parsed);
}

Result<std::vector<FeedRecord>> JsonExtractor::ExtractFromValue(
    const json::JsonValue& document) const {
  SCD_ASSIGN_OR_RETURN(json::JsonValue array_value,
                       document.GetPath(records_path_));
  const json::JsonArray* array = array_value.AsArray();
  if (array == nullptr) {
    return Status::InvalidArgument("records path '" + records_path_ +
                                   "' does not address an array");
  }

  std::vector<std::string> document_values(fields_.size());
  std::vector<bool> document_found(fields_.size(), false);
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].scope != FieldScope::kDocument) continue;
    auto value = document.GetPath(fields_[i].path);
    if (value.ok()) {
      document_values[i] = value->ToFieldString();
      document_found[i] = true;
    }
  }

  std::vector<FeedRecord> records;
  records.reserve(array->size());
  for (const json::JsonValue& element : *array) {
    FeedRecord record;
    for (size_t i = 0; i < fields_.size(); ++i) {
      const FieldSpec& field = fields_[i];
      if (field.scope == FieldScope::kDocument) {
        if (document_found[i]) {
          record.Set(field.name, document_values[i]);
        } else {
          SCD_RETURN_IF_ERROR(HandleMissing(field, &record));
        }
        continue;
      }
      auto value = element.GetPath(field.path);
      if (value.ok()) {
        record.Set(field.name, value->ToFieldString());
      } else {
        SCD_RETURN_IF_ERROR(HandleMissing(field, &record));
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace scdwarf::etl
