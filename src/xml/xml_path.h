/// \file xml_path.h
/// \brief A tiny XPath-like selector used by the ETL extractors to address
/// feed fields, e.g. "stations/station/name" or "station/@id".
///
/// Grammar:  path     := step ('/' step)*
///           step     := NAME | '@' NAME | '*'
/// A path is evaluated relative to a context element. The final step may be
/// an attribute reference; intermediate steps must be element names or '*'
/// (any element).
///
/// MatchesStack() is the one rule for which element a path selects: the DOM
/// selectors below and the streaming extractor (etl/extractor.h), which
/// matches on tokenizer events, both apply it.

#ifndef SCDWARF_XML_XML_PATH_H_
#define SCDWARF_XML_XML_PATH_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/xml_node.h"

namespace scdwarf::xml {

/// \brief A compiled path expression.
class XmlPath {
 public:
  /// Compiles \p expression; returns ParseError on invalid syntax (empty
  /// steps, '@' on a non-final step, empty expression).
  static Result<XmlPath> Compile(std::string_view expression);

  /// True when every name in \p names, the element names on the way down
  /// from the context (its child first), matches the step at its depth. A
  /// stack depth() names deep then reaches an element the element steps
  /// select; a shallower one can still lead to one.
  bool MatchesStack(std::span<const std::string_view> names) const;

  /// Number of element steps: selected elements sit this deep below the
  /// context.
  size_t depth() const { return steps_.size(); }

  /// Attribute name of an attribute path, empty otherwise.
  const std::string& attribute() const { return attribute_; }

  /// Returns every element matched by this path under \p context, in
  /// document order.
  /// For attribute paths this returns the elements owning the attribute.
  std::vector<const XmlElement*> SelectElements(const XmlElement& context) const;

  /// Returns the string values matched by this path: attribute values for
  /// attribute paths, element text otherwise.
  std::vector<std::string> SelectValues(const XmlElement& context) const;

  /// Returns the first matched value, or NotFound.
  Result<std::string> SelectFirstValue(const XmlElement& context) const;

  const std::string& expression() const { return expression_; }

 private:
  XmlPath() = default;

  std::string expression_;
  std::vector<std::string> steps_;  // element name steps, "*" for wildcard
  std::string attribute_;           // non-empty for attribute paths
};

}  // namespace scdwarf::xml

#endif  // SCDWARF_XML_XML_PATH_H_
