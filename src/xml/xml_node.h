/// \file xml_node.h
/// \brief DOM node model produced by the XML parser. Smart-city feeds are
/// small documents arriving at high rate, so the model favors construction
/// speed and cheap traversal over mutation ergonomics.

#ifndef SCDWARF_XML_XML_NODE_H_
#define SCDWARF_XML_XML_NODE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace scdwarf::xml {

class XmlElement;

/// \brief An XML element: tag name, attributes, child elements and text.
///
/// Mixed content is simplified: all text children are concatenated into
/// text() in document order. This matches how the feed extractors consume
/// documents (leaf values only) and is the behaviour the pipeline in the
/// paper's prior work [Gui & Roantree 2013] relies on.
class XmlElement {
 public:
  explicit XmlElement(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Concatenated character data directly inside this element (trimmed).
  const std::string& text() const { return text_; }
  void AppendText(std::string_view text) { text_.append(text); }
  void SetText(std::string text) { text_ = std::move(text); }

  /// Attributes in document order.
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }
  void AddAttribute(std::string name, std::string value) {
    attributes_.emplace_back(std::move(name), std::move(value));
  }
  /// Returns the attribute value or nullptr when absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// Child elements in document order.
  const std::vector<std::unique_ptr<XmlElement>>& children() const {
    return children_;
  }
  XmlElement* AddChild(std::string name);

  /// First child element with the given tag name, or nullptr.
  const XmlElement* FindChild(std::string_view name) const;

  /// All child elements with the given tag name.
  std::vector<const XmlElement*> FindChildren(std::string_view name) const;

  /// Total number of elements in this subtree including this element.
  size_t SubtreeSize() const;

 private:
  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<XmlElement>> children_;
};

/// \brief A parsed XML document owning its root element.
class XmlDocument {
 public:
  XmlDocument() = default;
  explicit XmlDocument(std::unique_ptr<XmlElement> root)
      : root_(std::move(root)) {}

  const XmlElement* root() const { return root_.get(); }
  XmlElement* mutable_root() { return root_.get(); }
  void set_root(std::unique_ptr<XmlElement> root) { root_ = std::move(root); }

 private:
  std::unique_ptr<XmlElement> root_;
};

}  // namespace scdwarf::xml

#endif  // SCDWARF_XML_XML_NODE_H_
