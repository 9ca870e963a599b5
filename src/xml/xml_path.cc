#include "xml/xml_path.h"

#include "common/strings.h"

namespace scdwarf::xml {

namespace {

/// Appends what \p path selects at or below \p element, which the context
/// reaches through the child names \p names.
void CollectElements(const XmlPath& path, const XmlElement& element,
                     std::vector<std::string_view>* names,
                     std::vector<const XmlElement*>* out) {
  if (names->size() == path.depth()) {
    if (path.attribute().empty() ||
        element.FindAttribute(path.attribute()) != nullptr) {
      out->push_back(&element);
    }
    return;
  }
  for (const auto& child : element.children()) {
    names->push_back(child->name());
    if (path.MatchesStack(*names)) CollectElements(path, *child, names, out);
    names->pop_back();
  }
}

}  // namespace

Result<XmlPath> XmlPath::Compile(std::string_view expression) {
  if (StrTrim(expression).empty()) {
    return Status::ParseError("empty path expression");
  }
  XmlPath path;
  path.expression_ = std::string(expression);
  std::vector<std::string> parts = StrSplit(expression, '/');
  for (size_t i = 0; i < parts.size(); ++i) {
    std::string step(StrTrim(parts[i]));
    if (step.empty()) {
      return Status::ParseError("empty step in path '" + path.expression_ + "'");
    }
    if (step[0] == '@') {
      if (i + 1 != parts.size()) {
        return Status::ParseError("attribute step must be last in path '" +
                                  path.expression_ + "'");
      }
      path.attribute_ = step.substr(1);
      if (path.attribute_.empty()) {
        return Status::ParseError("empty attribute name in path '" +
                                  path.expression_ + "'");
      }
    } else {
      path.steps_.push_back(std::move(step));
    }
  }
  return path;
}

bool XmlPath::MatchesStack(std::span<const std::string_view> names) const {
  if (names.size() > steps_.size()) return false;
  for (size_t i = 0; i < names.size(); ++i) {
    if (steps_[i] != "*" && steps_[i] != names[i]) return false;
  }
  return true;
}

std::vector<const XmlElement*> XmlPath::SelectElements(
    const XmlElement& context) const {
  std::vector<const XmlElement*> selected;
  std::vector<std::string_view> names;
  CollectElements(*this, context, &names, &selected);
  return selected;
}

std::vector<std::string> XmlPath::SelectValues(const XmlElement& context) const {
  std::vector<std::string> values;
  for (const XmlElement* element : SelectElements(context)) {
    if (!attribute_.empty()) {
      const std::string* attr = element->FindAttribute(attribute_);
      if (attr != nullptr) values.push_back(*attr);
    } else {
      values.push_back(element->text());
    }
  }
  return values;
}

Result<std::string> XmlPath::SelectFirstValue(const XmlElement& context) const {
  std::vector<std::string> values = SelectValues(context);
  if (values.empty()) {
    return Status::NotFound("path '" + expression_ + "' matched nothing under <" +
                            context.name() + ">");
  }
  return values.front();
}

}  // namespace scdwarf::xml
