#include "xml/xml_parser.h"

#include "common/strings.h"
#include "xml/xml_tokenizer.h"

namespace scdwarf::xml {

Result<XmlDocument> ParseXml(std::string_view input) {
  XmlTokenizer tokenizer(input);
  std::unique_ptr<XmlElement> root;
  std::vector<XmlElement*> open;
  for (;;) {
    SCD_ASSIGN_OR_RETURN(XmlTokenizer::Token token, tokenizer.Next());
    switch (token) {
      case XmlTokenizer::Token::kStartElement: {
        std::string name(tokenizer.name());
        XmlElement* element;
        if (open.empty()) {
          root = std::make_unique<XmlElement>(std::move(name));
          element = root.get();
        } else {
          element = open.back()->AddChild(std::move(name));
        }
        for (const XmlAttribute& attribute : tokenizer.attributes()) {
          element->AddAttribute(std::string(attribute.name),
                                std::string(attribute.value));
        }
        open.push_back(element);
        break;
      }
      case XmlTokenizer::Token::kText:
        open.back()->AppendText(tokenizer.text());
        break;
      case XmlTokenizer::Token::kEndElement: {
        XmlElement* element = open.back();
        std::string_view trimmed = StrTrim(element->text());
        if (trimmed.size() != element->text().size()) {
          element->SetText(std::string(trimmed));
        }
        open.pop_back();
        break;
      }
      case XmlTokenizer::Token::kEndOfDocument:
        return XmlDocument(std::move(root));
    }
  }
}

std::string EscapeXmlText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '\'':
        out += "&apos;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {
void SerializeInto(const XmlElement& element, int indent, std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  out->append(pad);
  out->push_back('<');
  out->append(element.name());
  for (const auto& [name, value] : element.attributes()) {
    out->push_back(' ');
    out->append(name);
    out->append("=\"");
    out->append(EscapeXmlText(value));
    out->push_back('"');
  }
  if (element.children().empty() && element.text().empty()) {
    out->append("/>\n");
    return;
  }
  out->push_back('>');
  if (element.children().empty()) {
    out->append(EscapeXmlText(element.text()));
    out->append("</");
    out->append(element.name());
    out->append(">\n");
    return;
  }
  out->push_back('\n');
  if (!element.text().empty()) {
    out->append(pad);
    out->append("  ");
    out->append(EscapeXmlText(element.text()));
    out->push_back('\n');
  }
  for (const auto& child : element.children()) {
    SerializeInto(*child, indent + 1, out);
  }
  out->append(pad);
  out->append("</");
  out->append(element.name());
  out->append(">\n");
}
}  // namespace

std::string SerializeXml(const XmlElement& element, int indent) {
  std::string out;
  SerializeInto(element, indent, &out);
  return out;
}

std::string SerializeXml(const XmlDocument& document) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  if (document.root() != nullptr) {
    SerializeInto(*document.root(), 0, &out);
  }
  return out;
}

}  // namespace scdwarf::xml
