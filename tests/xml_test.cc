#include <gtest/gtest.h>

#include "xml/xml_node.h"
#include "xml/xml_parser.h"
#include "xml/xml_path.h"

namespace scdwarf::xml {
namespace {

// ---------------------------------------------------------------- parser

TEST(XmlParserTest, MinimalDocument) {
  auto doc = ParseXml("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->name(), "root");
  EXPECT_TRUE(doc->root()->children().empty());
}

TEST(XmlParserTest, TextContent) {
  auto doc = ParseXml("<station><name>Fenian St</name></station>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const XmlElement* name = doc->root()->FindChild("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->text(), "Fenian St");
}

TEST(XmlParserTest, Attributes) {
  auto doc = ParseXml(R"(<station id="42" open='true'/>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_NE(doc->root()->FindAttribute("id"), nullptr);
  EXPECT_EQ(*doc->root()->FindAttribute("id"), "42");
  EXPECT_EQ(*doc->root()->FindAttribute("open"), "true");
  EXPECT_EQ(doc->root()->FindAttribute("missing"), nullptr);
}

TEST(XmlParserTest, NestedElements) {
  auto doc = ParseXml(
      "<stations><station><id>1</id></station>"
      "<station><id>2</id></station></stations>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto stations = doc->root()->FindChildren("station");
  ASSERT_EQ(stations.size(), 2u);
  EXPECT_EQ(stations[0]->FindChild("id")->text(), "1");
  EXPECT_EQ(stations[1]->FindChild("id")->text(), "2");
}

TEST(XmlParserTest, EntityDecoding) {
  auto doc = ParseXml("<t>a &lt;b&gt; &amp; &quot;c&quot; &apos;d&apos;</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->text(), "a <b> & \"c\" 'd'");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  auto doc = ParseXml("<t>&#65;&#x42;&#233;</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->text(), "AB\xC3\xA9");  // A, B, é (UTF-8)
}

TEST(XmlParserTest, EntitiesInAttributes) {
  auto doc = ParseXml(R"(<t name="O&apos;Connell &amp; Co"/>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(*doc->root()->FindAttribute("name"), "O'Connell & Co");
}

TEST(XmlParserTest, CdataSection) {
  auto doc = ParseXml("<t><![CDATA[raw <unescaped> & data]]></t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->text(), "raw <unescaped> & data");
}

TEST(XmlParserTest, CommentsAndProcessingInstructionsSkipped) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?><!-- header -->"
      "<t><!-- inner --><a>1</a><?pi data?></t><!-- trailer -->");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->children().size(), 1u);
}

TEST(XmlParserTest, DoctypeSkipped) {
  auto doc = ParseXml("<!DOCTYPE stations SYSTEM \"x.dtd\"><stations/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->name(), "stations");
}

TEST(XmlParserTest, DoctypeInternalSubsetRejected) {
  auto doc = ParseXml("<!DOCTYPE t [<!ENTITY e \"x\">]><t/>");
  EXPECT_TRUE(doc.status().IsParseError());
}

TEST(XmlParserTest, MismatchedTagsRejected) {
  auto doc = ParseXml("<a><b></a></b>");
  ASSERT_TRUE(doc.status().IsParseError());
  EXPECT_NE(doc.status().message().find("mismatched"), std::string::npos);
}

TEST(XmlParserTest, UnterminatedElementRejected) {
  EXPECT_TRUE(ParseXml("<a><b>").status().IsParseError());
}

TEST(XmlParserTest, DuplicateAttributeRejected) {
  EXPECT_TRUE(ParseXml(R"(<a x="1" x="2"/>)").status().IsParseError());
}

TEST(XmlParserTest, UnknownEntityRejected) {
  EXPECT_TRUE(ParseXml("<a>&nbsp;</a>").status().IsParseError());
}

TEST(XmlParserTest, TrailingGarbageRejected) {
  EXPECT_TRUE(ParseXml("<a/>junk").status().IsParseError());
}

TEST(XmlParserTest, ErrorsReportLocation) {
  auto doc = ParseXml("<a>\n\n  <b x=></b></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status();
  EXPECT_NE(doc.status().message().find("line 3, column 8"), std::string::npos)
      << doc.status();
}

TEST(XmlParserTest, WhitespaceOnlyTextIsTrimmedAway) {
  auto doc = ParseXml("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->text(), "");
}

TEST(XmlParserTest, SubtreeSize) {
  auto doc = ParseXml("<a><b><c/></b><d/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->SubtreeSize(), 4u);
}

// ---------------------------------------------------------------- serializer

TEST(XmlSerializerTest, RoundTrip) {
  const char* input =
      "<stations updated=\"2016-01-05\">"
      "<station id=\"1\"><name>Fenian St &amp; Co</name><bikes>3</bikes>"
      "</station></stations>";
  auto doc = ParseXml(input);
  ASSERT_TRUE(doc.ok()) << doc.status();
  std::string serialized = SerializeXml(*doc);
  auto reparsed = ParseXml(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->root()->FindChildren("station").size(), 1u);
  EXPECT_EQ(
      reparsed->root()->FindChild("station")->FindChild("name")->text(),
      "Fenian St & Co");
}

TEST(XmlSerializerTest, EscapesSpecialCharacters) {
  EXPECT_EQ(EscapeXmlText("<a & 'b' \"c\">"),
            "&lt;a &amp; &apos;b&apos; &quot;c&quot;&gt;");
}

// ---------------------------------------------------------------- path

class XmlPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseXml(
        "<city><carparks><carpark id=\"cp1\"><name>North</name>"
        "<spaces>120</spaces></carpark>"
        "<carpark id=\"cp2\"><name>South</name><spaces>80</spaces></carpark>"
        "</carparks><updated>noon</updated></city>");
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::move(doc).ValueOrDie();
  }
  XmlDocument doc_;
};

TEST_F(XmlPathTest, SelectsNestedElements) {
  auto path = XmlPath::Compile("carparks/carpark/name");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->SelectValues(*doc_.root()),
            (std::vector<std::string>{"North", "South"}));
}

TEST_F(XmlPathTest, SelectsAttributes) {
  auto path = XmlPath::Compile("carparks/carpark/@id");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->SelectValues(*doc_.root()),
            (std::vector<std::string>{"cp1", "cp2"}));
}

TEST_F(XmlPathTest, WildcardStep) {
  auto path = XmlPath::Compile("carparks/*/spaces");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->SelectValues(*doc_.root()),
            (std::vector<std::string>{"120", "80"}));
}

TEST_F(XmlPathTest, FirstValue) {
  auto path = XmlPath::Compile("updated");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path->SelectFirstValue(*doc_.root()), "noon");
}

TEST_F(XmlPathTest, MissingPathIsNotFound) {
  auto path = XmlPath::Compile("nope/never");
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->SelectFirstValue(*doc_.root()).status().IsNotFound());
}

TEST(XmlPathCompileTest, RejectsBadSyntax) {
  EXPECT_TRUE(XmlPath::Compile("").status().IsParseError());
  EXPECT_TRUE(XmlPath::Compile("a//b").status().IsParseError());
  EXPECT_TRUE(XmlPath::Compile("@id/b").status().IsParseError());
  EXPECT_TRUE(XmlPath::Compile("a/@").status().IsParseError());
}

}  // namespace
}  // namespace scdwarf::xml
