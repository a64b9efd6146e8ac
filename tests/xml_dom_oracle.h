#ifndef PXML_TESTS_XML_DOM_ORACLE_H_
#define PXML_TESTS_XML_DOM_ORACLE_H_

// The recursive std::string DOM reader that src/xml/ used before the
// zero-copy reader (xml_reader.h), kept verbatim as a test-only oracle for
// tests/xml_mutation_test.cc. Only the namespaces differ: everything lives
// in pxml::xml_oracle, so it links beside the library's own reader.
//
// It recurses once per element and so overflows the stack on deep
// nesting (100,000 levels crash it); callers keep their nesting to a few
// hundred levels.

#include <string>
#include <string_view>
#include <vector>

#include "core/probabilistic_instance.h"
#include "graph/symbols.h"
#include "interval/interval_model.h"
#include "prob/value.h"
#include "util/id_set.h"
#include "util/status.h"

namespace pxml {
namespace xml_oracle {

/// The old ParsePxml.
Result<ProbabilisticInstance> ParsePxml(std::string_view text);

/// The old ParseIntervalPxml.
Result<IntervalInstance> ParseIntervalPxml(std::string_view text);

namespace xml_internal {

/// One parsed element: name, attributes, children, concatenated text.
struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<XmlNode> children;
  std::string text;

  const std::string* Attr(std::string_view key) const;
};

/// Parses a whole document (one root element, no prolog/comments).
Result<XmlNode> ParseXmlDocument(std::string_view text);

/// Reverses XmlEscape.
std::string XmlUnescape(std::string_view text);

/// Reads a typed value from an element with a one-letter `k` attribute
/// (s/i/d/b) and the value in the text content.
Result<Value> ParseTypedValue(const XmlNode& node);

/// Parses a double attribute; fails if absent or malformed.
Result<double> ParseDoubleAttr(const XmlNode& node, std::string_view key);

/// Whitespace-separated object names in an element's text, resolved
/// against the dictionary.
Result<IdSet> ParseChildSet(const Dictionary& dict, const XmlNode& node);

}  // namespace xml_internal
}  // namespace xml_oracle
}  // namespace pxml

#endif  // PXML_TESTS_XML_DOM_ORACLE_H_
