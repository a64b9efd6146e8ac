#ifndef PXML_XML_XML_APPEND_H_
#define PXML_XML_XML_APPEND_H_

// Internal append-only building blocks shared by the PXML and IPXML
// writers. Not part of the public API (namespace xml_internal). Every
// function appends to `out` in place: no stream, no temporary string.

#include <string>
#include <string_view>

#include "core/weak_instance.h"
#include "graph/symbols.h"
#include "prob/value.h"
#include "util/id_set.h"

namespace pxml {
namespace xml_internal {

/// `text` with &, <, >, " escaped; text with nothing to escape is one
/// plain append.
void AppendEscaped(std::string& out, std::string_view text);

/// The shortest decimal form of `d` that reparses (strtod) to the same
/// bits, via std::to_chars.
void AppendDouble(std::string& out, double d);

/// ` name="d"` with `d` as in AppendDouble.
void AppendDoubleAttr(std::string& out, std::string_view name, double d);

/// Object names separated by single spaces.
void AppendNames(std::string& out, const Dictionary& dict, const IdSet& ids);

/// `<tag k="K"` for a typed value; the caller may add attributes before
/// AppendValueEnd closes the start tag.
void AppendValueStart(std::string& out, std::string_view tag, const Value& v);

/// `>payload</tag>`: doubles as in AppendDouble, strings escaped.
void AppendValueEnd(std::string& out, std::string_view tag, const Value& v);

/// `<element root="R">` and the <types> section holding every type some
/// object uses. Also reserves a first guess at the document's size.
void AppendDocumentStart(std::string& out, std::string_view element,
                         const WeakInstance& weak);

/// ` <object id=".." type="..">` and its <lch> lines.
void AppendObjectStart(std::string& out, const WeakInstance& weak,
                       ObjectId o);

}  // namespace xml_internal
}  // namespace pxml

#endif  // PXML_XML_XML_APPEND_H_
