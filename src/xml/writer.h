#ifndef PXML_XML_WRITER_H_
#define PXML_XML_WRITER_H_

#include <string>

#include "core/probabilistic_instance.h"
#include "util/status.h"

namespace pxml {

/// Serializes a probabilistic instance to the textual PXML format:
///
///   <pxml root="R">
///    <types>
///     <type name="title-type"><val k="s">VQDB</val>...</type>
///    </types>
///    <object id="R">
///     <lch label="book" min="2" max="3">B1 B2 B3</lch>
///     <opf rep="explicit"><row p="0.2">B1 B2</row>...</opf>
///    </object>
///    <object id="T1" type="title-type">
///     <witness k="s">VQDB</witness>
///     <vpf><val k="s" p="0.6">VQDB</val>...</vpf>
///    </object>
///   </pxml>
///
/// Values carry a kind attribute (s/i/d/b); object names must not contain
/// whitespace (they separate child lists). Probabilities and double
/// values are written in shortest round-trip form (`std::to_chars`);
/// they reparse to the same double bits. Compact OPFs serialize in their
/// native representation (rep="independent" with <child p="...">,
/// rep="per-label" with nested <factor label="...">); any other OPF as
/// its equivalent rep="explicit" table. The document is built in one
/// append-only pass into a single string.
std::string SerializePxml(const ProbabilisticInstance& instance);

/// SerializePxml to a file: an existing file is truncated and rewritten
/// in place with one write call. IoError if the open, the write or the
/// close fails.
Status WritePxmlFile(const ProbabilisticInstance& instance,
                     const std::string& path);

/// Escapes &, <, >, " for embedding in text or attributes.
std::string XmlEscape(std::string_view text);

}  // namespace pxml

#endif  // PXML_XML_WRITER_H_
