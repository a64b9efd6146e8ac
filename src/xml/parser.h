#ifndef PXML_XML_PARSER_H_
#define PXML_XML_PARSER_H_

#include <string>
#include <string_view>

#include "core/probabilistic_instance.h"
#include "util/status.h"

namespace pxml {

/// Parses the textual PXML format produced by SerializePxml back into a
/// probabilistic instance. Serialize/Parse round-trips exactly (same
/// structure, same OPF representations, probabilities in shortest
/// round-trip form (`std::to_chars`) that reparse to the same double
/// bits).
Result<ProbabilisticInstance> ParsePxml(std::string_view text);

/// ParsePxml on a file's contents (one sized read, or a read to the end
/// for a stream that cannot be sized, such as a pipe; IoError if the file
/// cannot be opened or read).
Result<ProbabilisticInstance> ReadPxmlFile(const std::string& path);

}  // namespace pxml

#endif  // PXML_XML_PARSER_H_
