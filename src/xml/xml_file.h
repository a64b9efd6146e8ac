#ifndef PXML_XML_XML_FILE_H_
#define PXML_XML_XML_FILE_H_

// Internal whole-file I/O shared by the PXML and IPXML readers and
// writers. Not part of the public API (namespace xml_internal).

#include <string>
#include <string_view>

#include "util/status.h"

namespace pxml {
namespace xml_internal {

/// The whole contents of the file at `path`. A seekable file is read with
/// one sized read; anything else (a pipe) is read until end of file.
/// IoError if it cannot be opened or the read fails.
Result<std::string> ReadWholeFile(const std::string& path);

/// Truncates (or creates) the file at `path` and writes `bytes` with one
/// call; IoError if the open, the write or the close fails.
Status WriteWholeFile(const std::string& path, std::string_view bytes);

}  // namespace xml_internal
}  // namespace pxml

#endif  // PXML_XML_XML_FILE_H_
