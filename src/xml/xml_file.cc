#include "xml/xml_file.h"

#include <fstream>
#include <istream>

#include "util/strings.h"

namespace pxml {
namespace xml_internal {

namespace {

// Appends everything left in `in` to `text`.
void ReadRest(std::istream& in, std::string& text) {
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
}

}  // namespace

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(StrCat("cannot open '", path, "'"));
  }
  // A first read fails on what opens but cannot be read (a directory)
  // before anything is sized or allocated.
  std::string text;
  if (in.peek() != std::ifstream::traits_type::eof()) {
    // Size the open stream, not whatever `path` names by now; a stream
    // that cannot seek (a pipe) has no size and is read to its end.
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size > 0 && in.seekg(0, std::ios::beg)) {
      text.resize(static_cast<std::size_t>(size));
      in.read(text.data(), size);
      text.resize(static_cast<std::size_t>(in.gcount()));
    }
    if (!in.bad()) {
      in.clear();
      ReadRest(in, text);
    }
  }
  if (in.bad()) {
    return Status::IoError(StrCat("read of '", path, "' failed"));
  }
  return text;
}

Status WriteWholeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(StrCat("cannot open '", path, "' for writing"));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    return Status::IoError(StrCat("write to '", path, "' failed"));
  }
  return Status::Ok();
}

}  // namespace xml_internal
}  // namespace pxml
