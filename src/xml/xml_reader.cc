#include "xml/xml_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>
#include <type_traits>

#include "util/strings.h"

namespace pxml {
namespace xml_internal {

namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// Offset of the first `c` in `text` at or after `from`; text.size() when
// there is none.
std::size_t FindByte(std::string_view text, std::size_t from, char c) {
  if (from >= text.size()) return text.size();
  const void* hit =
      std::memchr(text.data() + from, c, text.size() - from);
  return hit == nullptr
             ? text.size()
             : static_cast<std::size_t>(static_cast<const char*>(hit) -
                                        text.data());
}

// Appends `raw` with &amp; &lt; &gt; &quot; replaced; any other '&' is
// kept as it is.
void AppendUnescaped(std::string& out, std::string_view raw) {
  std::size_t done = 0;
  for (std::size_t amp = FindByte(raw, 0, '&'); amp < raw.size();
       amp = FindByte(raw, amp + 1, '&')) {
    out.append(raw, done, amp - done);
    const std::string_view rest = raw.substr(amp);
    char c = '&';
    std::size_t len = 1;
    if (rest.substr(0, 5) == "&amp;") {
      len = 5;
    } else if (rest.substr(0, 4) == "&lt;") {
      c = '<';
      len = 4;
    } else if (rest.substr(0, 4) == "&gt;") {
      c = '>';
      len = 4;
    } else if (rest.substr(0, 6) == "&quot;") {
      c = '"';
      len = 6;
    }
    out += c;
    done = amp + len;
    amp += len - 1;
  }
  out.append(raw, done);
}

// The value `parse` (strtod, strtoll or strtoul: the longest prefix it
// accepts after leading whitespace) reads from `text`; nullopt when it
// reads nothing. std::from_chars handles the common case of a plain
// number filling the whole view; anything else (a leading '+' or space,
// hex, trailing bytes, out of range, inf/nan) goes to the C call on a
// NUL-terminated copy, so every input reads as it always did.
template <typename Number, typename CParse>
std::optional<Number> ParseNumber(std::string_view text, CParse parse) {
  Number v{};
  const char* last = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), last, v);
  if (r.ec == std::errc() && r.ptr == last) {
    if constexpr (std::is_floating_point_v<Number>) {
      if (std::isfinite(v)) return v;
    } else {
      return v;
    }
  }
  const std::string copy(text);
  char* end = nullptr;
  v = static_cast<Number>(parse(copy.c_str(), &end));
  if (end == copy.c_str()) return std::nullopt;
  return v;
}

std::optional<double> ParseDouble(std::string_view text) {
  return ParseNumber<double>(
      text, [](const char* s, char** end) { return std::strtod(s, end); });
}

std::optional<long long> ParseLongLong(std::string_view text) {
  return ParseNumber<long long>(text, [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  });
}

// `strtoul(text, nullptr, 10)`: 0 when nothing parses.
unsigned long ParseUnsigned(std::string_view text) {
  return ParseNumber<unsigned long>(text, [](const char* s, char** end) {
           return std::strtoul(s, end, 10);
         })
      .value_or(0);
}

}  // namespace

// ------------------------------------------------------------ tokenizer

// One forward pass over the buffer. Open elements live on an explicit
// stack (bounded by kMaxElementDepth), so nesting costs no native stack.
class XmlTokenizer {
 public:
  XmlTokenizer(std::string_view text, XmlDocument* doc)
      : text_(text), doc_(doc) {}

  Status Run() {
    SkipWhitespace();
    if (!Eat('<')) return Fail("expected '<'");
    PXML_RETURN_IF_ERROR(StartElement());
    while (!open_.empty()) {
      // Content of the innermost open element: text runs (read later, by
      // offset) and child elements, until its end tag.
      pos_ = FindByte(text_, pos_, '<');
      if (pos_ == text_.size()) return Fail("unterminated element");
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        XmlDocument::Node& node = doc_->nodes_[open_.back()];
        node.content_end = pos_;
        pos_ += 2;
        const std::string_view closing = ParseName();
        if (closing != node.name) {
          return Fail(StrCat("mismatched closing tag '", closing, "' for '",
                             node.name, "'"));
        }
        if (!Eat('>')) return Fail("expected '>'");
        node.close_end = pos_;
        node.end = static_cast<std::uint32_t>(doc_->nodes_.size());
        open_.pop_back();
      } else {
        ++pos_;  // '<'
        PXML_RETURN_IF_ERROR(StartElement());
      }
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after the document element");
    }
    return Status::Ok();
  }

 private:
  Status Fail(std::string_view message) const {
    // Report a line number for easier debugging of hand-written files.
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return Status::ParseError(StrCat("line ", line, ": ", message));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string_view ParseName() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  // The rest of a start tag, after its '<': name, attributes, then '>'
  // (the element is left open) or "/>" (it closes at once).
  Status StartElement() {
    if (open_.size() == kMaxElementDepth) {
      return Fail(StrCat("elements nested deeper than ", kMaxElementDepth,
                         " levels"));
    }
    if (doc_->nodes_.size() == kMaxCount) return Fail("too many elements");
    const auto index = static_cast<std::uint32_t>(doc_->nodes_.size());
    XmlDocument::Node& node = doc_->nodes_.emplace_back();
    node.name = ParseName();
    if (node.name.empty()) return Fail("expected element name");
    node.attr_begin = static_cast<std::uint32_t>(doc_->attrs_.size());
    for (;;) {
      SkipWhitespace();
      if (Eat('/')) {
        if (!Eat('>')) return Fail("expected '>' after '/'");
        node.attr_end = static_cast<std::uint32_t>(doc_->attrs_.size());
        node.content_begin = node.content_end = node.close_end = pos_;
        node.end = index + 1;
        return Status::Ok();
      }
      if (Eat('>')) break;
      if (doc_->attrs_.size() == kMaxCount) {
        return Fail("too many attributes");
      }
      const std::string_view key = ParseName();
      if (key.empty()) return Fail("expected attribute name");
      if (!Eat('=') || !Eat('"')) {
        return Fail(StrCat("expected =\"...\" after attribute '", key, "'"));
      }
      const std::size_t quote = FindByte(text_, pos_, '"');
      if (quote == text_.size()) return Fail("unterminated attribute value");
      doc_->attrs_.push_back({key, text_.substr(pos_, quote - pos_)});
      pos_ = quote + 1;
    }
    node.attr_end = static_cast<std::uint32_t>(doc_->attrs_.size());
    node.content_begin = pos_;
    open_.push_back(index);
    return Status::Ok();
  }

  // Elements and attributes are indexed by std::uint32_t; only a
  // document of more than 16 GiB could hold this many.
  static constexpr std::size_t kMaxCount =
      std::numeric_limits<std::uint32_t>::max();

  std::string_view text_;
  XmlDocument* doc_;
  std::size_t pos_ = 0;
  std::vector<std::uint32_t> open_;
};

Result<XmlDocument> XmlDocument::Parse(std::string_view text) {
  XmlDocument doc;
  doc.text_ = text;
  XmlTokenizer tokenizer(text, &doc);
  PXML_RETURN_IF_ERROR(tokenizer.Run());
  return doc;
}

std::string_view XmlDocument::Unescaped(std::string_view raw) const {
  if (raw.find('&') == std::string_view::npos) return raw;
  std::string out;
  out.reserve(raw.size());
  AppendUnescaped(out, raw);
  return copies_.emplace_back(std::move(out));
}

// -------------------------------------------------------------- handles

std::string_view XmlElement::name() const {
  return doc_->nodes_[index_].name;
}

std::optional<std::string_view> XmlElement::Attr(std::string_view key) const {
  const XmlDocument::Node& node = doc_->nodes_[index_];
  for (std::uint32_t a = node.attr_begin; a < node.attr_end; ++a) {
    const XmlDocument::Attribute& attr = doc_->attrs_[a];
    if (attr.name == key) return doc_->Unescaped(attr.value);
  }
  return std::nullopt;
}

std::string_view XmlElement::text() const {
  const std::string_view buffer = doc_->text_;
  const std::vector<XmlDocument::Node>& nodes = doc_->nodes_;
  const XmlDocument::Node& node = nodes[index_];
  if (node.end == index_ + 1) {
    return doc_->Unescaped(buffer.substr(
        node.content_begin, node.content_end - node.content_begin));
  }
  // The runs are the content minus each child's markup. A single
  // non-empty run stays a view; several are joined, unescaped run by run
  // so that an entity split by a child stays literal.
  std::string_view single;
  std::string joined;
  bool several = false;
  const auto add_run = [&](std::size_t begin, std::size_t end) {
    if (end <= begin) return;
    const std::string_view run = buffer.substr(begin, end - begin);
    if (!several && single.empty()) {
      single = run;
      return;
    }
    if (!several) {
      AppendUnescaped(joined, single);
      several = true;
    }
    AppendUnescaped(joined, run);
  };
  std::size_t run_begin = node.content_begin;
  for (std::uint32_t c = index_ + 1; c < node.end; c = nodes[c].end) {
    // The child's markup starts at the '<' just before its name.
    add_run(run_begin,
            static_cast<std::size_t>(nodes[c].name.data() - buffer.data()) -
                1);
    run_begin = nodes[c].close_end;
  }
  add_run(run_begin, node.content_end);
  if (!several) return doc_->Unescaped(single);
  return doc_->copies_.emplace_back(std::move(joined));
}

XmlElement::Children XmlElement::children() const {
  return {ChildIterator(doc_, index_ + 1),
          ChildIterator(doc_, doc_->nodes_[index_].end)};
}

std::size_t XmlElement::num_children() const {
  std::size_t n = 0;
  for (XmlElement child : children()) {
    (void)child;
    ++n;
  }
  return n;
}

XmlElement::ChildIterator& XmlElement::ChildIterator::operator++() {
  index_ = doc_->nodes_[index_].end;
  return *this;
}

// --------------------------------------------------- PXML interpretation

Result<Value> ParseTypedValue(XmlElement element) {
  const std::optional<std::string_view> kind = element.Attr("k");
  if (!kind.has_value() || kind->size() != 1) {
    return Status::ParseError(
        StrCat("<", element.name(), "> needs a one-letter 'k' attribute"));
  }
  const std::string_view text = element.text();
  switch ((*kind)[0]) {
    case 's':
      return Value(std::string(text));
    case 'i': {
      const std::optional<long long> v = ParseLongLong(text);
      if (!v.has_value()) {
        return Status::ParseError(StrCat("bad integer '", text, "'"));
      }
      return Value(static_cast<std::int64_t>(*v));
    }
    case 'd': {
      const std::optional<double> v = ParseDouble(text);
      if (!v.has_value()) {
        return Status::ParseError(StrCat("bad double '", text, "'"));
      }
      return Value(*v);
    }
    case 'b':
      return Value(text == "true");
    default:
      return Status::ParseError(StrCat("unknown value kind '", *kind, "'"));
  }
}

Result<double> ParseDoubleAttr(XmlElement element,
                               std::string_view key) {
  const std::optional<std::string_view> p = element.Attr(key);
  if (!p.has_value()) {
    return Status::ParseError(
        StrCat("<", element.name(), "> needs a '", key, "' attribute"));
  }
  const std::optional<double> v = ParseDouble(*p);
  if (!v.has_value()) {
    return Status::ParseError(StrCat("bad number '", *p, "'"));
  }
  return *v;
}

Result<IdSet> ParseChildSet(const Dictionary& dict,
                            XmlElement element) {
  const std::string_view text = element.text();
  std::vector<std::uint32_t> ids;
  // The writer separates names with single spaces, so this sizes the
  // vector once for its documents (and an empty set allocates nothing).
  if (!text.empty()) {
    ids.reserve(1 + static_cast<std::size_t>(
                        std::count(text.begin(), text.end(), ' ')));
  }
  std::size_t i = 0;
  for (;;) {
    while (i < text.size() && IsSpace(text[i])) ++i;
    if (i == text.size()) break;
    const std::size_t start = i;
    while (i < text.size() && !IsSpace(text[i])) ++i;
    const std::string_view name = text.substr(start, i - start);
    const std::optional<ObjectId> id = dict.FindObject(name);
    if (!id.has_value()) {
      return Status::ParseError(StrCat("unknown object '", name, "'"));
    }
    ids.push_back(*id);
  }
  return IdSet(std::move(ids));
}

Result<std::vector<ObjectId>> ReadTypesAndObjects(XmlElement doc,
                                                  WeakInstance& weak) {
  Dictionary& dict = weak.dict();
  for (XmlElement section : doc.children()) {
    if (section.name() != "types") continue;
    for (XmlElement type : section.children()) {
      const std::optional<std::string_view> name = type.Attr("name");
      if (!name.has_value()) {
        return Status::ParseError("<type> needs a 'name' attribute");
      }
      std::vector<Value> domain;
      for (XmlElement val : type.children()) {
        PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(val));
        domain.push_back(std::move(v));
      }
      PXML_RETURN_IF_ERROR(
          dict.DefineType(*name, std::move(domain)).status());
    }
  }
  std::vector<ObjectId> objects;
  for (XmlElement section : doc.children()) {
    if (section.name() != "object") continue;
    const std::optional<std::string_view> id = section.Attr("id");
    if (!id.has_value()) {
      return Status::ParseError("<object> needs an 'id' attribute");
    }
    objects.push_back(weak.AddObject(*id));
  }
  const std::optional<std::string_view> root_name = doc.Attr("root");
  if (!root_name.has_value()) {
    return Status::ParseError(
        StrCat("<", doc.name(), "> needs a 'root' attribute"));
  }
  const std::optional<ObjectId> root = dict.FindObject(*root_name);
  if (!root.has_value()) {
    return Status::ParseError(
        StrCat("root '", *root_name, "' is not an <object>"));
  }
  PXML_RETURN_IF_ERROR(weak.SetRoot(*root));
  return objects;
}

Status ReadLch(XmlElement lch, ObjectId o, WeakInstance& weak) {
  const std::optional<std::string_view> label = lch.Attr("label");
  if (!label.has_value()) {
    return Status::ParseError("<lch> needs a 'label' attribute");
  }
  const LabelId l = weak.dict().InternLabel(*label);
  PXML_ASSIGN_OR_RETURN(IdSet children, ParseChildSet(weak.dict(), lch));
  for (ObjectId c : children) {
    PXML_RETURN_IF_ERROR(weak.AddPotentialChild(o, l, c));
  }
  const std::optional<std::string_view> min = lch.Attr("min");
  const std::optional<std::string_view> max = lch.Attr("max");
  if (!min.has_value() && !max.has_value()) return Status::Ok();
  const auto lo =
      min.has_value() ? static_cast<std::uint32_t>(ParseUnsigned(*min)) : 0;
  const auto hi = max.has_value()
                      ? static_cast<std::uint32_t>(ParseUnsigned(*max))
                      : IntInterval::kUnbounded;
  return weak.SetCard(o, l, IntInterval(lo, hi));
}

Status ReadObjectType(XmlElement section, ObjectId o, WeakInstance& weak) {
  const std::optional<std::string_view> type_name = section.Attr("type");
  if (!type_name.has_value() || weak.TypeOf(o).has_value()) {
    return Status::Ok();
  }
  const std::optional<TypeId> type = weak.dict().FindType(*type_name);
  if (!type.has_value()) {
    return Status::ParseError(StrCat("unknown type '", *type_name, "'"));
  }
  return weak.SetLeafType(o, *type);
}

}  // namespace xml_internal
}  // namespace pxml
