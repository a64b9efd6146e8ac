#ifndef PXML_XML_XML_READER_H_
#define PXML_XML_XML_READER_H_

// Internal zero-copy XML reader shared by the PXML and IPXML parsers,
// with the readers for the parts of a document both formats share. Not
// part of the public API (namespace xml_internal).
//
// XmlDocument::Parse tokenizes the read buffer once, without recursion,
// into one flat array of elements in document order. Names, attribute
// values and text are views into that buffer; a string is copied only
// when an entity must be unescaped or an element's text is split into
// several runs by child elements.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/weak_instance.h"
#include "graph/symbols.h"
#include "prob/value.h"
#include "util/id_set.h"
#include "util/status.h"

namespace pxml {
namespace xml_internal {

/// The deepest element nesting a document may have; one more level is a
/// ParseError. A PXML document nests five levels (pxml, object, opf,
/// factor, row), so only hostile input comes near it. 256 is libxml2's
/// default bound.
inline constexpr std::size_t kMaxElementDepth = 256;

class XmlDocument;

/// A handle on one element of an XmlDocument. It holds a pointer to the
/// document, which must outlive it.
class XmlElement {
 public:
  class ChildIterator;
  struct Children;

  std::string_view name() const;

  /// The unescaped value of the first attribute named `key`.
  std::optional<std::string_view> Attr(std::string_view key) const;

  /// The element's unescaped text runs, concatenated (child elements'
  /// own text excluded).
  std::string_view text() const;

  /// The child elements, in document order.
  Children children() const;

  /// How many child elements there are.
  std::size_t num_children() const;

 private:
  friend class XmlDocument;
  XmlElement(const XmlDocument* doc, std::uint32_t index)
      : doc_(doc), index_(index) {}

  const XmlDocument* doc_;
  std::uint32_t index_;
};

class XmlElement::ChildIterator {
 public:
  XmlElement operator*() const { return XmlElement(doc_, index_); }
  ChildIterator& operator++();
  bool operator!=(const ChildIterator& other) const {
    return index_ != other.index_;
  }

 private:
  friend class XmlElement;
  ChildIterator(const XmlDocument* doc, std::uint32_t index)
      : doc_(doc), index_(index) {}

  const XmlDocument* doc_;
  std::uint32_t index_;
};

struct XmlElement::Children {
  ChildIterator begin() const { return first; }
  ChildIterator end() const { return last; }
  ChildIterator first;
  ChildIterator last;
};

/// A whole document: one root element, no prolog, comments or CDATA.
class XmlDocument {
 public:
  /// Tokenizes `text`. The document keeps views into `text`, which must
  /// outlive it. ParseError on malformed input or nesting deeper than
  /// kMaxElementDepth.
  static Result<XmlDocument> Parse(std::string_view text);

  XmlElement root() const { return XmlElement(this, 0); }

 private:
  friend class XmlElement;
  friend class XmlTokenizer;

  struct Attribute {
    std::string_view name;
    std::string_view value;  // raw: entities not yet unescaped
  };
  // One element. Its descendants are the nodes in (index, end); its first
  // child, if any, is index + 1, and a child's `end` is its next sibling.
  struct Node {
    std::string_view name;
    std::uint32_t attr_begin = 0;
    std::uint32_t attr_end = 0;
    std::uint32_t end = 0;
    // Byte offsets into the buffer: the content between the start and
    // end tags, and one past the element's last '>'.
    std::size_t content_begin = 0;
    std::size_t content_end = 0;
    std::size_t close_end = 0;
  };

  // `raw` unescaped; a view of `raw` itself when it holds no '&'.
  std::string_view Unescaped(std::string_view raw) const;

  std::string_view text_;
  std::vector<Node> nodes_;
  std::vector<Attribute> attrs_;
  // The strings built by Unescaped() and text(). Lazily filled from const
  // handles; a deque, so the views already handed out stay valid.
  mutable std::deque<std::string> copies_;
};

/// Reads a typed value from an element with a one-letter `k` attribute
/// (s/i/d/b) and the value in the text content.
Result<Value> ParseTypedValue(XmlElement element);

/// Parses a double attribute; fails if absent or malformed.
Result<double> ParseDoubleAttr(XmlElement element,
                               std::string_view key);

/// Whitespace-separated object names in an element's text, resolved
/// against the dictionary.
Result<IdSet> ParseChildSet(const Dictionary& dict,
                            XmlElement element);

/// The part PXML and IPXML documents share, read the same way for both:
/// every `<types>` section's types, then one object per `<object>`
/// section (ids in document order), then the document element's `root`.
/// Returns each `<object>` section's object, in document order (a
/// repeated id names the same object).
Result<std::vector<ObjectId>> ReadTypesAndObjects(XmlElement doc,
                                                  WeakInstance& weak);

/// An `<lch label=".." min=".." max="..">names</lch>` part of object `o`:
/// the label is interned, the children added, and the bounds set when
/// either is given (`strtoul` semantics; a missing max is unbounded).
Status ReadLch(XmlElement lch, ObjectId o, WeakInstance& weak);

/// An `<object type="..">` section's type, recorded on `o` unless a
/// witness already set it.
Status ReadObjectType(XmlElement section, ObjectId o, WeakInstance& weak);

}  // namespace xml_internal
}  // namespace pxml

#endif  // PXML_XML_XML_READER_H_
