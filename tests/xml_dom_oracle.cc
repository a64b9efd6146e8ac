#include "xml_dom_oracle.h"

#include <cstdlib>

#include "util/strings.h"

namespace pxml {
namespace xml_oracle {

// ------------------------------------------- the old src/xml/xml_dom.cc
namespace xml_internal {

// ------------------------------------------------------- tiny XML parser

const std::string* XmlNode::Attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string XmlUnescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out += text[i];
      continue;
    }
    if (text.substr(i, 5) == "&amp;") {
      out += '&';
      i += 4;
    } else if (text.substr(i, 4) == "&lt;") {
      out += '<';
      i += 3;
    } else if (text.substr(i, 4) == "&gt;") {
      out += '>';
      i += 3;
    } else if (text.substr(i, 6) == "&quot;") {
      out += '"';
      i += 5;
    } else {
      out += '&';
    }
  }
  return out;
}

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  Result<XmlNode> ParseDocument() {
    SkipWhitespace();
    PXML_ASSIGN_OR_RETURN(XmlNode root, ParseElement());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after the document element");
    }
    return root;
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
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static bool IsNameChar(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':';
  }

  std::string ParseName() {
    std::size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<XmlNode> ParseElement() {
    if (!Eat('<')) return Fail("expected '<'");
    XmlNode node;
    node.name = ParseName();
    if (node.name.empty()) return Fail("expected element name");
    for (;;) {
      SkipWhitespace();
      if (Eat('/')) {
        if (!Eat('>')) return Fail("expected '>' after '/'");
        return node;  // self-closing
      }
      if (Eat('>')) break;
      // Attribute.
      std::string key = ParseName();
      if (key.empty()) return Fail("expected attribute name");
      if (!Eat('=') || !Eat('"')) {
        return Fail(StrCat("expected =\"...\" after attribute '", key, "'"));
      }
      std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ == text_.size()) return Fail("unterminated attribute value");
      node.attrs.emplace_back(
          std::move(key), XmlUnescape(text_.substr(start, pos_ - start)));
      ++pos_;  // closing quote
    }
    // Content: interleaved text and child elements until </name>.
    for (;;) {
      std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '<') ++pos_;
      node.text += XmlUnescape(text_.substr(start, pos_ - start));
      if (pos_ == text_.size()) return Fail("unterminated element");
      if (text_.substr(pos_, 2) == "</") {
        pos_ += 2;
        std::string closing = ParseName();
        if (closing != node.name) {
          return Fail(StrCat("mismatched closing tag '", closing,
                             "' for '", node.name, "'"));
        }
        if (!Eat('>')) return Fail("expected '>'");
        return node;
      }
      PXML_ASSIGN_OR_RETURN(XmlNode child, ParseElement());
      node.children.push_back(std::move(child));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------- PXML interpretation

Result<Value> ParseTypedValue(const XmlNode& node) {
  const std::string* kind = node.Attr("k");
  if (kind == nullptr || kind->size() != 1) {
    return Status::ParseError(
        StrCat("<", node.name, "> needs a one-letter 'k' attribute"));
  }
  const std::string& text = node.text;
  switch ((*kind)[0]) {
    case 's':
      return Value(text);
    case 'i': {
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str()) {
        return Status::ParseError(StrCat("bad integer '", text, "'"));
      }
      return Value(static_cast<std::int64_t>(v));
    }
    case 'd': {
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str()) {
        return Status::ParseError(StrCat("bad double '", text, "'"));
      }
      return Value(v);
    }
    case 'b':
      return Value(text == "true");
    default:
      return Status::ParseError(StrCat("unknown value kind '", *kind, "'"));
  }
}

Result<double> ParseDoubleAttr(const XmlNode& node, std::string_view key) {
  const std::string* p = node.Attr(key);
  if (p == nullptr) {
    return Status::ParseError(
        StrCat("<", node.name, "> needs a '", key, "' attribute"));
  }
  char* end = nullptr;
  double v = std::strtod(p->c_str(), &end);
  if (end == p->c_str()) {
    return Status::ParseError(StrCat("bad number '", *p, "'"));
  }
  return v;
}

/// Whitespace-separated object names in an element's text.
std::vector<std::string> SplitNames(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

Result<IdSet> ParseChildSet(const Dictionary& dict, const XmlNode& node) {
  std::vector<std::uint32_t> ids;
  for (const std::string& name : SplitNames(node.text)) {
    auto id = dict.FindObject(name);
    if (!id.has_value()) {
      return Status::ParseError(StrCat("unknown object '", name, "'"));
    }
    ids.push_back(*id);
  }
  return IdSet(std::move(ids));
}


Result<XmlNode> ParseXmlDocument(std::string_view text) {
  XmlParser parser(text);
  return parser.ParseDocument();
}

}  // namespace xml_internal

// ------------------------------------------- the old src/xml/parser.cc

using xml_internal::ParseChildSet;
using xml_internal::ParseDoubleAttr;
using xml_internal::ParseTypedValue;
using xml_internal::ParseXmlDocument;
using xml_internal::XmlNode;

namespace {

Result<ExplicitOpf> ParseExplicitRows(const Dictionary& dict,
                                      const XmlNode& parent) {
  ExplicitOpf opf;
  for (const XmlNode& row : parent.children) {
    if (row.name != "row") {
      return Status::ParseError(
          StrCat("unexpected <", row.name, "> in explicit OPF"));
    }
    PXML_ASSIGN_OR_RETURN(double p, ParseDoubleAttr(row, "p"));
    PXML_ASSIGN_OR_RETURN(IdSet c, ParseChildSet(dict, row));
    opf.Set(std::move(c), p);
  }
  return opf;
}

Result<std::unique_ptr<Opf>> ParseOpf(const Dictionary& dict,
                                      const XmlNode& node) {
  const std::string* rep = node.Attr("rep");
  std::string representation = rep != nullptr ? *rep : "explicit";
  if (representation == "explicit") {
    PXML_ASSIGN_OR_RETURN(ExplicitOpf opf, ParseExplicitRows(dict, node));
    return std::unique_ptr<Opf>(std::make_unique<ExplicitOpf>(std::move(opf)));
  }
  if (representation == "independent") {
    auto opf = std::make_unique<IndependentOpf>();
    for (const XmlNode& child : node.children) {
      if (child.name != "child") {
        return Status::ParseError(
            StrCat("unexpected <", child.name, "> in independent OPF"));
      }
      PXML_ASSIGN_OR_RETURN(double p, ParseDoubleAttr(child, "p"));
      PXML_ASSIGN_OR_RETURN(IdSet ids, ParseChildSet(dict, child));
      if (ids.size() != 1) {
        return Status::ParseError("<child> must name exactly one object");
      }
      PXML_RETURN_IF_ERROR(opf->AddChild(ids[0], p));
    }
    return std::unique_ptr<Opf>(std::move(opf));
  }
  if (representation == "per-label") {
    auto opf = std::make_unique<PerLabelProductOpf>();
    for (const XmlNode& factor : node.children) {
      if (factor.name != "factor") {
        return Status::ParseError(
            StrCat("unexpected <", factor.name, "> in per-label OPF"));
      }
      const std::string* label = factor.Attr("label");
      if (label == nullptr) {
        return Status::ParseError("<factor> needs a 'label' attribute");
      }
      auto label_id = dict.FindLabel(*label);
      if (!label_id.has_value()) {
        return Status::ParseError(StrCat("unknown label '", *label, "'"));
      }
      PXML_ASSIGN_OR_RETURN(ExplicitOpf table,
                            ParseExplicitRows(dict, factor));
      PXML_RETURN_IF_ERROR(opf->AddLabelFactor(*label_id, std::move(table)));
    }
    return std::unique_ptr<Opf>(std::move(opf));
  }
  return Status::ParseError(
      StrCat("unknown OPF representation '", representation, "'"));
}

}  // namespace

Result<ProbabilisticInstance> ParsePxml(std::string_view text) {
  PXML_ASSIGN_OR_RETURN(XmlNode doc, ParseXmlDocument(text));
  if (doc.name != "pxml") {
    return Status::ParseError(
        StrCat("expected <pxml> document element, got <", doc.name, ">"));
  }
  ProbabilisticInstance out;
  WeakInstance& weak = out.weak();
  Dictionary& dict = weak.dict();

  // Pass 1: types, then all object names (so lch/OPF references resolve
  // regardless of order).
  for (const XmlNode& section : doc.children) {
    if (section.name != "types") continue;
    for (const XmlNode& type : section.children) {
      const std::string* name = type.Attr("name");
      if (name == nullptr) {
        return Status::ParseError("<type> needs a 'name' attribute");
      }
      std::vector<Value> domain;
      for (const XmlNode& val : type.children) {
        PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(val));
        domain.push_back(std::move(v));
      }
      PXML_RETURN_IF_ERROR(
          dict.DefineType(*name, std::move(domain)).status());
    }
  }
  for (const XmlNode& section : doc.children) {
    if (section.name != "object") continue;
    const std::string* id = section.Attr("id");
    if (id == nullptr) {
      return Status::ParseError("<object> needs an 'id' attribute");
    }
    weak.AddObject(*id);
  }
  const std::string* root_name = doc.Attr("root");
  if (root_name == nullptr) {
    return Status::ParseError("<pxml> needs a 'root' attribute");
  }
  auto root = dict.FindObject(*root_name);
  if (!root.has_value()) {
    return Status::ParseError(
        StrCat("root '", *root_name, "' is not an <object>"));
  }
  PXML_RETURN_IF_ERROR(weak.SetRoot(*root));

  // Pass 2: structure and local interpretation.
  for (const XmlNode& section : doc.children) {
    if (section.name != "object") continue;
    ObjectId o = *dict.FindObject(*section.Attr("id"));
    for (const XmlNode& part : section.children) {
      if (part.name == "lch") {
        const std::string* label = part.Attr("label");
        if (label == nullptr) {
          return Status::ParseError("<lch> needs a 'label' attribute");
        }
        LabelId l = dict.InternLabel(*label);
        PXML_ASSIGN_OR_RETURN(IdSet children, ParseChildSet(dict, part));
        for (ObjectId c : children) {
          PXML_RETURN_IF_ERROR(weak.AddPotentialChild(o, l, c));
        }
        const std::string* min = part.Attr("min");
        const std::string* max = part.Attr("max");
        if (min != nullptr || max != nullptr) {
          std::uint32_t lo = min != nullptr
                                 ? static_cast<std::uint32_t>(
                                       std::strtoul(min->c_str(), nullptr, 10))
                                 : 0;
          std::uint32_t hi = max != nullptr
                                 ? static_cast<std::uint32_t>(
                                       std::strtoul(max->c_str(), nullptr, 10))
                                 : IntInterval::kUnbounded;
          PXML_RETURN_IF_ERROR(weak.SetCard(o, l, IntInterval(lo, hi)));
        }
      } else if (part.name == "opf") {
        PXML_ASSIGN_OR_RETURN(std::unique_ptr<Opf> opf, ParseOpf(dict, part));
        PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(opf)));
      } else if (part.name == "witness") {
        const std::string* type_name = section.Attr("type");
        if (type_name == nullptr) {
          return Status::ParseError("<witness> requires an object 'type'");
        }
        auto type = dict.FindType(*type_name);
        if (!type.has_value()) {
          return Status::ParseError(
              StrCat("unknown type '", *type_name, "'"));
        }
        PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(part));
        PXML_RETURN_IF_ERROR(weak.SetLeafValue(o, *type, std::move(v)));
      } else if (part.name == "vpf") {
        Vpf vpf;
        for (const XmlNode& val : part.children) {
          PXML_ASSIGN_OR_RETURN(double p, ParseDoubleAttr(val, "p"));
          PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(val));
          vpf.Set(std::move(v), p);
        }
        PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(vpf)));
      } else {
        return Status::ParseError(
            StrCat("unexpected <", part.name, "> inside <object>"));
      }
    }
    // A typed object without a witness still needs its type recorded.
    const std::string* type_name = section.Attr("type");
    if (type_name != nullptr && !weak.TypeOf(o).has_value()) {
      auto type = dict.FindType(*type_name);
      if (!type.has_value()) {
        return Status::ParseError(StrCat("unknown type '", *type_name, "'"));
      }
      PXML_RETURN_IF_ERROR(weak.SetLeafType(o, *type));
    }
  }
  return out;
}


// -------------------------------- the old src/xml/interval_io.cc reader
namespace interval {

Result<IntervalProb> ParseIntervalAttrs(const XmlNode& node) {
  PXML_ASSIGN_OR_RETURN(double lo, ParseDoubleAttr(node, "lo"));
  PXML_ASSIGN_OR_RETURN(double hi, ParseDoubleAttr(node, "hi"));
  return IntervalProb::Make(lo, hi);
}

}  // namespace interval

using interval::ParseIntervalAttrs;

Result<IntervalInstance> ParseIntervalPxml(std::string_view text) {
  PXML_ASSIGN_OR_RETURN(XmlNode doc, ParseXmlDocument(text));
  if (doc.name != "ipxml") {
    return Status::ParseError(
        StrCat("expected <ipxml> document element, got <", doc.name, ">"));
  }
  IntervalInstance out;
  WeakInstance& weak = out.weak();
  Dictionary& dict = weak.dict();

  for (const XmlNode& section : doc.children) {
    if (section.name != "types") continue;
    for (const XmlNode& type : section.children) {
      const std::string* name = type.Attr("name");
      if (name == nullptr) {
        return Status::ParseError("<type> needs a 'name' attribute");
      }
      std::vector<Value> domain;
      for (const XmlNode& val : type.children) {
        PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(val));
        domain.push_back(std::move(v));
      }
      PXML_RETURN_IF_ERROR(
          dict.DefineType(*name, std::move(domain)).status());
    }
  }
  for (const XmlNode& section : doc.children) {
    if (section.name != "object") continue;
    const std::string* id = section.Attr("id");
    if (id == nullptr) {
      return Status::ParseError("<object> needs an 'id' attribute");
    }
    weak.AddObject(*id);
  }
  const std::string* root_name = doc.Attr("root");
  if (root_name == nullptr) {
    return Status::ParseError("<ipxml> needs a 'root' attribute");
  }
  auto root = dict.FindObject(*root_name);
  if (!root.has_value()) {
    return Status::ParseError(
        StrCat("root '", *root_name, "' is not an <object>"));
  }
  PXML_RETURN_IF_ERROR(weak.SetRoot(*root));

  for (const XmlNode& section : doc.children) {
    if (section.name != "object") continue;
    ObjectId o = *dict.FindObject(*section.Attr("id"));
    for (const XmlNode& part : section.children) {
      if (part.name == "lch") {
        const std::string* label = part.Attr("label");
        if (label == nullptr) {
          return Status::ParseError("<lch> needs a 'label' attribute");
        }
        LabelId l = dict.InternLabel(*label);
        PXML_ASSIGN_OR_RETURN(IdSet children, ParseChildSet(dict, part));
        for (ObjectId c : children) {
          PXML_RETURN_IF_ERROR(weak.AddPotentialChild(o, l, c));
        }
        const std::string* min = part.Attr("min");
        const std::string* max = part.Attr("max");
        if (min != nullptr || max != nullptr) {
          std::uint32_t lo =
              min != nullptr ? static_cast<std::uint32_t>(std::strtoul(
                                   min->c_str(), nullptr, 10))
                             : 0;
          std::uint32_t hi =
              max != nullptr ? static_cast<std::uint32_t>(std::strtoul(
                                   max->c_str(), nullptr, 10))
                             : IntInterval::kUnbounded;
          PXML_RETURN_IF_ERROR(weak.SetCard(o, l, IntInterval(lo, hi)));
        }
      } else if (part.name == "iopf") {
        IntervalOpf opf;
        for (const XmlNode& row : part.children) {
          if (row.name != "row") {
            return Status::ParseError(
                StrCat("unexpected <", row.name, "> in <iopf>"));
          }
          PXML_ASSIGN_OR_RETURN(IntervalProb prob, ParseIntervalAttrs(row));
          PXML_ASSIGN_OR_RETURN(IdSet c, ParseChildSet(dict, row));
          opf.Set(std::move(c), prob);
        }
        PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(opf)));
      } else if (part.name == "ivpf") {
        IntervalVpf vpf;
        for (const XmlNode& val : part.children) {
          PXML_ASSIGN_OR_RETURN(IntervalProb prob, ParseIntervalAttrs(val));
          PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(val));
          vpf.Set(std::move(v), prob);
        }
        PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(vpf)));
      } else {
        return Status::ParseError(
            StrCat("unexpected <", part.name, "> inside <object>"));
      }
    }
    const std::string* type_name = section.Attr("type");
    if (type_name != nullptr && !weak.TypeOf(o).has_value()) {
      auto type = dict.FindType(*type_name);
      if (!type.has_value()) {
        return Status::ParseError(StrCat("unknown type '", *type_name, "'"));
      }
      PXML_RETURN_IF_ERROR(weak.SetLeafType(o, *type));
    }
  }
  return out;
}

}  // namespace xml_oracle
}  // namespace pxml
