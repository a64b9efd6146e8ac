#include "xml/interval_io.h"

#include <cstdlib>

#include "util/strings.h"
#include "xml/xml_append.h"
#include "xml/xml_dom.h"
#include "xml/xml_file.h"

namespace pxml {

using xml_internal::AppendDocumentStart;
using xml_internal::AppendDoubleAttr;
using xml_internal::AppendNames;
using xml_internal::AppendObjectStart;
using xml_internal::AppendValueEnd;
using xml_internal::AppendValueStart;
using xml_internal::ParseChildSet;
using xml_internal::ParseDoubleAttr;
using xml_internal::ParseTypedValue;
using xml_internal::ParseXmlDocument;
using xml_internal::XmlNode;

namespace {

Result<IntervalProb> ParseIntervalAttrs(const XmlNode& node) {
  PXML_ASSIGN_OR_RETURN(double lo, ParseDoubleAttr(node, "lo"));
  PXML_ASSIGN_OR_RETURN(double hi, ParseDoubleAttr(node, "hi"));
  return IntervalProb::Make(lo, hi);
}

}  // namespace

std::string SerializeIntervalPxml(const IntervalInstance& instance) {
  const WeakInstance& weak = instance.weak();
  const Dictionary& dict = weak.dict();
  std::string out;
  AppendDocumentStart(out, "ipxml", weak);
  for (ObjectId o : weak.Objects()) {
    AppendObjectStart(out, weak, o);
    if (const IntervalOpf* opf = instance.GetOpf(o)) {
      out += "  <iopf>\n";
      for (const IntervalOpf::Entry& e : opf->Entries()) {
        out += "   <row";
        AppendDoubleAttr(out, "lo", e.prob.lo());
        AppendDoubleAttr(out, "hi", e.prob.hi());
        out += '>';
        AppendNames(out, dict, e.child_set);
        out += "</row>\n";
      }
      out += "  </iopf>\n";
    }
    if (const IntervalVpf* vpf = instance.GetVpf(o)) {
      out += "  <ivpf>";
      for (const IntervalVpf::Entry& e : vpf->Entries()) {
        AppendValueStart(out, "val", e.value);
        AppendDoubleAttr(out, "lo", e.prob.lo());
        AppendDoubleAttr(out, "hi", e.prob.hi());
        AppendValueEnd(out, "val", e.value);
      }
      out += "</ivpf>\n";
    }
    out += " </object>\n";
  }
  out += "</ipxml>\n";
  return out;
}

Status WriteIntervalPxmlFile(const IntervalInstance& instance,
                             const std::string& path) {
  return xml_internal::WriteWholeFile(path, SerializeIntervalPxml(instance));
}

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

Result<IntervalInstance> ReadIntervalPxmlFile(const std::string& path) {
  PXML_ASSIGN_OR_RETURN(std::string text, xml_internal::ReadWholeFile(path));
  return ParseIntervalPxml(text);
}

}  // namespace pxml
