#include "xml/parser.h"

#include "xml/xml_dom.h"
#include "xml/xml_file.h"

#include <cstdlib>

#include "util/strings.h"

namespace pxml {

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

Result<ProbabilisticInstance> ReadPxmlFile(const std::string& path) {
  PXML_ASSIGN_OR_RETURN(std::string text, xml_internal::ReadWholeFile(path));
  return ParsePxml(text);
}

}  // namespace pxml
