#include "xml/parser.h"

#include "xml/xml_file.h"
#include "xml/xml_reader.h"

#include "util/strings.h"

namespace pxml {

using xml_internal::ParseChildSet;
using xml_internal::ParseDoubleAttr;
using xml_internal::ParseTypedValue;
using xml_internal::ReadLch;
using xml_internal::ReadObjectType;
using xml_internal::ReadTypesAndObjects;
using xml_internal::XmlDocument;
using xml_internal::XmlElement;

namespace {

Result<ExplicitOpf> ParseExplicitRows(const Dictionary& dict,
                                      XmlElement parent) {
  // Rows go into their final vector, sized once; FromEntries sorts them
  // and lets a later duplicate row win, as one Set per row would.
  std::vector<OpfEntry> rows;
  rows.reserve(parent.num_children());
  for (XmlElement row : parent.children()) {
    if (row.name() != "row") {
      return Status::ParseError(
          StrCat("unexpected <", row.name(), "> in explicit OPF"));
    }
    PXML_ASSIGN_OR_RETURN(double p, ParseDoubleAttr(row, "p"));
    PXML_ASSIGN_OR_RETURN(IdSet c, ParseChildSet(dict, row));
    rows.push_back(OpfEntry{std::move(c), p});
  }
  return ExplicitOpf::FromEntries(std::move(rows));
}

Result<std::unique_ptr<Opf>> ParseOpf(const Dictionary& dict,
                                      XmlElement node) {
  const std::string_view representation =
      node.Attr("rep").value_or("explicit");
  if (representation == "explicit") {
    PXML_ASSIGN_OR_RETURN(ExplicitOpf opf, ParseExplicitRows(dict, node));
    return std::unique_ptr<Opf>(std::make_unique<ExplicitOpf>(std::move(opf)));
  }
  if (representation == "independent") {
    auto opf = std::make_unique<IndependentOpf>();
    for (XmlElement child : node.children()) {
      if (child.name() != "child") {
        return Status::ParseError(
            StrCat("unexpected <", child.name(), "> in independent OPF"));
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
    for (XmlElement factor : node.children()) {
      if (factor.name() != "factor") {
        return Status::ParseError(
            StrCat("unexpected <", factor.name(), "> in per-label OPF"));
      }
      const std::optional<std::string_view> label = factor.Attr("label");
      if (!label.has_value()) {
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
  PXML_ASSIGN_OR_RETURN(const XmlDocument document, XmlDocument::Parse(text));
  const XmlElement doc = document.root();
  if (doc.name() != "pxml") {
    return Status::ParseError(
        StrCat("expected <pxml> document element, got <", doc.name(), ">"));
  }
  ProbabilisticInstance out;
  WeakInstance& weak = out.weak();
  Dictionary& dict = weak.dict();

  // Pass 1: types, then all object names (so lch/OPF references resolve
  // regardless of order).
  PXML_ASSIGN_OR_RETURN(const std::vector<ObjectId> objects,
                        ReadTypesAndObjects(doc, weak));

  // Pass 2: structure and local interpretation.
  std::size_t next_object = 0;
  for (XmlElement section : doc.children()) {
    if (section.name() != "object") continue;
    const ObjectId o = objects[next_object++];
    for (XmlElement part : section.children()) {
      if (part.name() == "lch") {
        PXML_RETURN_IF_ERROR(ReadLch(part, o, weak));
      } else if (part.name() == "opf") {
        PXML_ASSIGN_OR_RETURN(std::unique_ptr<Opf> opf, ParseOpf(dict, part));
        PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(opf)));
      } else if (part.name() == "witness") {
        const std::optional<std::string_view> type_name = section.Attr("type");
        if (!type_name.has_value()) {
          return Status::ParseError("<witness> requires an object 'type'");
        }
        auto type = dict.FindType(*type_name);
        if (!type.has_value()) {
          return Status::ParseError(
              StrCat("unknown type '", *type_name, "'"));
        }
        PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(part));
        PXML_RETURN_IF_ERROR(weak.SetLeafValue(o, *type, std::move(v)));
      } else if (part.name() == "vpf") {
        Vpf vpf;
        for (XmlElement val : part.children()) {
          PXML_ASSIGN_OR_RETURN(double p, ParseDoubleAttr(val, "p"));
          PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(val));
          vpf.Set(std::move(v), p);
        }
        PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(vpf)));
      } else {
        return Status::ParseError(
            StrCat("unexpected <", part.name(), "> inside <object>"));
      }
    }
    // A typed object without a witness still needs its type recorded.
    PXML_RETURN_IF_ERROR(ReadObjectType(section, o, weak));
  }
  return out;
}

Result<ProbabilisticInstance> ReadPxmlFile(const std::string& path) {
  PXML_ASSIGN_OR_RETURN(std::string text, xml_internal::ReadWholeFile(path));
  return ParsePxml(text);
}

}  // namespace pxml
