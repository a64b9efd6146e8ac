#include "xml/interval_io.h"

#include "util/strings.h"
#include "xml/xml_append.h"
#include "xml/xml_file.h"
#include "xml/xml_reader.h"

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
using xml_internal::ReadLch;
using xml_internal::ReadObjectType;
using xml_internal::ReadTypesAndObjects;
using xml_internal::XmlDocument;
using xml_internal::XmlElement;

namespace {

Result<IntervalProb> ParseIntervalAttrs(XmlElement node) {
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
  PXML_ASSIGN_OR_RETURN(const XmlDocument document, XmlDocument::Parse(text));
  const XmlElement doc = document.root();
  if (doc.name() != "ipxml") {
    return Status::ParseError(
        StrCat("expected <ipxml> document element, got <", doc.name(), ">"));
  }
  IntervalInstance out;
  WeakInstance& weak = out.weak();
  Dictionary& dict = weak.dict();
  PXML_ASSIGN_OR_RETURN(const std::vector<ObjectId> objects,
                        ReadTypesAndObjects(doc, weak));

  std::size_t next_object = 0;
  for (XmlElement section : doc.children()) {
    if (section.name() != "object") continue;
    const ObjectId o = objects[next_object++];
    for (XmlElement part : section.children()) {
      if (part.name() == "lch") {
        PXML_RETURN_IF_ERROR(ReadLch(part, o, weak));
      } else if (part.name() == "iopf") {
        IntervalOpf opf;
        for (XmlElement row : part.children()) {
          if (row.name() != "row") {
            return Status::ParseError(
                StrCat("unexpected <", row.name(), "> in <iopf>"));
          }
          PXML_ASSIGN_OR_RETURN(IntervalProb prob, ParseIntervalAttrs(row));
          PXML_ASSIGN_OR_RETURN(IdSet c, ParseChildSet(dict, row));
          opf.Set(std::move(c), prob);
        }
        PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(opf)));
      } else if (part.name() == "ivpf") {
        IntervalVpf vpf;
        for (XmlElement val : part.children()) {
          PXML_ASSIGN_OR_RETURN(IntervalProb prob, ParseIntervalAttrs(val));
          PXML_ASSIGN_OR_RETURN(Value v, ParseTypedValue(val));
          vpf.Set(std::move(v), prob);
        }
        PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(vpf)));
      } else {
        return Status::ParseError(
            StrCat("unexpected <", part.name(), "> inside <object>"));
      }
    }
    PXML_RETURN_IF_ERROR(ReadObjectType(section, o, weak));
  }
  return out;
}

Result<IntervalInstance> ReadIntervalPxmlFile(const std::string& path) {
  PXML_ASSIGN_OR_RETURN(std::string text, xml_internal::ReadWholeFile(path));
  return ParseIntervalPxml(text);
}

}  // namespace pxml
