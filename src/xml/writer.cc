#include "xml/writer.h"

#include <charconv>

#include "xml/xml_append.h"
#include "xml/xml_file.h"

namespace pxml {

namespace xml_internal {

namespace {

char KindCode(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kString:
      return 's';
    case Value::Kind::kInt:
      return 'i';
    case Value::Kind::kDouble:
      return 'd';
    case Value::Kind::kBool:
      return 'b';
  }
  return 's';
}

template <typename Number>
void AppendNumber(std::string& out, Number n) {
  char buf[32];  // the longest shortest-form double is 24 chars
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), n);
  out.append(buf, r.ptr);
}

}  // namespace

void AppendEscaped(std::string& out, std::string_view text) {
  std::size_t done = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string_view entity;
    switch (text[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      default:
        continue;
    }
    out.append(text, done, i - done);
    out.append(entity);
    done = i + 1;
  }
  out.append(text, done);
}

void AppendDouble(std::string& out, double d) { AppendNumber(out, d); }

void AppendDoubleAttr(std::string& out, std::string_view name, double d) {
  out += ' ';
  out.append(name);
  out += "=\"";
  AppendNumber(out, d);
  out += '"';
}

void AppendNames(std::string& out, const Dictionary& dict, const IdSet& ids) {
  bool first = true;
  for (ObjectId c : ids) {
    if (!first) out += ' ';
    first = false;
    AppendEscaped(out, dict.ObjectName(c));
  }
}

void AppendValueStart(std::string& out, std::string_view tag,
                      const Value& v) {
  out += '<';
  out.append(tag);
  out += " k=\"";
  out += KindCode(v.kind());
  out += '"';
}

void AppendValueEnd(std::string& out, std::string_view tag, const Value& v) {
  out += '>';
  switch (v.kind()) {
    case Value::Kind::kString:
      AppendEscaped(out, v.AsString());
      break;
    case Value::Kind::kInt:
      AppendNumber(out, v.AsInt());
      break;
    case Value::Kind::kDouble:
      AppendNumber(out, v.AsDouble());
      break;
    case Value::Kind::kBool:
      out += v.AsBool() ? "true" : "false";
      break;
  }
  out += "</";
  out.append(tag);
  out += '>';
}

void AppendDocumentStart(std::string& out, std::string_view element,
                         const WeakInstance& weak) {
  // A first guess at the document size, about what b=4 explicit tables
  // take per object; the string still grows past it when it must.
  constexpr std::size_t kGuessBytesPerObject = 256;
  out.reserve(out.size() + kGuessBytesPerObject * weak.num_objects());
  const Dictionary& dict = weak.dict();
  out += '<';
  out.append(element);
  out += " root=\"";
  if (weak.HasRoot()) AppendEscaped(out, dict.ObjectName(weak.root()));
  out += "\">\n";
  // Types actually used by leaves.
  std::vector<bool> used(dict.num_types(), false);
  for (ObjectId o : weak.Objects()) {
    auto t = weak.TypeOf(o);
    if (t.has_value()) used[*t] = true;
  }
  out += " <types>\n";
  for (TypeId t = 0; t < dict.num_types(); ++t) {
    if (!used[t]) continue;
    out += "  <type name=\"";
    AppendEscaped(out, dict.TypeName(t));
    out += "\">";
    for (const Value& v : dict.TypeDomain(t)) {
      AppendValueStart(out, "val", v);
      AppendValueEnd(out, "val", v);
    }
    out += "</type>\n";
  }
  out += " </types>\n";
}

void AppendObjectStart(std::string& out, const WeakInstance& weak,
                       ObjectId o) {
  const Dictionary& dict = weak.dict();
  out += " <object id=\"";
  AppendEscaped(out, dict.ObjectName(o));
  out += '"';
  auto type = weak.TypeOf(o);
  if (type.has_value()) {
    out += " type=\"";
    AppendEscaped(out, dict.TypeName(*type));
    out += '"';
  }
  out += ">\n";
  for (const WeakInstance::LchEntry& lch : weak.LchEntries(o)) {
    out += "  <lch label=\"";
    AppendEscaped(out, dict.LabelName(lch.label));
    out += '"';
    IntInterval card = weak.Card(o, lch.label);
    if (!card.IsUnconstrained()) {
      out += " min=\"";
      AppendNumber(out, card.min());
      out += '"';
      if (card.max() != IntInterval::kUnbounded) {
        out += " max=\"";
        AppendNumber(out, card.max());
        out += '"';
      }
    }
    out += '>';
    AppendNames(out, dict, lch.children);
    out += "</lch>\n";
  }
}

}  // namespace xml_internal

using xml_internal::AppendDocumentStart;
using xml_internal::AppendDouble;
using xml_internal::AppendDoubleAttr;
using xml_internal::AppendEscaped;
using xml_internal::AppendNames;
using xml_internal::AppendObjectStart;
using xml_internal::AppendValueEnd;
using xml_internal::AppendValueStart;

namespace {

void AppendRows(std::string& out, const Dictionary& dict,
                const std::vector<OpfEntry>& rows) {
  for (const OpfEntry& e : rows) {
    out += "   <row p=\"";
    AppendDouble(out, e.prob);
    out += "\">";
    AppendNames(out, dict, e.child_set);
    out += "</row>\n";
  }
}

void AppendOpf(std::string& out, const Dictionary& dict, const Opf& opf) {
  if (const auto* exp = dynamic_cast<const ExplicitOpf*>(&opf)) {
    out += "  <opf rep=\"explicit\">\n";
    AppendRows(out, dict, exp->rows());
  } else if (const auto* ind = dynamic_cast<const IndependentOpf*>(&opf)) {
    out += "  <opf rep=\"independent\">\n";
    for (const auto& [child, p] : ind->children()) {
      out += "   <child p=\"";
      AppendDouble(out, p);
      out += "\">";
      AppendEscaped(out, dict.ObjectName(child));
      out += "</child>\n";
    }
  } else if (const auto* pl =
                 dynamic_cast<const PerLabelProductOpf*>(&opf)) {
    out += "  <opf rep=\"per-label\">\n";
    for (const auto& [label, table] : pl->factor_views()) {
      out += "   <factor label=\"";
      AppendEscaped(out, dict.LabelName(label));
      out += "\">\n";
      AppendRows(out, dict, table->rows());
      out += "   </factor>\n";
    }
  } else {
    // Unknown representation: write the equivalent explicit table, which
    // is what the parser reads back.
    out += "  <opf rep=\"explicit\">\n";
    AppendRows(out, dict, ExplicitOpf::FromEntries(opf.Entries()).rows());
  }
  out += "  </opf>\n";
}

}  // namespace

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(out, text);
  return out;
}

std::string SerializePxml(const ProbabilisticInstance& instance) {
  const WeakInstance& weak = instance.weak();
  const Dictionary& dict = weak.dict();
  std::string out;
  AppendDocumentStart(out, "pxml", weak);
  for (ObjectId o : weak.Objects()) {
    AppendObjectStart(out, weak, o);
    if (const Opf* opf = instance.GetOpf(o)) {
      AppendOpf(out, dict, *opf);
    }
    auto witness = weak.ValueOf(o);
    if (witness.has_value()) {
      out += "  ";
      AppendValueStart(out, "witness", *witness);
      AppendValueEnd(out, "witness", *witness);
      out += '\n';
    }
    if (const Vpf* vpf = instance.GetVpf(o)) {
      out += "  <vpf>";
      for (const Vpf::Entry& e : vpf->Entries()) {
        AppendValueStart(out, "val", e.value);
        AppendDoubleAttr(out, "p", e.prob);
        AppendValueEnd(out, "val", e.value);
      }
      out += "</vpf>\n";
    }
    out += " </object>\n";
  }
  out += "</pxml>\n";
  return out;
}

Status WritePxmlFile(const ProbabilisticInstance& instance,
                     const std::string& path) {
  return xml_internal::WriteWholeFile(path, SerializePxml(instance));
}

}  // namespace pxml
