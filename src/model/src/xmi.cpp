#include "decisive/model/xmi.hpp"

#include <unordered_map>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/xml.hpp"

namespace decisive::model {

std::string save_xmi(const FullLoadRepository& repo, const MetaPackage& package) {
  xml::Element root;
  root.name = "model";
  root.set_attribute("package", package.name());
  repo.for_each([&](const ModelObject& obj) {
    xml::Element& el = root.add_child("object");
    el.set_attribute("id", std::to_string(obj.id()));
    el.set_attribute("class", obj.meta().name());
    for (const MetaAttribute* attr : obj.meta().all_attributes()) {
      const Value& v = obj.get(attr->name);
      if (std::holds_alternative<std::monostate>(v)) continue;
      xml::Element& a = el.add_child("attr");
      a.set_attribute("name", attr->name);
      a.set_attribute("value", value_to_string(v));
    }
    for (const MetaReference* ref : obj.meta().all_references()) {
      const auto& targets = obj.refs(ref->name);
      if (targets.empty()) continue;
      xml::Element& r = el.add_child("ref");
      r.set_attribute("name", ref->name);
      std::string ids;
      for (size_t i = 0; i < targets.size(); ++i) {
        if (i != 0) ids += ' ';
        ids += std::to_string(targets[i]);
      }
      r.set_attribute("targets", ids);
    }
  });
  return xml::write(root);
}

void save_xmi_file(const std::string& path, const FullLoadRepository& repo,
                   const MetaPackage& package) {
  write_whole_file(path, save_xmi(repo, package), "model file");
}

void load_xmi(FullLoadRepository& repo, const MetaPackage& package, std::string_view text) {
  const auto root = xml::parse(text);
  if (root->name != "model") throw ParseError("expected <model> document root");

  // Pass 1: create objects, remember the id remapping.
  std::unordered_map<std::uint64_t, ObjectId> remap;
  std::vector<std::pair<ObjectId, const xml::Element*>> created;
  for (const auto& child : root->children) {
    if (child->name != "object") continue;
    const std::string* cls_name = child->attribute("class");
    const std::string* file_id = child->attribute("id");
    if (cls_name == nullptr || file_id == nullptr) {
      throw ParseError("<object> requires 'id' and 'class' attributes");
    }
    const MetaClass& cls = package.get(*cls_name);
    ModelObject& obj = repo.create(cls);
    remap[static_cast<std::uint64_t>(parse_int(*file_id))] = obj.id();
    created.emplace_back(obj.id(), child.get());
  }

  // Pass 2: attributes and references.
  for (const auto& [id, element] : created) {
    ModelObject& obj = repo.get(id);
    for (const auto& feature : element->children) {
      if (feature->name == "attr") {
        const std::string* name = feature->attribute("name");
        const std::string* value = feature->attribute("value");
        if (name == nullptr || value == nullptr) {
          throw ParseError("<attr> requires 'name' and 'value'");
        }
        const MetaAttribute& attr = obj.meta().attribute(*name);
        obj.set(*name, value_from_string(attr.type, *value));
      } else if (feature->name == "ref") {
        const std::string* name = feature->attribute("name");
        const std::string* targets = feature->attribute("targets");
        if (name == nullptr || targets == nullptr) {
          throw ParseError("<ref> requires 'name' and 'targets'");
        }
        for (const auto& token : split(*targets, ' ')) {
          if (trim(token).empty()) continue;
          const auto file_target = static_cast<std::uint64_t>(parse_int(token));
          const auto it = remap.find(file_target);
          if (it == remap.end()) {
            throw ModelError("reference '" + *name + "' targets unknown object id " + token);
          }
          obj.add_ref(*name, it->second);
        }
      }
    }
  }
  repo.recompute_bytes();
}

void load_xmi_file(FullLoadRepository& repo, const MetaPackage& package,
                   const std::string& path) {
  load_xmi(repo, package, read_whole_file(path, "model file"));
}

}  // namespace decisive::model
