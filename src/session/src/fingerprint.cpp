#include "decisive/session/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "decisive/base/error.hpp"

namespace decisive::session {

using ssam::ObjectId;
using ssam::SsamModel;

// ---------------------------------------------------------------------------
// Fingerprint primitives
// ---------------------------------------------------------------------------

void FingerprintBuilder::mix(std::uint64_t value) noexcept {
  // Two FNV-1a-style lanes over 64-bit words with distinct primes; the
  // second lane additionally rotates so the lanes never collapse onto each
  // other. One multiply per lane per word instead of per byte.
  fp_.hi = (fp_.hi ^ value) * 0x100000001b3ULL;
  fp_.lo = std::rotl((fp_.lo ^ value) * 0x00000100000001b3ULL, 17);
}

void FingerprintBuilder::mix(std::string_view text) {
  // Length prefix keeps ("ab","c") distinct from ("a","bc") and makes the
  // zero-padded final word unambiguous.
  mix(static_cast<std::uint64_t>(text.size()));
  std::uint64_t word = 0;
  std::size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    std::memcpy(&word, text.data() + i, 8);
    mix(word);
  }
  if (i < text.size()) {
    word = 0;
    std::memcpy(&word, text.data() + i, text.size() - i);
    mix(word);
  }
}

void FingerprintBuilder::mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }

void FingerprintBuilder::mix(bool value) { mix(static_cast<std::uint64_t>(value ? 1 : 0)); }

void FingerprintBuilder::mix(const Fingerprint& other) {
  mix(other.hi);
  mix(other.lo);
}

std::string to_hex(const Fingerprint& fp) {
  char buffer[36];
  std::snprintf(buffer, sizeof buffer, "%016llx:%016llx",
                static_cast<unsigned long long>(fp.hi), static_cast<unsigned long long>(fp.lo));
  return buffer;
}

Fingerprint fingerprint_from_hex(std::string_view text) {
  const auto parse_lane = [&](std::string_view lane) -> std::uint64_t {
    if (lane.size() != 16) throw ParseError("malformed fingerprint '" + std::string(text) + "'");
    std::uint64_t value = 0;
    for (const char c : lane) {
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
      else throw ParseError("malformed fingerprint '" + std::string(text) + "'");
    }
    return value;
  };
  if (text.size() != 33 || text[16] != ':') {
    throw ParseError("malformed fingerprint '" + std::string(text) + "'");
  }
  return {parse_lane(text.substr(0, 16)), parse_lane(text.substr(17))};
}

// ---------------------------------------------------------------------------
// Model fingerprinting
// ---------------------------------------------------------------------------

namespace {

/// Allocation-free attribute read: the fingerprint pass touches every string
/// attribute in the subtree, so the copying get_string would dominate it.
std::string_view attr_text(const model::ModelObject& obj, std::string_view name) {
  const auto* text = std::get_if<std::string>(&obj.get(name));
  return text == nullptr ? std::string_view() : std::string_view(*text);
}

/// Folds the FMEA-relevant surface of one component *as a subcomponent of a
/// unit under analysis*: everything produce_sub_record and build_graph read
/// about it, and nothing the analysis writes back.
void mix_sub_surface(const SsamModel& ssam, ObjectId sub, FingerprintBuilder& builder) {
  const auto& obj = ssam.obj(sub);
  builder.mix(static_cast<std::uint64_t>(sub));
  builder.mix(attr_text(obj, "name"));
  builder.mix(attr_text(obj, "blockType"));
  builder.mix(obj.get_real("fit"));
  builder.mix(!obj.refs("subcomponents").empty());
  for (const ObjectId node : obj.refs("ioNodes")) {
    builder.mix(static_cast<std::uint64_t>(node));
    builder.mix(attr_text(ssam.obj(node), "direction"));
  }
  for (const ObjectId fm : obj.refs("failureModes")) {
    const auto& fm_obj = ssam.obj(fm);
    builder.mix(static_cast<std::uint64_t>(fm));
    builder.mix(attr_text(fm_obj, "name"));
    builder.mix(fm_obj.get_real("distribution"));
    builder.mix(attr_text(fm_obj, "nature"));
    for (const ObjectId target : fm_obj.refs("affectedComponents")) {
      builder.mix(static_cast<std::uint64_t>(target));
    }
    for (const ObjectId hazard : fm_obj.refs("hazards")) {
      builder.mix(static_cast<std::uint64_t>(hazard));
    }
  }
  for (const ObjectId sm : obj.refs("safetyMechanisms")) {
    const auto& sm_obj = ssam.obj(sm);
    builder.mix(static_cast<std::uint64_t>(sm));
    builder.mix(attr_text(sm_obj, "name"));
    builder.mix(sm_obj.get_real("coverage"));
    builder.mix(sm_obj.get_real("costHours"));
    for (const ObjectId covered : sm_obj.refs("covers")) {
      builder.mix(static_cast<std::uint64_t>(covered));
    }
  }
}

Fingerprint unit_fingerprint(const SsamModel& ssam, ObjectId component, const std::string& path,
                             const Fingerprint& options_hash) {
  FingerprintBuilder builder;
  builder.mix(options_hash);
  const auto& obj = ssam.obj(component);
  builder.mix(static_cast<std::uint64_t>(component));
  builder.mix(path);
  builder.mix(attr_text(obj, "name"));
  // Boundary nodes and internal wiring: the flow graph of the unit.
  for (const ObjectId node : obj.refs("ioNodes")) {
    builder.mix(static_cast<std::uint64_t>(node));
    builder.mix(attr_text(ssam.obj(node), "direction"));
  }
  for (const ObjectId rel : obj.refs("relationships")) {
    builder.mix(static_cast<std::uint64_t>(ssam.obj(rel).ref("source")));
    builder.mix(static_cast<std::uint64_t>(ssam.obj(rel).ref("target")));
  }
  // Traceability that the DECISIVE iteration loop treats as part of the
  // component's definition (requirement citations change what a re-analysis
  // must revisit even when the wiring is untouched).
  for (const ObjectId cited : obj.refs("cites")) {
    builder.mix(static_cast<std::uint64_t>(cited));
  }
  // The failure surface of every direct subcomponent.
  for (const ObjectId sub : obj.refs("subcomponents")) {
    mix_sub_surface(ssam, sub, builder);
  }
  return builder.finish();
}

Fingerprint options_fingerprint(const core::GraphFmeaOptions& options) {
  FingerprintBuilder builder;
  builder.mix(std::string_view("graph-fmea-options"));
  builder.mix(options.apply_modelled_mechanisms);
  return builder.finish();
}

}  // namespace

ModelFingerprints fingerprint_model(const SsamModel& ssam, ObjectId root,
                                    const core::GraphFmeaOptions& options) {
  const Fingerprint options_hash = options_fingerprint(options);

  ModelFingerprints out;
  // IONode -> owning component, filled pre-order so that by the time a
  // component's relationships are folded (post-order), every endpoint owner
  // — the component itself or a descendant — is already known.
  std::map<ObjectId, ObjectId> node_owner;
  // Iterative post-order over the containment tree: children's subtree
  // hashes are ready when the parent's is folded.
  struct Visit {
    ObjectId component;
    std::string path;
    bool expanded = false;
  };
  std::vector<Visit> stack{{root, ssam.obj(root).get_string("name"), false}};
  while (!stack.empty()) {
    if (!stack.back().expanded) {
      stack.back().expanded = true;
      // Copy before pushing children: push_back may relocate the stack.
      const ObjectId component = stack.back().component;
      const std::string path = stack.back().path;
      out.path[component] = path;
      for (const ObjectId node : ssam.obj(component).refs("ioNodes")) {
        node_owner[node] = component;
      }
      for (const ObjectId sub : ssam.obj(component).refs("subcomponents")) {
        out.parent[sub] = component;
        stack.push_back({sub, path + "/" + ssam.obj(sub).get_string("name"), false});
      }
      continue;
    }
    const Visit current = stack.back();
    stack.pop_back();
    const Fingerprint unit =
        unit_fingerprint(ssam, current.component, current.path, options_hash);
    out.unit[current.component] = unit;
    FingerprintBuilder subtree;
    subtree.mix(unit);
    for (const ObjectId sub : ssam.obj(current.component).refs("subcomponents")) {
      subtree.mix(out.subtree.at(sub));
    }
    out.subtree[current.component] = subtree.finish();
    // Signal adjacency from this component's wiring (impact_of_change's
    // connected-components rule, resolved against the subtree).
    for (const ObjectId rel : ssam.obj(current.component).refs("relationships")) {
      const auto source = node_owner.find(ssam.obj(rel).ref("source"));
      const auto target = node_owner.find(ssam.obj(rel).ref("target"));
      if (source == node_owner.end() || target == node_owner.end()) continue;
      if (source->second == target->second) continue;
      auto link = [&](ObjectId from, ObjectId to) {
        auto& list = out.neighbours[from];
        if (std::find(list.begin(), list.end(), to) == list.end()) list.push_back(to);
      };
      link(source->second, target->second);
      link(target->second, source->second);
    }
  }
  return out;
}

std::vector<ObjectId> fingerprint_diff(const ModelFingerprints& before,
                                       const ModelFingerprints& after) {
  std::vector<ObjectId> changed;
  for (const auto& [component, fp] : after.unit) {
    const auto it = before.unit.find(component);
    if (it == before.unit.end() || it->second != fp) changed.push_back(component);
  }
  for (const auto& [component, fp] : before.unit) {
    if (!after.unit.contains(component)) changed.push_back(component);
  }
  return changed;
}

}  // namespace decisive::session
