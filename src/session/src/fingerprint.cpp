#include "decisive/session/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>

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

/// Subtree hash of `component` from its unit hash and its children's subtree
/// hashes; nullopt when a child is missing from the snapshot.
std::optional<Fingerprint> fold_subtree(const SsamModel& ssam, const ModelFingerprints& fps,
                                        ObjectId component) {
  FingerprintBuilder subtree;
  subtree.mix(fps.unit.at(component));
  for (const ObjectId sub : ssam.obj(component).refs("subcomponents")) {
    const auto child = fps.subtree.find(sub);
    if (child == fps.subtree.end()) return std::nullopt;
    subtree.mix(child->second);
  }
  return subtree.finish();
}

/// Adds or retracts one adjacency entry per linked pair.
void link_wiring(ModelFingerprints& fps,
                 const std::vector<std::pair<ObjectId, ObjectId>>& pairs, bool add) {
  const auto apply = [&](ObjectId from, ObjectId to) {
    auto& list = fps.neighbours[from];
    if (add) {
      list.push_back(to);
    } else if (const auto it = std::find(list.begin(), list.end(), to); it != list.end()) {
      list.erase(it);
    }
    if (list.empty()) fps.neighbours.erase(from);
  };
  for (const auto& [a, b] : pairs) {
    apply(a, b);
    apply(b, a);
  }
}

/// Re-links the signal adjacency `component`'s relationships contribute
/// (impact_of_change's connected-components rule, resolved against the
/// snapshot's IONode owners).
void relink_wiring(ModelFingerprints& fps, const SsamModel& ssam, ObjectId component) {
  std::vector<std::pair<ObjectId, ObjectId>> pairs;
  for (const ObjectId rel : ssam.obj(component).refs("relationships")) {
    const auto source = fps.node_owner.find(ssam.obj(rel).ref("source"));
    const auto target = fps.node_owner.find(ssam.obj(rel).ref("target"));
    if (source == fps.node_owner.end() || target == fps.node_owner.end()) continue;
    if (source->second == target->second) continue;
    pairs.emplace_back(source->second, target->second);
  }
  auto old = fps.wiring.find(component);
  if (old != fps.wiring.end()) {
    if (old->second == pairs) return;
    link_wiring(fps, old->second, false);
    fps.wiring.erase(old);
  }
  if (pairs.empty()) return;
  link_wiring(fps, pairs, true);
  fps.wiring.emplace(component, std::move(pairs));
}

/// Drops every trace of a component that left the subtree.
void forget(ModelFingerprints& fps, ObjectId component) {
  if (const auto old = fps.wiring.find(component); old != fps.wiring.end()) {
    link_wiring(fps, old->second, false);
    fps.wiring.erase(old);
  }
  fps.unit.erase(component);
  fps.subtree.erase(component);
  fps.parent.erase(component);
  fps.children.erase(component);
  fps.path.erase(component);
}

/// (Re-)fingerprints the containment subtree of `top` (whose path is given)
/// in one iterative post-order walk: paths, parents, children and IONode
/// owners on the way down, unit and subtree hashes on the way up. Appends
/// each visited component to `visited`, and (when `changed` is given) adds
/// those whose unit hash moved. Wiring is left to the caller, which links it
/// once every IONode owner is known.
void walk_subtree(const SsamModel& ssam, ObjectId top, std::string top_path,
                  const Fingerprint& options_hash, ModelFingerprints& fps,
                  std::vector<ObjectId>& visited, std::set<ObjectId>* changed) {
  struct Visit {
    ObjectId component;
    bool expanded = false;
  };
  fps.path[top] = std::move(top_path);
  std::vector<Visit> stack{{top, false}};
  while (!stack.empty()) {
    if (!stack.back().expanded) {
      stack.back().expanded = true;
      const ObjectId component = stack.back().component;
      const auto& obj = ssam.obj(component);
      for (const ObjectId node : obj.refs("ioNodes")) fps.node_owner[node] = component;
      const auto& subs = obj.refs("subcomponents");
      if (subs.empty()) {
        fps.children.erase(component);
        continue;
      }
      fps.children[component] = subs;
      const std::string& path = fps.path[component];
      for (const ObjectId sub : subs) {
        fps.parent[sub] = component;
        fps.path[sub] = path + "/" + std::string(attr_text(ssam.obj(sub), "name"));
        stack.push_back({sub, false});
      }
      continue;
    }
    const ObjectId component = stack.back().component;
    stack.pop_back();
    const Fingerprint unit =
        unit_fingerprint(ssam, component, fps.path.at(component), options_hash);
    const auto [it, inserted] = fps.unit.try_emplace(component, unit);
    if (changed != nullptr && (inserted || it->second != unit)) changed->insert(component);
    it->second = unit;
    fps.subtree[component] = *fold_subtree(ssam, fps, component);
    visited.push_back(component);
  }
}

/// Depth of a snapshot component below the root.
size_t depth_of(const ModelFingerprints& fps, ObjectId component) {
  size_t depth = 0;
  for (auto it = fps.parent.find(component); it != fps.parent.end();
       it = fps.parent.find(it->second)) {
    ++depth;
  }
  return depth;
}

/// Members of the snapshot subtree of `top` (its old structure).
void old_members(const ModelFingerprints& fps, ObjectId top, std::set<ObjectId>& out) {
  std::vector<ObjectId> stack{top};
  while (!stack.empty()) {
    const ObjectId component = stack.back();
    stack.pop_back();
    out.insert(component);
    const auto children = fps.children.find(component);
    if (children == fps.children.end()) continue;
    stack.insert(stack.end(), children->second.begin(), children->second.end());
  }
}

}  // namespace

ModelFingerprints fingerprint_model(const SsamModel& ssam, ObjectId root,
                                    const core::GraphFmeaOptions& options) {
  ModelFingerprints out;
  std::vector<ObjectId> visited;
  walk_subtree(ssam, root, ssam.obj(root).get_string("name"), options_fingerprint(options), out,
               visited, nullptr);
  // Every IONode owner in the subtree is known now, so each relationship
  // resolves against the whole subtree.
  for (const ObjectId component : visited) relink_wiring(out, ssam, component);
  return out;
}

std::vector<ObjectId> refresh_fingerprints(ModelFingerprints& fps, const SsamModel& ssam,
                                           const core::GraphFmeaOptions& options,
                                           const std::set<ObjectId>& edited) {
  const Fingerprint options_hash = options_fingerprint(options);
  std::set<ObjectId> changed;

  // Shallowest first, so an edited ancestor's walk covers edited descendants.
  std::vector<std::pair<size_t, ObjectId>> tops;
  for (const ObjectId component : edited) {
    if (fps.unit.contains(component)) tops.emplace_back(depth_of(fps, component), component);
  }
  std::sort(tops.begin(), tops.end());

  std::set<ObjectId> walked;
  std::vector<ObjectId> rewired;
  // Old members of re-walked subtrees; those no walk reaches have left.
  std::set<ObjectId> left;
  const auto rewalk = [&](ObjectId top) {
    old_members(fps, top, left);
    const auto parent = fps.parent.find(top);
    std::string path(attr_text(ssam.obj(top), "name"));
    if (parent != fps.parent.end()) path = fps.path.at(parent->second) + "/" + path;
    std::vector<ObjectId> visited;
    walk_subtree(ssam, top, std::move(path), options_hash, fps, visited, &changed);
    walked.insert(visited.begin(), visited.end());
    rewired.insert(rewired.end(), visited.begin(), visited.end());
  };
  for (const auto& [depth, component] : tops) {
    if (!walked.contains(component)) rewalk(component);
  }

  // The unit of each edited component's parent reads its surface; then every
  // ancestor's subtree hash is refolded, deepest first.
  std::vector<std::pair<size_t, ObjectId>> refold;
  for (const auto& [depth, component] : tops) {
    const auto parent = fps.parent.find(component);
    if (parent == fps.parent.end()) continue;
    const ObjectId unit = parent->second;
    if (!walked.contains(unit)) {
      const Fingerprint fp = unit_fingerprint(ssam, unit, fps.path.at(unit), options_hash);
      Fingerprint& current = fps.unit.at(unit);
      if (current != fp) changed.insert(unit);
      current = fp;
      walked.insert(unit);
      rewired.push_back(unit);
    }
    size_t up_depth = depth - 1;
    for (ObjectId up = unit;; up = fps.parent.at(up), --up_depth) {
      refold.emplace_back(up_depth, up);
      if (!fps.parent.contains(up)) break;
    }
  }
  std::sort(refold.begin(), refold.end(), std::greater<>());
  refold.erase(std::unique(refold.begin(), refold.end()), refold.end());
  for (const auto& [depth, component] : refold) {
    // A child the snapshot does not know means an unannounced structural
    // edit: re-walk the whole subtree rather than fold a stale hash.
    if (const auto folded = fold_subtree(ssam, fps, component)) {
      fps.subtree[component] = *folded;
    } else {
      rewalk(component);
    }
  }

  for (const ObjectId gone : left) {
    if (walked.contains(gone)) continue;
    forget(fps, gone);
    changed.insert(gone);
  }
  for (const ObjectId component : rewired) {
    if (fps.unit.contains(component)) relink_wiring(fps, ssam, component);
  }
  return {changed.begin(), changed.end()};
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
