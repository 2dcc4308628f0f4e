// Tests for the incremental analysis engine (src/session): content
// fingerprints, the fingerprint-keyed result cache (including corruption
// tolerance of the on-disk format), the AnalysisSession edit→reanalyze loop
// — property-tested byte-identical against cold runs under random edit
// sequences — and the `same session` line-protocol service.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/session/cache.hpp"
#include "decisive/session/fingerprint.hpp"
#include "decisive/session/incremental.hpp"
#include "decisive/session/service.hpp"

using namespace decisive;
using namespace decisive::session;
using ssam::ObjectId;
using ssam::SsamModel;

namespace {

std::string csv_of(const core::FmedaResult& result) { return write_csv(result.to_csv()); }

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(FingerprintTest, HexRoundTrip) {
  const Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(to_hex(fp), "0123456789abcdef:fedcba9876543210");
  EXPECT_EQ(fingerprint_from_hex(to_hex(fp)), fp);
  EXPECT_THROW((void)fingerprint_from_hex("no"), ParseError);
  EXPECT_THROW((void)fingerprint_from_hex("0123456789abcdef-fedcba9876543210"), ParseError);
  EXPECT_THROW((void)fingerprint_from_hex("0123456789abcdeX:fedcba9876543210"), ParseError);
}

TEST(FingerprintTest, DeterministicAcrossIdenticalRebuilds) {
  const auto a = core::make_scaled_architecture(3, 2);
  const auto b = core::make_scaled_architecture(3, 2);
  const core::GraphFmeaOptions options;
  const auto fa = fingerprint_model(*a.model, a.system, options);
  const auto fb = fingerprint_model(*b.model, b.system, options);
  ASSERT_FALSE(fa.unit.empty());
  EXPECT_EQ(fa.unit, fb.unit);
  EXPECT_EQ(fa.subtree, fb.subtree);
  EXPECT_EQ(fa.path, fb.path);
}

TEST(FingerprintTest, LeafEditDirtiesExactlyItsAnalysisUnit) {
  const auto sys = core::make_scaled_architecture(3, 2);
  SsamModel& m = *sys.model;
  const core::GraphFmeaOptions options;
  const auto before = fingerprint_model(m, sys.system, options);

  // A leaf's FIT is read by the analysis *of its parent unit*, so only that
  // unit's fingerprint may move.
  const ObjectId unit1 = m.find_by_name(ssam::cls::Component, "Unit1");
  const ObjectId leaf = m.find_by_name(ssam::cls::Component, "Unit1.Leaf0");
  ASSERT_NE(leaf, model::kNullObject);
  m.obj(leaf).set_real("fit", 999.0);
  const auto after = fingerprint_model(m, sys.system, options);

  const auto changed = fingerprint_diff(before, after);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed.front(), unit1);
  // The subtree hash still propagates to the root, so a root-level
  // comparison notices the edit.
  EXPECT_NE(before.subtree.at(sys.system), after.subtree.at(sys.system));
  EXPECT_EQ(before.unit.at(sys.system), after.unit.at(sys.system));
}

TEST(FingerprintTest, OptionsAreFoldedIntoEveryUnit) {
  const auto sys = core::make_scaled_architecture(2, 2);
  core::GraphFmeaOptions a;
  core::GraphFmeaOptions b;
  b.apply_modelled_mechanisms = !a.apply_modelled_mechanisms;
  const auto fa = fingerprint_model(*sys.model, sys.system, a);
  const auto fb = fingerprint_model(*sys.model, sys.system, b);
  // Different analysis settings must never share cache entries: every unit
  // hash moves.
  EXPECT_EQ(fingerprint_diff(fa, fb).size(), fa.unit.size());
}

// ---------------------------------------------------------------------------
// Incremental session vs cold oracle
// ---------------------------------------------------------------------------

TEST(IncrementalTest, FirstRunIsAllMissesAndMatchesCold) {
  auto sys = core::make_scaled_architecture(4, 3);
  AnalysisSession session(*sys.model, sys.system);
  const std::string incremental = csv_of(session.reanalyze());
  EXPECT_EQ(incremental, csv_of(session.cold_analyze()));
  EXPECT_EQ(session.last_stats().cache_hits, 0u);
  EXPECT_EQ(session.last_stats().cache_misses, session.last_stats().units);
}

TEST(IncrementalTest, UnchangedModelShortCircuits) {
  auto sys = core::make_scaled_architecture(4, 3);
  AnalysisSession session(*sys.model, sys.system);
  const std::string first = csv_of(session.reanalyze());
  const std::string second = csv_of(session.reanalyze());
  EXPECT_EQ(first, second);
  EXPECT_TRUE(session.last_stats().short_circuited);
  EXPECT_EQ(session.last_stats().cache_hits, session.last_stats().units);
}

TEST(IncrementalTest, SingleEditOnScalabilityModelHitsOverNinetyPercent) {
  // The ISSUE acceptance bar: one component edit on the Table-VI-scale
  // subject replays >90% of the units from the cache, byte-identically.
  auto sys = core::make_scaled_architecture(40, 16);
  AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();

  const ObjectId leaf = sys.model->find_by_name(ssam::cls::Component, "Unit20.Leaf3");
  ASSERT_NE(leaf, model::kNullObject);
  sys.model->obj(leaf).set_real("fit", 123.0);
  session.note_edit(leaf);

  const std::string incremental = csv_of(session.reanalyze());
  const auto& stats = session.last_stats();
  EXPECT_FALSE(stats.short_circuited);
  EXPECT_GT(stats.hit_rate(), 0.9) << "hits " << stats.cache_hits << "/" << stats.units;
  EXPECT_EQ(incremental, csv_of(session.cold_analyze()));
}

TEST(IncrementalTest, RandomEditSequencesStayByteIdenticalToCold) {
  // Seeded property test: whatever sequence of FIT edits, new failure
  // modes, mechanism deployments, rewires and renames is applied, the
  // incremental FMEDA equals a cold run on the same state, byte for byte.
  // Announced edits go through the edit log alone, and the maintained
  // fingerprint snapshot must then equal a fresh full pass (the edit-log
  // dirty set covers the fingerprint diff). Silent edits go through
  // reanalyze_verified, whose full pass must catch them.
  std::mt19937 rng(20260805u);
  auto sys = core::make_scaled_architecture(5, 4);
  SsamModel& m = *sys.model;
  AnalysisSession session(m, sys.system);
  session.reanalyze();

  std::vector<ObjectId> components;
  for (const ObjectId c : m.all_components_under(sys.system)) components.push_back(c);
  ASSERT_FALSE(components.empty());

  size_t total_hits = 0;
  size_t silent_steps = 0;
  for (int step = 0; step < 30; ++step) {
    const ObjectId target = components[rng() % components.size()];
    switch (rng() % 5) {
      case 0:
        m.obj(target).set_real("fit", static_cast<double>(1 + rng() % 500));
        break;
      case 1:
        m.add_failure_mode(target, "FM-" + std::to_string(step),
                           0.1 + static_cast<double>(rng() % 9) / 10.0, "lossOfFunction");
        break;
      case 2:
        m.add_safety_mechanism(target, "SM-" + std::to_string(step),
                               0.5 + static_cast<double>(rng() % 5) / 10.0, 1.0,
                               model::kNullObject);
        break;
      case 3: {
        // Rewire inside a random composite: duplicate one of its existing
        // relationships' endpoints into a fresh connection.
        const auto& rels = m.obj(target).refs("relationships");
        if (rels.empty()) continue;
        const auto& rel = m.obj(rels[rng() % rels.size()]);
        m.connect(target, rel.ref("source"), rel.ref("target"));
        break;
      }
      default:
        m.obj(target).set_string("name", "R" + std::to_string(step));
        break;
    }
    const bool announced = rng() % 2 == 0;
    std::string incremental;
    if (announced) {
      session.note_edit(target);
      incremental = csv_of(session.reanalyze());
      EXPECT_EQ(session.last_stats().unannounced_components, 0u);
      const auto fresh = fingerprint_model(m, sys.system, session.options());
      const ModelFingerprints& kept = session.fingerprints();
      ASSERT_EQ(kept.unit, fresh.unit) << "unit fingerprints drifted at step " << step;
      ASSERT_EQ(kept.subtree, fresh.subtree) << "subtree fingerprints drifted at step " << step;
      ASSERT_EQ(kept.parent, fresh.parent) << "step " << step;
      ASSERT_EQ(kept.path, fresh.path) << "step " << step;
    } else {
      ++silent_steps;
      incremental = csv_of(session.reanalyze_verified());
      EXPECT_TRUE(session.last_stats().full_fingerprint_pass);
    }
    ASSERT_EQ(incremental, csv_of(session.cold_analyze())) << "diverged at step " << step;
    total_hits += session.last_stats().cache_hits;
  }
  // The loop must actually exercise the cache, not just bypass it, and both
  // kinds of step must occur.
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(silent_steps, 0u);
  EXPECT_LT(silent_steps, 30u);
}

TEST(IncrementalTest, VerifyCatchesASilentEdit) {
  auto sys = core::make_scaled_architecture(4, 3);
  SsamModel& m = *sys.model;
  AnalysisSession session(m, sys.system);
  session.reanalyze();

  const ObjectId leaf = m.find_by_name(ssam::cls::Component, "Unit2.Leaf1");
  const ObjectId unit = m.find_by_name(ssam::cls::Component, "Unit2");
  m.obj(leaf).set_real("fit", 777.0);  // not announced
  // The edit log is empty, so a plain reanalyze replays the previous result.
  session.reanalyze();
  EXPECT_TRUE(session.last_stats().short_circuited);

  const std::string verified = csv_of(session.reanalyze_verified());
  const auto& stats = session.last_stats();
  EXPECT_FALSE(stats.short_circuited);
  EXPECT_TRUE(stats.full_fingerprint_pass);
  EXPECT_EQ(stats.unannounced_components, 1u);
  EXPECT_EQ(stats.changed_components, 1u);
  EXPECT_EQ(verified, csv_of(session.cold_analyze()));
  EXPECT_EQ(session.fingerprints().unit.at(unit),
            fingerprint_model(m, sys.system, session.options()).unit.at(unit));
}

TEST(IncrementalTest, AnnouncedEditsRunNoFullFingerprintPass) {
  // The edit log is the dirty seed: after the first run, 100 announced edits
  // and the no-op turns between them never re-hash the whole model.
  auto sys = core::make_scaled_architecture(6, 5);
  SsamModel& m = *sys.model;
  AnalysisSession session(m, sys.system);
  auto& passes = obs::Registry::global().counter("decisive_session_full_fingerprint_passes_total");
  auto& emitted = obs::Registry::global().counter("decisive_graph_fmea_emitted_rows_total");
  const auto passes_before = passes.value();
  session.reanalyze();
  EXPECT_EQ(passes.value(), passes_before + 1);
  EXPECT_TRUE(session.last_stats().full_fingerprint_pass);

  for (int step = 0; step < 100; ++step) {
    const ObjectId leaf = m.find_by_name(
        ssam::cls::Component,
        "Unit" + std::to_string(step % 6) + ".Leaf" + std::to_string(step % 5));
    ASSERT_NE(leaf, model::kNullObject);
    if (step % 10 == 3) {
      m.add_failure_mode(leaf, "FM-" + std::to_string(step), 0.2, "lossOfFunction");
    } else {
      m.obj(leaf).set_real("fit", 10.0 + step);
    }
    session.note_edit(leaf);
    const auto emitted_before_edit = emitted.value();
    session.reanalyze();
    EXPECT_FALSE(session.last_stats().full_fingerprint_pass);
    // Only the dirty units' rows are emitted again.
    EXPECT_LT(emitted.value() - emitted_before_edit, session.last_result().rows.size());

    // A no-op turn emits nothing and re-hashes nothing.
    const auto emitted_before = emitted.value();
    session.reanalyze();
    EXPECT_TRUE(session.last_stats().short_circuited);
    EXPECT_EQ(emitted.value(), emitted_before);
  }
  EXPECT_EQ(passes.value(), passes_before + 1);
  EXPECT_EQ(csv_of(session.last_result()), csv_of(session.cold_analyze()));
}

TEST(IncrementalTest, ReplacingTheCacheRunsOneFullPass) {
  auto sys = core::make_scaled_architecture(4, 3);
  AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  session.cache().clear();
  session.reanalyze();
  EXPECT_TRUE(session.last_stats().full_fingerprint_pass);
  EXPECT_TRUE(session.last_stats().short_circuited);
  session.reanalyze();
  EXPECT_FALSE(session.last_stats().full_fingerprint_pass);
}

TEST(IncrementalTest, AFailedTurnKeepsItsEditsForTheNextRun) {
  auto sys = core::make_scaled_architecture(4, 3);
  SsamModel& m = *sys.model;
  AnalysisSession session(m, sys.system);
  const std::string before = csv_of(session.reanalyze());

  const ObjectId unit = m.find_by_name(ssam::cls::Component, "Unit1");
  const ObjectId node = m.obj(unit).refs("ioNodes").front();
  const std::string direction = m.obj(node).get_string("direction");
  m.obj(node).set_string("direction", "sideways");
  session.note_edit(unit);
  EXPECT_THROW(session.reanalyze(), AnalysisError);
  // The failed turn changed nothing the caller can see.
  EXPECT_EQ(csv_of(session.last_result()), before);

  // Repairing the model and re-running re-analyses the same dirty set.
  m.obj(node).set_string("direction", direction);
  const ObjectId leaf = m.find_by_name(ssam::cls::Component, "Unit1.Leaf1");
  m.obj(leaf).set_real("fit", 55.0);
  session.note_edit(leaf);
  const std::string after = csv_of(session.reanalyze());
  EXPECT_GE(session.last_stats().changed_components, 1u);
  EXPECT_EQ(after, csv_of(session.cold_analyze()));
}

TEST(IncrementalTest, AddingALeafSplicesItsRows) {
  // A new failure mode changes the row count of one unit: the rows after it
  // shift, and the result still equals a cold run.
  auto sys = core::make_scaled_architecture(5, 4);
  SsamModel& m = *sys.model;
  AnalysisSession session(m, sys.system);
  session.reanalyze();
  const size_t rows_before = session.last_result().rows.size();
  const ObjectId leaf = m.find_by_name(ssam::cls::Component, "Unit1.Leaf2");
  m.add_failure_mode(leaf, "Stuck", 0.3, "lossOfFunction");
  session.note_edit(leaf);
  const std::string incremental = csv_of(session.reanalyze());
  EXPECT_EQ(session.last_result().rows.size(), rows_before + 1);
  EXPECT_EQ(incremental, csv_of(session.cold_analyze()));
}

TEST(IncrementalTest, StructuralEditsAmongValueEditsStayByteIdenticalToCold) {
  // Value edits (FIT, a new failure mode, a deployed mechanism) reuse the
  // previous run's unit list; structural edits (a new composite
  // subcomponent, a removed IONode, a removed subcomponent) must be seen
  // and walked. Every turn equals a cold run, byte for byte.
  std::mt19937 rng(20261020u);
  auto sys = core::make_scaled_architecture(4, 3);
  SsamModel& m = *sys.model;
  core::GraphFmeaOptions options;
  AnalysisSession session(m, sys.system, options);
  session.reanalyze();

  std::vector<ObjectId> units;  // the composites directly under the system
  for (const ObjectId c : m.components_of(sys.system)) units.push_back(c);
  std::vector<std::pair<ObjectId, ObjectId>> added;  // (unit, new composite)
  size_t reused = 0;
  size_t walked = 0;
  for (int step = 0; step < 60; ++step) {
    const ObjectId unit = units[rng() % units.size()];
    const ObjectId leaf = m.components_of(unit)[rng() % m.components_of(unit).size()];
    const std::string tag = std::to_string(step);
    ObjectId edited = leaf;
    bool structural = false;
    switch (rng() % 6) {
      case 0:
        m.obj(leaf).set_real("fit", 1.0 + static_cast<double>(rng() % 50));
        break;
      case 1:
        m.add_failure_mode(leaf, "FM-" + tag, 0.2, "lossOfFunction");
        break;
      case 2:
        m.add_safety_mechanism(leaf, "SM-" + tag, 0.9, 1.0, model::kNullObject);
        break;
      case 3: {  // a new composite subcomponent: a unit of its own
        const ObjectId composite = m.create_component(unit, "New" + tag);
        const ObjectId in = m.add_io_node(composite, "in", "in");
        const ObjectId out = m.add_io_node(composite, "out", "out");
        m.add_io_node(composite, "aux", "inout");
        const ObjectId inner = m.create_component(composite, "Inner" + tag);
        const ObjectId inner_in = m.add_io_node(inner, "in", "in");
        const ObjectId inner_out = m.add_io_node(inner, "out", "out");
        m.add_failure_mode(inner, "Open", 0.5, "lossOfFunction");
        m.obj(inner).set_real("fit", 3.0);
        m.connect(composite, in, inner_in);
        m.connect(composite, inner_out, out);
        added.emplace_back(unit, composite);
        edited = unit;
        structural = true;
        break;
      }
      case 4: {  // a removed IONode: the spare one, or every one (no longer a unit)
        if (added.empty()) continue;
        const ObjectId composite = added[rng() % added.size()].second;
        const std::vector<ObjectId> nodes = m.obj(composite).refs("ioNodes");
        if (nodes.empty()) continue;
        if (nodes.size() == 3 && rng() % 2 == 0) {
          m.obj(composite).remove_ref("ioNodes", nodes.back());  // "aux"
        } else {
          for (const ObjectId node : nodes) m.obj(composite).remove_ref("ioNodes", node);
        }
        edited = composite;
        structural = true;
        break;
      }
      default: {  // a removed composite subcomponent
        if (added.empty()) continue;
        const size_t pick = rng() % added.size();
        const auto [owner, composite] = added[pick];
        m.obj(owner).remove_ref("subcomponents", composite);
        added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
        edited = owner;
        structural = true;
        break;
      }
    }
    session.note_edit(edited);
    const std::string incremental = csv_of(session.reanalyze());
    ASSERT_EQ(incremental, csv_of(session.cold_analyze())) << "diverged at step " << step;
    if (!structural) {
      reused += 1;
      EXPECT_TRUE(session.last_stats().units_reused) << "value edit walked at step " << step;
    } else {
      walked += session.last_stats().units_reused ? 0 : 1;
    }
  }
  EXPECT_GT(reused, 10u);
  EXPECT_GT(walked, 5u);
}

// ---------------------------------------------------------------------------
// Cache persistence + poisoning
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, PersistedCacheWarmsAFreshSession) {
  const std::string path = temp_path("decisive_session_cache_warm.txt");
  {
    auto sys = core::make_scaled_architecture(4, 3);
    AnalysisSession session(*sys.model, sys.system);
    session.reanalyze();
    EXPECT_GT(session.cache().size(), 0u);
    session.cache().save_file(path);
  }

  // An identically rebuilt model (deterministic object ids) in a new
  // process-equivalent: every unit replays from the loaded cache.
  auto sys = core::make_scaled_architecture(4, 3);
  AnalysisSession session(*sys.model, sys.system);
  const auto report = session.cache().load_file(path);
  ASSERT_TRUE(report.loaded) << report.note;
  EXPECT_GT(report.entries, 0u);

  const std::string incremental = csv_of(session.reanalyze());
  EXPECT_EQ(session.last_stats().cache_misses, 0u);
  EXPECT_EQ(session.last_stats().cache_hits, session.last_stats().units);
  EXPECT_EQ(incremental, csv_of(session.cold_analyze()));
  std::remove(path.c_str());
}

TEST(ResultCacheTest, TruncatedFileIsRejectedAndRebuilt) {
  const std::string path = temp_path("decisive_session_cache_trunc.txt");
  auto sys = core::make_scaled_architecture(3, 2);
  AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  session.cache().save_file(path);

  const std::string content = read_file(path);
  ASSERT_GT(content.size(), 40u);
  write_file(path, content.substr(0, content.size() - 40));

  ResultCache cache;
  const auto report = cache.load_file(path);
  EXPECT_FALSE(report.loaded);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(report.note.find("rebuilding"), std::string::npos) << report.note;
  std::remove(path.c_str());
}

TEST(ResultCacheTest, GarbledByteIsRejectedAndRebuilt) {
  const std::string path = temp_path("decisive_session_cache_flip.txt");
  auto sys = core::make_scaled_architecture(3, 2);
  AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  session.cache().save_file(path);

  std::string content = read_file(path);
  content[content.size() / 2] ^= 0x20;  // one bit flip mid-payload
  write_file(path, content);

  ResultCache cache;
  const auto report = cache.load_file(path);
  EXPECT_FALSE(report.loaded);
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCacheTest, ForeignContentAndMissingFileAreHandled) {
  const std::string path = temp_path("decisive_session_cache_foreign.txt");
  write_file(path, "hello, I am definitely not a result cache\n");
  ResultCache cache;
  EXPECT_FALSE(cache.load_file(path).loaded);
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());

  EXPECT_FALSE(cache.load_file(temp_path("decisive_no_such_cache.txt")).loaded);
}

TEST(ResultCacheTest, PoisonedCacheNeverCorruptsTheAnalysis) {
  // Even if a poisoned file somehow carried a valid checksum, the session
  // must still produce a correct FMEDA — corrupt *content* is discarded at
  // load, and a discarded cache only costs misses.
  const std::string path = temp_path("decisive_session_cache_poison.txt");
  auto sys = core::make_scaled_architecture(3, 2);
  AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  session.cache().save_file(path);

  std::string content = read_file(path);
  write_file(path, content.substr(0, content.size() / 2));  // hard truncation

  auto fresh_sys = core::make_scaled_architecture(3, 2);
  AnalysisSession fresh(*fresh_sys.model, fresh_sys.system);
  const auto report = fresh.cache().load_file(path);
  EXPECT_FALSE(report.loaded);
  EXPECT_EQ(csv_of(fresh.reanalyze()), csv_of(fresh.cold_analyze()));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Service protocol
// ---------------------------------------------------------------------------

TEST(ServiceTest, ScriptedEditLoopOverOneResidentModel) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  std::istringstream in(
      "# comment lines and blanks are ignored\n"
      "\n"
      "reanalyze\n"
      "set-fit Sensor 120\n"
      "reanalyze\n"
      "impact Sensor\n"
      "result\n"
      "metrics\n"
      "stats\n"
      "bogus-command\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);

  const std::string text = out.str();
  EXPECT_NE(text.find("same session ready"), std::string::npos);
  EXPECT_NE(text.find("fit(Sensor) = 120"), std::string::npos);
  EXPECT_NE(text.find("hit-rate"), std::string::npos);
  EXPECT_NE(text.find("Impact of changing 'Sensor'"), std::string::npos);
  // `result` replays the last SPFM / ASIL summary.
  EXPECT_NE(text.find("\nspfm "), std::string::npos);
  EXPECT_NE(text.find("\nasil "), std::string::npos);
  // `metrics` answers a Prometheus dump of the instrumentation registry,
  // cache hit/miss counters and request latency histogram included.
  EXPECT_NE(text.find("# TYPE decisive_session_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("decisive_session_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE decisive_session_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("decisive_session_request_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("error: unknown command 'bogus-command'"), std::string::npos);
  // Every non-error request ends in an ok status line.
  EXPECT_NE(text.find("\nok\n"), std::string::npos);
}

TEST(ServiceTest, NonNumericSharesAndCostsAreRejectedAndTheSessionStaysUsable) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  // Each bad edit answers `error:` and leaves the model untouched, so the
  // next reanalyze still succeeds with the unedited SPFM.
  std::istringstream in(
      "reanalyze\n"
      "result\n"
      "add-failure-mode Sensor Drift nan lossOfFunction\n"
      "deploy-sm Sensor Wd nan 1\n"
      "deploy-sm Sensor Wd 0.9 nan\n"
      "deploy-sm Sensor Wd 0.9 inf\n"
      "reanalyze\n"
      "result\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);

  const std::string text = out.str();
  EXPECT_NE(text.find("error: model error: failure-mode distribution of 'Drift' must be in "
                      "[0,1], got nan"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("error: model error: safety-mechanism coverage of 'Wd' must be in "
                      "[0,1], got nan"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("error: model error: safety-mechanism cost of 'Wd' must be a finite "
                      "number >= 0, got nan"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("safety-mechanism cost of 'Wd' must be a finite number >= 0, got inf"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("analysis error"), std::string::npos) << text;
  // Both `result` replies show the same SPFM.
  const size_t first = text.find("\nspfm ");
  ASSERT_NE(first, std::string::npos) << text;
  const size_t second = text.find("\nspfm ", first + 1);
  ASSERT_NE(second, std::string::npos) << text;
  EXPECT_EQ(text.substr(first, text.find('\n', first + 1) - first),
            text.substr(second, text.find('\n', second + 1) - second));
}

TEST(ServiceTest, UndefinedSpfmAnswersOneErrorLineAndTheSessionRecovers) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  // Two finite FITs whose sum overflows: reanalyze fails, and so must the
  // `result` that follows, as one `error:` line with no partial reply.
  std::istringstream in(
      "set-fit Sensor 1e308\n"
      "set-fit Driver 1e308\n"
      "reanalyze\n"
      "result\n"
      "set-fit Sensor 100\n"
      "set-fit Driver 100\n"
      "reanalyze\n"
      "result\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);

  const std::string text = out.str();
  const std::string undefined =
      "error: analysis error: SPFM undefined: a safety-related FIT sum is not finite\n";
  EXPECT_NE(text.find("fit(Driver) = 1e308\nok\n" + undefined + undefined + "fit(Sensor) = 100\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("spfm error"), std::string::npos) << text;
  // Back on finite FITs, reanalyze and result answer normally.
  const size_t restored = text.find("fit(Driver) = 100\nok\n");
  ASSERT_NE(restored, std::string::npos) << text;
  const std::string tail = text.substr(restored);
  EXPECT_NE(tail.find("rows 2 spfm 35.00% ASIL-A\n"), std::string::npos) << text;
  EXPECT_NE(tail.find("\nok\nspfm 35.00%\nasil ASIL-A\nrows 2 safety-related 2 warnings 0\nok\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(tail.find("error:"), std::string::npos) << text;
}

TEST(ServiceTest, FtaRequestIsFingerprintCached) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  auto& registry = obs::Registry::global();
  const auto hits0 = registry.counter("decisive_fta_request_cache_hits_total").value();
  const auto misses0 = registry.counter("decisive_fta_request_cache_misses_total").value();

  // Same request twice → one synthesis, one replay. An edit invalidates the
  // subtree fingerprint, so the third request recomputes; so does a changed
  // parameter set.
  std::istringstream in(
      "fta\n"
      "fta\n"
      "set-fit Sensor 120\n"
      "fta\n"
      "fta 5000\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);

  EXPECT_EQ(registry.counter("decisive_fta_request_cache_hits_total").value() - hits0, 1u);
  EXPECT_EQ(registry.counter("decisive_fta_request_cache_misses_total").value() - misses0,
            3u);
  const std::string text = out.str();
  EXPECT_NE(text.find("cut-sets "), std::string::npos);
  EXPECT_NE(text.find("importance "), std::string::npos);
  EXPECT_NE(text.find("mission 5000h"), std::string::npos);
}

TEST(ServiceTest, RequestsWithoutAModelFailSoftly) {
  std::istringstream in("reanalyze\nload nowhere.ssam Nothing\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, {}), 0);
  EXPECT_NE(out.str().find("error: no model loaded"), std::string::npos);
}

TEST(ServiceTest, FailedInitialLoadReturnsTwo) {
  ServiceOptions options;
  options.model_path = temp_path("decisive_no_such_model.ssam");
  options.component = "X";
  std::istringstream in("quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 2);
}

TEST(ServiceTest, CacheSurvivesAcrossServiceRuns) {
  const std::string model_path = temp_path("decisive_service_model.ssam");
  const std::string cache_path = temp_path("decisive_service_cache.txt");
  {
    auto sys = core::make_scaled_architecture(3, 2);
    model::save_xmi_file(model_path, sys.model->repo(), sys.model->meta());
  }

  std::ostringstream first_out;
  {
    ServiceOptions options;
    options.model_path = model_path;
    options.component = "System";
    std::istringstream in("reanalyze\nsave-cache " + cache_path + "\nquit\n");
    EXPECT_EQ(run_service(in, first_out, options), 0);
    EXPECT_NE(first_out.str().find("cache saved"), std::string::npos);
  }

  ServiceOptions options;
  options.model_path = model_path;
  options.component = "System";
  options.cache_path = cache_path;
  std::istringstream in("reanalyze\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("cache loaded"), std::string::npos);
  EXPECT_NE(text.find("misses 0"), std::string::npos) << text;
  std::remove(model_path.c_str());
  std::remove(cache_path.c_str());
}

TEST(ServiceTest, ParetoAnswersTheDeploymentFront) {
  const auto catalogue_path = temp_path("decisive-service-catalogue.csv");
  write_file(catalogue_path,
             "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n"
             "Sensor,No output,Redundant sensor,95%,4.0\n"
             "Sensor,No output,Heartbeat check,80%,1.0\n"
             "Driver,Open,Duplex driver,90%,2.0\n");

  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  // `pareto` works without an explicit reanalyze: the service runs one
  // itself when no FMEA result is resident yet.
  std::istringstream in("pareto " + catalogue_path + "\n" +
                        "pareto " + catalogue_path + " 0.5\n" +
                        "pareto\n"
                        "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("Cost(hrs),SPFM,ASIL,Choices,Deployment"), std::string::npos) << text;
  EXPECT_NE(text.find("Sensor/No output=Redundant sensor; Driver/Open=Duplex driver"),
            std::string::npos);
  EXPECT_NE(text.find("front: 4 deployment(s)"), std::string::npos);
  // Epsilon coarsening may only shrink the front; the zero-cost point stays.
  EXPECT_NE(text.find("\n0,"), std::string::npos);
  // Missing catalogue argument is a soft request error, not a crash.
  EXPECT_NE(text.find("usage: pareto"), std::string::npos);
  std::remove(catalogue_path.c_str());
}

TEST(ResultCacheTest, SaveIsWriteTempThenRenameNeverInPlace) {
  // The cache persists via atomic_write_file: the payload lands in a
  // sibling temp file first and replaces the target in one rename, so a
  // reader (or a crash — see the CLI-level SIGKILL test) can never observe a
  // half-written cache. After a successful save no temp sibling remains.
  const std::string dir = temp_path("decisive_cache_atomic_dir");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/cache.txt";
  write_file(path, "previous generation\n");

  auto sys = core::make_scaled_architecture(3, 2);
  AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  session.cache().save_file(path);

  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries++;
    EXPECT_EQ(entry.path().filename().string(), "cache.txt") << entry.path();
  }
  EXPECT_EQ(entries, 1u);

  // The replacement is complete (old bytes fully gone) and checksummed: the
  // last line seals everything above it.
  const std::string content = read_file(path);
  EXPECT_EQ(content.find("previous generation"), std::string::npos);
  const auto last_line = content.rfind("checksum ", content.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  ResultCache cache;
  EXPECT_TRUE(cache.load_file(path).loaded);
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, CampaignRequestLeavesTheResidentSessionUntouched) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  const std::string journal = temp_path("decisive_service_campaign.journal");
  std::remove(journal.c_str());
  const std::string mdl = DECISIVE_ASSETS_DIR "/power_supply.mdl";
  const std::string workbook = DECISIVE_ASSETS_DIR "/reliability_workbook";

  // Two journaled campaigns (the second replays every task from the first's
  // checkpoints) plus a plain one, interleaved with the resident incremental
  // session — which must keep answering reanalyze as if no campaign ran.
  std::istringstream in("reanalyze\n"
                        "campaign " + mdl + " " + workbook + " " + journal + "\n" +
                        "campaign " + mdl + " " + workbook + " " + journal + "\n" +
                        "campaign " + mdl + " " + workbook + "\n" +
                        "campaign too-few\n"
                        "reanalyze\nstats\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);
  const std::string text = out.str();

  const auto first = text.find("rows 9 spfm");
  const auto second = text.find("rows 9 spfm", first + 1);
  const auto third = text.find("rows 9 spfm", second + 1);
  EXPECT_NE(first, std::string::npos) << text;
  EXPECT_NE(second, std::string::npos) << text;
  EXPECT_NE(third, std::string::npos) << text;
  // Replayed and fresh campaigns answer identically (same summary lines).
  EXPECT_NE(text.find("campaign 9 converged"), std::string::npos) << text;
  EXPECT_NE(text.find("usage: campaign"), std::string::npos);
  // The resident session still reanalyzes (campaigns bypass its cache).
  EXPECT_NE(text.find("spfm"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(journal));
  std::remove(journal.c_str());
}
