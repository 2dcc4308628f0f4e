// Model storage back-ends.
//
// FullLoadRepository reproduces EMF's behaviour as described in the paper's
// scalability discussion (Section VI-D): the entire model must be resident in
// memory before any query runs, so very large models hit a memory wall
// ("SAME would not load Set5 due to memory overflow"). IndexedRepository is
// the Hawk-style fix (refs [23][26]): it consumes elements as a stream and
// retains only a columnar attribute index, so model size is bounded by the
// indexed columns rather than the object graph.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "decisive/model/object.hpp"

namespace decisive::model {

/// A pull-based element stream used to feed repositories without first
/// materialising the model (e.g. procedurally generated scalability sets).
class ElementSource {
 public:
  virtual ~ElementSource() = default;

  /// Expected number of elements, used for up-front admission control.
  [[nodiscard]] virtual std::uint64_t size_hint() const = 0;

  /// Estimated bytes per materialised element (default: a conservative
  /// object-graph figure).
  [[nodiscard]] virtual size_t bytes_per_element() const { return 192; }

  /// Produces the next element by calling `emit` with (class, attribute
  /// setter callback). Returns false when exhausted.
  virtual bool next(const std::function<void(const MetaClass&,
                                             const std::function<void(ModelObject&)>&)>& emit) = 0;
};

/// Mutable in-memory repository that owns every object — the EMF analogue.
class FullLoadRepository {
 public:
  /// `memory_budget_bytes` caps the approximate resident size of the loaded
  /// model; exceeding it throws CapacityError (the paper's Set5 failure).
  explicit FullLoadRepository(
      size_t memory_budget_bytes = std::numeric_limits<size_t>::max());

  FullLoadRepository(const FullLoadRepository&) = delete;
  FullLoadRepository& operator=(const FullLoadRepository&) = delete;
  FullLoadRepository(FullLoadRepository&&) = default;
  FullLoadRepository& operator=(FullLoadRepository&&) = default;

  /// Creates a new object of the (concrete) class; throws CapacityError when
  /// the budget would be exceeded.
  ModelObject& create(const MetaClass& cls);

  /// Attaches `observer` to every object, present and future (nullptr
  /// detaches). It must outlive the objects or be detached first.
  void set_observer(AttributeObserver* observer);
  [[nodiscard]] AttributeObserver* observer() const noexcept { return observer_; }

  /// Object lookup; nullptr for unknown/null ids.
  [[nodiscard]] ModelObject* find(ObjectId id) noexcept;
  [[nodiscard]] const ModelObject* find(ObjectId id) const noexcept;

  /// Checked lookup; throws ModelError for unknown ids.
  [[nodiscard]] ModelObject& get(ObjectId id);
  [[nodiscard]] const ModelObject& get(ObjectId id) const;

  [[nodiscard]] size_t size() const noexcept { return objects_.size(); }
  [[nodiscard]] size_t approx_bytes() const noexcept { return approx_bytes_; }
  [[nodiscard]] size_t memory_budget() const noexcept { return budget_; }

  /// Iterates every object (in creation order).
  void for_each(const std::function<void(const ModelObject&)>& fn) const;
  void for_each(const std::function<void(ModelObject&)>& fn);

  /// Iterates objects whose class is-kind-of `cls`.
  void for_each_of(const MetaClass& cls,
                   const std::function<void(const ModelObject&)>& fn) const;

  /// Collects objects of a kind (ids remain valid across mutation).
  [[nodiscard]] std::vector<ObjectId> all_of(const MetaClass& cls) const;

  /// The first object (in creation order) satisfying `pred`, or kNullObject.
  /// Stops at the first match.
  [[nodiscard]] ObjectId find_first(
      const std::function<bool(const ModelObject&)>& pred) const;

  /// Bulk-loads from a stream. Performs up-front admission control: if
  /// size_hint * bytes_per_element exceeds the budget the load is refused
  /// immediately with CapacityError (mimicking an OOM without thrashing).
  void load_from(ElementSource& source);

  /// Re-estimates the resident size (attribute edits after creation are not
  /// tracked incrementally); updates and returns the estimate.
  size_t recompute_bytes();

 private:
  void charge(size_t bytes);

  size_t budget_;
  size_t approx_bytes_ = 0;
  ObjectId next_id_ = 1;
  AttributeObserver* observer_ = nullptr;
  std::deque<ModelObject> objects_;
  std::unordered_map<ObjectId, size_t> index_;
};

/// Columnar, streaming attribute index — the scalable back-end.
///
/// Register the (class, attribute) columns a query needs, then feed the
/// element stream; only those columns are retained. Aggregations (count,
/// sum) and per-row visits run over the columns.
class IndexedRepository {
 public:
  IndexedRepository() = default;

  /// Registers a numeric/bool column to retain for a class (applies to
  /// subclasses as well). With `retain_values = false` only running
  /// aggregates (sum, true-count) are kept — O(1) memory per column, which
  /// is what lets arbitrarily large models stream through (for_each_value is
  /// then unavailable for that column).
  void index_attribute(const MetaClass& cls, std::string attr_name,
                       bool retain_values = true);

  /// Streams the source through the index. Memory use is proportional to the
  /// registered columns only.
  void load_from(ElementSource& source);

  [[nodiscard]] std::uint64_t element_count() const noexcept { return element_count_; }

  /// Number of elements of the given kind seen.
  [[nodiscard]] std::uint64_t count_of(const MetaClass& cls) const;

  /// Sum of a registered real/int column over elements of the kind.
  [[nodiscard]] double sum(const MetaClass& cls, std::string_view attr_name) const;

  /// Count of elements of the kind whose registered bool column is true.
  [[nodiscard]] std::uint64_t count_true(const MetaClass& cls, std::string_view attr_name) const;

  /// Visits every retained value of a column.
  void for_each_value(const MetaClass& cls, std::string_view attr_name,
                      const std::function<void(double)>& fn) const;

  [[nodiscard]] size_t approx_bytes() const noexcept;

 private:
  struct Column {
    const MetaClass* cls;
    std::string attr;
    bool retain_values;
    std::vector<double> values;  // bools stored as 0/1; empty in aggregate mode
    double sum = 0.0;
    std::uint64_t nonzero = 0;
    std::uint64_t count = 0;
  };

  Column* find_column(const MetaClass& cls, std::string_view attr_name);
  [[nodiscard]] const Column* find_column(const MetaClass& cls,
                                          std::string_view attr_name) const;

  std::uint64_t element_count_ = 0;
  std::map<const MetaClass*, std::uint64_t> class_counts_;
  std::vector<Column> columns_;
};

}  // namespace decisive::model
