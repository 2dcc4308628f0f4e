#include "decisive/model/repository.hpp"

#include "decisive/base/error.hpp"

namespace decisive::model {

FullLoadRepository::FullLoadRepository(size_t memory_budget_bytes)
    : budget_(memory_budget_bytes) {}

void FullLoadRepository::charge(size_t bytes) {
  approx_bytes_ += bytes;
  if (approx_bytes_ > budget_) {
    throw CapacityError("model memory budget exhausted (" + std::to_string(approx_bytes_) +
                        " bytes used, budget " + std::to_string(budget_) +
                        "); the full-load repository must hold the entire model in memory");
  }
}

ModelObject& FullLoadRepository::create(const MetaClass& cls) {
  const ObjectId id = next_id_++;
  objects_.emplace_back(cls, id).set_observer(observer_);
  index_.emplace(id, objects_.size() - 1);
  charge(objects_.back().approx_bytes() + sizeof(void*) * 4);
  return objects_.back();
}

void FullLoadRepository::set_observer(AttributeObserver* observer) {
  observer_ = observer;
  for (auto& obj : objects_) obj.set_observer(observer);
}

ModelObject* FullLoadRepository::find(ObjectId id) noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &objects_[it->second];
}

const ModelObject* FullLoadRepository::find(ObjectId id) const noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &objects_[it->second];
}

ModelObject& FullLoadRepository::get(ObjectId id) {
  ModelObject* obj = find(id);
  if (obj == nullptr) throw ModelError("unknown object id " + std::to_string(id));
  return *obj;
}

const ModelObject& FullLoadRepository::get(ObjectId id) const {
  const ModelObject* obj = find(id);
  if (obj == nullptr) throw ModelError("unknown object id " + std::to_string(id));
  return *obj;
}

void FullLoadRepository::for_each(const std::function<void(const ModelObject&)>& fn) const {
  for (const auto& obj : objects_) fn(obj);
}

void FullLoadRepository::for_each(const std::function<void(ModelObject&)>& fn) {
  for (auto& obj : objects_) fn(obj);
}

void FullLoadRepository::for_each_of(const MetaClass& cls,
                                     const std::function<void(const ModelObject&)>& fn) const {
  for (const auto& obj : objects_) {
    if (obj.is_kind_of(cls)) fn(obj);
  }
}

ObjectId FullLoadRepository::find_first(
    const std::function<bool(const ModelObject&)>& pred) const {
  for (const auto& obj : objects_) {
    if (pred(obj)) return obj.id();
  }
  return kNullObject;
}

std::vector<ObjectId> FullLoadRepository::all_of(const MetaClass& cls) const {
  std::vector<ObjectId> out;
  for (const auto& obj : objects_) {
    if (obj.is_kind_of(cls)) out.push_back(obj.id());
  }
  return out;
}

void FullLoadRepository::load_from(ElementSource& source) {
  // Admission control: refuse loads that cannot possibly fit, mirroring the
  // paper's observation that SAME "would not load Set5 due to memory
  // overflow" rather than grinding through a doomed allocation.
  const std::uint64_t hint = source.size_hint();
  const size_t per_element = source.bytes_per_element();
  if (hint > 0 && per_element > 0) {
    const long double projected =
        static_cast<long double>(hint) * static_cast<long double>(per_element) +
        static_cast<long double>(approx_bytes_);
    if (projected > static_cast<long double>(budget_)) {
      throw CapacityError(
          "refusing full load: projected model size " + std::to_string(hint) + " elements (~" +
          std::to_string(static_cast<unsigned long long>(projected / (1024 * 1024))) +
          " MiB) exceeds memory budget " + std::to_string(budget_ / (1024 * 1024)) + " MiB");
    }
  }
  while (source.next([&](const MetaClass& cls, const std::function<void(ModelObject&)>& init) {
    ModelObject& obj = create(cls);
    init(obj);
  })) {
  }
  recompute_bytes();
}

size_t FullLoadRepository::recompute_bytes() {
  size_t total = 0;
  for (const auto& obj : objects_) total += obj.approx_bytes() + sizeof(void*) * 4;
  approx_bytes_ = total;
  if (approx_bytes_ > budget_) {
    throw CapacityError("model memory budget exhausted after mutation (" +
                        std::to_string(approx_bytes_) + " bytes, budget " +
                        std::to_string(budget_) + ")");
  }
  return approx_bytes_;
}

// ---------------------------------------------------------------------------

void IndexedRepository::index_attribute(const MetaClass& cls, std::string attr_name,
                                        bool retain_values) {
  if (find_column(cls, attr_name) != nullptr) return;
  Column column;
  column.cls = &cls;
  column.attr = std::move(attr_name);
  column.retain_values = retain_values;
  columns_.push_back(std::move(column));
}

void IndexedRepository::load_from(ElementSource& source) {
  // A single scratch object is reused per element; the object graph is never
  // materialised (this is the Hawk-style indexing fix).
  while (source.next([&](const MetaClass& cls, const std::function<void(ModelObject&)>& init) {
    ModelObject scratch(cls, kNullObject + 1);
    init(scratch);
    ++element_count_;
    ++class_counts_[&cls];
    for (auto& column : columns_) {
      if (cls.is_kind_of(*column.cls)) {
        const Value& v = scratch.get(column.attr);
        double numeric = 0.0;
        if (const auto* d = std::get_if<double>(&v)) numeric = *d;
        else if (const auto* i = std::get_if<long long>(&v)) numeric = static_cast<double>(*i);
        else if (const auto* b = std::get_if<bool>(&v)) numeric = *b ? 1.0 : 0.0;
        column.sum += numeric;
        if (numeric != 0.0) ++column.nonzero;
        ++column.count;
        if (column.retain_values) column.values.push_back(numeric);
      }
    }
  })) {
  }
}

std::uint64_t IndexedRepository::count_of(const MetaClass& cls) const {
  std::uint64_t total = 0;
  for (const auto& [c, n] : class_counts_) {
    if (c->is_kind_of(cls)) total += n;
  }
  return total;
}

IndexedRepository::Column* IndexedRepository::find_column(const MetaClass& cls,
                                                          std::string_view attr_name) {
  for (auto& column : columns_) {
    if (column.cls == &cls && column.attr == attr_name) return &column;
  }
  return nullptr;
}

const IndexedRepository::Column* IndexedRepository::find_column(
    const MetaClass& cls, std::string_view attr_name) const {
  for (const auto& column : columns_) {
    if (column.cls == &cls && column.attr == attr_name) return &column;
  }
  return nullptr;
}

double IndexedRepository::sum(const MetaClass& cls, std::string_view attr_name) const {
  const Column* column = find_column(cls, attr_name);
  if (column == nullptr) {
    throw ModelError("attribute '" + std::string(attr_name) + "' of class '" + cls.name() +
                     "' is not indexed");
  }
  return column->sum;
}

std::uint64_t IndexedRepository::count_true(const MetaClass& cls,
                                            std::string_view attr_name) const {
  const Column* column = find_column(cls, attr_name);
  if (column == nullptr) {
    throw ModelError("attribute '" + std::string(attr_name) + "' of class '" + cls.name() +
                     "' is not indexed");
  }
  return column->nonzero;
}

void IndexedRepository::for_each_value(const MetaClass& cls, std::string_view attr_name,
                                       const std::function<void(double)>& fn) const {
  const Column* column = find_column(cls, attr_name);
  if (column == nullptr) {
    throw ModelError("attribute '" + std::string(attr_name) + "' of class '" + cls.name() +
                     "' is not indexed");
  }
  if (!column->retain_values) {
    throw ModelError("column '" + std::string(attr_name) +
                     "' was indexed in aggregate-only mode; per-value access is unavailable");
  }
  for (double v : column->values) fn(v);
}

size_t IndexedRepository::approx_bytes() const noexcept {
  size_t total = sizeof(IndexedRepository);
  for (const auto& column : columns_) total += column.values.capacity() * sizeof(double);
  return total;
}

}  // namespace decisive::model
