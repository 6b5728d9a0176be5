// bagdet: positional fact indexes over structures.
//
// The join engine (hom/) repeatedly asks "which facts of relation R carry
// value v at position p?". The facts themselves are stored sorted, which
// answers the question for p == 0 only; StructureIndex precomputes
// position → value → fact-id buckets (CSR layout) for every position of
// every relation, so both the backtracking matcher and the
// variable-elimination DP can narrow candidates by *any* bound position and
// probe the most selective one.

#ifndef BAGDET_STRUCTS_INDEX_H_
#define BAGDET_STRUCTS_INDEX_H_

#include <cstdint>
#include <vector>

#include "structs/structure.h"

namespace bagdet {

/// A contiguous run of fact ids (indices into Structure::Facts(r)).
struct FactIdSpan {
  const std::uint32_t* first = nullptr;
  const std::uint32_t* last = nullptr;

  const std::uint32_t* begin() const { return first; }
  const std::uint32_t* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// Immutable positional index over one structure's facts. Obtain via
/// Structure::Index(), which caches the build per structure revision.
class StructureIndex {
 public:
  explicit StructureIndex(const Structure& s);

  /// Ids of the facts of `relation` whose tuple carries `value` at
  /// position `pos`; ids are ascending within a bucket.
  FactIdSpan Bucket(RelationId relation, std::size_t pos, Element value) const {
    const PositionIndex& index = positions_[relation][pos];
    if (value >= domain_size_) return FactIdSpan{};
    const std::uint32_t* base = index.fact_ids.data();
    return FactIdSpan{base + index.starts[value], base + index.starts[value + 1]};
  }

  /// Number of facts of `relation` carrying `value` at `pos`.
  std::size_t BucketSize(RelationId relation, std::size_t pos,
                         Element value) const {
    return Bucket(relation, pos, value).size();
  }

 private:
  // CSR buckets for one (relation, position): facts grouped by the element
  // they carry there.
  struct PositionIndex {
    std::vector<std::uint32_t> starts;    // domain_size + 1 offsets
    std::vector<std::uint32_t> fact_ids;  // one entry per fact
  };

  std::size_t domain_size_ = 0;
  std::vector<std::vector<PositionIndex>> positions_;  // [relation][position]
};

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_INDEX_H_
