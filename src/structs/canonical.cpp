#include "structs/canonical.h"

#include <algorithm>
#include <array>

#include "structs/refinement.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/hash.h"

namespace bagdet {

namespace {

void PutU32(char* out, std::uint32_t v) {
  for (std::size_t b = 0; b < 4; ++b) {
    out[b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

void AppendU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  PutU32(bytes, v);
  out->append(bytes, 4);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Continues an FNV-1a hash `h` over `n` bytes.
std::uint64_t Fnv1a(std::uint64_t h, const char* bytes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The 12-byte header that frames a component certificate as a
/// one-component structure certificate: domain size, component count 1,
/// certificate length (little-endian u32 each, as AppendU32 writes them).
using ComponentKeyHeader = std::array<char, 12>;

ComponentKeyHeader HeaderOf(const std::string& certificate) {
  ComponentKeyHeader header;
  // A component certificate starts with its domain size.
  std::copy_n(certificate.data(), 4, header.data());
  PutU32(header.data() + 4, 1);
  PutU32(header.data() + 8, static_cast<std::uint32_t>(certificate.size()));
  return header;
}

/// Serializes the component under the discrete coloring (element e is
/// renamed to colors[e]): per *non-empty* relation in id order, the
/// relation id and its sorted list of relabeled tuples. Empty relations
/// are skipped so the certificate is invariant under schema growth
/// (schemas are shared and append-only). Also used for empty-domain
/// (nullary-fact) components, where the coloring is trivially empty.
std::string SerializeLeaf(const Structure& c,
                          const std::vector<std::uint32_t>& colors) {
  std::string out;
  AppendU32(&out, static_cast<std::uint32_t>(c.DomainSize()));
  for (RelationId r = 0; r < c.schema().NumRelations(); ++r) {
    const std::vector<Tuple>& facts = c.Facts(r);
    if (facts.empty()) continue;
    AppendU32(&out, r);
    AppendU32(&out, static_cast<std::uint32_t>(facts.size()));
    std::vector<Tuple> relabeled;
    relabeled.reserve(facts.size());
    for (const Tuple& t : facts) {
      Tuple mapped(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) mapped[i] = colors[t[i]];
      relabeled.push_back(std::move(mapped));
    }
    std::sort(relabeled.begin(), relabeled.end());
    for (const Tuple& t : relabeled) {
      for (Element e : t) AppendU32(&out, e);
    }
  }
  return out;
}

/// True iff swapping elements `a` and `b` is an automorphism of `s`.
bool TranspositionIsAutomorphism(const Structure& s, Element a, Element b) {
  for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
    for (const Tuple& t : s.Facts(r)) {
      bool touched = false;
      Tuple mapped(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i] == a) {
          mapped[i] = b;
          touched = true;
        } else if (t[i] == b) {
          mapped[i] = a;
          touched = true;
        } else {
          mapped[i] = t[i];
        }
      }
      if (touched && !s.HasFact(r, mapped)) return false;
    }
  }
  return true;
}

/// Individualization–refinement search: explores every branch of the
/// canonical-labeling tree and keeps the lexicographically smallest leaf
/// serialization. The explored branch *set* is isomorphism-invariant (the
/// target cell is chosen by canonical color id, and every member of the
/// cell is tried), so the minimum is too.
///
/// Pruning: a candidate is skipped when a transposition with an
/// already-explored candidate of the same cell is an automorphism — the
/// skipped subtree is then the automorphism's image of an explored one
/// and contributes the same leaf certificates (labelings differ only by
/// an automorphism, which leaves the relabeled fact set unchanged). This
/// collapses automorphism-rich components (cliques, stars, unions of
/// equal pieces) from factorial to near-linear; components with sparse
/// automorphism groups still pay the full branch set.
void SearchMinCertificate(const Structure& c,
                          const std::vector<std::uint32_t>& colors,
                          std::size_t num_colors, std::string* best) {
  // Automorphism-sparse components pay the full branch set, which can be
  // exponential — each tree node is a governed checkpoint.
  ExecCheckPoint("canonical.search");
  BAGDET_FAILPOINT("canonical/branch");
  const std::size_t n = c.DomainSize();
  if (num_colors == n) {
    std::string leaf = SerializeLeaf(c, colors);
    if (best->empty() || leaf < *best) *best = std::move(leaf);
    return;
  }
  // Target cell: smallest color id with at least two members.
  std::uint32_t target = 0;
  {
    std::vector<std::size_t> class_size(num_colors, 0);
    for (std::uint32_t color : colors) ++class_size[color];
    while (class_size[target] < 2) ++target;
  }
  std::vector<Element> explored;
  for (std::size_t e = 0; e < n; ++e) {
    if (colors[e] != target) continue;
    bool equivalent_to_explored = false;
    for (Element prev : explored) {
      if (TranspositionIsAutomorphism(c, prev, static_cast<Element>(e))) {
        equivalent_to_explored = true;
        break;
      }
    }
    if (equivalent_to_explored) continue;
    explored.push_back(static_cast<Element>(e));
    std::vector<std::uint32_t> branch = colors;
    branch[e] = static_cast<std::uint32_t>(num_colors);  // Individualize.
    // Re-refine from the individualized coloring (the seeded flavor of
    // RefineColors — same signature construction and rank-recoloring, so
    // color ids stay isomorphism-invariant functions of the branch).
    ColorRefinementResult refined =
        RefineColors(c, &branch, num_colors + 1);
    SearchMinCertificate(c, refined.color_of_element, refined.num_colors,
                         best);
  }
}

}  // namespace

std::string ComponentCertificate(const Structure& component) {
  const std::size_t n = component.DomainSize();
  if (n == 0) {
    return SerializeLeaf(component, {});
  }
  ColorRefinementResult seed = RefineColors(component);
  std::string best;
  SearchMinCertificate(component, seed.color_of_element, seed.num_colors,
                       &best);
  return best;
}

StructureCanonicalData ComputeCanonicalData(const Structure& s) {
  StructureCanonicalData data;
  for (const Structure& component : ConnectedComponents(s)) {
    data.component_certificates.push_back(ComponentCertificate(component));
  }
  data.component_key_hashes.reserve(data.component_certificates.size());
  for (const std::string& cert : data.component_certificates) {
    const ComponentKeyHeader header = HeaderOf(cert);
    data.component_key_hashes.push_back(
        Fnv1a(Fnv1a(kFnvOffset, header.data(), header.size()), cert.data(),
              cert.size()));
  }
  std::vector<std::string> sorted = data.component_certificates;
  std::sort(sorted.begin(), sorted.end());
  AppendU32(&data.certificate, static_cast<std::uint32_t>(s.DomainSize()));
  AppendU32(&data.certificate, static_cast<std::uint32_t>(sorted.size()));
  for (const std::string& cert : sorted) {
    AppendU32(&data.certificate, static_cast<std::uint32_t>(cert.size()));
    data.certificate += cert;
  }
  data.certificate_hash =
      Fnv1a(kFnvOffset, data.certificate.data(), data.certificate.size());
  return data;
}

std::uint64_t SchemaDigest(const Schema& schema) {
  std::uint64_t h = 0x8c6f5d4b3a291807ull;
  for (RelationId r = 0; r < schema.NumRelations(); ++r) {
    h = MixHash(h, schema.Arity(r));
    for (char ch : schema.Name(r)) {
      h = MixHash(h, static_cast<unsigned char>(ch));
    }
    h = MixHash(h, 0xff);  // Name terminator.
  }
  return h;
}

CanonicalKey CanonicalKeyOf(const Structure& s) {
  return CanonicalKeyOf(s, SchemaDigest(s.schema()));
}

CanonicalKey CanonicalKeyOf(const Structure& s, std::uint64_t schema_digest) {
  const StructureCanonicalData& data = s.CanonicalData();
  CanonicalKey key;
  key.schema_digest = schema_digest;
  key.bytes = data.certificate;
  key.hash = MixHash(data.certificate_hash, schema_digest);
  return key;
}

CanonicalKey ComponentKey(const StructureCanonicalData& data, std::size_t i,
                          std::uint64_t schema_digest) {
  const std::string& cert = data.component_certificates[i];
  CanonicalKey key;
  key.schema_digest = schema_digest;
  const ComponentKeyHeader header = HeaderOf(cert);
  key.bytes.reserve(header.size() + cert.size());
  key.bytes.append(header.data(), header.size());
  key.bytes += cert;
  key.hash = MixHash(data.component_key_hashes[i], schema_digest);
  return key;
}

}  // namespace bagdet
