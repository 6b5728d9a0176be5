// Stress and differential tests for the concurrent serving core: the
// service's default runner count, the sharded StructurePool under racing
// interns, the size-bounded HomCache (budgets respected, evicted
// entries recompute identically), and decisions on copies of one query
// that share its immutable body. Threads here are
// raw std::threads deliberately oversubscribing the host so the races are
// real even on a single-core runner; the TSan CI job runs this whole file.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/determinacy.h"
#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "query/parser.h"
#include "serve/service.h"
#include "structs/pool.h"
#include "structs/structure.h"
#include "util/rng.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

Structure Cycle(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    s.AddFact(0, {i, static_cast<Element>((i + 1) % n)});
  }
  return s;
}

Structure Path(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema, n);
  for (Element i = 0; i + 1 < n; ++i) {
    s.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  return s;
}

/// A uniformly random relabeling of `s` (isomorphic by construction).
Structure PermutedCopy(const Structure& s, Rng* rng) {
  const std::size_t n = s.DomainSize();
  std::vector<Element> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Element>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Below(i)]);
  }
  return s.MapDomain(perm, n);
}

// --- DefaultThreadCount ----------------------------------------------------

TEST(DefaultThreadCountTest, CapsTheEnvironmentWidth) {
  // Reads the width only; never starts a service, so an absurd value
  // cannot start threads here. The caller's setting is restored.
  const char* saved = std::getenv("BAGDET_NUM_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ASSERT_EQ(::unsetenv("BAGDET_NUM_THREADS"), 0);
  const std::size_t hardware = DefaultThreadCount();
  EXPECT_GE(hardware, 1u);
  const struct {
    const char* value;
    std::size_t expected;
  } cases[] = {
      {"100000", kMaxThreadCount},
      {"99999999999999999999", kMaxThreadCount},  // strtol overflow.
      {"0", hardware},
      {"-3", hardware},
      {"abc", hardware},
      {"8", 8},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(::setenv("BAGDET_NUM_THREADS", c.value, 1), 0);
    EXPECT_EQ(DefaultThreadCount(), c.expected) << c.value;
  }
  if (saved != nullptr) {
    ::setenv("BAGDET_NUM_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("BAGDET_NUM_THREADS");
  }
}

// --- Sharded StructurePool --------------------------------------------------

TEST(ConcurrentPoolTest, RacedInternsOfIsomorphicCopiesYieldOneRef) {
  auto schema = GraphSchema();
  // 12 distinct isomorphism classes: cycles and paths of several sizes.
  std::vector<Structure> classes;
  for (Element n = 3; n < 9; ++n) {
    classes.push_back(Cycle(schema, n));
    classes.push_back(Path(schema, n));
  }

  StructurePool pool;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 40;
  std::vector<std::vector<StructureRef>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      seen[t].assign(classes.size(), kInvalidStructureRef);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t c = 0; c < classes.size(); ++c) {
          // Fresh permuted copies so every thread canonicalizes its own
          // object and the only shared state is the pool itself.
          StructureRef ref = pool.Intern(PermutedCopy(classes[c], &rng));
          if (seen[t][c] == kInvalidStructureRef) {
            seen[t][c] = ref;
          } else {
            ASSERT_EQ(seen[t][c], ref);
          }
          // Lock-free read path, concurrent with other threads' interns.
          ASSERT_EQ(pool.At(ref).NumFacts(), classes[c].NumFacts());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(pool.size(), classes.size());
  // Every thread resolved every class to the same ref.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][c], seen[0][c]);
    }
    EXPECT_TRUE(IsIsomorphic(pool.At(seen[0][c]), classes[c]));
    EXPECT_EQ(pool.FindKey(pool.KeyOf(seen[0][c])), seen[0][c]);
  }
}

TEST(ConcurrentPoolTest, AtThrowsOnUnknownRef) {
  StructurePool pool;
  EXPECT_THROW(pool.At(0), std::out_of_range);
  StructureRef ref = pool.Intern(Cycle(GraphSchema(), 3));
  EXPECT_NO_THROW(pool.At(ref));
  EXPECT_THROW(pool.At(ref + 1), std::out_of_range);
  EXPECT_THROW(pool.KeyOf(kInvalidStructureRef - StructurePool::kNumShards),
               std::out_of_range);
}

// --- Bounded HomCache -------------------------------------------------------

TEST(BoundedHomCacheTest, EntryBudgetIsRespectedAndEvictedPairsRecompute) {
  auto schema = GraphSchema();
  HomCache cache;
  cache.set_max_entries(16);  // 2 per shard.

  std::vector<std::pair<StructureRef, StructureRef>> pairs;
  std::vector<BigInt> expected;
  for (Element from_n = 2; from_n <= 5; ++from_n) {
    for (Element to_n = 2; to_n <= 9; ++to_n) {
      StructureRef from = cache.Intern(Path(schema, from_n));
      StructureRef to = cache.Intern(Cycle(schema, to_n));
      pairs.emplace_back(from, to);
      expected.push_back(
          CountHoms(cache.pool().At(from), cache.pool().At(to)));
    }
  }
  // First pass fills far past the budget; entries must stay bounded.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(cache.Count(pairs[i].first, pairs[i].second), expected[i]);
  }
  HomCache::Stats after_fill = cache.stats();
  EXPECT_LE(after_fill.entries, 16u);
  EXPECT_GT(after_fill.evictions, 0u);
  EXPECT_EQ(after_fill.misses, pairs.size());

  // Second pass: evicted pairs re-miss but recompute identical counts.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(cache.Count(pairs[i].first, pairs[i].second), expected[i]);
  }
  HomCache::Stats after_requery = cache.stats();
  EXPECT_GT(after_requery.misses, after_fill.misses);  // Some were evicted...
  EXPECT_GT(after_requery.hits, after_fill.hits);      // ...some survived.
  EXPECT_LE(cache.stats().entries, 16u);

  cache.ResetStats();
  HomCache::Stats reset = cache.stats();
  EXPECT_EQ(reset.hits, 0u);
  EXPECT_EQ(reset.misses, 0u);
  EXPECT_EQ(reset.evictions, 0u);
  EXPECT_EQ(reset.entries, after_requery.entries);  // Footprint unaffected.
}

TEST(BoundedHomCacheTest, ByteBudgetEvictsAndFootprintIsTracked) {
  auto schema = GraphSchema();
  HomCache cache;
  HomCache::Stats empty = cache.stats();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_EQ(empty.bytes, 0u);

  cache.set_max_bytes(8 * 300);  // ~2 smallish entries per shard.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Structure from = Path(schema, static_cast<Element>(2 + rng.Below(4)));
    Structure to = Cycle(schema, static_cast<Element>(2 + rng.Below(10)));
    cache.Count(cache.Intern(from), cache.Intern(to));
  }
  HomCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, 8u * 300u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(BoundedHomCacheTest, ConcurrentCountsAgreeWithUncachedCounts) {
  auto schema = GraphSchema();
  HomCache cache;
  cache.set_max_entries(64);  // Force eviction churn during the race.

  Rng seed_rng(99);
  std::vector<std::pair<StructureRef, StructureRef>> pairs;
  for (Element from_n = 2; from_n <= 4; ++from_n) {
    for (Element to_n = 2; to_n <= 8; ++to_n) {
      pairs.emplace_back(cache.Intern(Path(schema, from_n)),
                         cache.Intern(Cycle(schema, to_n)));
    }
  }
  std::vector<BigInt> expected;
  for (const auto& [from, to] : pairs) {
    expected.push_back(CountHoms(cache.pool().At(from), cache.pool().At(to)));
  }

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          if (cache.Count(pairs[i].first, pairs[i].second) != expected[i]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const HomCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            kThreads * 20u * static_cast<std::uint64_t>(pairs.size()));
}

// --- Shared query bodies ---------------------------------------------------

/// Everything observable about a decision, rendered for exact comparison:
/// the verdict, the witness and, when present, the certificate.
std::string Fingerprint(const DeterminacyResult& r) {
  std::string out = r.Summary();
  if (r.witness.has_value()) {
    out += "\nwitness";
    for (std::size_t index : r.witness->view_indices) {
      out += " " + std::to_string(index);
    }
    out += " " + r.witness->exponents.ToString();
  }
  if (r.counterexample.has_value()) {
    const BagCounterexample& cx = *r.counterexample;
    out += "\nd " + cx.d.ToString() + "\nd' " + cx.d_prime.ToString() +
           "\nz " + cx.z.ToString() + "\nM " + cx.evaluation_matrix.ToString();
  }
  return out;
}

TEST(SharedQueryBodyTest, ThreadsDecideCopiesOfOneParsedInstance) {
  // Copies of a query share one immutable body, so every thread below reads
  // the same frozen structures while deciding its own copy of the instance
  // against one shared HomCache. Each verdict, witness and certificate
  // must equal the serial, private-cache result.
  struct Case {
    const char* text;
    bool determined;
  };
  // Each instance has views with component classes q lacks, so the
  // relevance test runs hom searches, not only class lookups.
  const Case cases[] = {
      // q = C3 + C4 (directed cycles) and the views C3, C4, C6 and C2:
      // q(D) = v1(D) · v2(D). C6 maps into C3, so v3 is relevant; C2 maps
      // into neither cycle, so v4 is not.
      {"v1() :- E(a,b), E(b,c), E(c,a)\n"
       "v2() :- E(a,b), E(b,c), E(c,d), E(d,a)\n"
       "v3() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)\n"
       "v4() :- E(a,b), E(b,a)\n"
       "q() :- E(a,b), E(b,c), E(c,a), E(w,x), E(x,y), E(y,z), E(z,w)\n",
       true},
      // q = L + C2 (a loop and a 2-cycle), a view L + 2·C2 and a path
      // view P2, which maps into the loop: over W = {L, C2, P2} q's vector
      // (1,1,0) is outside the span of (1,2,0) and (0,0,1).
      {"v1() :- E(a,a), E(x,y), E(y,x), E(u,w), E(w,u)\n"
       "v2() :- E(x,y), E(y,z)\n"
       "q() :- E(a,a), E(x,y), E(y,x)\n",
       false},
  };
  struct Parsed {
    std::vector<ConjunctiveQuery> views;
    ConjunctiveQuery query;
  };
  auto parse = [](const char* text) {
    Parsed parsed;
    parsed.views = QueryParser().ParseProgram(text);
    parsed.query = parsed.views.back();
    parsed.views.pop_back();
    return parsed;
  };
  constexpr std::size_t kThreads = 8;
  constexpr int kTrials = 3;
  constexpr int kRounds = 4;
  for (const Case& c : cases) {
    // The serial reference decides a separate parse.
    const Parsed reference = parse(c.text);
    const DeterminacyResult serial =
        DecideBagDeterminacy(reference.views, reference.query);
    ASSERT_GT(serial.analysis.relevance_searches, 0u);
    ASSERT_EQ(serial.determined, c.determined) << serial.Summary();
    ASSERT_EQ(serial.counterexample.has_value(), !c.determined)
        << serial.Summary();
    const std::string expected = Fingerprint(serial);

    for (int trial = 0; trial < kTrials; ++trial) {
      // A fresh parse and cache per trial, and a common start, so the
      // threads are the first to use the shared bodies: a lazy cache that
      // a decision built on a body would be built under the race.
      const Parsed shared = parse(c.text);
      DeterminacyOptions options;
      options.shared_hom_cache = std::make_shared<HomCache>();
      std::vector<std::vector<std::string>> seen(kThreads);
      std::atomic<int> unshared{0};
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          while (!go.load()) std::this_thread::yield();
          for (int round = 0; round < kRounds; ++round) {
            std::vector<ConjunctiveQuery> views = shared.views;
            ConjunctiveQuery query = shared.query;
            if (&query.FrozenBody() != &shared.query.FrozenBody()) {
              unshared.fetch_add(1);
            }
            seen[t].push_back(Fingerprint(DecideBagDeterminacy(
                std::move(views), std::move(query), options)));
          }
        });
      }
      go.store(true);
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(unshared.load(), 0);
      for (const std::vector<std::string>& results : seen) {
        ASSERT_EQ(results.size(), static_cast<std::size_t>(kRounds));
        for (const std::string& result : results) {
          EXPECT_EQ(result, expected);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bagdet
