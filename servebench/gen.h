// Seeded generators for the service benchmark's inputs. Everything here
// produces protocol text only: the service under test never sees a
// generator structure, just CATALOG / DEFINE / CONTAINED? / PLAN? lines.
//
// Instance families:
//   * section3  random conjunctive queries over random projection views
//               (the Theorem 3.1 shape), plus "wide" pairs whose left plan
//               is large enough that strategy=auto picks CEGAR;
//   * theorem32 a recursive (transitive-closure) Q1 against a chain-shaped
//               Q2 over chain views;
//   * theorem51 / theorem52  semi-interval comparisons in the style of
//               Afrati–Damigos (x < c, x >= c) on the views and Q2, and for
//               theorem51 on Q1 as well;
//   * section4  Romero–Preda–Suchanek path views with `bf` access patterns
//               (relcont::MakePathViewWorkload), chain queries on both
//               sides;
//   * plan      chain queries for PLAN? against path-view catalogs with
//               patterns (recursive dom plans) and without (UCQ plans).
#ifndef SERVEBENCH_GEN_H_
#define SERVEBENCH_GEN_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

/// SplitMix64 finalizer: derives independent streams from one seed.
uint64_t Mix(uint64_t seed, uint64_t stream);

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  /// Uniform in [lo, hi].
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }
  bool Coin(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_) < p;
  }

 private:
  std::mt19937_64 engine_;
};

/// A named catalog in registration-ready form.
struct CatalogText {
  std::string name;
  /// One view rule per entry.
  std::vector<std::string> views;
  /// (source, adornment) pairs.
  std::vector<std::pair<std::string, std::string>> patterns;

  /// The CATALOG protocol line registering this catalog.
  std::string ProtocolLine() const;
  /// Views joined one per line (CatalogRegistry::Register syntax).
  std::string ViewsText() const;
};

/// One containment question as query texts (goal = head of first rule).
struct PairText {
  std::string q1;
  std::string q2;
};

/// The families of containment questions, in the order the cold workload
/// mixes them. The names match relcont::RegimeName.
enum class Family : int {
  kSection3 = 0,
  kSection3Wide,
  kSection4,
  kTheorem32,
  kTheorem51,
  kTheorem52,
  kNumFamilies,
};

const char* FamilyName(Family family);

/// Catalogs for one family, named "<prefix><index>".
CatalogText MakeCatalog(Family family, int index, uint64_t seed);

/// One random question for `family`; deterministic in `seed`.
PairText MakePair(Family family, uint64_t seed);

/// A path-view catalog for PLAN?; `with_patterns` selects the Section 4
/// dom plan (kind=recursive) over the UCQ plan (kind=ucq). Different
/// seeds give different view sets under the same name (the churn
/// workload re-registers such variants).
CatalogText MakePlanCatalog(const std::string& name, bool with_patterns,
                            int num_views, uint64_t seed);

/// A chain query "q(...) :- e_a(X0, X1), ..." of length 2 to `max_length`
/// over the path-view relations e0..e{relations-1}, as PLAN? input. The
/// head exports the chain's ends in one of four shapes.
std::string MakePlanQuery(uint64_t seed, int max_length, int relations);

/// An α-renamed copy of a query text with its rules after the first
/// shuffled: the same canonical fingerprint (CanonicalProgramFingerprint
/// is invariant under both), different bytes. Body atoms keep their order:
/// the fingerprint renders them in order, so a reordered body would be a
/// different cache key.
std::string Disguise(const std::string& query_text, uint64_t seed);

}  // namespace servebench

#endif  // SERVEBENCH_GEN_H_
