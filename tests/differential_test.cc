// Randomized differential testing of the containment decision procedures.
//
// Three fragments, each >= RELCONT_DIFF_CASES seeded random cases
// (default 500; the nightly CI job raises it 10x):
//
//   * Section 3 (comparison-free CQs over conjunctive views): NO verdicts
//     of the serial scan must be refuted by the witness's frozen instance
//     under the certain-answer semantics, YES verdicts must hold on sampled
//     instances, and the two independent certain-answer oracles
//     (plan-based vs canonical-database) must agree on those instances.
//   * Section 5 semi-interval (Q2 and the views may carry semi-interval
//     comparisons): NO witnesses of the serial scan refuted with the
//     comparison-aware certain-answer oracle.
//   * Section 6 CWA: every refutation the closed-world refuter reports is
//     re-verified against the independent brute-force oracle.
//   * CEGAR (three sub-sweeps): the counterexample-guided engine
//     (relcont/cegar.h) must return the serial scan's verdict on random
//     Section 3 triples (narrow and wide vocabularies) and on the Theorem 3.3 QBF family, where all engines
//     are additionally pinned to the ∀∃-satisfiability oracle. Every CEGAR
//     NO is re-verified the same way as the scan's: the witness instance
//     carries a Q1 certain answer that Q2 does not.
//   * Section 4 (three sub-sweeps over MakePathViewWorkload catalogs with
//     `bf` patterns): the exact dom decider must agree with the bounded
//     expansion search over P1^exp wherever that search is definite, and
//     every NO witness, frozen into a source instance, must carry a
//     reachable certain answer of Q1 (Definition 4.3) that Q2 lacks.
//
// Every failure message carries the seed; replay one case with
//   RELCONT_DIFF_SEED=<seed> ./build/tests/differential_test
// and scale the sweep with RELCONT_DIFF_CASES=<n>.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binding/dom_plan.h"
#include "common/budget.h"
#include "containment/expansion.h"
#include "datalog/parser.h"
#include "datalog/substitution.h"
#include "eval/evaluator.h"
#include "relcont/binding_containment.h"
#include "relcont/cegar.h"
#include "relcont/certain_answers.h"
#include "relcont/cwa.h"
#include "relcont/decide.h"
#include "relcont/pi2p_reduction.h"
#include "relcont/relative_containment.h"
#include "relcont/workload.h"
#include "service/catalog.h"
#include "trace/trace.h"

namespace relcont {
namespace {

int CasesFromEnv() {
  const char* env = std::getenv("RELCONT_DIFF_CASES");
  if (env == nullptr || *env == '\0') return 500;
  int cases = std::atoi(env);
  return cases > 0 ? cases : 500;
}

std::optional<uint64_t> ReplaySeedFromEnv() {
  const char* env = std::getenv("RELCONT_DIFF_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

std::string ReplayHint(uint64_t seed) {
  return "replay: RELCONT_DIFF_SEED=" + std::to_string(seed) +
         " ./build/tests/differential_test";
}

/// Runs `run(seed)` for every seed of the fragment's sweep, or for the one
/// replay seed when RELCONT_DIFF_SEED is set. Fragment bases keep the
/// three sweeps on disjoint seed ranges so a replay seed is unambiguous
/// about which case it regenerates within each fragment.
void ForEachCase(uint64_t fragment_base,
                 const std::function<void(uint64_t)>& run) {
  if (std::optional<uint64_t> replay = ReplaySeedFromEnv()) {
    run(*replay);
    return;
  }
  int cases = CasesFromEnv();
  for (int i = 0; i < cases; ++i) run(fragment_base + static_cast<uint64_t>(i));
}

std::vector<Tuple> Normalized(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

bool IsSubset(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  std::vector<Tuple> sa = Normalized(a);
  std::vector<Tuple> sb = Normalized(b);
  return std::includes(sb.begin(), sb.end(), sa.begin(), sa.end());
}

/// The witness instance of a NO verdict: the witness disjunct's body with
/// every variable frozen to a fresh constant, plus the frozen head tuple
/// it derives (see RelativeContainmentResult::witness).
struct FrozenWitness {
  Database instance;
  Tuple head;
};

FrozenWitness FreezeWitness(const Rule& witness, Interner* interner) {
  FrozenWitness out;
  Substitution freeze;
  for (SymbolId v : witness.Variables()) {
    freeze.Bind(v, Term::Symbol(interner->Fresh("_w")));
  }
  for (const Atom& a : witness.body) out.instance.Add(freeze.Apply(a));
  out.head = freeze.Apply(witness.head).args;
  return out;
}

RandomQueryOptions CaseOptions(uint64_t seed) {
  RandomQueryOptions options;
  options.num_atoms = 2 + static_cast<int>(seed % 2);
  options.num_variables = 3;
  options.num_predicates = 2;
  options.arity = 2;
  options.constant_probability = 0.15;
  options.head_arity = 1;
  options.seed = seed;
  return options;
}

/// One random (Q1, Q2, V) triple over a shared vocabulary. Q2 gets an
/// independent RNG stream so the pair is not trivially isomorphic.
struct RandomTriple {
  GoalQuery q1;
  GoalQuery q2;
  ViewSet views;
};

RandomTriple MakeTriple(const RandomQueryOptions& options, int num_views,
                        Interner* interner) {
  Rule r1 = RandomConjunctiveQuery(options, "q1", interner);
  RandomQueryOptions options2 = options;
  options2.seed = options.seed * 2654435761ULL + 97;
  Rule r2 = RandomConjunctiveQuery(options2, "q2", interner);
  RandomTriple out;
  out.q1 = GoalQuery{Program({r1}), r1.head.predicate};
  out.q2 = GoalQuery{Program({r2}), r2.head.predicate};
  out.views = RandomViews(options, num_views, interner);
  return out;
}

/// The Section 5 sweep's case for `seed`: a triple whose Q2 carries a
/// semi-interval comparison, or nullopt when the case is skipped.
std::optional<RandomTriple> SemiIntervalTriple(uint64_t seed,
                                               Interner* interner) {
  // Slightly narrower than the Section 3 sweep: every containment check
  // here enumerates dense-order linearizations, whose count explodes in
  // the number of distinct points, so most cases stay at two variables.
  RandomQueryOptions options = CaseOptions(seed);
  options.num_atoms = 2;
  options.num_variables = (seed % 4 == 0) ? 3 : 2;
  RandomTriple t = MakeTriple(options, /*num_views=*/3, interner);
  Rule& r2 = t.q2.program.rules[0];
  std::vector<SymbolId> body_vars = r2.BodyVariables();
  if (t.views.empty() || body_vars.empty() ||
      t.q1.program.rules[0].head.arity() != r2.head.arity()) {
    return std::nullopt;
  }
  // Attach a semi-interval comparison (Theorem 5.2's decidable shape) to
  // Q2: the first body variable bounded by a small constant.
  ComparisonOp op = (seed % 2 == 0) ? ComparisonOp::kLe : ComparisonOp::kGe;
  r2.comparisons.emplace_back(Term::Var(body_vars[0]), op,
                              Term::Number(Rational(1)));
  return t;
}

// ---------------------------------------------------------------------------
// Fragment 1: Section 3, comparison-free.
// ---------------------------------------------------------------------------

TEST(DifferentialTest, Section3SerialMatchesOracle) {
  int decided = 0, refuted = 0, skipped = 0;
  ForEachCase(1'000'000, [&](uint64_t seed) {
    Interner interner;
    RandomTriple t = MakeTriple(CaseOptions(seed), /*num_views=*/3, &interner);
    if (t.views.empty() ||
        t.q1.program.rules[0].head.arity() !=
            t.q2.program.rules[0].head.arity()) {
      ++skipped;
      return;
    }
    Result<RelativeContainmentResult> serial =
        RelativelyContained(t.q1, t.q2, t.views, &interner);
    if (!serial.ok()) {
      ++skipped;
      return;
    }
    ++decided;

    if (!serial->contained) {
      // A NO verdict must be backed by a real counterexample instance.
      ASSERT_TRUE(serial->witness.has_value()) << ReplayHint(seed);
      FrozenWitness w = FreezeWitness(*serial->witness, &interner);
      Result<std::vector<Tuple>> c1 = CertainAnswers(
          t.q1.program, t.q1.goal, t.views, w.instance, &interner);
      Result<std::vector<Tuple>> c2 = CertainAnswers(
          t.q2.program, t.q2.goal, t.views, w.instance, &interner);
      ASSERT_TRUE(c1.ok()) << c1.status().ToString() << "\n"
                           << ReplayHint(seed);
      ASSERT_TRUE(c2.ok()) << c2.status().ToString() << "\n"
                           << ReplayHint(seed);
      EXPECT_NE(std::find(c1->begin(), c1->end(), w.head), c1->end())
          << ReplayHint(seed);
      EXPECT_EQ(std::find(c2->begin(), c2->end(), w.head), c2->end())
          << ReplayHint(seed);
      ++refuted;
      return;
    }
    // A YES verdict promises certain(Q1, I) ⊆ certain(Q2, I) on EVERY
    // instance; sample a few. The two independent certain-answer
    // implementations must also agree with each other.
    for (int k = 0; k < 2; ++k) {
      Database instance = RandomInstance(t.views, /*num_facts=*/4,
                                         /*domain_size=*/3,
                                         seed * 31 + static_cast<uint64_t>(k),
                                         &interner);
      Result<std::vector<Tuple>> plan1 = CertainAnswers(
          t.q1.program, t.q1.goal, t.views, instance, &interner);
      Result<std::vector<Tuple>> plan2 = CertainAnswers(
          t.q2.program, t.q2.goal, t.views, instance, &interner);
      Result<std::vector<Tuple>> canon1 = CertainAnswersViaCanonical(
          t.q1.program, t.q1.goal, t.views, instance, &interner);
      ASSERT_TRUE(plan1.ok() && plan2.ok() && canon1.ok())
          << ReplayHint(seed);
      EXPECT_TRUE(IsSubset(*plan1, *plan2)) << ReplayHint(seed);
      EXPECT_EQ(Normalized(*plan1), Normalized(*canon1)) << ReplayHint(seed);
    }
  });
  RecordProperty("decided", decided);
  RecordProperty("refuted", refuted);
  RecordProperty("skipped", skipped);
  // The sweep must exercise real decisions, not degenerate skips.
  EXPECT_GT(decided, skipped);
}

// ---------------------------------------------------------------------------
// Fragment 2: Section 5, semi-interval comparisons on Q2.
// ---------------------------------------------------------------------------

TEST(DifferentialTest, SemiIntervalSerialMatchesOracle) {
  int decided = 0, refuted = 0, skipped = 0;
  ForEachCase(2'000'000, [&](uint64_t seed) {
    Interner interner;
    std::optional<RandomTriple> triple = SemiIntervalTriple(seed, &interner);
    if (!triple.has_value()) {
      ++skipped;
      return;
    }
    RandomTriple& t = *triple;
    Rule serial_witness;
    Result<bool> serial = RelativelyContainedViaExpansion(
        t.q1, t.q2, t.views, &interner, {}, &serial_witness);
    if (!serial.ok()) {
      ++skipped;
      return;
    }
    ++decided;
    if (*serial) return;
    // Refute the NO verdict: the witness expansion (comparison-free — it
    // comes from Q1's plan) freezes to an instance where Q1 certainly
    // derives a tuple that the comparison-aware oracle for Q2 does not.
    FrozenWitness w = FreezeWitness(serial_witness, &interner);
    Result<std::vector<Tuple>> c1 = CertainAnswers(
        t.q1.program, t.q1.goal, t.views, w.instance, &interner);
    Result<std::vector<Tuple>> c2 = CertainAnswersWithComparisons(
        t.q2.program, t.q2.goal, t.views, w.instance, &interner);
    ASSERT_TRUE(c1.ok()) << c1.status().ToString() << "\n" << ReplayHint(seed);
    ASSERT_TRUE(c2.ok()) << c2.status().ToString() << "\n" << ReplayHint(seed);
    EXPECT_NE(std::find(c1->begin(), c1->end(), w.head), c1->end())
        << ReplayHint(seed);
    EXPECT_EQ(std::find(c2->begin(), c2->end(), w.head), c2->end())
        << ReplayHint(seed);
    ++refuted;
  });
  RecordProperty("decided", decided);
  RecordProperty("refuted", refuted);
  RecordProperty("skipped", skipped);
  EXPECT_GT(decided, skipped);
}

// ---------------------------------------------------------------------------
// Fragment 3: Section 6, closed-world refuter vs brute force.
// ---------------------------------------------------------------------------

TEST(DifferentialTest, CwaRefutationsVerifiedByBruteForce) {
  int refutations = 0, inconclusive = 0, skipped = 0;
  ForEachCase(3'000'000, [&](uint64_t seed) {
    Interner interner;
    // A deliberately tiny vocabulary: the refuter's search is doubly
    // exponential (candidate instances x candidate databases), so the CWA
    // sweep trades width for case count.
    RandomQueryOptions cwa_options = CaseOptions(seed);
    cwa_options.num_variables = 2;
    cwa_options.num_predicates = 1;
    cwa_options.constant_probability = 0.0;
    RandomTriple t = MakeTriple(cwa_options, /*num_views=*/2, &interner);
    if (t.views.empty() ||
        t.q1.program.rules[0].head.arity() !=
            t.q2.program.rules[0].head.arity()) {
      ++skipped;
      return;
    }
    CwaRefuterOptions options;
    options.max_instance_facts = 2;
    options.domain_size = 2;
    Result<std::optional<CwaRefutation>> refutation =
        RefuteCwaContainment(t.q1, t.q2, t.views, &interner, options);
    if (!refutation.ok()) {
      // The bounded search can exceed the brute-force enumeration cap on
      // wide vocabularies; that is a bound, not a defect.
      ASSERT_EQ(refutation.status().code(), StatusCode::kBoundReached)
          << refutation.status().ToString() << "\n"
          << ReplayHint(seed);
      ++skipped;
      return;
    }
    if (!refutation->has_value()) {
      ++inconclusive;
      return;
    }
    // Re-verify the refutation against the independent oracle, with every
    // view complete (the refuter's closed-world reading).
    std::vector<ViewDefinition> closed = t.views.views();
    for (ViewDefinition& v : closed) v.complete = true;
    Result<ViewSet> made = ViewSet::Make(std::move(closed), &interner);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const ViewSet& complete_views = *made;
    const Database& instance = (*refutation)->instance;
    Result<std::vector<Tuple>> c1 = BruteForceCertainAnswers(
        t.q1.program, t.q1.goal, complete_views, instance, &interner);
    Result<std::vector<Tuple>> c2 = BruteForceCertainAnswers(
        t.q2.program, t.q2.goal, complete_views, instance, &interner);
    ASSERT_TRUE(c1.ok()) << c1.status().ToString() << "\n" << ReplayHint(seed);
    ASSERT_TRUE(c2.ok()) << c2.status().ToString() << "\n" << ReplayHint(seed);
    const Tuple& answer = (*refutation)->answer;
    EXPECT_NE(std::find(c1->begin(), c1->end(), answer), c1->end())
        << ReplayHint(seed);
    EXPECT_EQ(std::find(c2->begin(), c2->end(), answer), c2->end())
        << ReplayHint(seed);
    ++refutations;
  });
  RecordProperty("refutations", refutations);
  RecordProperty("inconclusive", inconclusive);
  RecordProperty("skipped", skipped);
  // Closed-world separations must actually occur in the sweep.
  if (ReplaySeedFromEnv() == std::nullopt) {
    EXPECT_GT(refutations, 0);
  }
}

// ---------------------------------------------------------------------------
// Fragment 4: CEGAR vs the serial scan, three sub-sweeps
// (3 x RELCONT_DIFF_CASES).
// ---------------------------------------------------------------------------

/// Decides the triple with both engines — serial scan and CEGAR — asserts
/// verdict (and status-code) agreement, re-verifies CEGAR NO witnesses
/// semantically, and reports the agreed verdict. Returns nullopt when both
/// engines erred identically (counted a skip).
std::optional<bool> DecideAllEngines(const RandomTriple& t,
                                     Interner* interner, uint64_t seed,
                                     int* decided, int* refuted,
                                     int* skipped) {
  Result<RelativeContainmentResult> serial =
      RelativelyContained(t.q1, t.q2, t.views, interner);
  RelativeContainmentOptions cegar_options;
  cegar_options.strategy = ContainmentStrategy::kCegar;
  const trace::CounterArray mark = trace::ThreadCounts();
  Result<RelativeContainmentResult> cegar = CegarRelativelyContained(
      t.q1, t.q2, t.views, interner, cegar_options);
  auto cegar_count = [&](trace::Counter c) {
    const size_t i = static_cast<size_t>(c);
    return trace::ThreadCounts()[i] - mark[i];
  };

  EXPECT_EQ(cegar.ok(), serial.ok()) << ReplayHint(seed);
  if (!serial.ok() || !cegar.ok()) {
    if (!serial.ok() && !cegar.ok()) {
      EXPECT_EQ(cegar.status().code(), serial.status().code())
          << serial.status().ToString() << " vs "
          << cegar.status().ToString() << "\n"
          << ReplayHint(seed);
    }
    ++*skipped;
    return std::nullopt;
  }
  EXPECT_EQ(cegar->contained, serial->contained) << ReplayHint(seed);
  // Every completed CEGAR run checked each proposal it did not prune.
  EXPECT_LE(cegar_count(trace::Counter::kCegarIterations),
            cegar_count(trace::Counter::kCegarProposals))
      << ReplayHint(seed);
  ++*decided;

  if (!cegar->contained) {
    // The CEGAR witness is re-verified on its own merits (it generally
    // differs from the scan's): its frozen instance must carry a Q1
    // certain answer that is not a Q2 certain answer.
    EXPECT_TRUE(cegar->witness.has_value()) << ReplayHint(seed);
    if (cegar->witness.has_value()) {
      FrozenWitness w = FreezeWitness(*cegar->witness, interner);
      Result<std::vector<Tuple>> c1 = CertainAnswers(
          t.q1.program, t.q1.goal, t.views, w.instance, interner);
      Result<std::vector<Tuple>> c2 = CertainAnswers(
          t.q2.program, t.q2.goal, t.views, w.instance, interner);
      EXPECT_TRUE(c1.ok()) << c1.status().ToString() << "\n"
                           << ReplayHint(seed);
      EXPECT_TRUE(c2.ok()) << c2.status().ToString() << "\n"
                           << ReplayHint(seed);
      if (c1.ok() && c2.ok()) {
        EXPECT_NE(std::find(c1->begin(), c1->end(), w.head), c1->end())
            << ReplayHint(seed);
        EXPECT_EQ(std::find(c2->begin(), c2->end(), w.head), c2->end())
            << ReplayHint(seed);
        ++*refuted;
      }
    }
  }
  return serial->contained;
}

TEST(DifferentialTest, CegarMatchesScansOnSection3) {
  int decided = 0, refuted = 0, skipped = 0;
  ForEachCase(4'000'000, [&](uint64_t seed) {
    Interner interner;
    RandomTriple t = MakeTriple(CaseOptions(seed), /*num_views=*/3, &interner);
    if (t.views.empty() ||
        t.q1.program.rules[0].head.arity() !=
            t.q2.program.rules[0].head.arity()) {
      ++skipped;
      return;
    }
    DecideAllEngines(t, &interner, seed, &decided, &refuted, &skipped);
  });
  RecordProperty("decided", decided);
  RecordProperty("refuted", refuted);
  RecordProperty("skipped", skipped);
  EXPECT_GT(decided, skipped);
}

TEST(DifferentialTest, CegarMatchesScansOnWideSection3) {
  int decided = 0, refuted = 0, skipped = 0;
  ForEachCase(5'000'000, [&](uint64_t seed) {
    Interner interner;
    // A wider vocabulary than the base sweep: more atoms and views means
    // several inverse-rule options per template position, so the CEGAR
    // proposal DFS genuinely branches and blocking clauses actually fire.
    RandomQueryOptions options = CaseOptions(seed);
    options.num_atoms = 3;
    options.num_predicates = 2;
    options.num_variables = 4;
    RandomTriple t = MakeTriple(options, /*num_views=*/5, &interner);
    if (t.views.empty() ||
        t.q1.program.rules[0].head.arity() !=
            t.q2.program.rules[0].head.arity()) {
      ++skipped;
      return;
    }
    std::optional<bool> verdict =
        DecideAllEngines(t, &interner, seed, &decided, &refuted, &skipped);
    if (!verdict.has_value()) return;
    // Dispatch coverage: kAuto must agree whichever engine it picks.
    RelativeContainmentOptions auto_options;
    auto_options.strategy = ContainmentStrategy::kAuto;
    Result<RelativeContainmentResult> chosen =
        RelativelyContained(t.q1, t.q2, t.views, &interner, auto_options);
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString() << "\n"
                             << ReplayHint(seed);
    EXPECT_EQ(chosen->contained, *verdict) << ReplayHint(seed);
  });
  RecordProperty("decided", decided);
  RecordProperty("refuted", refuted);
  RecordProperty("skipped", skipped);
  EXPECT_GT(decided, skipped);
}

TEST(DifferentialTest, CegarMatchesScansAndQbfOracleOnPi2pFamily) {
  int decided = 0, refuted = 0, skipped = 0;
  ForEachCase(6'000'000, [&](uint64_t seed) {
    Interner interner;
    // The Theorem 3.3 family: F is ∀∃-satisfiable iff q2 ⊑_V q1, so every
    // engine is pinned against an independent closed-form oracle, not just
    // against each other. m stays small — the scan is the slow side.
    int num_forall = 1 + static_cast<int>(seed % 5);
    QbfFormula f = RandomQbf(/*num_exists=*/3, num_forall,
                             /*num_clauses=*/4, seed);
    Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
    ASSERT_TRUE(inst.ok()) << inst.status().ToString() << "\n"
                           << ReplayHint(seed);
    RandomTriple t;
    t.q1 = inst->q2;
    t.q2 = inst->q1;
    t.views = inst->views;
    std::optional<bool> verdict =
        DecideAllEngines(t, &interner, seed, &decided, &refuted, &skipped);
    ASSERT_TRUE(verdict.has_value()) << ReplayHint(seed);
    EXPECT_EQ(*verdict, ForallExistsSatisfiable(f)) << ReplayHint(seed);
  });
  RecordProperty("decided", decided);
  RecordProperty("refuted", refuted);
  RecordProperty("skipped", skipped);
  EXPECT_GT(decided, skipped);
}

// ---------------------------------------------------------------------------
// Witness text, pinned.
// ---------------------------------------------------------------------------

/// The witnesses the serial scan, the semi-interval expansion check and
/// CEGAR render on the first 100 cases of their sweeps, folded into one
/// FNV-1a digest. Witness variables are the fresh symbols the procedures
/// mint, so the digest pins each engine's witness choice and the interner's
/// fresh numbering; a change to either shows up here. Update the pin only
/// for a deliberate change of witness text.
TEST(DifferentialTest, LibraryWitnessTextIsPinned) {
  uint64_t digest = 14695981039346656037ULL;
  int witnesses = 0;
  auto fold = [&](const std::string& text) {
    for (char c : text + "\n") {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
    ++witnesses;
  };
  for (uint64_t i = 0; i < 100; ++i) {
    {
      Interner interner;
      RandomTriple t = MakeTriple(CaseOptions(1'000'000 + i),
                                  /*num_views=*/3, &interner);
      Result<RelativeContainmentResult> serial =
          RelativelyContained(t.q1, t.q2, t.views, &interner);
      if (serial.ok() && serial->witness.has_value()) {
        fold(serial->witness->ToString(interner));
      }
      Result<RelativeContainmentResult> cegar =
          CegarRelativelyContained(t.q1, t.q2, t.views, &interner, {});
      if (cegar.ok() && cegar->witness.has_value()) {
        fold(cegar->witness->ToString(interner));
      }
    }
    Interner interner;
    std::optional<RandomTriple> t =
        SemiIntervalTriple(2'000'000 + i, &interner);
    if (!t.has_value()) continue;
    Rule witness;
    Result<bool> contained = RelativelyContainedViaExpansion(
        t->q1, t->q2, t->views, &interner, {}, &witness);
    if (contained.ok() && !*contained) fold(witness.ToString(interner));
  }
  EXPECT_EQ(witnesses, 161);
  EXPECT_EQ(digest, 18392652466446328661ULL);
}

/// The Theorem 5.1 case for `seed`: SemiIntervalTriple's shape with a
/// semi-interval comparison on Q1 and on the first two views as well, so
/// the comparison-aware plans and the view-constraint projections both
/// run. nullopt when the case is skipped.
std::optional<RandomTriple> ComparisonTriple(uint64_t seed,
                                             Interner* interner) {
  std::optional<RandomTriple> t = SemiIntervalTriple(seed, interner);
  if (!t.has_value()) return std::nullopt;
  static const ComparisonOp kOps[] = {ComparisonOp::kLt, ComparisonOp::kLe,
                                      ComparisonOp::kGt, ComparisonOp::kGe};
  auto bound = [seed](const Rule& r, uint64_t k) {
    std::vector<SymbolId> vars = r.BodyVariables();
    uint64_t h = seed * 31 + k;
    return Comparison(Term::Var(vars[h % vars.size()]), kOps[(h / 7) % 4],
                      Term::Number(Rational(static_cast<int64_t>(1 + h % 3))));
  };
  Rule& r1 = t->q1.program.rules[0];
  r1.comparisons.push_back(bound(r1, 0));
  std::vector<ViewDefinition> views = t->views.views();
  for (size_t i = 0; i < views.size() && i < 2; ++i) {
    views[i].rule.comparisons.push_back(bound(views[i].rule, i + 1));
  }
  Result<ViewSet> made = ViewSet::Make(std::move(views), interner);
  if (!made.ok()) return std::nullopt;
  t->views = std::move(*made);
  return t;
}

/// The Theorem 5.1 path, pinned like the witnesses above: the plan texts
/// ComparisonAwarePlan builds for both queries, the witness (the augmented
/// disjunct) and every error text of RelativelyContainedWithComparisons on
/// the first 100 comparison cases.
TEST(DifferentialTest, Theorem51WitnessTextIsPinned) {
  uint64_t digest = 14695981039346656037ULL;
  int folded = 0;
  auto fold = [&](const std::string& text) {
    for (char c : text + "\n") {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
    ++folded;
  };
  for (uint64_t i = 0; i < 100; ++i) {
    Interner interner;
    std::optional<RandomTriple> t = ComparisonTriple(7'000'000 + i, &interner);
    if (!t.has_value()) continue;
    Result<RelativeContainmentResult> r = RelativelyContainedWithComparisons(
        t->q1, t->q2, t->views, &interner, {});
    if (!r.ok()) {
      fold(r.status().ToString());
      continue;
    }
    fold(r->plan1.ToString(interner));
    fold(r->plan2.ToString(interner));
    if (r->witness.has_value()) fold(r->witness->ToString(interner));
  }
  EXPECT_EQ(folded, 247);
  EXPECT_EQ(digest, 5987181925101416114ULL);
}

/// A query IDB predicate that is also a mediated predicate resolves
/// against the query's own rule first and the inverse rules after it; one
/// that names a source closes a cycle through the inverse rules. The
/// Section 3 scan, CEGAR (which hands both to the scan) and Theorem 5.2
/// answer with these verdicts, witnesses and errors.
TEST(DifferentialTest, QueryIdbNamingCatalogPredicateIsPinned) {
  Interner interner;
  Result<ViewSet> views =
      ParseViews("v1(X, Y) :- p(X, Y).\nv2(X) :- r(X).", &interner);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  auto goal = [&](const char* text, const char* name) {
    Result<Program> p = ParseProgram(text, &interner);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return GoalQuery{p.ok() ? *p : Program(), interner.Intern(name)};
  };
  GoalQuery mediated_idb = goal("q1(X) :- r(X).\nr(X) :- p(X, Y).", "q1");
  GoalQuery source_idb = goal("q3(X) :- p(X, Y).\nv2(X) :- r(X).", "q3");
  GoalQuery plain = goal("q2(X) :- p(X, Y).", "q2");

  std::vector<std::string> seen;
  auto render = [&](const Result<RelativeContainmentResult>& r) {
    if (!r.ok()) return r.status().ToString();
    return std::string(r->contained ? "YES" : "NO ") +
           (r->witness.has_value() ? r->witness->ToString(interner) : "");
  };
  for (ContainmentStrategy strategy :
       {ContainmentStrategy::kScan, ContainmentStrategy::kCegar}) {
    RelativeContainmentOptions options;
    options.strategy = strategy;
    seen.push_back(render(
        RelativelyContained(mediated_idb, plain, *views, &interner, options)));
    seen.push_back(render(
        RelativelyContained(plain, mediated_idb, *views, &interner, options)));
    seen.push_back(render(
        RelativelyContained(source_idb, plain, *views, &interner, options)));
  }
  for (const GoalQuery* q1 : {&mediated_idb, &plain, &source_idb}) {
    const GoalQuery& q2 = q1 == &plain ? mediated_idb : plain;
    Rule witness;
    Result<bool> r = RelativelyContainedViaExpansion(*q1, q2, *views,
                                                     &interner, {}, &witness);
    seen.push_back(!r.ok() ? r.status().ToString()
                   : *r    ? std::string("YES")
                           : "NO " + witness.ToString(interner));
  }
  const std::string kCycle = "Unsupported: cannot unfold a recursive program";
  EXPECT_EQ(seen, std::vector<std::string>({
                      "NO q1(_R5) :- v2(_R5).", "YES", kCycle,  // scan
                      "NO q1(_R25) :- v2(_R25).", "YES", kCycle,  // CEGAR
                      "NO q1(_R51) :- r(_R51).", "YES", kCycle,  // Thm 5.2
                  }));
}

// ---------------------------------------------------------------------------
// Fragment 5: Section 4, binding patterns over path views.
// ---------------------------------------------------------------------------

struct Section4Triple {
  GoalQuery q1;
  GoalQuery q2;
  ViewSet views;
  BindingPatterns patterns;
};

GoalQuery MustParseGoal(const std::string& text, const char* goal,
                        Interner* interner) {
  Result<Program> p = ParseProgram(text, interner);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << "\n" << text;
  return GoalQuery{p.ok() ? *p : Program(), interner->Intern(goal)};
}

/// The Section 4 case of sub-sweep `shape` for `seed`: a path-view catalog
/// (Romero–Preda–Suchanek) whose input-bound views carry `bf`, and two
/// chain queries over its relations. nullopt when no view is bound (the
/// case would not be Section 4).
std::optional<Section4Triple> MakeSection4Triple(int shape, uint64_t seed,
                                                 Interner* interner) {
  PathViewOptions options;
  options.seed = seed;
  switch (shape) {
    case 0:  // small catalogs, short queries
      options.num_views = 3 + static_cast<int>(seed % 3);
      options.num_relations = 2;
      options.max_length = 2;
      options.bound_probability = 0.5;
      options.query_length = 1 + static_cast<int>(seed % 2);
      break;
    case 1:  // wider catalogs over three relations
      options.num_views = 4 + static_cast<int>(seed % 5);
      options.num_relations = 3;
      options.max_length = 3;
      options.bound_probability = 0.7;
      options.query_length = 1 + static_cast<int>(seed % 3);
      break;
    default:  // mostly bound views, longer queries
      options.num_views = 2 + static_cast<int>(seed % 4);
      options.num_relations = 3;
      options.max_length = 2;
      options.bound_probability = 0.8;
      options.query_length = 2 + static_cast<int>(seed % 2);
      break;
  }
  PathViewWorkload w = MakePathViewWorkload(options);
  if (w.patterns.empty()) return std::nullopt;
  options.query_length = 1 + static_cast<int>((seed / 2) % 2);
  options.seed = seed * 2654435761ULL + 97;
  std::string q2 = MakePathViewWorkload(options).query_text;
  CatalogSpec spec;
  spec.views_text = w.views_text;
  spec.patterns = w.patterns;
  Result<MaterializedCatalog> catalog = MaterializeCatalog(spec, interner);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  if (!catalog.ok()) return std::nullopt;
  // The generator names both queries q; rename their heads apart.
  return Section4Triple{
      MustParseGoal("qa" + w.query_text.substr(1), "qa", interner),
      MustParseGoal("qb" + q2.substr(1), "qb", interner),
      std::move(catalog->views), std::move(catalog->patterns)};
}

/// P1^exp of Theorem 4.1 for `t.q1`.
Result<Program> ExpandedPlanOf(const Section4Triple& t, Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(ExecutablePlanTemplate plan,
                           ExecutablePlanTemplate::Compile(t.views, t.patterns));
  RELCONT_ASSIGN_OR_RETURN(
      ExpandedExecutablePlan p1_exp,
      ExpandExecutablePlan(t.q1.program, t.q1.goal, t.views, &plan, interner));
  return std::move(p1_exp.program);
}

/// The source instance a frozen witness database induces: every view's
/// full extension over it (sound views may hold exactly that).
Database SourceInstance(const ViewSet& views, const Database& mediated) {
  Database out;
  for (const ViewDefinition& v : views.views()) {
    Result<std::vector<Tuple>> ext =
        EvaluateGoal(Program({v.rule}), v.source_predicate(), mediated);
    EXPECT_TRUE(ext.ok()) << ext.status().ToString();
    if (!ext.ok()) continue;
    for (Tuple& tuple : *ext) out.Add(v.source_predicate(), std::move(tuple));
  }
  return out;
}

/// Definition 4.3 re-check of a Section 4 NO: freezing `witness` gives a
/// mediated instance whose induced source instance has the frozen head
/// among Q1's reachable certain answers and not among Q2's.
void ExpectSection4Refutation(const Section4Triple& t, const Rule& witness,
                              Interner* interner, const std::string& hint) {
  FrozenWitness w = FreezeWitness(witness, interner);
  Database sources = SourceInstance(t.views, w.instance);
  Result<std::vector<Tuple>> r1 = ReachableCertainAnswers(
      t.q1.program, t.q1.goal, t.views, t.patterns, sources, interner);
  Result<std::vector<Tuple>> r2 = ReachableCertainAnswers(
      t.q2.program, t.q2.goal, t.views, t.patterns, sources, interner);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString() << "\n" << hint;
  ASSERT_TRUE(r2.ok()) << r2.status().ToString() << "\n" << hint;
  EXPECT_NE(std::find(r1->begin(), r1->end(), w.head), r1->end())
      << witness.ToString(*interner) << "\n" << hint;
  EXPECT_EQ(std::find(r2->begin(), r2->end(), w.head), r2->end())
      << witness.ToString(*interner) << "\n" << hint;
}

void RunSection4Sweep(int shape) {
  int decided = 0, refuted = 0, oracle_definite = 0, skipped = 0;
  ForEachCase(8'000'000 + 1'000'000 * static_cast<uint64_t>(shape),
              [&](uint64_t seed) {
    Interner interner;
    std::optional<Section4Triple> t =
        MakeSection4Triple(shape, seed, &interner);
    if (!t.has_value()) {
      ++skipped;
      return;
    }
    Result<BindingRelativeResult> exact = RelativelyContainedWithBindingPatterns(
        t->q1, t->q2, t->views, t->patterns, &interner);
    if (!exact.ok()) {
      ++skipped;
      return;
    }
    ++decided;
    if (!exact->contained) {
      ASSERT_TRUE(exact->counterexample.has_value()) << ReplayHint(seed);
      ExpectSection4Refutation(*t, *exact->counterexample, &interner,
                               ReplayHint(seed));
      ++refuted;
    }
    // The oracle: bounded expansion search over the same P1^exp. It is
    // definite on a NO it finds (and on a complete enumeration).
    Result<Program> p1_exp = ExpandedPlanOf(*t, &interner);
    ASSERT_TRUE(p1_exp.ok()) << p1_exp.status().ToString() << "\n"
                             << ReplayHint(seed);
    Result<UnionQuery> q2_ucq =
        UnfoldToUnion(t->q2.program, t->q2.goal, &interner);
    ASSERT_TRUE(q2_ucq.ok()) << ReplayHint(seed);
    WorkBudget budget;
    budget.set_limits(/*timeout_ms=*/0, /*max_steps=*/20'000);
    BudgetScope scope(&budget);
    ExpansionOptions bounds;
    bounds.max_rule_applications = 6;
    Rule oracle_witness;
    Result<bool> oracle = DatalogContainedInUcqBounded(
        *p1_exp, t->q1.goal, *q2_ucq, &interner, bounds, &oracle_witness);
    if (!oracle.ok()) return;
    ++oracle_definite;
    EXPECT_EQ(*oracle, exact->contained) << ReplayHint(seed);
  });
  ::testing::Test::RecordProperty("decided", decided);
  ::testing::Test::RecordProperty("refuted", refuted);
  ::testing::Test::RecordProperty("oracle_definite", oracle_definite);
  ::testing::Test::RecordProperty("skipped", skipped);
  EXPECT_GT(decided, skipped);
  EXPECT_GT(refuted, 0);
  EXPECT_GT(oracle_definite, 0);
}

TEST(DifferentialTest, Section4SmallCatalogsMatchExpansionOracle) {
  RunSection4Sweep(0);
}

TEST(DifferentialTest, Section4WideCatalogsMatchExpansionOracle) {
  RunSection4Sweep(1);
}

TEST(DifferentialTest, Section4BoundCatalogsMatchExpansionOracle) {
  RunSection4Sweep(2);
}

/// The Section 4 front door on the first 100 cases of the small-catalog
/// sweep, folded into one FNV-1a digest: the verdict (or error text), the
/// regime, the witness text and Q1's executable plan text. Witness
/// variables and the plan's dom predicate are fresh symbols, so the
/// digest also pins the fresh numbering the decision mints.
TEST(DifferentialTest, Section4TextIsPinned) {
  uint64_t digest = 14695981039346656037ULL;
  int folded = 0;
  auto fold = [&](const std::string& text) {
    for (char c : text + "\n") {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
    ++folded;
  };
  for (uint64_t i = 0; i < 100; ++i) {
    Interner interner;
    std::optional<Section4Triple> t =
        MakeSection4Triple(/*shape=*/0, 8'000'000 + i, &interner);
    if (!t.has_value()) continue;
    Result<Decision> d = DecideRelativeContainment(
        t->q1, t->q2, t->views, t->patterns, &interner, {});
    if (!d.ok()) {
      fold(d.status().ToString());
    } else {
      fold(d->contained ? "YES" : "NO");
      fold(std::string(d->regime_name()));
      if (d->witness.has_value()) fold(d->witness->ToString(interner));
    }
    Result<ExecutablePlanResult> plan =
        ExecutablePlan(t->q1.program, t->views, t->patterns, &interner);
    fold(plan.ok() ? plan->program.ToString(interner)
                   : plan.status().ToString());
  }
  EXPECT_EQ(folded, 333);
  EXPECT_EQ(digest, 14105222063713029717ULL);
}

/// Catalog-shaped corner cases of Q1, decided through Section 4 (with a
/// `bf` pattern) and through Theorem 3.2 (no patterns, recursive Q1): an
/// IDB predicate named like a mediated relation, one named like a source,
/// and constants shared with the views.
TEST(DifferentialTest, Section4AndTheorem32CornerCasesArePinned) {
  Interner interner;
  const std::string views_text =
      "v(X, Y) :- e(X, Y).\nu(X, Y) :- f(X, Y).\nw(X) :- e(X, c).";
  Result<ViewSet> views = ParseViews(views_text, &interner);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  BindingPatterns patterns;
  patterns.AddAlternative(interner.Intern("v"), *Adornment::Parse("bf"));
  auto goal = [&](const char* text, const char* name) {
    return MustParseGoal(text, name, &interner);
  };
  const GoalQuery q2 = goal("b(X) :- e(X, Y).", "b");
  const GoalQuery q2_const = goal("b(X) :- e(X, c).", "b");
  struct Corner {
    GoalQuery q1;
    const GoalQuery* q2;
    bool recursive;
  };
  const std::vector<Corner> corners = {
      // Q1 IDB f, a mediated relation of u.
      {goal("a(X) :- f(X, Y).\nf(X, Y) :- e(X, Y).", "a"), &q2, false},
      {goal("a(X) :- f(X, Y).\nf(X, Y) :- e(X, Y).\n"
            "f(X, Y) :- e(X, Z), f(Z, Y).",
            "a"),
       &q2, true},
      // Q1 IDB u, a source.
      {goal("a(X) :- u(X, Y).\nu(X, Y) :- e(X, Y).", "a"), &q2, false},
      {goal("a(X) :- u(X, Y).\nu(X, Y) :- e(X, Y).\n"
            "u(X, Y) :- e(X, Z), u(Z, Y).",
            "a"),
       &q2, true},
      // Q1 constants shared with the views.
      {goal("a(X) :- e(X, c).", "a"), &q2_const, false},
      {goal("a(X) :- e(c, X).", "a"), &q2, false},
      {goal("a(X) :- t(X, c).\nt(X, Y) :- e(X, Y).\n"
            "t(X, Y) :- e(X, Z), t(Z, Y).",
            "a"),
       &q2_const, true},
  };
  std::vector<std::string> seen;
  auto render = [&](const Result<Decision>& d) {
    if (!d.ok()) return d.status().ToString();
    return std::string(d->contained ? "YES " : "NO ") +
           std::string(d->regime_name()) +
           (d->witness.has_value() ? " " + d->witness->ToString(interner)
                                   : "");
  };
  for (const Corner& c : corners) {
    seen.push_back(render(DecideRelativeContainment(c.q1, *c.q2, *views,
                                                    patterns, &interner, {})));
    if (c.recursive) {
      seen.push_back(render(DecideRelativeContainment(
          c.q1, *c.q2, *views, BindingPatterns(), &interner, {})));
    }
  }
  EXPECT_EQ(seen,
            std::vector<std::string>({
                // IDB named like a mediated relation.
                "NO section4 a(_R29) :- f(_R29, _R30).",
                "NO section4 a(_R16395) :- f(_R16395, _R16396).",
                "NO theorem32 a(_R17031) :- f(_R17031, _R17032).",
                // IDB named like a source.
                "NO section4 a(_R17057) :- f(_R17057, _R17058).",
                "NO section4 a(_R17085) :- f(_R17085, _R17086).",
                "NO theorem32 a(_R17098) :- f(_R17098, _R17099).",
                // Constants shared with the views.
                "YES section4",
                "NO section4 a(_R17149) :- e(c, _R17149).",
                "NO section4 a(_R17246) :- f(_R17294, _R17295), "
                "e(_R17294, _R17256), e(_R17256, _R17254), "
                "e(_R17254, _R17252), e(_R17252, _R17250), "
                "e(_R17250, _R17248), e(_R17248, _R17246), "
                "e(_R17246, _R17300), e(_R17300, c).",
                "NO theorem32 a(_R17316) :- e(_R17316, _R17320), "
                "e(_R17320, c).",
            }));
}

}  // namespace
}  // namespace relcont
