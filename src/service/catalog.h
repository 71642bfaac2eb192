#ifndef RELCONT_SERVICE_CATALOG_H_
#define RELCONT_SERVICE_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "binding/adornment.h"
#include "binding/dom_plan.h"
#include "common/interner.h"
#include "common/status.h"
#include "rewriting/views.h"

namespace relcont {

/// An immutable, named snapshot of a data integration system's source
/// descriptions: the view definitions plus the binding patterns.
///
/// Snapshots are stored as *text*, not parsed structures: parsed ViewSets
/// carry SymbolIds bound to one Interner, and the service gives every
/// worker thread its own interner arena (Interner is not thread-safe; see
/// common/interner.h). Workers materialize the text into their arena on
/// first use and cache the result by (name, version).
struct CatalogSpec {
  std::string name;
  /// Monotonically increasing per name; re-registering bumps it, which
  /// invalidates worker materializations and rotates cache keys, so stale
  /// cached decisions are never served for an updated catalog.
  int64_t version = 0;
  /// View definitions, one rule per view (ParseViews syntax).
  std::string views_text;
  /// Number of views in views_text (counted during validation, so CATALOG?
  /// introspection never needs to re-parse the text).
  int num_views = 0;
  /// (source predicate name, adornment text) pairs, e.g. ("redcars", "bf").
  std::vector<std::pair<std::string, std::string>> patterns;
};

/// A CatalogSpec parsed against one worker's interner. `views` is the
/// compiled catalog (ViewSet::Make): checked, indexed and with its inverse
/// rules Skolemized, once per worker and version; `plan` is the catalog's
/// share of the Section 4 executable plan under `patterns`, compiled with
/// it (absent without patterns).
struct MaterializedCatalog {
  int64_t version = 0;
  ViewSet views;
  BindingPatterns patterns;
  std::optional<ExecutablePlanTemplate> plan;
};

/// Parses and compiles `spec` against `interner`: views must parse and pass
/// ViewSet::Make, every pattern must name a declared source with a
/// matching arity.
Result<MaterializedCatalog> MaterializeCatalog(const CatalogSpec& spec,
                                               Interner* interner);

/// A thread-safe registry of named catalog snapshots. Registration
/// validates the spec (by materializing it against a scratch interner)
/// before publishing; lookups hand out shared immutable snapshots, so a
/// concurrent re-registration never mutates a spec a reader holds.
class CatalogRegistry {
 public:
  /// Invoked after every successful Register with the published name and
  /// version (the plan cache invalidates that catalog's entries this way).
  /// Must be safe to call from many registering threads concurrently.
  using RegistrationListener =
      std::function<void(const std::string& name, int64_t version)>;

  /// Validates and publishes `views_text` + `patterns` under `name`,
  /// replacing any previous snapshot. Returns the published version
  /// (1 for a new name, previous + 1 on replacement).
  Result<int64_t> Register(
      const std::string& name, std::string views_text,
      std::vector<std::pair<std::string, std::string>> patterns = {});

  /// Installs the registration listener (empty function removes it). Not
  /// synchronized against in-flight Register calls — install before the
  /// registry is shared, as the owning service's constructor does.
  void set_registration_listener(RegistrationListener listener) {
    listener_ = std::move(listener);
  }

  /// The current snapshot for `name`, or nullptr if never registered.
  std::shared_ptr<const CatalogSpec> Find(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CatalogSpec>> catalogs_;
  /// Immutable once the registry is shared (see set_registration_listener),
  /// so Register may invoke it outside mu_.
  RegistrationListener listener_;
};

/// Per-thread working memory: an interner arena plus the catalogs
/// materialized against it. NOT thread-safe — each context must be used by
/// one thread at a time (constructing one is cheap). Each request brackets
/// its fresh symbols with Interner::Mark/Rollback (service/request_frame.h),
/// so the arena holds only the vocabulary of the queries and catalogs it
/// has seen.
class WorkerContext {
 public:
  Interner* interner() { return &interner_; }

  /// `name`'s current snapshot in `registry`, materialized into this arena
  /// on first use and cached by version.
  Result<const MaterializedCatalog*> Catalog(const CatalogRegistry& registry,
                                             const std::string& name);

 private:
  Interner interner_;
  std::map<std::string, MaterializedCatalog> catalogs_;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_CATALOG_H_
