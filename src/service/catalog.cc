#include "service/catalog.h"

namespace relcont {

Result<MaterializedCatalog> MaterializeCatalog(const CatalogSpec& spec,
                                               Interner* interner) {
  MaterializedCatalog out;
  out.version = spec.version;
  RELCONT_ASSIGN_OR_RETURN(out.views, ParseViews(spec.views_text, interner));
  RELCONT_RETURN_NOT_OK(out.views.Validate());
  for (const auto& [source, adornment_text] : spec.patterns) {
    SymbolId pred = interner->Lookup(source);
    const ViewDefinition* view =
        pred == kInvalidSymbol ? nullptr : out.views.Find(pred);
    if (view == nullptr) {
      return Status::InvalidArgument("pattern names unknown source '" +
                                     source + "'");
    }
    RELCONT_ASSIGN_OR_RETURN(Adornment adornment,
                             Adornment::Parse(adornment_text));
    if (adornment.arity() != view->rule.head.arity()) {
      return Status::InvalidArgument(
          "adornment '" + adornment_text + "' has arity " +
          std::to_string(adornment.arity()) + " but source '" + source +
          "' has arity " + std::to_string(view->rule.head.arity()));
    }
    out.patterns.AddAlternative(pred, std::move(adornment));
  }
  return out;
}

Result<int64_t> CatalogRegistry::Register(
    const std::string& name, std::string views_text,
    std::vector<std::pair<std::string, std::string>> patterns) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog name must be nonempty");
  }
  auto spec = std::make_shared<CatalogSpec>();
  spec->name = name;
  spec->views_text = std::move(views_text);
  spec->patterns = std::move(patterns);
  // Validate against a scratch interner before publishing, so a registry
  // never holds a snapshot that workers cannot materialize.
  {
    Interner scratch;
    RELCONT_ASSIGN_OR_RETURN(MaterializedCatalog materialized,
                             MaterializeCatalog(*spec, &scratch));
    spec->num_views = static_cast<int>(materialized.views.size());
  }
  int64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalogs_.find(name);
    spec->version = it == catalogs_.end() ? 1 : it->second->version + 1;
    version = spec->version;
    catalogs_[name] = std::move(spec);
  }
  // Outside mu_: the listener may take locks of its own (the plan cache's
  // shard mutexes), and readers must not block on it.
  if (listener_) listener_(name, version);
  return version;
}

std::shared_ptr<const CatalogSpec> CatalogRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalogs_.find(name);
  return it == catalogs_.end() ? nullptr : it->second;
}

std::vector<std::string> CatalogRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(catalogs_.size());
  for (const auto& [name, spec] : catalogs_) names.push_back(name);
  return names;
}

size_t CatalogRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalogs_.size();
}

WorkerContext::WorkerContext() : interner_(std::make_unique<Interner>()) {}

Result<const MaterializedCatalog*> WorkerContext::Catalog(
    const CatalogRegistry& registry, const std::string& name) {
  std::shared_ptr<const CatalogSpec> spec = registry.Find(name);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown catalog '" + name + "'");
  }
  auto it = catalogs_.find(name);
  if (it != catalogs_.end() && it->second.version == spec->version) {
    return &it->second;
  }
  RELCONT_ASSIGN_OR_RETURN(MaterializedCatalog materialized,
                           MaterializeCatalog(*spec, interner()));
  auto [pos, inserted] =
      catalogs_.insert_or_assign(name, std::move(materialized));
  (void)inserted;
  return &pos->second;
}

void WorkerContext::RetireIfAbove(int64_t max_symbols) {
  if (interner_->size() <= max_symbols) return;
  catalogs_.clear();
  interner_ = std::make_unique<Interner>();
}

}  // namespace relcont
