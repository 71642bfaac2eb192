#include "common/interner.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace relcont {

SymbolId Interner::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  uint32_t prefix = 0;
  int64_t n = 0;
  if (MatchPrefix(name, &prefix, &n)) prefixes_[prefix].taken.insert(n);
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

SymbolId Interner::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidSymbol : it->second;
}

SymbolId Interner::FreshBlock(std::string_view prefix, int32_t count) {
  uint32_t tag = 0;
  while (tag < prefixes_.size() && prefixes_[tag].text != prefix) ++tag;
  if (tag == prefixes_.size()) {
    prefixes_.push_back({std::string(prefix), {}});
    for (const std::string& name : names_) {
      uint32_t p = 0;
      int64_t n = 0;
      if (MatchPrefix(name, &p, &n) && p == tag) prefixes_[p].taken.insert(n);
    }
  }
  const std::unordered_set<int64_t>& taken = prefixes_[tag].taken;
  const SymbolId first = kFreshBase + live_fresh_;
  for (int32_t i = 0; i < count; ++i) {
    int64_t n = counter_++;
    while (!taken.empty() && taken.count(n) > 0) n = counter_++;
    if (live_fresh_ == static_cast<int32_t>(fresh_.size())) {
      fresh_.emplace_back();
    }
    FreshSlot& slot = fresh_[live_fresh_++];
    slot.prefix = tag;
    slot.n = n;
    slot.name.clear();
  }
  fresh_minted_ += count;
  return first;
}

bool Interner::IsFresh(SymbolId id, std::string_view prefix) const {
  return id >= kFreshBase && id - kFreshBase < live_fresh_ &&
         prefixes_[fresh_[id - kFreshBase].prefix].text == prefix;
}

const std::string& Interner::FreshName(SymbolId id) const {
  if (id - kFreshBase >= live_fresh_) {
    // On in every build: a rolled-back id would read a reused slot.
    std::fprintf(stderr, "Interner: fresh id %d read after its Rollback\n",
                 id);
    std::abort();
  }
  const FreshSlot& slot = fresh_[id - kFreshBase];
  if (slot.name.empty()) {
    slot.name = prefixes_[slot.prefix].text + std::to_string(slot.n);
  }
  return slot.name;
}

bool Interner::MatchPrefix(std::string_view name, uint32_t* prefix,
                           int64_t* n) const {
  for (uint32_t p = 0; p < prefixes_.size(); ++p) {
    if (!name.starts_with(prefixes_[p].text)) continue;
    std::string_view digits = name.substr(prefixes_[p].text.size());
    // Only the spelling std::to_string gives: digits, no leading zero.
    if (digits.empty() || digits[0] < '0' || digits[0] > '9' ||
        (digits[0] == '0' && digits.size() > 1)) {
      continue;
    }
    const char* end = digits.data() + digits.size();
    auto [ptr, error] = std::from_chars(digits.data(), end, *n);
    if (error == std::errc() && ptr == end) {
      *prefix = p;
      return true;
    }
  }
  return false;
}

}  // namespace relcont
