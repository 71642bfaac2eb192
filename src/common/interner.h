#ifndef RELCONT_COMMON_INTERNER_H_
#define RELCONT_COMMON_INTERNER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace relcont {

/// A dense integer handle for an interned string (predicate name, variable
/// name, symbolic constant, or Skolem function name).
using SymbolId = int32_t;

/// Sentinel for "no symbol".
inline constexpr SymbolId kInvalidSymbol = -1;

/// Bidirectional string <-> SymbolId table, plus string-free fresh symbols.
///
/// The library uses one interner per "universe" of discourse (typically one
/// per test or application session); all datalog structures built against it
/// carry SymbolIds and are cheap to hash and compare.
///
/// Named symbols (Intern) get dense ids from 0. Fresh symbols (Fresh) — the
/// variables, nulls and constants the decision procedures mint to rename
/// views apart or freeze queries — get ids from a reserved range above them:
/// minting one stores a prefix tag and a counter value, and NameOf renders
/// "<prefix><n>" only when something prints it. A fresh name never spells
/// a name interned before it: the counter skips the values that interned
/// names of the prefix's shape spell.
///
/// Mark() and Rollback() scope fresh symbols: Rollback gives back every
/// fresh id minted since the mark and restarts the counter there, so an
/// interner that brackets each unit of work (the service brackets each
/// request) stays at its vocabulary size. A rolled-back id must not be used
/// again; NameOf aborts on one.
///
/// Thread-safety: NONE, by design — Intern() and Fresh() mutate the table,
/// NameOf() caches rendered fresh names, and even logically read-only
/// decision procedures allocate fresh symbols through it. Concurrent work
/// must use one Interner per thread and keep every structure carrying
/// SymbolIds confined to the thread that owns the interner those ids came
/// from (the service layer's worker arenas do exactly this; cross-thread
/// values travel as rendered text or canonical fingerprints instead).
class Interner {
 public:
  /// The fresh state a Rollback() returns to.
  struct FreshMark {
    int32_t live = 0;
    int64_t counter = 0;
  };

  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id for `name`, creating it if needed.
  SymbolId Intern(std::string_view name);

  /// Returns the id for `name`, or kInvalidSymbol if it was never interned.
  SymbolId Lookup(std::string_view name) const;

  /// Returns the string for `id` (named, or fresh and live). The reference
  /// stays valid while the id does.
  const std::string& NameOf(SymbolId id) const {
    return id < kFreshBase ? names_[id] : FreshName(id);
  }

  /// Ids minted since construction, named and fresh. Rollback() never
  /// lowers it.
  int64_t size() const {
    return static_cast<int64_t>(names_.size()) + fresh_minted_;
  }
  int64_t named_count() const { return static_cast<int64_t>(names_.size()); }
  int64_t live_fresh_count() const { return live_fresh_; }

  /// Mints a fresh symbol named "<prefix><n>", distinct from every name
  /// interned so far and every live fresh symbol. `prefix` must not end in
  /// a digit, so no two prefixes spell the same name.
  SymbolId Fresh(std::string_view prefix) { return FreshBlock(prefix, 1); }

  /// Mints `count` fresh symbols at once and returns the first: their ids
  /// are the consecutive first .. first + count - 1, and they take the
  /// names `count` Fresh(prefix) calls would. With `count` 0 it mints
  /// nothing and returns the id the next fresh symbol will get.
  SymbolId FreshBlock(std::string_view prefix, int32_t count);

  /// The first id of the fresh range: named ids lie below it, fresh ids
  /// (live or not) at or above it.
  static constexpr SymbolId kFreshBase = SymbolId{1} << 30;

  /// True iff `id` is a live fresh id minted with `prefix`.
  bool IsFresh(SymbolId id, std::string_view prefix) const;

  FreshMark Mark() const { return {live_fresh_, counter_}; }
  /// Releases every fresh id minted since `mark`. Marks nest: roll back the
  /// innermost outstanding one first.
  void Rollback(FreshMark mark) {
    live_fresh_ = mark.live;
    counter_ = mark.counter;
  }

 private:
  struct Prefix {
    std::string text;
    /// Counter values an interned "<text><n>" already spells.
    std::unordered_set<int64_t> taken;
  };
  struct FreshSlot {
    uint32_t prefix = 0;
    int64_t n = 0;
    mutable std::string name;  // rendered on first NameOf
  };
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  const std::string& FreshName(SymbolId id) const;
  /// The prefix whose shape ("<prefix><n>") `name` has, and its n.
  bool MatchPrefix(std::string_view name, uint32_t* prefix, int64_t* n) const;

  std::unordered_map<std::string, SymbolId, NameHash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
  std::vector<Prefix> prefixes_;
  /// Slots [0, live_fresh_) are live. Released slots are kept for reuse; a
  /// deque keeps rendered names in place as it grows.
  std::deque<FreshSlot> fresh_;
  int32_t live_fresh_ = 0;
  int64_t counter_ = 0;
  int64_t fresh_minted_ = 0;
};

}  // namespace relcont

#endif  // RELCONT_COMMON_INTERNER_H_
