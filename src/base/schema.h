#ifndef T2M_BASE_SCHEMA_H
#define T2M_BASE_SCHEMA_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/value.h"

namespace t2m {

/// Index of a variable within a schema.
using VarIndex = std::size_t;

/// Static type of an observed variable.
enum class VarType : std::uint8_t {
  Int,   ///< signed integer data (queue lengths, counters, ...)
  Bool,  ///< boolean flag, stored as Int 0/1
  Cat,   ///< categorical event/state, stored as interned symbol id
};

/// Per-variable schema entry. Categorical variables own a symbol table
/// mapping symbol ids to their spellings; `default_sym` identifies the
/// "idle"/background value whose atoms are suppressed in mixed abstraction.
struct VarInfo {
  std::string name;
  VarType type = VarType::Int;
  std::vector<std::string> symbols;          // Cat only
  std::optional<std::int64_t> default_sym;   // Cat only

  bool is_numeric() const { return type == VarType::Int || type == VarType::Bool; }
};

/// The set of user-defined variables X = {x1..xk} observed in a trace.
/// A schema is immutable once traces refer to it by reference.
class Schema {
public:
  Schema() = default;

  /// Declares an integer variable; returns its index.
  VarIndex add_int(std::string name);
  /// Declares a boolean variable; returns its index.
  VarIndex add_bool(std::string name);
  /// Declares a categorical variable with the given symbol spellings.
  /// If `default_symbol` names one of them, that symbol is the idle value.
  VarIndex add_cat(std::string name, std::vector<std::string> symbols,
                   std::optional<std::string> default_symbol = std::nullopt);

  std::size_t size() const { return vars_.size(); }
  const VarInfo& var(VarIndex i) const;
  const std::vector<VarInfo>& vars() const { return vars_; }

  /// Index lookup by variable name.
  std::optional<VarIndex> find(std::string_view name) const;

  /// Symbol id for `spelling` of categorical variable `v`; throws if unknown.
  std::int64_t sym_id(VarIndex v, std::string_view spelling) const;
  /// Symbol id, interning the spelling if new (used by trace readers).
  std::int64_t sym_id_intern(VarIndex v, std::string_view spelling);
  /// Spelling of symbol `id` of categorical variable `v`.
  const std::string& sym_name(VarIndex v, std::int64_t id) const;

  /// Value constructed from its textual form according to the variable type.
  Value parse_value(VarIndex v, std::string_view text) const;
  /// Textual form of `val` for variable `v` ("7", "true", "READ").
  std::string format_value(VarIndex v, const Value& val) const;

  /// True when every variable is categorical (mode E traces).
  bool all_categorical() const;
  /// True when every variable is numeric (mode N traces).
  bool all_numeric() const;

private:
  /// Transparent FNV-1a hash, so the symbol index is probed with a
  /// string_view (no std::string per lookup) and short event names hash
  /// inline.
  struct SymbolHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      return static_cast<std::size_t>(h);
    }
  };
  /// Spelling -> first symbol id with that spelling, for one categorical
  /// variable. It owns its keys, so it stays valid when the symbol table
  /// reallocates and when the Schema is copied or moved.
  using SymbolIndex = std::unordered_map<std::string, std::int64_t, SymbolHash, std::equal_to<>>;

  VarIndex add(VarInfo info);
  /// Throws std::logic_error unless `v` is categorical.
  void require_cat(VarIndex v, const char* caller) const;

  std::vector<VarInfo> vars_;
  std::vector<SymbolIndex> sym_index_;  ///< parallel to vars_; empty for non-Cat
};

}  // namespace t2m

#endif  // T2M_BASE_SCHEMA_H
