#include "src/base/schema.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/string_utils.h"

namespace t2m {

VarIndex Schema::add(VarInfo info) {
  if (find(info.name)) {
    throw std::invalid_argument("Schema: duplicate variable name '" + info.name + "'");
  }
  SymbolIndex index;
  for (std::size_t i = 0; i < info.symbols.size(); ++i) {
    index.emplace(info.symbols[i], static_cast<std::int64_t>(i));  // first spelling wins
  }
  vars_.push_back(std::move(info));
  sym_index_.push_back(std::move(index));
  return vars_.size() - 1;
}

VarIndex Schema::add_int(std::string name) {
  VarInfo info;
  info.name = std::move(name);
  info.type = VarType::Int;
  return add(std::move(info));
}

VarIndex Schema::add_bool(std::string name) {
  VarInfo info;
  info.name = std::move(name);
  info.type = VarType::Bool;
  return add(std::move(info));
}

VarIndex Schema::add_cat(std::string name, std::vector<std::string> symbols,
                         std::optional<std::string> default_symbol) {
  VarInfo info;
  info.name = std::move(name);
  info.type = VarType::Cat;
  info.symbols = std::move(symbols);
  if (default_symbol) {
    const auto it = std::find(info.symbols.begin(), info.symbols.end(), *default_symbol);
    if (it == info.symbols.end()) {
      throw std::invalid_argument("Schema: default symbol '" + *default_symbol +
                                  "' not among symbols of '" + info.name + "'");
    }
    info.default_sym = static_cast<std::int64_t>(it - info.symbols.begin());
  }
  return add(std::move(info));
}

const VarInfo& Schema::var(VarIndex i) const {
  if (i >= vars_.size()) throw std::out_of_range("Schema::var index out of range");
  return vars_[i];
}

std::optional<VarIndex> Schema::find(std::string_view name) const {
  for (VarIndex i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return i;
  }
  return std::nullopt;
}

void Schema::require_cat(VarIndex v, const char* caller) const {
  const VarInfo& info = var(v);
  if (info.type != VarType::Cat) {
    throw std::logic_error(std::string("Schema::") + caller + " on non-categorical variable " +
                           info.name);
  }
}

std::int64_t Schema::sym_id(VarIndex v, std::string_view spelling) const {
  require_cat(v, "sym_id");
  const SymbolIndex& index = sym_index_[v];
  const auto it = index.find(spelling);
  if (it != index.end()) return it->second;
  throw std::invalid_argument("Schema: unknown symbol '" + std::string(spelling) +
                              "' for variable " + vars_[v].name);
}

std::int64_t Schema::sym_id_intern(VarIndex v, std::string_view spelling) {
  require_cat(v, "sym_id_intern");
  SymbolIndex& index = sym_index_[v];
  const auto it = index.find(spelling);
  if (it != index.end()) return it->second;
  std::vector<std::string>& symbols = vars_[v].symbols;
  const auto id = static_cast<std::int64_t>(symbols.size());
  symbols.emplace_back(spelling);
  index.emplace(symbols.back(), id);
  return id;
}

const std::string& Schema::sym_name(VarIndex v, std::int64_t id) const {
  const VarInfo& info = var(v);
  if (info.type != VarType::Cat) {
    throw std::logic_error("Schema::sym_name on non-categorical variable " + info.name);
  }
  if (id < 0 || static_cast<std::size_t>(id) >= info.symbols.size()) {
    throw std::out_of_range("Schema::sym_name id out of range for " + info.name);
  }
  return info.symbols[static_cast<std::size_t>(id)];
}

Value Schema::parse_value(VarIndex v, std::string_view text) const {
  const VarInfo& info = var(v);
  switch (info.type) {
    case VarType::Int: {
      // Strict parse instead of stoll: a malformed trace row yields a
      // diagnostic naming the variable, not an uncaught exception. The
      // whole token must parse ("12x" is rejected, not truncated to 12).
      std::int64_t parsed = 0;
      if (!parse_int64(text, parsed)) {
        throw std::invalid_argument("Schema: bad integer literal '" + std::string(text) +
                                    "' for variable " + info.name);
      }
      return Value::of_int(parsed);
    }
    case VarType::Bool:
      if (text == "true" || text == "1") return Value::of_bool(true);
      if (text == "false" || text == "0") return Value::of_bool(false);
      throw std::invalid_argument("Schema: bad boolean literal '" + std::string(text) + "'");
    case VarType::Cat:
      return Value::of_sym(sym_id(v, text));
  }
  throw std::logic_error("Schema::parse_value: unreachable");
}

std::string Schema::format_value(VarIndex v, const Value& val) const {
  const VarInfo& info = var(v);
  switch (info.type) {
    case VarType::Int:
      return std::to_string(val.as_int());
    case VarType::Bool:
      return val.as_bool() ? "true" : "false";
    case VarType::Cat:
      return sym_name(v, val.as_sym());
  }
  throw std::logic_error("Schema::format_value: unreachable");
}

bool Schema::all_categorical() const {
  return !vars_.empty() &&
         std::all_of(vars_.begin(), vars_.end(),
                     [](const VarInfo& v) { return v.type == VarType::Cat; });
}

bool Schema::all_numeric() const {
  return !vars_.empty() &&
         std::all_of(vars_.begin(), vars_.end(),
                     [](const VarInfo& v) { return v.is_numeric(); });
}

}  // namespace t2m
