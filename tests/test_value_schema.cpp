#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/base/schema.h"
#include "src/base/value.h"
#include "src/util/rng.h"

namespace t2m {
namespace {

TEST(Value, IntRoundTrip) {
  const Value v = Value::of_int(-42);
  EXPECT_TRUE(v.is_int());
  EXPECT_FALSE(v.is_sym());
  EXPECT_EQ(v.as_int(), -42);
  EXPECT_EQ(v.debug_string(), "-42");
}

TEST(Value, BoolIsInt) {
  EXPECT_EQ(Value::of_bool(true).as_int(), 1);
  EXPECT_EQ(Value::of_bool(false).as_int(), 0);
  EXPECT_TRUE(Value::of_bool(true).as_bool());
}

TEST(Value, SymRoundTrip) {
  const Value v = Value::of_sym(3);
  EXPECT_TRUE(v.is_sym());
  EXPECT_EQ(v.as_sym(), 3);
  EXPECT_THROW(v.as_int(), std::logic_error);
}

TEST(Value, EqualityDistinguishesKinds) {
  EXPECT_NE(Value::of_int(1), Value::of_sym(1));
  EXPECT_EQ(Value::of_int(1), Value::of_bool(true));
  EXPECT_EQ(Value::of_sym(2), Value::of_sym(2));
}

TEST(Value, OrderingIsTotal) {
  EXPECT_LT(Value::of_int(1), Value::of_int(2));
  EXPECT_LT(Value::of_int(5), Value::of_sym(0));  // Int kind sorts first
}

TEST(Schema, DeclareAndLookup) {
  Schema schema;
  const VarIndex x = schema.add_int("x");
  const VarIndex flag = schema.add_bool("flag");
  const VarIndex ev = schema.add_cat("ev", {"idle", "read"}, "idle");
  EXPECT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema.find("x"), std::optional<VarIndex>(x));
  EXPECT_EQ(schema.find("flag"), std::optional<VarIndex>(flag));
  EXPECT_EQ(schema.find("ev"), std::optional<VarIndex>(ev));
  EXPECT_FALSE(schema.find("nope").has_value());
}

TEST(Schema, DuplicateNameRejected) {
  Schema schema;
  schema.add_int("x");
  EXPECT_THROW(schema.add_bool("x"), std::invalid_argument);
}

TEST(Schema, CatSymbols) {
  Schema schema;
  const VarIndex ev = schema.add_cat("ev", {"a", "b"}, "a");
  EXPECT_EQ(schema.sym_id(ev, "a"), 0);
  EXPECT_EQ(schema.sym_id(ev, "b"), 1);
  EXPECT_EQ(schema.sym_name(ev, 1), "b");
  EXPECT_EQ(schema.var(ev).default_sym, std::optional<std::int64_t>(0));
  EXPECT_THROW(schema.sym_id(ev, "c"), std::invalid_argument);
}

TEST(Schema, InternGrowsSymbolTable) {
  Schema schema;
  const VarIndex ev = schema.add_cat("ev", {}, std::nullopt);
  EXPECT_EQ(schema.sym_id_intern(ev, "x"), 0);
  EXPECT_EQ(schema.sym_id_intern(ev, "y"), 1);
  EXPECT_EQ(schema.sym_id_intern(ev, "x"), 0);
  EXPECT_EQ(schema.var(ev).symbols.size(), 2u);
}

TEST(Schema, InternIndexKeepsFirstOccurrenceIdsAcrossCopies) {
  // 1000 distinct spellings, each seen several times in a shuffled stream:
  // the hashed index must hand out ids in first-occurrence order, exactly
  // as the linear scan it replaced.
  Rng rng(99);
  std::vector<std::string> stream;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 1000; ++i) stream.push_back("sym_" + std::to_string(i));
  }
  for (std::size_t i = stream.size() - 1; i > 0; --i) {
    std::swap(stream[i], stream[rng.below(i + 1)]);
  }
  Schema schema;
  const VarIndex ev = schema.add_cat("ev", {}, std::nullopt);
  std::vector<std::string> first_order;
  for (const std::string& name : stream) {
    const auto id = schema.sym_id_intern(ev, name);
    if (static_cast<std::size_t>(id) == first_order.size()) first_order.push_back(name);
    ASSERT_LT(static_cast<std::size_t>(id), first_order.size());
    EXPECT_EQ(first_order[static_cast<std::size_t>(id)], name);
  }
  ASSERT_EQ(first_order.size(), 1000u);
  EXPECT_EQ(schema.var(ev).symbols, first_order);

  // A copy answers with the same ids, and the two index their own growth.
  Schema copy = schema;
  for (std::size_t i = 0; i < first_order.size(); ++i) {
    EXPECT_EQ(copy.sym_id_intern(ev, first_order[i]), static_cast<std::int64_t>(i));
    EXPECT_EQ(copy.sym_id(ev, first_order[i]), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(copy.sym_id_intern(ev, "only_in_copy"), 1000);
  EXPECT_EQ(schema.sym_id_intern(ev, "only_in_original"), 1000);
  EXPECT_EQ(copy.sym_id_intern(ev, "only_in_original"), 1001);
  EXPECT_THROW(schema.sym_id(ev, "only_in_copy"), std::invalid_argument);
  // A moved-to schema keeps the index; the original is unaffected.
  const Schema moved = std::move(copy);
  EXPECT_EQ(moved.sym_id(ev, "only_in_copy"), 1000);
  const auto pos = std::find(first_order.begin(), first_order.end(), "sym_7");
  EXPECT_EQ(schema.sym_id(ev, "sym_7"), pos - first_order.begin());
}

TEST(Schema, InternAgreesWithDeclaredSymbols) {
  // Symbols declared by add_cat (as a `# var ... cat` header does) are in
  // the index from the start; a repeated spelling keeps its first id.
  Schema schema;
  schema.add_int("x");
  const VarIndex ev = schema.add_cat("ev", {"IDLE", "READ", "WRITE", "READ"}, "IDLE");
  EXPECT_EQ(schema.sym_id_intern(ev, "WRITE"), 2);
  EXPECT_EQ(schema.sym_id_intern(ev, "READ"), 1);
  EXPECT_EQ(schema.sym_id(ev, "READ"), 1);
  EXPECT_EQ(schema.sym_id_intern(ev, "IDLE"), 0);
  EXPECT_EQ(schema.sym_id_intern(ev, "FLUSH"), 4);
  EXPECT_EQ(schema.sym_name(ev, 4), "FLUSH");
  EXPECT_EQ(schema.parse_value(ev, "FLUSH"), Value::of_sym(4));
  EXPECT_THROW(schema.sym_id_intern(0, "x"), std::logic_error);
  EXPECT_THROW(schema.sym_id(0, "x"), std::logic_error);
}

TEST(Schema, DefaultSymbolMustExist) {
  Schema schema;
  EXPECT_THROW(schema.add_cat("ev", {"a"}, "b"), std::invalid_argument);
}

TEST(Schema, ParseAndFormat) {
  Schema schema;
  const VarIndex x = schema.add_int("x");
  const VarIndex b = schema.add_bool("b");
  const VarIndex ev = schema.add_cat("ev", {"on", "off"}, "off");
  EXPECT_EQ(schema.parse_value(x, "-7"), Value::of_int(-7));
  EXPECT_EQ(schema.parse_value(b, "true"), Value::of_bool(true));
  EXPECT_EQ(schema.parse_value(b, "0"), Value::of_bool(false));
  EXPECT_EQ(schema.parse_value(ev, "on"), Value::of_sym(0));
  EXPECT_EQ(schema.format_value(x, Value::of_int(9)), "9");
  EXPECT_EQ(schema.format_value(b, Value::of_bool(true)), "true");
  EXPECT_EQ(schema.format_value(ev, Value::of_sym(1)), "off");
}

TEST(Schema, MalformedIntegerLiteralIsDiagnosedNotCrash) {
  // Regression: parse_value used std::stoll, so a malformed trace row
  // ("12x", "", out-of-range) crashed with an uncaught exception instead of
  // the reader's clean invalid_argument error path.
  Schema schema;
  const VarIndex x = schema.add_int("x");
  EXPECT_THROW(schema.parse_value(x, "banana"), std::invalid_argument);
  EXPECT_THROW(schema.parse_value(x, "12x"), std::invalid_argument);
  EXPECT_THROW(schema.parse_value(x, ""), std::invalid_argument);
  EXPECT_THROW(schema.parse_value(x, "99999999999999999999"), std::invalid_argument);
  // An explicit '+' sign, which stoll accepted, keeps parsing.
  EXPECT_EQ(schema.parse_value(x, "+12"), Value::of_int(12));
  EXPECT_THROW(schema.parse_value(x, "+"), std::invalid_argument);
  try {
    schema.parse_value(x, "12x");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("12x"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("x"), std::string::npos);
  }
}

TEST(Schema, ModePredicates) {
  Schema numeric;
  numeric.add_int("x");
  numeric.add_bool("b");
  EXPECT_TRUE(numeric.all_numeric());
  EXPECT_FALSE(numeric.all_categorical());

  Schema events;
  events.add_cat("ev", {"a"}, "a");
  EXPECT_TRUE(events.all_categorical());
  EXPECT_FALSE(events.all_numeric());

  Schema empty;
  EXPECT_FALSE(empty.all_numeric());
  EXPECT_FALSE(empty.all_categorical());
}

}  // namespace
}  // namespace t2m
