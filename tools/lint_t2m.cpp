// lint_t2m: the project's convention lint engine (docs/observability.md,
// "Threads and locks"): the conventions no compiler checks — memory-order
// rationale comments, span-free lock regions, include hygiene.
//
// Rules:
//   R2 order       every non-seq_cst std::memory_order_* constant needs a
//                  "order:" rationale comment on the same line or within
//                  the 6 lines above it.
//   R3 no-span     a lock site marked "// no-span" opens a region (to the
//                  end of its enclosing block) where the tracing macros
//                  T2M_SPAN / T2M_SPAN_SCOPE / T2M_INSTANT /
//                  T2M_TRACE_COUNTER are forbidden: a span under that lock
//                  would re-enter the tracer / logger and self-deadlock or
//                  recurse.
//   R4 includes    src/ headers carry the canonical T2M_<PATH>_H guard;
//                  a src/ .cpp with a sibling .h includes it first, so
//                  every header is verified self-contained by its own
//                  translation unit.
//
// Comments, string literals, char literals and raw strings are blanked
// before token matching, so this file's own rule text trips no rule.
//
// Modes (mirroring drat_check / trace_check):
//   lint_t2m --self-test     run the embedded accept/reject fixtures
//   lint_t2m --root DIR      lint the tree rooted at DIR
// Exit: 0 clean, 1 violations found, 2 usage / IO error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;

  std::string to_string() const {
    return path + ":" + std::to_string(line) + ": [" + rule + "] " + message;
  }
};

// --- source blanking --------------------------------------------------------

/// Replaces comments, string literals, char literals and raw strings with
/// spaces, preserving newlines (so line numbers and brace structure survive).
std::string blank_noncode(const std::string& src) {
  enum class State { Code, LineComment, BlockComment, Str, Chr, RawStr };
  State state = State::Code;
  std::string out(src);
  std::string raw_terminator;  // ")delim\"" for the active raw string
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          const bool raw = i > 0 && src[i - 1] == 'R';
          if (raw) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(') delim += src[j++];
            raw_terminator = ")" + delim + "\"";
            for (std::size_t k = i; k < std::min(j + 1, src.size()); ++k) out[k] = ' ';
            i = j;
            state = State::RawStr;
          } else {
            state = State::Str;
            out[i] = ' ';
          }
        } else if (c == '\'') {
          // Not a char literal when it is a digit separator (1'000'000) or
          // part of an identifier.
          const char prev = i > 0 ? src[i - 1] : '\0';
          if (!(std::isalnum(static_cast<unsigned char>(prev)) || prev == '_')) {
            state = State::Chr;
            out[i] = ' ';
          }
        }
        break;
      case State::LineComment:
        if (c == '\n') state = State::Code;
        else out[i] = ' ';
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          state = State::Code;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Str:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::Code;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Chr:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::Code;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::RawStr:
        if (src.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (std::size_t k = 0; k < raw_terminator.size(); ++k) out[i + k] = ' ';
          i += raw_terminator.size() - 1;
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream is(text);
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True when `token` occurs in `line` delimited by non-identifier characters.
bool has_token(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const char before = pos > 0 ? line[pos - 1] : '\0';
    const std::size_t end = pos + token.size();
    const char after = end < line.size() ? line[end] : '\0';
    if (!is_word_char(before) && !is_word_char(after)) return true;
    pos += token.size();
  }
  return false;
}

// --- rules ------------------------------------------------------------------

const char* const kOrderTokens[] = {
    "memory_order_relaxed", "memory_order_acquire", "memory_order_release",
    "memory_order_acq_rel", "memory_order_consume",
};

const char* const kSpanTokens[] = {
    "T2M_SPAN", "T2M_SPAN_SCOPE", "T2M_INSTANT", "T2M_TRACE_COUNTER",
};

constexpr std::size_t kOrderCommentWindow = 6;  // lines above a memory_order use

std::string derive_guard(const std::string& path) {
  std::string guard = "T2M_";
  // src/util/log.h -> T2M_UTIL_LOG_H
  std::string tail = path.substr(4);  // drop "src/"
  tail = tail.substr(0, tail.size() - 2);  // drop ".h"
  for (char c : tail) {
    guard += c == '/' || c == '.'
                 ? '_'
                 : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return guard + "_H";
}

/// Lints one file. `path` is repo-relative with '/' separators.
/// `has_sibling_header` tells R4 whether `<stem>.h` exists next to a .cpp.
void lint_file(const std::string& path, const std::string& content,
               bool has_sibling_header, std::vector<Violation>& out) {
  const std::string blanked = blank_noncode(content);
  const std::vector<std::string> code = split_lines(blanked);
  const std::vector<std::string> raw = split_lines(content);
  const bool in_src = path.rfind("src/", 0) == 0;

  long depth = 0;                      // brace depth at the current line start
  std::vector<long> no_span_depths;    // active "// no-span" regions

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& cl = code[i];
    const std::string& rl = i < raw.size() ? raw[i] : cl;

    // R2: non-seq_cst memory orders need a nearby "order:" rationale.
    for (const char* token : kOrderTokens) {
      if (!has_token(cl, token)) continue;
      bool justified = false;
      const std::size_t first = i >= kOrderCommentWindow ? i - kOrderCommentWindow : 0;
      for (std::size_t j = first; j <= i && !justified; ++j) {
        justified = raw[j].find("order:") != std::string::npos;
      }
      if (!justified) {
        out.push_back({path, i + 1, "order-rationale",
                       std::string(token) +
                           " without an \"order:\" rationale comment on the "
                           "line or within the " +
                           std::to_string(kOrderCommentWindow) +
                           " lines above"});
      }
    }

    // R3: span macros inside a no-span lock region. Regions opened below are
    // only enforced from the next line on, so check before registering.
    if (!no_span_depths.empty()) {
      for (const char* token : kSpanTokens) {
        if (has_token(cl, token)) {
          out.push_back({path, i + 1, "span-under-lock",
                         std::string(token) +
                             " inside a \"no-span\" lock region: tracing here "
                             "re-enters the locked component"});
        }
      }
    }

    for (char c : cl) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
    if (rl.find("no-span") != std::string::npos) no_span_depths.push_back(depth);
    while (!no_span_depths.empty() && depth < no_span_depths.back()) {
      no_span_depths.pop_back();
    }

    // R4a: a src/ .cpp with a sibling header includes it first.
    if (in_src && has_sibling_header && path.size() > 4 &&
        path.compare(path.size() - 4, 4, ".cpp") == 0) {
      if (rl.rfind("#include", 0) == 0) {
        const std::string expected =
            "#include \"" + path.substr(0, path.size() - 4) + ".h\"";
        if (rl.rfind(expected, 0) != 0) {
          out.push_back({path, i + 1, "include-order",
                         "first include must be the sibling header " + expected});
        }
        has_sibling_header = false;  // only the first include is checked
      }
    }
  }

  // R4b: src/ headers carry the canonical include guard.
  if (in_src && path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0) {
    const std::string guard = derive_guard(path);
    bool ifndef_ok = false;
    bool define_ok = false;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].rfind("#ifndef " + guard, 0) == 0) {
        ifndef_ok = true;
        if (i + 1 < raw.size() && raw[i + 1].rfind("#define " + guard, 0) == 0) {
          define_ok = true;
        }
        break;
      }
    }
    if (!ifndef_ok || !define_ok) {
      out.push_back({path, 1, "include-guard",
                     "header must open with the canonical guard #ifndef " + guard +
                         " / #define " + guard});
    }
  }
}

// --- tree mode --------------------------------------------------------------

bool has_lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h";
}

int lint_tree(const fs::path& root) {
  if (!fs::is_directory(root)) {
    std::cerr << "lint_t2m: not a directory: " << root << "\n";
    return 2;
  }
  std::vector<Violation> violations;
  std::size_t files = 0;
  for (const char* dir : {"src", "tests", "tools", "bench", "examples"}) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && has_lintable_extension(entry.path())) {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths) {
      std::ifstream in(p, std::ios::binary);
      if (!in) {
        std::cerr << "lint_t2m: cannot read " << p << "\n";
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string rel = fs::relative(p, root).generic_string();
      fs::path sibling = p;
      sibling.replace_extension(".h");
      lint_file(rel, buf.str(), p.extension() == ".cpp" && fs::exists(sibling),
                violations);
      ++files;
    }
  }
  for (const Violation& v : violations) std::cout << v.to_string() << "\n";
  std::cout << "lint_t2m: " << files << " files, " << violations.size()
            << " violation(s)\n";
  return violations.empty() ? 0 : 1;
}

// --- self test --------------------------------------------------------------

struct Fixture {
  const char* name;
  const char* path;
  bool has_sibling_header;
  const char* content;
  /// Substring each expected violation message must contain; empty = accept.
  std::vector<std::string> expect_rules;
};

int self_test() {
  const std::vector<Fixture> fixtures = {
      {"accept_token_in_string_or_comment", "src/x/a.cpp", false,
       "// a std::memory_order_relaxed mentioned in prose is fine\n"
       "const char* s = \"std::memory_order_relaxed\";\n",
       {}},
      {"reject_naked_relaxed", "src/x/a.cpp", false,
       "int f() { return x.load(std::memory_order_relaxed); }\n",
       {"order-rationale"}},
      {"accept_commented_relaxed", "src/x/a.cpp", false,
       "int f() {\n"
       "  // order: relaxed — isolated statistic, no payload.\n"
       "  return x.load(std::memory_order_relaxed);\n"
       "}\n",
       {}},
      {"reject_comment_out_of_window", "src/x/a.cpp", false,
       "// order: relaxed — too far away to count.\n"
       "//\n//\n//\n//\n//\n//\n"
       "int f() { return x.load(std::memory_order_relaxed); }\n",
       {"order-rationale"}},
      {"accept_seq_cst_unadorned", "src/x/a.cpp", false,
       "int f() { return x.load(std::memory_order_seq_cst); }\n",
       {}},
      {"reject_span_in_no_span_region", "src/x/a.cpp", false,
       "void f() {\n"
       "  const std::lock_guard<std::mutex> lock(mu);  // no-span\n"
       "  T2M_SPAN(\"oops\");\n"
       "}\n",
       {"span-under-lock"}},
      {"accept_span_after_no_span_region", "src/x/a.cpp", false,
       "void f() {\n"
       "  {\n"
       "    const std::lock_guard<std::mutex> lock(mu);  // no-span\n"
       "  }\n"
       "  T2M_SPAN(\"fine: the lock scope is closed\");\n"
       "}\n",
       {}},
      {"reject_counter_in_nested_block", "src/x/a.cpp", false,
       "void f() {\n"
       "  const std::lock_guard<std::mutex> lock(mu);  // no-span\n"
       "  if (cond) {\n"
       "    T2M_TRACE_COUNTER(\"oops\", 1);\n"
       "  }\n"
       "}\n",
       {"span-under-lock"}},
      {"reject_missing_guard", "src/x/b.h", false,
       "#pragma once\n"
       "int f();\n",
       {"include-guard"}},
      {"accept_canonical_guard", "src/x/b.h", false,
       "#ifndef T2M_X_B_H\n"
       "#define T2M_X_B_H\n"
       "int f();\n"
       "#endif  // T2M_X_B_H\n",
       {}},
      {"reject_wrong_first_include", "src/x/b.cpp", true,
       "#include <vector>\n"
       "#include \"src/x/b.h\"\n",
       {"include-order"}},
      {"accept_sibling_header_first", "src/x/b.cpp", true,
       "#include \"src/x/b.h\"\n"
       "#include <vector>\n",
       {}},
  };

  int failures = 0;
  for (const Fixture& f : fixtures) {
    std::vector<Violation> got;
    lint_file(f.path, f.content, f.has_sibling_header, got);
    bool ok = got.size() == f.expect_rules.size();
    if (ok) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ok = ok && got[i].rule == f.expect_rules[i];
      }
    }
    if (!ok) {
      ++failures;
      std::cout << "FAIL " << f.name << ": expected " << f.expect_rules.size()
                << " violation(s), got " << got.size() << "\n";
      for (const Violation& v : got) std::cout << "  " << v.to_string() << "\n";
    } else {
      std::cout << "ok   " << f.name << "\n";
    }
  }
  std::cout << "lint_t2m self-test: " << (fixtures.size() - failures) << "/"
            << fixtures.size() << " fixtures passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--self-test") return self_test();
  if (args.size() == 2 && args[0] == "--root") return lint_tree(args[1]);
  std::cerr << "usage: lint_t2m --self-test | lint_t2m --root DIR\n";
  return 2;
}
