#include "src/trace/text_io.h"

#include <cerrno>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/util/string_utils.h"

namespace t2m {

namespace {

/// Applies one `# var <name> <type> [extra...]` declaration, already split
/// into fields with `fields[0] == "var"`.
void parse_trace_var_decl(Schema& schema, const std::vector<std::string>& fields) {
  // fields: ["var", name, type, extra...]
  if (fields.size() < 3) throw std::invalid_argument("trace: malformed '# var' line");
  const std::string& name = fields[1];
  const std::string& type = fields[2];
  if (type == "int") {
    schema.add_int(name);
  } else if (type == "bool") {
    schema.add_bool(name);
  } else if (type == "cat") {
    std::vector<std::string> symbols;
    std::optional<std::string> default_symbol;
    for (std::size_t i = 3; i < fields.size(); ++i) {
      if (starts_with(fields[i], "default=")) {
        default_symbol = fields[i].substr(8);
      } else {
        symbols.push_back(fields[i]);
      }
    }
    schema.add_cat(name, std::move(symbols), default_symbol);
  } else {
    throw std::invalid_argument("trace: unknown variable type '" + type + "'");
  }
}

}  // namespace

bool parse_trace_line(Schema& schema, std::string_view line, bool& header_done,
                      Valuation& row) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty()) return false;
  if (trimmed[0] == '#') {
    const auto fields = split_ws(trimmed.substr(1));
    if (!fields.empty() && fields[0] == "var") {
      if (header_done) {
        throw std::invalid_argument("trace: '# var' after first data row");
      }
      parse_trace_var_decl(schema, fields);
    }
    return false;
  }
  header_done = true;
  std::size_t width = 0;
  for (std::string_view rest = trimmed; !take_ws_token(rest).empty();) ++width;
  if (width != schema.size()) {
    throw std::invalid_argument("trace: row width " + std::to_string(width) +
                                " does not match schema width " +
                                std::to_string(schema.size()));
  }
  row.resize(width);
  std::string_view rest = trimmed;
  for (VarIndex i = 0; i < width; ++i) {
    const std::string_view field = take_ws_token(rest);
    if (schema.var(i).type == VarType::Cat) {
      row[i] = Value::of_sym(schema.sym_id_intern(i, field));
    } else {
      row[i] = schema.parse_value(i, field);
    }
  }
  return true;
}

Trace read_trace_text(std::istream& is) {
  Schema schema;
  std::vector<Valuation> rows;
  std::string line;
  Valuation row;
  bool header_done = false;
  while (std::getline(is, line)) {
    if (parse_trace_line(schema, line, header_done, row)) rows.push_back(row);
  }
  Trace trace(std::move(schema));
  for (auto& r : rows) trace.append(std::move(r));
  return trace;
}

Trace read_trace_file(const std::string& path) {
  errno = 0;
  std::ifstream is(path);
  if (!is) {
    throw StatusError(ErrorCode::io_error,
                      errno_message("cannot open trace file", path,
                                    errno != 0 ? errno : EIO));
  }
  return read_trace_text(is);
}

void write_trace_text(std::ostream& os, const Trace& trace) {
  const Schema& schema = trace.schema();
  os << "# t2m-trace v1\n";
  for (VarIndex i = 0; i < schema.size(); ++i) {
    const VarInfo& info = schema.var(i);
    os << "# var " << info.name << ' ';
    switch (info.type) {
      case VarType::Int: os << "int"; break;
      case VarType::Bool: os << "bool"; break;
      case VarType::Cat: {
        os << "cat";
        for (const auto& s : info.symbols) os << ' ' << s;
        if (info.default_sym) {
          os << " default=" << info.symbols[static_cast<std::size_t>(*info.default_sym)];
        }
        break;
      }
    }
    os << '\n';
  }
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const Valuation& v = trace.obs(t);
    for (VarIndex i = 0; i < schema.size(); ++i) {
      if (i > 0) os << ' ';
      os << schema.format_value(i, v[i]);
    }
    os << '\n';
  }
}

void write_trace_file(const std::string& path, const Trace& trace) {
  errno = 0;
  std::ofstream os(path);
  if (!os) {
    throw StatusError(ErrorCode::io_error,
                      errno_message("cannot open trace file for writing", path,
                                    errno != 0 ? errno : EIO));
  }
  write_trace_text(os, trace);
}

}  // namespace t2m
